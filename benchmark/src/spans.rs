//! The in-memory span recorder of the traced run.
//!
//! A span is one timed call into a layer's public API, recorded from the
//! harness side of the boundary: `{name, start_ns, end_ns, parent, round,
//! feed}`. Spans stay in memory while the run is measured and are written
//! out as JSON lines afterwards. A span's *self time* is its duration minus
//! the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// `feed` value of a span that belongs to a whole round.
pub const NO_FEED: usize = usize::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub round: usize,
    pub feed: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it must be closed with [`Recorder::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        round: usize,
        feed: usize,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
            feed,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &std::path::Path, feeds: &[String]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let feed = match feeds.get(span.feed) {
                Some(name) => format!("\"{name}\""),
                None => "null".to_owned(),
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{},\"feed\":{feed}}}",
                span.name, span.start_ns, span.end_ns, span.round
            )?;
        }
        out.flush()
    }
}

/// Total duration, total self time and call count of the spans sharing a
/// name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the summed durations of its
/// direct children. (The harness is single-threaded and its spans nest
/// properly, so children never overlap each other or outlive the parent;
/// the subtraction saturates rather than trusting that.)
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            out[parent] = out[parent].saturating_sub(span.duration_ns());
        }
    }
    out
}

/// Per-name totals, keyed by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
            feed: NO_FEED,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("ingest", 5, 15, Some(0)),
            span("stage_update", 15, 75, Some(0)),
            span("flush", 20, 50, Some(2)),
            span("book", 80, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 10 - 60 - 15, 10, 30, 30, 15]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["round"],
            NameTotals {
                calls: 1,
                total_ns: 100,
                self_ns: 15
            }
        );
        assert_eq!(totals["stage_update"].self_ns, 30);
        // Self times partition the root: they sum to its duration.
        let sum: u64 = self_times(&spans).iter().sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn totals_accumulate_across_rounds() {
        let spans = vec![
            span("round", 0, 10, None),
            span("ingest", 1, 4, Some(0)),
            span("round", 10, 30, None),
            span("ingest", 12, 20, Some(2)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["round"].calls, 2);
        assert_eq!(totals["round"].total_ns, 30);
        assert_eq!(totals["round"].self_ns, 7 + 12);
        assert_eq!(totals["ingest"].total_ns, 11);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut rec = Recorder::new();
        let round = rec.begin("round", None, 3, NO_FEED);
        let child = rec.begin("ingest", Some(round), 3, 1);
        rec.end(child);
        rec.end(round);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].round, spans[1].feed), (3, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn overlong_children_saturate_instead_of_underflowing() {
        let spans = vec![span("round", 0, 10, None), span("x", 0, 12, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }
}
