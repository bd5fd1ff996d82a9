//! Read-arrival *tempo* combinators: reshape when a stream's reads arrive
//! without changing what is read or written.
//!
//! The paper's two case studies replay reads at live tempo (one consumer
//! transaction per block), where *when* a read lands changes what the
//! monitor has observed by then — so the same read/write mix behaves
//! differently when reads arrive as a burst after a quiet spell versus
//! evenly spread. [`TempoSource`] expresses both shapes as a windowed
//! combinator over any inner [`OpSource`]: it buffers one window of
//! operations, reorders the reads within it, and streams the window out —
//! O(window) resident state, so an unbounded inner stream stays unbounded.
//!
//! The combinator permutes arrival order only *within* a window: every
//! operation of window `w` is emitted before any operation of window
//! `w + 1`, writes keep their relative order, and reads keep theirs — only
//! the read/write interleaving moves.

use crate::source::OpSource;
use crate::Op;

/// How a window's reads are re-timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadTempo {
    /// All of a window's reads arrive in one burst after its writes — the
    /// quiet-then-burst shape of the BtcRelay mint/burn trace.
    Bursty,
    /// A window's reads are spread as evenly as possible between its
    /// writes — the steady drip of a polling consumer.
    Uniform,
}

/// A windowed read-tempo reshaper over any [`OpSource`] (see the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub struct TempoSource {
    inner: Box<dyn OpSource>,
    tempo: ReadTempo,
    window: usize,
    /// The reordered current window, drained from the front.
    buffer: std::collections::VecDeque<Op>,
}

impl TempoSource {
    /// Wraps `inner`, reshaping read arrivals per `tempo` over windows of
    /// `window` operations (clamped to ≥ 1).
    pub fn new(inner: Box<dyn OpSource>, tempo: ReadTempo, window: usize) -> Self {
        TempoSource {
            inner,
            tempo,
            window: window.max(1),
            buffer: std::collections::VecDeque::new(),
        }
    }

    fn refill(&mut self) {
        let mut writes: Vec<Op> = Vec::new();
        let mut reads: Vec<Op> = Vec::new();
        for _ in 0..self.window {
            match self.inner.next_op() {
                Some(op) if op.is_write() => writes.push(op),
                Some(op) => reads.push(op),
                None => break,
            }
        }
        match self.tempo {
            ReadTempo::Bursty => {
                self.buffer.extend(writes);
                self.buffer.extend(reads);
            }
            ReadTempo::Uniform => {
                if writes.is_empty() {
                    self.buffer.extend(reads);
                    return;
                }
                // Spread the reads evenly: after write w (1-based), all
                // reads with index ≤ w·R/W have arrived.
                let (w_total, r_total) = (writes.len(), reads.len());
                let mut reads = reads.into_iter();
                let mut emitted_reads = 0usize;
                for (w, write) in writes.into_iter().enumerate() {
                    self.buffer.push_back(write);
                    let due = (w + 1) * r_total / w_total;
                    while emitted_reads < due {
                        // grub-lint: allow(panic) — due = (w+1)·r/w ≤ r_total, so the reads iterator cannot run dry
                        let read = reads.next().expect("due ≤ total reads");
                        self.buffer.push_back(read);
                        emitted_reads += 1;
                    }
                }
                self.buffer.extend(reads);
            }
        }
    }
}

impl OpSource for TempoSource {
    fn next_op(&mut self) -> Option<Op> {
        if self.buffer.is_empty() {
            self.refill();
        }
        self.buffer.pop_front()
    }

    fn clone_box(&self) -> Box<dyn OpSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::RatioWorkload;
    use crate::Trace;

    fn shape(trace: &Trace) -> String {
        trace
            .ops
            .iter()
            .map(|o| if o.is_write() { 'W' } else { 'R' })
            .collect()
    }

    #[test]
    fn bursty_defers_reads_to_the_window_end() {
        // Inner stream: (W R R R R) × 4; window 10 spans two cycles.
        let inner = RatioWorkload::new("k", 4.0).source(4);
        let mut tempo = TempoSource::new(Box::new(inner), ReadTempo::Bursty, 10);
        let mut replay = tempo.clone_box();
        let trace = Trace::from_source(&mut tempo);
        assert_eq!(shape(&trace), "WWRRRRRRRRWWRRRRRRRR");
        // Same multiset of ops, reads just re-timed.
        let plain = RatioWorkload::new("k", 4.0).generate(4);
        assert_eq!(trace.write_count(), plain.write_count());
        assert_eq!(trace.read_count(), plain.read_count());
        // A clone taken before draining replays the stream.
        assert_eq!(Trace::from_source(&mut replay), trace);
    }

    #[test]
    fn uniform_spreads_a_read_burst_evenly() {
        // Inner stream: 2 writes then 8 reads per window of 10.
        let inner = RatioWorkload::new("k", 4.0).source(4);
        let mut tempo = TempoSource::new(Box::new(inner), ReadTempo::Uniform, 10);
        let mut replay = tempo.clone_box();
        let trace = Trace::from_source(&mut tempo);
        assert_eq!(shape(&trace), "WRRRRWRRRRWRRRRWRRRR");
        assert_eq!(Trace::from_source(&mut replay), trace);
    }

    #[test]
    fn tempo_preserves_op_content_and_write_order() {
        let plain = RatioWorkload::new("k", 2.0).seed(5).generate(9);
        for tempo_kind in [ReadTempo::Bursty, ReadTempo::Uniform] {
            let inner = RatioWorkload::new("k", 2.0).seed(5).source(9);
            let mut tempo = TempoSource::new(Box::new(inner), tempo_kind, 8);
            let shaped = Trace::from_source(&mut tempo);
            assert_eq!(shaped.ops.len(), plain.ops.len());
            let writes = |t: &Trace| {
                t.ops
                    .iter()
                    .filter(|o| o.is_write())
                    .cloned()
                    .collect::<Vec<_>>()
            };
            assert_eq!(writes(&shaped), writes(&plain), "{tempo_kind:?}");
        }
    }

    #[test]
    fn window_of_one_is_the_identity() {
        let plain = RatioWorkload::new("k", 4.0).generate(6);
        let inner = RatioWorkload::new("k", 4.0).source(6);
        let mut tempo = TempoSource::new(Box::new(inner), ReadTempo::Bursty, 1);
        assert_eq!(Trace::from_source(&mut tempo), plain);
    }

    #[test]
    fn read_only_and_write_only_streams_pass_through() {
        for ratio in [0.0, 64.0] {
            let plain = RatioWorkload::new("k", ratio).generate(3);
            for tempo_kind in [ReadTempo::Bursty, ReadTempo::Uniform] {
                let inner = RatioWorkload::new("k", ratio).source(3);
                let mut tempo = TempoSource::new(Box::new(inner), tempo_kind, 16);
                let shaped = Trace::from_source(&mut tempo);
                assert_eq!(shaped.write_count(), plain.write_count());
                assert_eq!(shaped.read_count(), plain.read_count());
            }
        }
    }
}
