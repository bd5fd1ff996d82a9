//! The pull-based ingestion layer: [`OpSource`], the workspace-wide
//! contract for streaming operations into the system.
//!
//! The paper's online policies (§4) are defined over an *unbounded* stream
//! of reads and writes, but a materialized [`Trace`] caps experiment length
//! at available memory. An [`OpSource`] inverts the dataflow: consumers
//! *pull* one operation at a time from a seeded deterministic generator, so
//! a million-op (or endless) workload runs at O(1) trace-side memory —
//! only the generator's own bounded state is resident.
//!
//! # The contract
//!
//! Every implementation must be
//!
//! * **deterministic** — the emitted sequence is a pure function of the
//!   generator's construction parameters (seed included). No wall clock, no
//!   global state;
//! * **cloneable** — [`OpSource::clone_box`] snapshots the source *at its
//!   current position*, and the fork and the original then advance
//!   independently. A clone taken before draining replays the stream
//!   byte for byte (asserted for every generator in `tests/streaming.rs`);
//!   it is how a consumer materializes a copy without consuming the feed.
//!
//! [`Trace`] remains the materialized view for algorithms that genuinely
//! need the whole sequence up front (the offline-optimal reference) and for
//! hand-built test inputs; it enters the system as a source like everything
//! else: [`Trace::from_source`] drains a source into a vector,
//! [`Trace::into_source`] / [`Trace::source`] replay a vector as a stream.

use crate::{Op, Trace};

/// A pull-based, seeded, deterministic stream of feed operations.
///
/// See the [module docs](self) for the determinism/clone contract.
pub trait OpSource: std::fmt::Debug {
    /// Produces the next operation, or `None` once the stream is exhausted.
    /// After returning `None`, every further call returns `None`.
    fn next_op(&mut self) -> Option<Op>;

    /// Clones the source — including its current position — behind a fresh
    /// box. (Object-safe stand-in for `Clone`.)
    fn clone_box(&self) -> Box<dyn OpSource>;
}

impl Clone for Box<dyn OpSource> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl OpSource for Box<dyn OpSource> {
    fn next_op(&mut self) -> Option<Op> {
        (**self).next_op()
    }

    fn clone_box(&self) -> Box<dyn OpSource> {
        (**self).clone_box()
    }
}

/// A materialized [`Trace`] replayed as a stream — how a vector of
/// operations enters the ingestion layer. Each op is handed out by move.
#[derive(Clone, Debug)]
pub struct TraceSource {
    ops: std::vec::IntoIter<Op>,
}

impl TraceSource {
    /// Wraps a trace; the stream starts at its first operation.
    pub fn new(trace: Trace) -> Self {
        TraceSource {
            ops: trace.ops.into_iter(),
        }
    }
}

impl OpSource for TraceSource {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.next()
    }

    fn clone_box(&self) -> Box<dyn OpSource> {
        Box::new(self.clone())
    }
}

/// A one-op-lookahead wrapper giving any boxed source a *non-consuming*
/// exhaustion test — what round-based schedulers need to decide "does this
/// feed still have work?" without advancing the stream past the answer.
///
/// The lookahead op is part of the stream, not a copy: [`next_op`] hands it
/// out first and refills from the inner source.
///
/// [`next_op`]: OpSource::next_op
#[derive(Clone, Debug)]
pub struct PeekableSource {
    inner: Box<dyn OpSource>,
    lookahead: Option<Op>,
}

impl PeekableSource {
    /// Wraps a source, immediately pulling the first op into the lookahead.
    pub fn new(mut inner: Box<dyn OpSource>) -> Self {
        let lookahead = inner.next_op();
        PeekableSource { inner, lookahead }
    }

    /// Whether the stream has no operations left — `&self`, does not
    /// consume.
    pub fn is_exhausted(&self) -> bool {
        self.lookahead.is_none()
    }

    /// The next operation without consuming it.
    pub fn peek(&self) -> Option<&Op> {
        self.lookahead.as_ref()
    }
}

impl OpSource for PeekableSource {
    fn next_op(&mut self) -> Option<Op> {
        let out = self.lookahead.take()?;
        self.lookahead = self.inner.next_op();
        Some(out)
    }

    fn clone_box(&self) -> Box<dyn OpSource> {
        Box::new(self.clone())
    }
}

impl Trace {
    /// Drains a source to exhaustion into a materialized trace.
    ///
    /// The adapter direction used by every legacy `generate()`: the
    /// streaming source is the single implementation, and the vector API is
    /// a view over it — which is what makes streamed and materialized runs
    /// byte-identical by construction.
    pub fn from_source(source: &mut dyn OpSource) -> Trace {
        std::iter::from_fn(|| source.next_op()).collect()
    }

    /// Replays this trace as a stream (the other adapter direction).
    pub fn into_source(self) -> TraceSource {
        TraceSource::new(self)
    }

    /// Replays a copy of this trace as a stream, for callers that keep
    /// using the trace afterwards.
    pub fn source(&self) -> TraceSource {
        self.clone().into_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueSpec;

    fn sample_trace() -> Trace {
        Trace {
            ops: vec![
                Op::Write {
                    key: "a".into(),
                    value: ValueSpec::new(8, 1),
                },
                Op::Read { key: "a".into() },
                Op::Read { key: "a".into() },
            ],
        }
    }

    #[test]
    fn op_source_is_object_safe() {
        let mut boxed: Box<dyn OpSource> = Box::new(sample_trace().into_source());
        assert!(boxed.next_op().is_some());
    }

    #[test]
    fn trace_round_trips_through_source() {
        let trace = sample_trace();
        let mut source = trace.clone().into_source();
        let back = Trace::from_source(&mut source);
        assert_eq!(back, trace);
        assert_eq!(source.next_op(), None, "exhausted stays exhausted");
    }

    #[test]
    fn clone_box_snapshots_position() {
        let mut source = sample_trace().into_source();
        source.next_op();
        let mut fork = source.clone_box();
        let forked = Trace::from_source(&mut fork);
        assert_eq!(forked.ops, sample_trace().ops[1..]);
        // The original is unaffected by the fork's progress.
        assert_eq!(Trace::from_source(&mut source), forked);
    }

    #[test]
    fn peekable_exhaustion_is_non_consuming() {
        let mut peek = PeekableSource::new(Box::new(sample_trace().into_source()));
        assert!(!peek.is_exhausted());
        assert_eq!(peek.peek(), sample_trace().ops.first());
        let mut replay = peek.clone();
        let drained = Trace::from_source(&mut peek);
        assert_eq!(drained, sample_trace());
        assert!(peek.is_exhausted());
        assert!(!replay.is_exhausted());
        assert_eq!(Trace::from_source(&mut replay), sample_trace());
    }
}
