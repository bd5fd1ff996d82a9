//! The ingestion layer's equivalence net: streamed == materialized,
//! byte for byte, for every workload generator and for full system runs.
//!
//! Three layers of guarantees:
//!
//! 1. **Generator equivalence** — every [`OpSource`] (each generator, the
//!    tempo reshaper and a replayed [`Trace`]) drained into a [`Trace`] is
//!    byte-identical to its materialized reference, stays exhausted once
//!    drained, and a clone taken before draining replays the identical
//!    sequence (the clone contract).
//! 2. **System equivalence** — a single-feed [`GrubSystem`] run driven by a
//!    source mines the byte-identical chain (`chain_digest`) a trace-driven
//!    run mines.
//! 3. **Combinator laws** — the tempo reshaper preserves op content while
//!    moving arrival timing.

use grub::core::policy::PolicyKind;
use grub::core::system::{GrubSystem, SystemConfig};
use grub::workload::btcrelay::BtcRelayTrace;
use grub::workload::oracle::OracleTrace;
use grub::workload::ratio::{MultiKeyRatio, RatioWorkload};
use grub::workload::source::{OpSource, PeekableSource};
use grub::workload::tempo::{ReadTempo, TempoSource};
use grub::workload::ycsb::{YcsbKind, YcsbRunner};
use grub::workload::Trace;

/// Test-side reference for [`TempoSource`]: reorders each `window`-op
/// chunk of `plain` — bursty puts a chunk's reads after its writes,
/// uniform lets read `j` of `R` follow write `w` of `W` once `j < w·R/W`.
fn reshape(plain: &Trace, tempo: ReadTempo, window: usize) -> Trace {
    let mut out = Vec::new();
    for chunk in plain.ops.chunks(window) {
        let (writes, reads): (Vec<_>, Vec<_>) = chunk.iter().cloned().partition(|o| o.is_write());
        match tempo {
            ReadTempo::Bursty => out.extend(writes.into_iter().chain(reads)),
            ReadTempo::Uniform => {
                let (w_total, r_total) = (writes.len(), reads.len());
                let mut reads = reads.into_iter();
                for (w, write) in writes.into_iter().enumerate() {
                    out.push(write);
                    let due = (w + 1) * r_total / w_total;
                    out.extend(reads.by_ref().take(due - (w * r_total / w_total)));
                }
                out.extend(reads);
            }
        }
    }
    Trace { ops: out }
}

/// Every [`OpSource`] implementation, as `(name, source, materialized
/// reference trace)`: each generator against its `generate()`, the tempo
/// reshaper against [`reshape`], and a [`Trace`] replayed as a stream.
fn all_generators() -> Vec<(&'static str, Box<dyn OpSource>, Trace)> {
    let ratio = RatioWorkload::new("r", 4.0).seed(5);
    let mix = MultiKeyRatio::new(vec![
        ("hot".into(), 16.0),
        ("cold".into(), 0.125),
        ("warm".into(), 1.0),
    ])
    .seed(7);
    let oracle = OracleTrace::new().writes(150).assets(2).seed(9);
    let btc = BtcRelayTrace::new()
        .blocks(300)
        .boost_reads(100..200, 3.0)
        .seed(11);
    let ycsb_phases = vec![(YcsbKind::A, 100), (YcsbKind::F, 100), (YcsbKind::E, 50)];
    let mut ycsb_runner = YcsbRunner::new(128, 32, 13);
    let ycsb_trace = {
        let mut t = Trace::new();
        for &(kind, ops) in &ycsb_phases {
            t.extend(ycsb_runner.generate(kind, ops));
        }
        t
    };
    vec![
        ("ratio", Box::new(ratio.source(24)), ratio.generate(24)),
        ("ratio-mix", Box::new(mix.source(10)), mix.generate(10)),
        ("oracle", Box::new(oracle.source()), oracle.generate()),
        ("btcrelay", Box::new(btc.source()), btc.generate()),
        (
            "ycsb",
            Box::new(YcsbRunner::new(128, 32, 13).into_source(ycsb_phases)),
            ycsb_trace,
        ),
        (
            "tempo-bursty",
            Box::new(TempoSource::new(
                Box::new(mix.source(10)),
                ReadTempo::Bursty,
                16,
            )),
            reshape(&mix.generate(10), ReadTempo::Bursty, 16),
        ),
        (
            "tempo-uniform",
            Box::new(TempoSource::new(
                Box::new(mix.source(10)),
                ReadTempo::Uniform,
                16,
            )),
            reshape(&mix.generate(10), ReadTempo::Uniform, 16),
        ),
        (
            "trace",
            Box::new(oracle.generate().into_source()),
            oracle.generate(),
        ),
    ]
}

/// Layer 1: streamed == materialized for every source, an exhausted
/// source stays exhausted, and a clone taken before draining replays the
/// stream byte for byte.
#[test]
fn every_generator_source_is_byte_identical_to_generate() {
    for (name, mut source, legacy) in all_generators() {
        let mut replay = source.clone_box();
        let streamed = Trace::from_source(&mut source);
        assert_eq!(streamed, legacy, "{name}: streamed != generate()");
        assert!(
            !streamed.ops.is_empty(),
            "{name}: equivalence on an empty trace proves nothing"
        );
        for _ in 0..3 {
            assert_eq!(source.next_op(), None, "{name}: resumed after None");
        }
        let replayed = Trace::from_source(&mut replay);
        assert_eq!(replayed, legacy, "{name}: clone replay diverged");
    }
}

/// Layer 1b: a source cloned mid-stream continues exactly where the
/// original would, and the original is unaffected — what lets schedulers
/// materialize (`FeedSpec::materialized`) without perturbing the feed.
#[test]
fn mid_stream_clones_fork_without_interference() {
    for (name, mut source, legacy) in all_generators() {
        let skip = legacy.ops.len() / 3;
        for _ in 0..skip {
            source.next_op();
        }
        let mut fork = source.clone_box();
        let from_fork = Trace::from_source(&mut fork);
        let from_original = Trace::from_source(&mut source);
        assert_eq!(from_fork, from_original, "{name}: fork diverged");
        assert_eq!(
            from_original.ops[..],
            legacy.ops[skip..],
            "{name}: tail after fork mismatch"
        );
    }
}

/// Layer 1c: the one-op lookahead wrapper used by the engine's scheduler
/// is transparent — wrapping any generator changes nothing.
#[test]
fn peekable_wrapper_is_transparent_for_every_generator() {
    for (name, source, legacy) in all_generators() {
        let mut peek = PeekableSource::new(source);
        assert_eq!(peek.is_exhausted(), legacy.ops.is_empty(), "{name}");
        assert_eq!(Trace::from_source(&mut peek), legacy, "{name}");
        assert!(peek.is_exhausted(), "{name}");
    }
}

/// Layer 2: a generator-driven single-feed run mines the byte-identical
/// chain a replay of its materialized trace mines — across policies — and
/// the trailing partial epoch is closed, not dropped.
#[test]
fn system_runs_from_sources_match_trace_runs_byte_for_byte() {
    let mix = MultiKeyRatio::new(vec![("a".into(), 8.0), ("b".into(), 0.5)]).seed(17);
    // 11 cycles of (1+8) + (2+1) = 12 ops → 132 ops: four full 32-op epochs
    // plus a trailing partial epoch of 4.
    for policy in [
        PolicyKind::Bl1,
        PolicyKind::Bl2,
        PolicyKind::Memoryless { k: 2 },
        PolicyKind::SelfTuning { window: 16 },
    ] {
        let cfg = SystemConfig::new(policy.clone());
        let mut trace_run = GrubSystem::new(&cfg).expect("build");
        trace_run
            .drive(&mut mix.generate(11).into_source())
            .expect("trace run");
        let mut source_run = GrubSystem::new(&cfg).expect("build");
        source_run.drive(&mut mix.source(11)).expect("source run");
        assert_eq!(
            trace_run.chain().chain_digest(),
            source_run.chain().chain_digest(),
            "{policy:?}: source-driven chain diverged from trace-driven"
        );
        let reports = source_run.driver().reports();
        assert_eq!(reports.len(), 5, "{policy:?}");
        assert_eq!(reports.last().map(|e| e.ops), Some(4), "{policy:?}");
    }
}

/// Layer 3: tempo combinators preserve content (same writes in the same
/// order, same read multiset) while provably moving arrival timing.
#[test]
fn tempo_variants_preserve_content_but_change_timing() {
    let mk_inner = || MultiKeyRatio::new(vec![("x".into(), 4.0), ("y".into(), 1.0)]).source(12);
    let plain = Trace::from_source(&mut mk_inner());
    let mut bursty = TempoSource::new(Box::new(mk_inner()), ReadTempo::Bursty, 16);
    let mut uniform = TempoSource::new(Box::new(mk_inner()), ReadTempo::Uniform, 16);
    let bursty = Trace::from_source(&mut bursty);
    let uniform = Trace::from_source(&mut uniform);
    for (label, shaped) in [("bursty", &bursty), ("uniform", &uniform)] {
        assert_eq!(shaped.ops.len(), plain.ops.len(), "{label}");
        assert_eq!(shaped.write_count(), plain.write_count(), "{label}");
        let writes = |t: &Trace| {
            t.ops
                .iter()
                .filter(|o| o.is_write())
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(writes(shaped), writes(&plain), "{label}: write order moved");
    }
    assert_ne!(
        bursty, uniform,
        "the two tempos must produce different arrival orders"
    );
}
