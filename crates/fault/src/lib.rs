//! Named crash-point fault injection.
//!
//! The recovery contract this workspace tests is "a run killed at an
//! arbitrary pipeline point must recover to a chain and store state
//! byte-identical to an uninterrupted run". To exercise it, the pipeline
//! (engine scheduler, storage provider, LSM store) is threaded with *named
//! crash points*: cheap probes that normally answer "keep going" and, when a
//! [`FaultPlan`] is armed for that point, answer "die here" exactly once.
//!
//! The armed plan is thread-local: the whole pipeline runs on the thread
//! that drives it, so a plan armed by one test can only trip in that test's
//! own pipeline, however many crash tests the harness runs concurrently.
//!
//! A plan trips **once** and disarms itself: the recovery run that follows
//! the simulated crash re-executes the same pipeline and must not die at the
//! same point again.
//!
//! The `GRUB_FAULT_POINT=point[:n]` environment knob arms a plan from the
//! command line (see [`plan_from_env`]): `point` is one of the
//! [`FaultPoint::name`] strings, `n` the number of hits to survive before
//! tripping (default 0 — die on the first hit).
//!
//! As the leaf crate the chain, the engine and the store all depend on, this
//! is also where the workspace's one knob reader lives: [`knob`] reads a
//! `GRUB_*` variable (unset, empty and `0` are "off") and [`KnobError`] is
//! what every knob's parser returns for a value outside its grammar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;

/// A named crash point in the stage-and-commit pipeline.
///
/// The engine's round stages and commits feeds in *groups* — one per shard
/// when batching, one per feed when not — one group after the other, and
/// crosses the first three points in every batching rung: `PostStage` per
/// group, `MidShardCommit` between groups and `PostWriteBlock` after each
/// shard write block (an unbatched group has none).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// After one group's off-chain staging (policy flush, SP sync, section
    /// encoding) completes, before the group's blocks reach the chain. Its
    /// first crossing in a round leaves one group staged and nothing of the
    /// round committed.
    PostStage,
    /// Between two groups within one round — the previous group's blocks
    /// are mined, the next group is not staged, the rest never happen.
    MidShardCommit,
    /// After a shard's batched `update` block is mined, before its read
    /// phase runs.
    PostWriteBlock,
    /// Mid WAL append: half a frame reaches the log, then the process dies.
    MidWalAppend,
    /// Mid SSTable flush: a partial table file exists, never finished or
    /// renamed into place.
    MidSstableFlush,
    /// Mid chain reorg: the fork branch has been rolled back, but the
    /// canonical branch has not been re-committed yet — the process dies
    /// with the chain consistent at the rollback target height.
    MidReorgRollback,
    /// Mid transaction resubmission: the canonical branch has been fully
    /// re-committed after a rollback, but the fork's pending transactions
    /// have not re-entered the mempool yet — the process dies with the
    /// chain consistent at the original tip and the pending set lost.
    MidResubmission,
}

impl FaultPoint {
    /// Every named crash point, in pipeline order.
    pub const ALL: [FaultPoint; 7] = [
        FaultPoint::PostStage,
        FaultPoint::MidShardCommit,
        FaultPoint::PostWriteBlock,
        FaultPoint::MidWalAppend,
        FaultPoint::MidSstableFlush,
        FaultPoint::MidReorgRollback,
        FaultPoint::MidResubmission,
    ];

    /// The knob/display name of the point.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::PostStage => "post-stage",
            FaultPoint::MidShardCommit => "mid-shard-commit",
            FaultPoint::PostWriteBlock => "post-write-block",
            FaultPoint::MidWalAppend => "mid-wal-append",
            FaultPoint::MidSstableFlush => "mid-sstable-flush",
            FaultPoint::MidReorgRollback => "mid-reorg-rollback",
            FaultPoint::MidResubmission => "mid-resubmission",
        }
    }

    /// Parses a knob name back into a point.
    pub fn parse(name: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An armed crash: die at `point` after surviving `after` earlier hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Where to die.
    pub point: FaultPoint,
    /// How many hits of `point` to survive first (0 = die on the first).
    pub after: u32,
}

impl FaultPlan {
    /// A plan that dies on the first hit of `point`.
    pub fn at(point: FaultPoint) -> Self {
        FaultPlan { point, after: 0 }
    }

    /// A plan that survives `after` hits of `point` before dying.
    pub fn nth(point: FaultPoint, after: u32) -> Self {
        FaultPlan { point, after }
    }
}

thread_local! {
    static ARMED: Cell<Option<FaultPlan>> = const { Cell::new(None) };
}

/// Arms a crash plan on the calling thread, replacing any previous one.
pub fn arm(plan: FaultPlan) {
    ARMED.set(Some(plan));
}

/// Disarms, returning the plan that was pending (if any) — a tripped plan
/// has already disarmed itself and returns `None` here.
pub fn disarm() -> Option<FaultPlan> {
    ARMED.take()
}

/// Whether a plan is currently armed (and has not yet tripped).
pub fn is_armed() -> bool {
    ARMED.get().is_some()
}

/// The pipeline probe: `true` exactly when the armed plan names `point` and
/// its countdown has expired — the caller must then abort as if the process
/// died here. Tripping disarms the plan, so the recovery run sails through.
pub fn should_trip(point: FaultPoint) -> bool {
    match ARMED.get() {
        Some(plan) if plan.point == point => {
            if plan.after == 0 {
                ARMED.set(None);
                true
            } else {
                ARMED.set(Some(FaultPlan::nth(point, plan.after - 1)));
                false
            }
        }
        _ => false,
    }
}

/// A `GRUB_*` environment knob set to a value outside its accepted set: a
/// typo must fail the run, never silently select a different scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnobError {
    /// The environment variable.
    pub name: &'static str,
    /// The rejected value, as found in the environment.
    pub raw: String,
    /// The accepted values.
    pub want: String,
}

impl KnobError {
    /// The error for knob `name` holding `raw` where `want` is accepted.
    pub fn new(name: &'static str, raw: &str, want: impl Into<String>) -> Self {
        let (raw, want) = (raw.to_owned(), want.into());
        KnobError { name, raw, want }
    }
}

impl std::fmt::Display for KnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?}: expected {}", self.name, self.raw, self.want)
    }
}

impl std::error::Error for KnobError {}

/// Reads the environment knob `name`, trimmed: `None` — the knob is off —
/// when it is unset, empty or `0`. Every `GRUB_*` knob the library crates
/// honour is read here (clippy bans `env::var` everywhere else), and each
/// has a pure parser from the returned text to its typed value.
#[expect(
    clippy::disallowed_methods,
    reason = "the one place the library crates read the environment"
)]
pub fn knob(name: &'static str) -> Option<String> {
    let raw = std::env::var_os(name)?;
    let raw = raw.to_string_lossy();
    let raw = raw.trim();
    (!raw.is_empty() && raw != "0").then(|| raw.to_owned())
}

/// Parses a `GRUB_FAULT_POINT` value, `<point>[:<n>]`: die at `point` (a
/// [`FaultPoint::name`]) after surviving `n` earlier hits (default 0).
fn parse_plan(raw: &str) -> Result<FaultPlan, KnobError> {
    let bad = || KnobError::new("GRUB_FAULT_POINT", raw, "<crash point>[:<hits to survive>]");
    let (name, after) = match raw.split_once(':') {
        Some((name, n)) => (name, n.parse().map_err(|_| bad())?),
        None => (raw, 0),
    };
    let point = FaultPoint::parse(name).ok_or_else(bad)?;
    Ok(FaultPlan { point, after })
}

/// The plan `GRUB_FAULT_POINT=<point>[:<n>]` asks for, `None` when the knob
/// is off.
///
/// # Errors
///
/// A [`KnobError`] for an unknown point name or a malformed count, so a
/// typo fails the run instead of running without the fault.
pub fn plan_from_env() -> Result<Option<FaultPlan>, KnobError> {
    knob("GRUB_FAULT_POINT")
        .as_deref()
        .map(parse_plan)
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for point in FaultPoint::ALL {
            assert_eq!(FaultPoint::parse(point.name()), Some(point));
        }
        assert_eq!(FaultPoint::parse("nope"), None);
    }

    #[test]
    fn fault_point_knob_parses_or_names_the_bad_value() {
        assert_eq!(
            parse_plan("post-stage"),
            Ok(FaultPlan::at(FaultPoint::PostStage))
        );
        assert_eq!(
            parse_plan("mid-wal-append:3"),
            Ok(FaultPlan::nth(FaultPoint::MidWalAppend, 3))
        );
        for raw in ["nope", "pre-merge", "post-stage:x", "post-stage:-1", ":2"] {
            let err = parse_plan(raw).unwrap_err();
            assert_eq!((err.name, err.raw.as_str()), ("GRUB_FAULT_POINT", raw));
            let shown = err.to_string();
            assert!(shown.contains("GRUB_FAULT_POINT") && shown.contains(raw));
        }
    }

    #[test]
    fn trips_once_then_disarms() {
        arm(FaultPlan::at(FaultPoint::PostStage));
        assert!(
            !should_trip(FaultPoint::MidShardCommit),
            "other points pass"
        );
        assert!(should_trip(FaultPoint::PostStage), "armed point trips");
        assert!(
            !should_trip(FaultPoint::PostStage),
            "tripped plan has disarmed"
        );
        assert!(!is_armed());
    }

    #[test]
    fn countdown_survives_n_hits() {
        arm(FaultPlan::nth(FaultPoint::MidWalAppend, 2));
        assert!(!should_trip(FaultPoint::MidWalAppend));
        assert!(!should_trip(FaultPoint::MidWalAppend));
        assert!(should_trip(FaultPoint::MidWalAppend), "third hit dies");
        assert!(disarm().is_none(), "already disarmed by the trip");
    }

    #[test]
    fn plans_are_isolated_per_thread() {
        // Each thread arms a different point; the barrier forces both plans
        // to be armed before either thread probes.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (mine, theirs) in [
                (FaultPoint::PostStage, FaultPoint::MidShardCommit),
                (FaultPoint::MidShardCommit, FaultPoint::PostStage),
            ] {
                let barrier = &barrier;
                scope.spawn(move || {
                    arm(FaultPlan::at(mine));
                    barrier.wait();
                    assert!(!should_trip(theirs), "the other thread's plan leaked in");
                    assert!(should_trip(mine), "own plan was overwritten or stolen");
                    assert!(!is_armed());
                });
            }
        });
    }

    #[test]
    fn disarm_clears_pending_plan() {
        arm(FaultPlan::at(FaultPoint::PostWriteBlock));
        assert_eq!(disarm(), Some(FaultPlan::at(FaultPoint::PostWriteBlock)));
        assert!(!should_trip(FaultPoint::PostWriteBlock));
    }
}
