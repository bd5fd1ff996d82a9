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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;

/// A named crash point in the stage→merge→commit pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// After a round's off-chain staging (policy flush, SP sync, section
    /// encoding) completes, before anything reaches the chain.
    PostStage,
    /// After every scheduled shard has staged, before the first commit lane
    /// is claimed.
    PreMerge,
    /// Between two shards' commits within one round — the first shard's
    /// blocks are mined, the rest never happen.
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
    pub const ALL: [FaultPoint; 8] = [
        FaultPoint::PostStage,
        FaultPoint::PreMerge,
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
            FaultPoint::PreMerge => "pre-merge",
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

/// Parses `GRUB_FAULT_POINT=point[:n]` into a plan (`None` when unset or
/// malformed — an unknown point name must not silently run clean, so it
/// panics instead).
///
/// # Panics
///
/// Panics on an unrecognized point name or count, so a typo in the knob
/// fails loudly instead of running without the fault.
pub fn plan_from_env() -> Option<FaultPlan> {
    let raw = std::env::var("GRUB_FAULT_POINT").ok()?;
    if raw.is_empty() {
        return None;
    }
    let (name, after) = match raw.split_once(':') {
        Some((name, n)) => (
            name,
            n.parse::<u32>()
                // grub-lint: allow(panic) — documented "# Panics": a typo'd knob must fail loudly, not run a different scenario
                .unwrap_or_else(|_| panic!("GRUB_FAULT_POINT: bad hit count {n:?}")),
        ),
        None => (raw.as_str(), 0),
    };
    let point = FaultPoint::parse(name)
        // grub-lint: allow(panic) — documented "# Panics": a typo'd knob must fail loudly, not run a different scenario
        .unwrap_or_else(|| panic!("GRUB_FAULT_POINT: unknown crash point {name:?}"));
    Some(FaultPlan { point, after })
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
    fn trips_once_then_disarms() {
        arm(FaultPlan::at(FaultPoint::PostStage));
        assert!(!should_trip(FaultPoint::PreMerge), "other points pass");
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
        arm(FaultPlan::at(FaultPoint::PreMerge));
        assert_eq!(disarm(), Some(FaultPlan::at(FaultPoint::PreMerge)));
        assert!(!should_trip(FaultPoint::PreMerge));
    }
}
