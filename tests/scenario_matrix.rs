//! The policy × workload scenario matrix — the regression net for GRuB's
//! headline claims.
//!
//! Every replication policy ([`PolicyKind`] variant, plus the offline-optimal
//! reference) is driven against every workload family the paper evaluates:
//!
//! * `ratio/<x>` — fixed read/write ratios sweeping write-only through
//!   read-heavy (§2.3, §5.1);
//! * `ratio-mix` — the ingestion layer's multi-key ratio mix: one key per
//!   ratio class, interleaved one op per key per turn, so a single feed
//!   carries write-heavy, balanced, and read-heavy keys at once;
//! * `tempo/<bursty|uniform>` — the live-reads tempo variants: the same
//!   balanced mix replayed at live tempo (one consumer transaction per
//!   block) with its reads re-timed by the `TempoSource` combinator into
//!   one burst per window vs an even spread;
//! * `oracle` — the synthesized ethPriceOracle trace (Table 1, Figure 2);
//! * `btcrelay` — the synthesized BtcRelay block feed (Table 6, Appendix D);
//! * `ycsb/<A..F>` — all six YCSB core workloads over a preloaded dataset
//!   (§5.2): A/B/C zipfian read/update mixes, D latest-read with inserts,
//!   E scan-heavy, F read-modify-write.
//!
//! Assertions, per the paper:
//!
//! 1. every combination runs end to end with zero rejected deliveries and
//!    plausible Gas accounting (the matrix smoke test);
//! 2. the memoryless algorithm's total feed Gas stays within its
//!    2-competitive bound of the offline optimum (Theorem A.1);
//! 3. GRuB beats the *worse* of BL1/BL2 on every skewed workload (the
//!    "never much worse than either static strategy" motivation, §2.3);
//! 4. the replication state converges: replica ON under read-heavy traffic,
//!    OFF under write-heavy traffic.

use std::collections::BTreeMap;

use grub::chain::ChainConfig;
use grub::core::policy::{OfflineOptimal, PolicyKind};
use grub::core::system::{GrubSystem, SystemConfig};
use grub::gas::{FeeProcess, FeeRegime, GasSchedule};
use grub::merkle::ReplState;
use grub::workload::btcrelay::BtcRelayTrace;
use grub::workload::oracle::OracleTrace;
use grub::workload::ratio::{MultiKeyRatio, RatioWorkload};
use grub::workload::tempo::{ReadTempo, TempoSource};
use grub::workload::ycsb::{self, YcsbKind, YcsbRunner};
use grub::workload::Trace;

/// One workload scenario: a named trace plus the preload it assumes.
struct Scenario {
    name: String,
    trace: Trace,
    preload: Vec<(String, Vec<u8>)>,
    /// `Some(true)` = read-heavy (replica expected ON for the hot key),
    /// `Some(false)` = write-heavy (replica expected OFF); `None` = mixed.
    read_heavy: Option<bool>,
    /// Replay reads one per block (the §4 case studies' tempo) instead of
    /// coalescing them per epoch — the mode under which the tempo variants
    /// actually differ.
    live_reads: bool,
}

impl Scenario {
    fn config(&self, policy: PolicyKind) -> SystemConfig {
        let config = SystemConfig::new(policy).preload(self.preload.clone());
        if self.live_reads {
            config.live_reads()
        } else {
            config
        }
    }

    fn run(&self, policy: PolicyKind) -> grub::core::metrics::RunReport {
        GrubSystem::run(&mut self.trace.source(), &self.config(policy.clone()))
            .unwrap_or_else(|e| panic!("{} under {policy:?} failed: {e}", self.name))
    }

    fn run_offline_optimal(&self) -> grub::core::metrics::RunReport {
        let schedule = GasSchedule::default();
        let policy = OfflineOptimal::from_trace(&self.trace, schedule.two_competitive_k());
        // BL1 placebo: preload lands not-replicated, exactly as for the
        // adaptive policies this reference is compared against.
        GrubSystem::run_with_policy(
            &mut self.trace.source(),
            &self.config(PolicyKind::Bl1),
            Box::new(policy),
        )
        .unwrap_or_else(|e| panic!("{} under offline-optimal failed: {e}", self.name))
    }
}

/// The ratio sweep: the paper's §5.1 microbenchmark axis, one scenario per
/// read/write ratio, trimmed to keep the matrix fast.
const RATIO_SWEEP: &[(f64, usize)] = &[
    // (ratio, cycles) — sized for ~64–260 ops each.
    (0.0, 64),
    (0.125, 12),
    (0.5, 32),
    (1.0, 48),
    (4.0, 24),
    (16.0, 8),
    (64.0, 4),
];

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for &(ratio, cycles) in RATIO_SWEEP {
        out.push(Scenario {
            name: format!("ratio/{ratio}"),
            trace: RatioWorkload::new("feed", ratio).generate(cycles),
            preload: Vec::new(),
            read_heavy: if ratio >= 16.0 {
                Some(true)
            } else if ratio <= 0.125 {
                Some(false)
            } else {
                None
            },
            live_reads: false,
        });
    }
    out.push(Scenario {
        name: "oracle".into(),
        trace: OracleTrace::new().writes(24).assets(2).seed(11).generate(),
        preload: Vec::new(),
        read_heavy: None,
        live_reads: false,
    });
    out.push(Scenario {
        name: "btcrelay".into(),
        trace: BtcRelayTrace::new().blocks(32).seed(13).generate(),
        preload: Vec::new(),
        read_heavy: None,
        live_reads: false,
    });
    // The ingestion layer's stream-native dimensions. `ratio-mix`: one feed
    // whose key set spans the ratio classes (write-heavy, balanced,
    // read-heavy), interleaved per op by MultiKeyRatio.
    out.push(Scenario {
        name: "ratio-mix".into(),
        trace: MultiKeyRatio::new(vec![
            ("mix-w".into(), 0.125),
            ("mix-b".into(), 1.0),
            ("mix-r".into(), 16.0),
        ])
        .seed(19)
        .generate(6),
        preload: Vec::new(),
        read_heavy: None,
        live_reads: false,
    });
    // The live-reads tempo variants: the same balanced mix, reads re-timed
    // by the TempoSource combinator and replayed one read per block, where
    // arrival timing actually changes what the monitor has seen.
    for (label, tempo) in [
        ("bursty", ReadTempo::Bursty),
        ("uniform", ReadTempo::Uniform),
    ] {
        let inner = MultiKeyRatio::new(vec![("feed".into(), 2.0), ("side".into(), 0.5)])
            .seed(29)
            .source(8);
        let mut shaped = TempoSource::new(Box::new(inner), tempo, 12);
        out.push(Scenario {
            name: format!("tempo/{label}"),
            trace: Trace::from_source(&mut shaped),
            preload: Vec::new(),
            read_heavy: None,
            live_reads: true,
        });
    }
    let records = 48u64;
    let record_len = 32usize;
    let preload: Vec<(String, Vec<u8>)> = ycsb::preload(records, record_len, 7)
        .into_iter()
        .map(|(k, v)| (k, v.materialize()))
        .collect();
    for kind in [
        YcsbKind::A,
        YcsbKind::B,
        YcsbKind::C,
        YcsbKind::D,
        YcsbKind::E,
        YcsbKind::F,
    ] {
        // E's scans are capped well below the YCSB default of 100 to keep
        // the 105-combination matrix fast; the scan path itself is the same.
        out.push(Scenario {
            name: format!("ycsb/{kind:?}"),
            trace: YcsbRunner::new(records, record_len, 17)
                .max_scan_len(8)
                .generate(kind, 128),
            preload: preload.clone(),
            read_heavy: None,
            live_reads: false,
        });
    }
    out
}

fn policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("bl1", PolicyKind::Bl1),
        ("bl2", PolicyKind::Bl2),
        ("memoryless", PolicyKind::Memoryless { k: 2 }),
        (
            "memorizing",
            PolicyKind::Memorizing {
                k_prime: 2.3,
                d: 2.0,
            },
        ),
        (
            "adaptive-k1",
            PolicyKind::Adaptive {
                dual: false,
                window: 4,
            },
        ),
        (
            "adaptive-k2",
            PolicyKind::Adaptive {
                dual: true,
                window: 4,
            },
        ),
        ("self-tuning", PolicyKind::SelfTuning { window: 16 }),
    ]
}

/// Every policy drives every workload to completion with honest-SP
/// invariants intact. 7 policies × 18 workloads = 126 combinations
/// (ratio sweep, ratio-mix, the two live-reads tempo variants, oracle,
/// btcrelay, YCSB A–F).
#[test]
fn full_matrix_runs_every_policy_on_every_workload() {
    let scenarios = scenarios();
    let policies = policies();
    let mut combos = 0usize;
    let mut gas_by_combo: BTreeMap<String, f64> = BTreeMap::new();
    for scenario in &scenarios {
        for (policy_name, policy) in &policies {
            let report = scenario.run(policy.clone());
            assert_eq!(
                report.total_ops(),
                scenario.trace.ops.len(),
                "{}/{policy_name}: every trace op must be accounted",
                scenario.name
            );
            assert_eq!(
                report.failed_delivers(),
                0,
                "{}/{policy_name}: honest SP must never have a deliver rejected",
                scenario.name
            );
            assert!(
                report.feed_gas_total() > 0,
                "{}/{policy_name}: a non-empty trace burns feed gas",
                scenario.name
            );
            gas_by_combo.insert(
                format!("{}/{policy_name}", scenario.name),
                report.feed_gas_per_op(),
            );
            combos += 1;
        }
    }
    assert!(
        combos >= 20,
        "matrix must cover at least 20 policy×workload combinations, got {combos}"
    );
    // The matrix is also a coarse sanity net on relative magnitudes: on the
    // write-only trace BL2 (always replicate) must be the most expensive
    // policy, since every adaptive policy learns to avoid on-chain storage
    // writes. Adaptive-K2 is exempt: the dual heuristic bets the future does
    // NOT repeat the past, so on a constant workload it mirrors BL2.
    let bl2_write_only = gas_by_combo["ratio/0/bl2"];
    for (combo, gas) in &gas_by_combo {
        if combo.starts_with("ratio/0/")
            && !combo.ends_with("/bl2")
            && !combo.ends_with("/adaptive-k2")
        {
            assert!(
                gas < &bl2_write_only,
                "{combo} ({gas:.0}) should undercut BL2 on write-only ({bl2_write_only:.0})"
            );
        }
    }
}

/// Theorem A.1: with `K = Cupdate/Cread_off` the memoryless algorithm's cost
/// is within 2× the offline optimum. The simulator meters whole-system feed
/// Gas (both runs pay identical consumer-side costs, which only tightens the
/// ratio), plus a small additive slack for warm-up edges on short traces.
#[test]
fn memoryless_stays_within_two_competitive_bound() {
    const SLACK_GAS: u64 = 64_000; // ~one Ctx+proof delivery of warm-up edge
    for scenario in scenarios() {
        let memoryless = scenario.run(PolicyKind::Memoryless { k: 2 });
        let optimal = scenario.run_offline_optimal();
        let bound = 2 * optimal.feed_gas_total() + SLACK_GAS;
        assert!(
            memoryless.feed_gas_total() <= bound,
            "{}: memoryless {} exceeds 2×optimal {} (+slack)",
            scenario.name,
            memoryless.feed_gas_total(),
            optimal.feed_gas_total(),
        );
    }
}

/// The windowed offline-optimal construction (bounded sliding lookahead,
/// streaming-friendly) must be gas-identical to the unbounded one whenever
/// the window covers the trace — on every scenario in the matrix, both for
/// a generously sized window and for one clamped exactly to the trace
/// length.
#[test]
fn windowed_offline_optimal_matches_unbounded_on_every_scenario() {
    let schedule = GasSchedule::default();
    let k = schedule.two_competitive_k();
    for scenario in scenarios() {
        let unbounded = scenario.run_offline_optimal();
        for window in [scenario.trace.ops.len().max(1), 1 << 20] {
            let policy = OfflineOptimal::from_trace_windowed(&scenario.trace, k, window);
            let windowed = GrubSystem::run_with_policy(
                &mut scenario.trace.source(),
                &scenario.config(PolicyKind::Bl1),
                Box::new(policy),
            )
            .unwrap_or_else(|e| panic!("{} windowed({window}) failed: {e}", scenario.name));
            assert_eq!(
                windowed.feed_gas_total(),
                unbounded.feed_gas_total(),
                "{}: window {window} changes offline-optimal gas",
                scenario.name
            );
        }
    }
}

/// §2.3's motivation: a fixed baseline can be catastrophically wrong on a
/// skewed workload, while GRuB adapts. On every skewed scenario GRuB must
/// beat the *worse* of BL1/BL2 — and on the extremes, by a wide margin.
#[test]
fn grub_beats_the_worse_baseline_on_skewed_workloads() {
    for scenario in scenarios() {
        let Some(read_heavy) = scenario.read_heavy else {
            continue;
        };
        let grub = scenario.run(PolicyKind::Memoryless { k: 2 });
        let bl1 = scenario.run(PolicyKind::Bl1);
        let bl2 = scenario.run(PolicyKind::Bl2);
        let (better, worse) = if read_heavy { (bl2, bl1) } else { (bl1, bl2) };
        assert!(
            grub.feed_gas_per_op() < worse.feed_gas_per_op(),
            "{}: GRuB {:.0} must beat the mismatched baseline {:.0}",
            scenario.name,
            grub.feed_gas_per_op(),
            worse.feed_gas_per_op(),
        );
        // And it tracks the well-matched baseline (§5.1: GRuB converges to
        // the better static strategy after the warm-up epochs).
        assert!(
            grub.feed_gas_per_op() < better.feed_gas_per_op() * 2.5,
            "{}: GRuB {:.0} should track the matched baseline {:.0}",
            scenario.name,
            grub.feed_gas_per_op(),
            better.feed_gas_per_op(),
        );
    }
}

/// A mild ±10% fee step for the stressed competitive-bound run: wide enough
/// to reprice every block, narrow enough that the 2-competitive bound stays
/// a meaningful assertion once inflated by the amplitude ratio.
fn mild_fee() -> FeeProcess {
    FeeProcess {
        regime: FeeRegime::Step {
            period: 8,
            low: 900,
            high: 1100,
        },
        seed: 11,
    }
}

/// The chain-realism axes layered over the matrix: seeded reorgs, the
/// volatile gas-price process, mempool congestion, and all three at once.
fn realism_axes() -> Vec<(&'static str, ChainConfig)> {
    vec![
        ("reorg", ChainConfig::default().reorg(7, 4, 2)),
        ("fee", ChainConfig::default().fee(FeeProcess::step(11))),
        ("congestion", ChainConfig::default().mempool(1)),
        (
            "combined",
            ChainConfig::default()
                .reorg(7, 4, 2)
                .fee(FeeProcess::step(11))
                .mempool(1),
        ),
    ]
}

/// A representative slice of the workload matrix for the realism axes —
/// the extremes, the balance point, and the two structured traces.
fn realism_scenarios() -> Vec<Scenario> {
    const PICKS: [&str; 5] = ["ratio/0", "ratio/1", "ratio/64", "oracle", "ycsb/A"];
    scenarios()
        .into_iter()
        .filter(|s| PICKS.contains(&s.name.as_str()))
        .collect()
}

/// Every policy completes every representative workload under every
/// chain-realism axis — reorgs, volatile fees, congestion, and the
/// combination — with the op accounting and honest-SP invariants intact.
#[test]
fn chain_realism_axes_run_every_policy() {
    let scenarios = realism_scenarios();
    assert_eq!(scenarios.len(), 5, "the representative slice went missing");
    for (axis, chain) in realism_axes() {
        for scenario in &scenarios {
            for (policy_name, policy) in &policies() {
                let mut config = scenario.config(policy.clone());
                config.chain = chain;
                let report =
                    GrubSystem::run(&mut scenario.trace.source(), &config).unwrap_or_else(|e| {
                        panic!("{axis}/{}/{policy_name} failed: {e}", scenario.name)
                    });
                assert_eq!(
                    report.total_ops(),
                    scenario.trace.ops.len(),
                    "{axis}/{}/{policy_name}: every trace op must be accounted",
                    scenario.name
                );
                assert_eq!(
                    report.failed_delivers(),
                    0,
                    "{axis}/{}/{policy_name}: honest SP must never have a deliver rejected",
                    scenario.name
                );
            }
        }
    }
}

/// The confirmation axes layered over the matrix: depth-N acknowledgment,
/// seeded inclusion latency, both, and both under the full chain-realism
/// stack (reorgs + volatile fees + congestion). Depth 0 / latency off is
/// the identity axis the rest of the matrix already runs.
fn confirmation_axes() -> Vec<(&'static str, ChainConfig)> {
    vec![
        ("depth3", ChainConfig::default().confirm_depth(3)),
        ("latency", ChainConfig::default().latency(5, 2)),
        (
            "depth3+latency",
            ChainConfig::default().confirm_depth(3).latency(5, 2),
        ),
        (
            "confirmation+realism",
            ChainConfig::default()
                .confirm_depth(3)
                .latency(5, 2)
                .reorg(7, 4, 2)
                .fee(FeeProcess::step(11))
                .mempool(1),
        ),
    ]
}

/// Every policy completes every representative workload under every
/// confirmation axis — depth-3 acknowledgment, inclusion latency, and the
/// combination with the full realism stack — with op accounting and the
/// honest-SP invariant intact, and the run fully confirmed at the end.
#[test]
fn confirmation_axes_run_every_policy() {
    let scenarios = realism_scenarios();
    assert_eq!(scenarios.len(), 5, "the representative slice went missing");
    for (axis, chain) in confirmation_axes() {
        for scenario in &scenarios {
            for (policy_name, policy) in &policies() {
                let mut config = scenario.config(policy.clone());
                config.chain = chain;
                let mut system = GrubSystem::new(&config)
                    .unwrap_or_else(|e| panic!("{axis}/{}/{policy_name}: {e}", scenario.name));
                system
                    .drive(&mut scenario.trace.source())
                    .unwrap_or_else(|e| {
                        panic!("{axis}/{}/{policy_name} failed: {e}", scenario.name)
                    });
                let epochs = system.driver().reports();
                assert_eq!(
                    epochs.iter().map(|e| e.ops).sum::<usize>(),
                    scenario.trace.ops.len(),
                    "{axis}/{}/{policy_name}: every trace op must be accounted",
                    scenario.name
                );
                assert_eq!(
                    epochs.iter().map(|e| e.failed_delivers).sum::<usize>(),
                    0,
                    "{axis}/{}/{policy_name}: honest SP must never have a deliver rejected",
                    scenario.name
                );
                assert_eq!(
                    system.chain().confirmation_lag(),
                    0,
                    "{axis}/{}/{policy_name}: every acknowledged write must be confirmed",
                    scenario.name
                );
            }
        }
    }
}

/// Theorem A.1 under the complete stack: depth-3 confirmation and inclusion
/// latency layered on top of reorgs, the ±10% fee step, and a one-slot
/// mempool. Confirmation delays *when* writes are acknowledged, never *what*
/// they cost, so the amplitude-adjusted 2-competitive bound from the
/// chain-stress run must keep holding unchanged.
#[test]
fn memoryless_bound_survives_the_confirmation_stack() {
    const SLACK_GAS: u64 = 64_000;
    let stress = ChainConfig::default()
        .reorg(7, 4, 2)
        .fee(mild_fee())
        .mempool(1)
        .confirm_depth(3)
        .latency(5, 2);
    for scenario in realism_scenarios() {
        let run = |policy: PolicyKind| {
            let mut config = scenario.config(policy);
            config.chain = stress;
            GrubSystem::run(&mut scenario.trace.source(), &config).unwrap_or_else(|e| {
                panic!("{} under the confirmation stack failed: {e}", scenario.name)
            })
        };
        let memoryless = run(PolicyKind::Memoryless { k: 2 });
        let optimal = {
            let schedule = GasSchedule::default();
            let policy = OfflineOptimal::from_trace(&scenario.trace, schedule.two_competitive_k());
            let mut config = scenario.config(PolicyKind::Bl1);
            config.chain = stress;
            GrubSystem::run_with_policy(&mut scenario.trace.source(), &config, Box::new(policy))
                .unwrap_or_else(|e| {
                    panic!(
                        "{} optimal under the confirmation stack failed: {e}",
                        scenario.name
                    )
                })
        };
        // Same inflation as the chain-stress bound: the fee step may price
        // memoryless at the 1100‰ plateau against a 900‰ optimum.
        let bound = 2 * optimal.feed_gas_total() * 11 / 9 + 2 * SLACK_GAS;
        assert!(
            memoryless.feed_gas_total() <= bound,
            "{}: confirmed memoryless {} exceeds amplitude-adjusted 2×optimal {}",
            scenario.name,
            memoryless.feed_gas_total(),
            optimal.feed_gas_total(),
        );
    }
}

/// Reorgs are digest-transparent for every policy: the forked-and-replayed
/// run converges to the straight-line run's exact chain digest, height, and
/// Gas totals — the policy layer cannot even tell the forks happened.
#[test]
fn reorgs_are_digest_transparent_for_every_policy() {
    let scenario = scenarios()
        .into_iter()
        .find(|s| s.name == "ycsb/A")
        .expect("ycsb/A scenario exists");
    for (policy_name, policy) in &policies() {
        let run = |chain: ChainConfig| {
            let mut config = scenario.config(policy.clone());
            config.chain = chain;
            let mut system =
                GrubSystem::new(&config).unwrap_or_else(|e| panic!("ycsb-a/{policy_name}: {e}"));
            system.drive(&mut scenario.trace.source()).unwrap();
            system
        };
        let plain = run(ChainConfig::default());
        let forked = run(ChainConfig::default().reorg(7, 2, 2));
        assert!(
            !forked.chain().reorg_events().is_empty(),
            "ycsb-a/{policy_name}: the reorg process never forked"
        );
        assert_eq!(
            forked.chain().chain_digest(),
            plain.chain().chain_digest(),
            "ycsb-a/{policy_name}: reorg-and-replay must converge to the straight-line digest"
        );
        assert_eq!(
            forked.chain().height(),
            plain.chain().height(),
            "ycsb-a/{policy_name}: canonical height must match"
        );
    }
}

/// Theorem A.1 under chain stress: with reorgs, congestion, and a ±10% fee
/// step all active, the memoryless policy stays within the 2-competitive
/// bound of the (fee-blind) offline optimum — inflated by the fee amplitude
/// ratio, since block heights (and so prices) differ between the two runs.
#[test]
fn memoryless_bound_survives_chain_stress() {
    const SLACK_GAS: u64 = 64_000;
    let stress = ChainConfig::default()
        .reorg(7, 4, 2)
        .fee(mild_fee())
        .mempool(1);
    for scenario in realism_scenarios() {
        let run = |policy: PolicyKind| {
            let mut config = scenario.config(policy);
            config.chain = stress;
            GrubSystem::run(&mut scenario.trace.source(), &config)
                .unwrap_or_else(|e| panic!("{} under stress failed: {e}", scenario.name))
        };
        let memoryless = run(PolicyKind::Memoryless { k: 2 });
        let optimal = {
            let schedule = GasSchedule::default();
            let policy = OfflineOptimal::from_trace(&scenario.trace, schedule.two_competitive_k());
            let mut config = scenario.config(PolicyKind::Bl1);
            config.chain = stress;
            GrubSystem::run_with_policy(&mut scenario.trace.source(), &config, Box::new(policy))
                .unwrap_or_else(|e| panic!("{} optimal under stress failed: {e}", scenario.name))
        };
        // Bound inflation: memoryless may be priced at the 1100‰ plateau
        // where the optimum was priced at 900‰, so 2× becomes 2×(11/9).
        let bound = 2 * optimal.feed_gas_total() * 11 / 9 + 2 * SLACK_GAS;
        assert!(
            memoryless.feed_gas_total() <= bound,
            "{}: stressed memoryless {} exceeds amplitude-adjusted 2×optimal {}",
            scenario.name,
            memoryless.feed_gas_total(),
            optimal.feed_gas_total(),
        );
    }
}

/// The control loop converges: read-heavy traffic ends with the hot record
/// replicated on chain, write-heavy traffic ends with it off chain — for
/// every adaptive policy that makes convergence claims.
#[test]
fn replication_state_converges_with_the_workload() {
    let adaptive: Vec<(&str, PolicyKind)> = vec![
        ("memoryless", PolicyKind::Memoryless { k: 2 }),
        (
            "memorizing",
            PolicyKind::Memorizing {
                k_prime: 2.3,
                d: 2.0,
            },
        ),
        ("self-tuning", PolicyKind::SelfTuning { window: 16 }),
    ];
    for scenario in scenarios() {
        let Some(read_heavy) = scenario.read_heavy else {
            continue;
        };
        let expected = if read_heavy {
            ReplState::Replicated
        } else {
            ReplState::NotReplicated
        };
        for (policy_name, policy) in &adaptive {
            let mut system = GrubSystem::new(&scenario.config(policy.clone()))
                .unwrap_or_else(|e| panic!("{}/{policy_name}: {e}", scenario.name));
            system.drive(&mut scenario.trace.source()).unwrap();
            assert_eq!(
                system.driver().owner().state_of("feed"),
                expected,
                "{}/{policy_name}: replica state must converge with the workload",
                scenario.name,
            );
            if read_heavy {
                // Converged read-heavy feeds serve from the replica: the
                // final blocks carry no Request events.
                let height = system.chain().height();
                let manager = system.driver().manager();
                let recent =
                    system
                        .chain()
                        .events_since(height.saturating_sub(2), manager, "Request");
                assert!(
                    recent.is_empty(),
                    "{}/{policy_name}: converged feed still requests deliveries",
                    scenario.name,
                );
            }
        }
    }
}
