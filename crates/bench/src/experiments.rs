//! Implementations of the per-figure/table regenerators.
//!
//! Scale notes: time-bounded CI runs use moderately scaled-down op counts
//! relative to the paper (recorded inline per experiment); shapes —
//! crossovers, winners, convergence — are the reproduction target, per the
//! calibration bands in ARCHITECTURE.md ("Where the simulator departs from
//! the paper").

use std::rc::Rc;

use grub_apps::erc20::Erc20;
use grub_apps::scoin::{encode_issue, SCoinIssuer};
use grub_chain::{Address, Transaction};
use grub_core::contract::OnChainTrace;
use grub_core::metrics::RunReport;
use grub_core::policy::{OfflineOptimal, PolicyKind};
use grub_core::system::{GrubSystem, SystemConfig};
use grub_gas::{GasSchedule, Layer};
use grub_workload::btcrelay::BtcRelayTrace;
use grub_workload::oracle::OracleTrace;
use grub_workload::ratio::RatioWorkload;
use grub_workload::stats;
use grub_workload::ycsb::{self, YcsbKind};
use grub_workload::Trace;

use crate::table::{series, Table};

const RATIOS: &[f64] = &[0.0, 0.125, 0.5, 1.0, 4.0, 16.0, 64.0, 256.0];

fn run(trace: &Trace, config: &SystemConfig) -> RunReport {
    GrubSystem::run(&mut trace.source(), config).expect("experiment run")
}

/// The offline optimum on `trace`, at Equation 1's threshold.
fn optimal(trace: &Trace) -> RunReport {
    let policy = OfflineOptimal::from_trace(trace, GasSchedule::default().two_competitive_k());
    let config = SystemConfig::new(PolicyKind::Bl1);
    GrubSystem::run_with_policy(&mut trace.source(), &config, Box::new(policy))
        .expect("offline run")
}

fn bl1_bl2_grub(k: u64) -> [PolicyKind; 3] {
    [
        PolicyKind::Bl1,
        PolicyKind::Bl2,
        PolicyKind::Memoryless { k },
    ]
}

/// An Appendix C.3 adaptive-K heuristic over a window of 3 bursts.
fn adaptive(dual: bool) -> PolicyKind {
    PolicyKind::Adaptive { dual, window: 3 }
}

/// A run paired with its policy's display name, as [`series`] takes it.
fn named(report: RunReport) -> (String, RunReport) {
    (report.policy.clone(), report)
}

fn gas(per_op: f64) -> String {
    format!("{per_op:.0}")
}

fn percent_over(value: u64, base: u64) -> f64 {
    100.0 * (value as f64 - base as f64) / base as f64
}

fn dataset(records: u64, len: usize, seed: u64) -> Vec<(String, Vec<u8>)> {
    ycsb::preload(records, len, seed)
        .into_iter()
        .map(|(key, value)| (key, value.materialize()))
        .collect()
}

/// One key written and read at `ratio` reads per write, in whole
/// write-and-reads cycles of about `ops` operations in all.
fn ratio_trace(key: &str, ratio: f64, value_len: usize, ops: usize) -> Trace {
    let per_cycle = if ratio == 0.0 {
        1.0
    } else if ratio >= 1.0 {
        1.0 + ratio
    } else {
        1.0 / ratio + 1.0
    };
    let cycles = (ops as f64 / per_cycle).ceil() as usize;
    RatioWorkload::new(key, ratio)
        .value_len(value_len)
        .generate(cycles)
}

/// The share of writes followed by each number of reads.
fn reads_after_write(title: &str, trace: &Trace) -> Table {
    let dist = stats::reads_after_write_distribution(trace);
    let mut table = Table::new(title, &["#r", "percent"]);
    for (reads, pct) in stats::distribution_rows(&dist) {
        table.row(&[&reads, &format!("{pct:.2}%")]);
    }
    table
}

/// Table 2: the Gas schedule (constants are also unit-tested in `grub-gas`).
pub fn table2() -> Vec<Table> {
    let s = GasSchedule::default();
    let title = "## Table 2 — Ethereum Gas cost per operation (X = 32-byte words)";
    let mut table = Table::new(title, &[]);
    let rows = [
        (
            "Transaction",
            format!("Ctx(X) = {} + {}X", s.tx_base, s.tx_per_word),
        ),
        (
            "Storage write (insert)",
            format!("Cinsert(X) = {}X", s.storage_insert_per_word),
        ),
        (
            "Storage write (update)",
            format!("Cupdate(X) = {}X", s.storage_update_per_word),
        ),
        (
            "Storage read",
            format!("Cread(X) = {}X", s.storage_read_per_word),
        ),
        (
            "Hash computation",
            format!("Chash(X) = {} + {}X", s.hash_base, s.hash_per_word),
        ),
        (
            "Equation 1 threshold",
            format!("K = Cupdate/Cread_off = {:.2}", s.two_competitive_k()),
        ),
    ];
    for (operation, cost) in &rows {
        table.row(&[operation, cost]);
    }
    vec![table]
}

/// Table 1 + Figure 2: the synthesized ethPriceOracle workload.
pub fn table1_fig2() -> Vec<Table> {
    let trace = OracleTrace::new().generate();
    let series = stats::reads_after_write_series(&trace);
    let title = format!(
        "## Table 1 — distribution of writes by #reads following ({} writes)",
        trace.write_count()
    );
    let zeros = series.iter().filter(|&&r| r == 0).count();
    let fig2 = format!(
        "## Figure 2 — series summary: {} writes, max burst {} reads, {:.1}% zero-read writes",
        series.len(),
        series.iter().max().copied().unwrap_or(0),
        100.0 * zeros as f64 / series.len() as f64
    );
    vec![reads_after_write(&title, &trace), Table::new(fig2, &[])]
}

/// Figure 3: the static baselines BL1/BL2 across read-to-write ratios
/// (the §2.3 motivating measurement).
pub fn fig3() -> Vec<Table> {
    let mut table = Table::new(
        "## Figure 3 — per-op Gas of static baselines vs read-to-write ratio",
        &["ratio", "BL1 gas/op", "BL2 gas/op", "winner"],
    );
    for &ratio in RATIOS {
        let trace = ratio_trace("feed", ratio, 32, 2048);
        let [bl1, bl2] = [PolicyKind::Bl1, PolicyKind::Bl2]
            .map(|policy| run(&trace, &SystemConfig::new(policy)).feed_gas_per_op());
        let winner = if bl1 <= bl2 { "BL1" } else { "BL2" };
        table.row(&[&ratio, &gas(bl1), &gas(bl2), &winner]);
    }
    vec![table]
}

/// Drives the oracle trace through a feed consumed by the SCoin issuer.
fn run_scoin(policy: PolicyKind) -> RunReport {
    // §4.1 setup: 4096-asset price feed, gPuts batching 10 assets per poke,
    // reads mapped to SCoinIssuer issue()/redeem() at equal chance.
    // Scale: 200 pokes (the 5-day trace has 790; runtime-scaled).
    let record_len = 32usize;
    let preload: Vec<(String, Vec<u8>)> = (0..4096)
        .map(|i| {
            (
                OracleTrace::asset_key(i),
                grub_workload::ValueSpec::new(record_len, 7000 + i as u64).materialize(),
            )
        })
        .collect();
    let trace = OracleTrace::new()
        .writes(200)
        .assets(10)
        .record_len(record_len)
        .generate();
    let config = SystemConfig::new(policy).preload(preload).live_reads();
    let mut system = GrubSystem::new(&config).expect("system");
    // Wire the SCoin application in as the read driver.
    let issuer = Address::derive("bench-scoin-issuer");
    let token = Address::derive("bench-scoin-token");
    system.deploy_contract(
        issuer,
        Rc::new(SCoinIssuer::new(system.driver().manager(), token)),
        Layer::Application,
    );
    system.deploy_contract(token, Rc::new(Erc20::new(issuer)), Layer::Application);
    let user = Address::derive("bench-scoin-user");
    let driver = system.driver_mut();
    driver.set_read_tx_builder(Box::new(move |keys| {
        keys.iter()
            .enumerate()
            .map(|(i, _)| {
                // Equal chance issue/redeem; redemptions are small so the
                // balance accumulated by issues always covers them.
                let (func, amount) = if i % 2 == 0 {
                    ("issue", 1_000)
                } else {
                    ("redeem", 1)
                };
                Transaction::new(user, issuer, func, encode_issue(user, amount), Layer::User)
            })
            .collect()
    }));
    system.drive(&mut trace.source()).expect("drive");
    system.into_report()
}

/// Figure 5 + Table 3: the oracle trace under BL1/BL2/GRuB with the SCoin
/// application on top.
pub fn fig5_table3() -> Vec<Table> {
    let runs = bl1_bl2_grub(1).map(|policy| named(run_scoin(policy)));
    let grub_feed = runs[2].1.feed_gas_total();
    let mut table3 = Table::new(
        "## Table 3 — aggregated Gas: feed layer and SCoinIssuer (M = million)",
        &["policy", "price feed", "SCoinIssuer"],
    );
    for (name, report) in &runs {
        let feed = report.feed_gas_total();
        let vs = if feed == grub_feed {
            String::new()
        } else {
            format!(" ({:+.0}%)", percent_over(feed, grub_feed))
        };
        let total = feed + report.app_gas_total();
        let feed = format!("{:.1}M{vs}", feed as f64 / 1e6);
        table3.row(&[name, &feed, &format!("{:.1}M", total as f64 / 1e6)]);
    }
    let title = "## Figure 5 — feed gas/op per epoch (every 4th epoch)";
    vec![table3, series(title, 4, &runs)]
}

/// Figure 6: the BtcRelay trace (write-intensive first half, read-intensive
/// second half), epoch of 4 transactions, GRuB with K=2.
pub fn fig6() -> Vec<Table> {
    // 200 relayed blocks; the second half carries a 10x read boost, giving
    // the paper's phase flip around the middle epoch.
    let trace = BtcRelayTrace::new()
        .blocks(200)
        .read_delay_blocks(6)
        .boost_reads(100..200, 10.0)
        .generate();
    let config = |policy| SystemConfig::new(policy).epoch_ops(4).live_reads();
    let runs = bl1_bl2_grub(2).map(|policy| named(run(&trace, &config(policy))));
    let grub = runs[2].1.feed_gas_per_op();
    let mut aggregate = Table::new("aggregate gas/op:", &[]);
    for (name, report) in &runs {
        let value = report.feed_gas_per_op();
        let saving = if value > grub {
            format!("(GRuB saves {:.1}%)", 100.0 * (value - grub) / value)
        } else {
            String::new()
        };
        aggregate.row(&[name, &gas(value), &saving]);
    }
    let title = "## Figure 6 — BtcRelay trace, gas/op per epoch (each of 4 txs)";
    vec![series(title, 4, &runs), aggregate]
}

/// Figure 7: GRuB vs the static baselines and the on-chain-trace dynamic
/// baselines (BL3) across ratios.
pub fn fig7() -> Vec<Table> {
    let mut table = Table::new(
        "## Figure 7 — converged gas/op vs read-to-write ratio",
        &["ratio", "BL1", "BL2", "BL3(reads)", "BL3(reads+wr)", "GRuB"],
    );
    let grub = SystemConfig::new(PolicyKind::Memoryless { k: 2 });
    let configs = [
        SystemConfig::new(PolicyKind::Bl1),
        SystemConfig::new(PolicyKind::Bl2),
        grub.clone().on_chain_trace(OnChainTrace::Reads),
        grub.clone().on_chain_trace(OnChainTrace::ReadsAndWrites),
        grub,
    ];
    for &ratio in RATIOS {
        let trace = ratio_trace("feed", ratio, 32, 2048);
        let [bl1, bl2, bl3r, bl3rw, grub] = configs
            .each_ref()
            .map(|config| gas(run(&trace, config).feed_gas_per_op()));
        table.row(&[&ratio, &bl1, &bl2, &bl3r, &bl3rw, &grub]);
    }
    vec![table.note("GRuB should track min(BL1, BL2); BL3 pays on-chain monitoring on top.")]
}

/// Figure 8a: memoryless vs memorizing vs the offline optimum on the
/// worst-case-style workload (K = K' = 8, ratio K+1).
pub fn fig8a() -> Vec<Table> {
    let k = 8u64;
    let trace = RatioWorkload::new("feed", (k + 1) as f64).generate(40);
    let memoryless = SystemConfig::new(PolicyKind::Memoryless { k });
    let memorizing = SystemConfig::new(PolicyKind::Memorizing {
        k_prime: k as f64,
        d: 1.0,
    });
    let runs = [
        ("memoryless".to_owned(), run(&trace, &memoryless)),
        ("memorizing".to_owned(), run(&trace, &memorizing)),
        ("optimal".to_owned(), optimal(&trace)),
    ];
    let aggregate: Vec<String> = runs
        .iter()
        .map(|(name, report)| format!("{name} {}", gas(report.feed_gas_per_op())))
        .collect();
    let title = "## Figure 8a — gas/op over time (K=K'=8, ratio K+1)";
    vec![series(title, 1, &runs).note(format!("aggregate gas/op: {}", aggregate.join(", ")))]
}

/// Figure 8b: record-size sweep (1–16 words) for BL1/BL2/GRuB.
pub fn fig8b() -> Vec<Table> {
    let mut table = Table::new(
        "## Figure 8b — gas/op vs record size (ratio 4)",
        &["words", "BL1", "BL2", "GRuB"],
    );
    for words in [1usize, 2, 4, 8, 16] {
        let trace = ratio_trace("feed", 4.0, words * 32, 2048);
        let [bl1, bl2, grub] = bl1_bl2_grub(2)
            .map(|policy| gas(run(&trace, &SystemConfig::new(policy)).feed_gas_per_op()));
        table.row(&[&words, &bl1, &bl2, &grub]);
    }
    vec![table]
}

/// Four alternating YCSB phases, `a, b, a, b`, over 2^12 preloaded records
/// under BL1, BL2 and GRuB: their total Gas, then their feed Gas/op every
/// 8th epoch.
fn ycsb_mix(title: &str, (a, b): (YcsbKind, YcsbKind), record_len: usize) -> Vec<Table> {
    let records = 1 << 12;
    let mix = [(a, 1024), (b, 1024), (a, 1024), (b, 1024)];
    let preload = dataset(records, record_len, 42);
    let trace = ycsb::mixed_trace(records, record_len, 42, &mix);
    let runs = bl1_bl2_grub(2).map(|policy| {
        // GRuB runs warm-started (provisioned replicated, like BL2): the
        // paper's steady-state measurement with slot reuse (§4.2), so
        // adaptation is about evicting write-hot records and re-replicating
        // at Cupdate, not about first-insert capex.
        let warm = matches!(policy, PolicyKind::Memoryless { .. });
        let config = SystemConfig::new(policy).preload(preload.clone());
        named(run(
            &trace,
            &if warm { config.warm_start() } else { config },
        ))
    });
    let grub = runs[2].1.feed_gas_total();
    let mut totals = Table::new(title, &["policy", "total gas", "vs GRuB"]);
    for (name, report) in &runs {
        let total = report.feed_gas_total();
        let vs = if total == grub {
            "—".to_owned()
        } else {
            format!("{:+.1}%", percent_over(total, grub))
        };
        totals.row(&[name, &total, &vs]);
    }
    let epochs = series("per-epoch feed gas/op (every 8th epoch):", 8, &runs);
    vec![totals, epochs]
}

/// Figure 9 + Table 4 row 1: mixed YCSB A,B (4 phases), 1 KiB records.
///
/// Scale: 1024 ops/phase over 2^12 preloaded records (paper: 4096 ops over
/// 2^16) — the phase dynamics are what the figure shows.
pub fn fig9_table4_ab() -> Vec<Table> {
    let title = "## Figure 9 + Table 4 (A,B) — mixed YCSB A,B, 1 KiB records";
    ycsb_mix(title, (YcsbKind::A, YcsbKind::B), 1024)
}

/// Figure 13 + Table 4 rows 2–3: mixed YCSB A,E (1 KiB) and A,F (32 B).
pub fn fig13_table4_ae_af() -> Vec<Table> {
    let ae = "## Figure 13a + Table 4 (A,E) — mixed YCSB A,E, 1 KiB records";
    let af = "## Figure 13b + Table 4 (A,F) — mixed YCSB A,F, 32 B records";
    let mut tables = ycsb_mix(ae, (YcsbKind::A, YcsbKind::E), 1024);
    tables.extend(ycsb_mix(af, (YcsbKind::A, YcsbKind::F), 32));
    tables
}

/// Figure 11: memoryless K sweep across ratios 2/4/8.
pub fn fig11() -> Vec<Table> {
    let mut table = Table::new(
        "## Figure 11 — GRuB gas/op vs parameter K",
        &["K", "ratio 2", "ratio 4", "ratio 8"],
    );
    let traces = [2.0, 4.0, 8.0].map(|ratio| ratio_trace("feed", ratio, 32, 2048));
    for k in [1u64, 2, 4, 8, 16, 32, 64] {
        let config = SystemConfig::new(PolicyKind::Memoryless { k });
        let [r2, r4, r8] = traces
            .each_ref()
            .map(|trace| gas(run(trace, &config).feed_gas_per_op()));
        table.row(&[&k, &r2, &r4, &r8]);
    }
    vec![table]
}

/// Figure 12: the BL1/BL2 threshold (crossover) read-write ratio, vs record
/// size and vs data size.
pub fn fig12() -> Vec<Table> {
    // Finer resolution at low ratios, extended range for large records
    // whose crossover sits far right.
    let mut grid: Vec<f64> = (1..=16).map(|i| i as f64 * 0.125).collect();
    grid.extend((9..=16).map(|i| i as f64 * 0.25));
    grid.extend((9..=16).map(|i| i as f64 * 0.5));
    grid.extend((9..=16).map(|i| i as f64 * 1.0));
    grid.extend((9..=32).map(|i| i as f64 * 2.0));
    let key = ycsb::ycsb_key(0);
    // The first grid ratio at which BL2 costs no more than BL1.
    let threshold = |record_len: usize, data_size: u64| -> String {
        let preload = dataset(data_size, record_len, 5);
        let bl2_wins = |ratio: f64| {
            let trace = ratio_trace(&key, ratio, record_len, 768);
            let [bl1, bl2] = [PolicyKind::Bl1, PolicyKind::Bl2].map(|policy| {
                let config = SystemConfig::new(policy).preload(preload.clone());
                run(&trace, &config).feed_gas_per_op()
            });
            bl2 <= bl1
        };
        match grid.iter().find(|&&ratio| bl2_wins(ratio)) {
            Some(ratio) => format!("{ratio:.2}"),
            None => format!("> {}", grid[grid.len() - 1]),
        }
    };
    let title = "## Figure 12a — threshold read-write ratio vs record size (256 records)";
    let mut by_record = Table::new(title, &[]);
    for record_len in [32usize, 512, 4096] {
        let label = format!("{record_len} B: threshold ratio");
        by_record.row(&[&label, &threshold(record_len, 256)]);
    }
    let title = "## Figure 12b — threshold read-write ratio vs data size (32 B records)";
    let mut by_data = Table::new(title, &[]);
    for data_size in [256u64, 4096, 65536] {
        let label = format!("{data_size} records: threshold ratio");
        by_data.row(&[&label, &threshold(32, data_size)]);
    }
    let by_data = by_data
        .note("larger records raise the threshold (storage writes dominate);")
        .note("larger datasets deepen proofs and lower it.");
    vec![by_record, by_data]
}

/// Figure 14: K sweep under the YCSB A,B mix against the static baselines.
pub fn fig14() -> Vec<Table> {
    let mix = [(YcsbKind::A, 512), (YcsbKind::B, 512)];
    let (records, record_len) = (1 << 10, 256);
    let preload = dataset(records, record_len, 17);
    let trace = ycsb::mixed_trace(records, record_len, 17, &mix);
    let per_op =
        |config: SystemConfig| gas(run(&trace, &config.preload(preload.clone())).feed_gas_per_op());
    let title = format!(
        "## Figure 14 — gas/op vs K under YCSB (A,B mix)\nBL1 = {}, BL2 = {}",
        per_op(SystemConfig::new(PolicyKind::Bl1)),
        per_op(SystemConfig::new(PolicyKind::Bl2))
    );
    let mut table = Table::new(title, &["K", "GRuB gas/op"]);
    for k in [1u64, 2, 4, 8, 16, 32, 64] {
        let config = SystemConfig::new(PolicyKind::Memoryless { k }).warm_start();
        table.row(&[&k, &per_op(config)]);
    }
    vec![table]
}

/// Figure 15 + Table 5: the adaptive-K heuristics on the oracle trace.
pub fn fig15_table5() -> Vec<Table> {
    let trace = OracleTrace::new().writes(400).generate();
    let policies = [
        PolicyKind::Memoryless { k: 1 },
        adaptive(false),
        adaptive(true),
    ];
    let runs = policies.map(|policy| named(run(&trace, &SystemConfig::new(policy).live_reads())));
    let baseline = runs[0].1.feed_gas_total();
    let mut table5 = Table::new("## Table 5 — aggregated Gas under ethPriceOracle", &[]);
    for (name, report) in &runs {
        let total = report.feed_gas_total();
        table5.row(&[
            name,
            &total,
            &format!("({:+.1}%)", percent_over(total, baseline)),
        ]);
    }
    let title = "## Figure 15 — gas/op per epoch (every 2nd epoch)";
    vec![table5, series(title, 2, &runs)]
}

/// Table 6 + Figure 16: the BtcRelay workload itself.
pub fn table6_fig16() -> Vec<Table> {
    let trace = BtcRelayTrace::new().blocks(5000).generate();
    let series = stats::reads_after_write_series(&trace);
    let fig16 = format!(
        "## Figure 16a — {} writes, max reads-after-write {}\n\
         ## Figure 16b — reads are delayed ~24 blocks (≈4 h at 10 min/block) by construction",
        series.len(),
        series.iter().max().copied().unwrap_or(0)
    );
    let title = "## Table 6 — BtcRelay: distribution of writes by #reads following";
    vec![reads_after_write(title, &trace), Table::new(fig16, &[])]
}

/// Theorems A.1/A.2: empirical competitiveness of the online algorithms on
/// their worst-case sequences.
pub fn competitive() -> Vec<Table> {
    let schedule = GasSchedule::default();
    let online_over_offline = |trace: &Trace, policy: PolicyKind| {
        let online = run(trace, &SystemConfig::new(policy)).feed_gas_total();
        let ratio = online as f64 / optimal(trace).feed_gas_total() as f64;
        format!("online/offline = {ratio:.2}")
    };
    let title = "## Theorem A.1 — memoryless worst case (every write followed by exactly K reads)";
    let mut memoryless = Table::new(title, &[]);
    for k in [2u64, 4, 8] {
        let trace = RatioWorkload::new("feed", k as f64).generate(64);
        let ratio = online_over_offline(&trace, PolicyKind::Memoryless { k });
        let bound = 1.0 + k as f64 * schedule.read_off_per_byte() / schedule.update_per_byte();
        let bound = format!("(theory bound {bound:.2}; protocol overheads shared)");
        memoryless.row(&[&format!("K={k}:"), &ratio, &bound]);
    }
    let title = "## Theorem A.2 — memorizing bound (4D+2)/K' on alternating bursts";
    let mut memorizing = Table::new(title, &[]);
    for (k_prime, d) in [(2.0f64, 2.0f64), (4.0, 4.0)] {
        let trace = RatioWorkload::new("feed", 3.0).generate(64);
        let ratio = online_over_offline(&trace, PolicyKind::Memorizing { k_prime, d });
        let bound = format!("(theory bound {:.2})", (4.0 * d + 2.0) / k_prime);
        memorizing.row(&[&format!("K'={k_prime}, D={d}:"), &ratio, &bound]);
    }
    vec![memoryless, memorizing]
}

/// Ablation (beyond the paper): the future-work self-tuning K policy
/// against static K and the Appendix C.3 heuristics, on the oracle trace.
pub fn ablation_self_tuning() -> Vec<Table> {
    let trace = OracleTrace::new().writes(400).generate();
    let mut table = Table::new(
        "## Ablation — K selection policies under ethPriceOracle (live tempo)",
        &["policy", "total gas", "gas/op"],
    );
    for policy in [
        PolicyKind::Memoryless { k: 1 },
        PolicyKind::Memoryless { k: 2 },
        PolicyKind::Memoryless { k: 4 },
        adaptive(false),
        adaptive(true),
        PolicyKind::SelfTuning { window: 32 },
    ] {
        let report = run(&trace, &SystemConfig::new(policy).live_reads());
        let per_op = gas(report.feed_gas_per_op());
        table.row(&[&report.policy, &report.feed_gas_total(), &per_op]);
    }
    let table = table
        .note("the tuner replays the recent burst window under each candidate K and")
        .note("adopts the counterfactual argmin (the paper's open problem, App. C.3).");
    vec![table]
}

/// Multi-tenant extension (beyond the paper): N feeds with Zipfian tenant
/// skew share one chain via `grub-engine`; cross-feed epoch batching
/// amortizes the per-transaction envelope across each shard's same-block
/// updates (`batchUpdate`) and deliveries (`batchDeliver`). Compares total
/// feed Gas across the unbatched sum-of-singles baseline, write-only
/// batching, and full batching with the read path coalesced too.
pub fn multifeed_batching() -> Vec<Table> {
    use grub_engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
    use grub_engine::{EngineConfig, FeedEngine};

    let mut table = Table::new(
        "## Multi-tenant engine — cross-feed epoch batching (zipfian tenant skew)",
        &[
            "tenants",
            "shards",
            "unbatched gas",
            "upd-batch gas",
            "full-batch gas",
            "upd save",
            "all save",
        ],
    );
    for (tenants, shards, total_ops) in [(4usize, 1usize, 512usize), (8, 2, 1024), (16, 4, 2048)] {
        let full = EngineConfig::new(shards);
        let [u, w, f] = [
            full.clone().unbatched(),
            full.clone().without_read_batching(),
            full,
        ]
        .map(|config| {
            let specs = zipfian_ratio_specs(tenants, total_ops, DEMO_RATIOS, &demo_policies());
            let report = FeedEngine::run_specs(&config, specs).expect("engine run");
            report.feed_gas_total()
        });
        let saved = |to: u64| {
            let share = 100.0 * u.saturating_sub(to) as f64 / u.max(1) as f64;
            format!("{share:.1}%")
        };
        table.row(&[&tenants, &shards, &u, &w, &f, &saved(w), &saved(f)]);
        assert!(w < u, "update batching must save gas ({tenants} tenants)");
        assert!(
            f < w,
            "read batching must save on top of update batching ({tenants} tenants)"
        );
    }
    let table = table
        .note("unbatched = sum of independent single-feed runs on one chain; upd-batch")
        .note("= one update tx per shard per block; full-batch additionally coalesces")
        .note("each shard's SP deliveries into one batchDeliver tx per round.");
    vec![table]
}
