//! Implementations of the per-figure/table regenerators.
//!
//! Scale notes: time-bounded CI runs use moderately scaled-down op counts
//! relative to the paper (recorded inline per experiment); shapes —
//! crossovers, winners, convergence — are the reproduction target, per the
//! calibration bands in ARCHITECTURE.md ("Where the simulator departs from
//! the paper").

use std::fmt::Write as _;
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

const RATIOS: &[f64] = &[0.0, 0.125, 0.5, 1.0, 4.0, 16.0, 64.0, 256.0];

fn run(trace: &Trace, config: &SystemConfig) -> RunReport {
    GrubSystem::run(&mut trace.source(), config).expect("experiment run")
}

fn ratio_trace(ratio: f64, value_len: usize) -> Trace {
    let per_cycle = if ratio == 0.0 {
        1.0
    } else if ratio >= 1.0 {
        1.0 + ratio
    } else {
        1.0 / ratio + 1.0
    };
    let cycles = ((2048.0 / per_cycle).ceil() as usize).max(8);
    RatioWorkload::new("feed", ratio)
        .value_len(value_len)
        .generate(cycles)
}

/// Table 2: the Gas schedule (constants are also unit-tested in `grub-gas`).
pub fn table2() -> String {
    let s = GasSchedule::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Table 2 — Ethereum Gas cost per operation (X = 32-byte words)"
    );
    let _ = writeln!(
        out,
        "Transaction            Ctx(X)    = {} + {}X",
        s.tx_base, s.tx_per_word
    );
    let _ = writeln!(
        out,
        "Storage write (insert) Cinsert(X) = {}X",
        s.storage_insert_per_word
    );
    let _ = writeln!(
        out,
        "Storage write (update) Cupdate(X) = {}X",
        s.storage_update_per_word
    );
    let _ = writeln!(
        out,
        "Storage read           Cread(X)  = {}X",
        s.storage_read_per_word
    );
    let _ = writeln!(
        out,
        "Hash computation       Chash(X)  = {} + {}X",
        s.hash_base, s.hash_per_word
    );
    let _ = writeln!(
        out,
        "Equation 1 threshold   K = Cupdate/Cread_off = {:.2}",
        s.two_competitive_k()
    );
    out
}

/// Table 1 + Figure 2: the synthesized ethPriceOracle workload.
pub fn table1_fig2() -> String {
    let trace = OracleTrace::new().generate();
    let dist = stats::reads_after_write_distribution(&trace);
    let series = stats::reads_after_write_series(&trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Table 1 — distribution of writes by #reads following ({} writes)",
        trace.write_count()
    );
    let _ = writeln!(out, "{:>4} {:>10}", "#r", "percent");
    for (reads, pct) in stats::distribution_rows(&dist) {
        let _ = writeln!(out, "{reads:>4} {pct:>9.2}%");
    }
    let max_burst = series.iter().max().copied().unwrap_or(0);
    let zeros = series.iter().filter(|&&r| r == 0).count();
    let _ = writeln!(
        out,
        "\n## Figure 2 — series summary: {} writes, max burst {} reads, {:.1}% zero-read writes",
        series.len(),
        max_burst,
        100.0 * zeros as f64 / series.len() as f64
    );
    out
}

/// Figure 3: the static baselines BL1/BL2 across read-to-write ratios
/// (the §2.3 motivating measurement).
pub fn fig3() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Figure 3 — per-op Gas of static baselines vs read-to-write ratio"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>14} {:>10}",
        "ratio", "BL1 gas/op", "BL2 gas/op", "winner"
    );
    for &ratio in RATIOS {
        let trace = ratio_trace(ratio, 32);
        let bl1 = run(&trace, &SystemConfig::new(PolicyKind::Bl1));
        let bl2 = run(&trace, &SystemConfig::new(PolicyKind::Bl2));
        let winner = if bl1.feed_gas_per_op() <= bl2.feed_gas_per_op() {
            "BL1"
        } else {
            "BL2"
        };
        let _ = writeln!(
            out,
            "{ratio:>8} {:>14.0} {:>14.0} {winner:>10}",
            bl1.feed_gas_per_op(),
            bl2.feed_gas_per_op()
        );
    }
    out
}

/// Drives the oracle trace through a feed consumed by the SCoin issuer,
/// returning (feed-layer gas, feed+app gas, per-epoch feed series).
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
pub fn fig5_table3() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Table 3 — aggregated Gas: feed layer and SCoinIssuer (M = million)"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>16} {:>18}",
        "policy", "price feed", "SCoinIssuer"
    );
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    let mut grub_feed = 0u64;
    let mut rows: Vec<(String, u64, u64)> = Vec::new();
    for policy in [
        PolicyKind::Bl1,
        PolicyKind::Bl2,
        PolicyKind::Memoryless { k: 1 },
    ] {
        let report = run_scoin(policy);
        let feed = report.feed_gas_total();
        let total = feed + report.app_gas_total();
        if report.policy.contains("memoryless") {
            grub_feed = feed;
        }
        rows.push((report.policy.clone(), feed, total));
        series.push((report.policy.clone(), report.feed_series()));
    }
    for (name, feed, total) in &rows {
        let vs = if grub_feed > 0 && *feed != grub_feed {
            format!(
                " (+{:.0}%)",
                100.0 * (*feed as f64 - grub_feed as f64) / grub_feed as f64
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{name:<28} {:>10.1}M{vs:<6} {:>12.1}M",
            *feed as f64 / 1e6,
            *total as f64 / 1e6
        );
    }
    let _ = writeln!(
        out,
        "\n## Figure 5 — feed gas/op per epoch (every 4th epoch)"
    );
    let _ = write!(out, "{:<10}", "epoch");
    for (name, _) in &series {
        let _ = write!(out, "{:>28}", truncate(name, 26));
    }
    let _ = writeln!(out);
    let epochs = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for e in (0..epochs).step_by(4) {
        let _ = write!(out, "{e:<10}");
        for (_, s) in &series {
            let v = s.get(e).copied().unwrap_or(f64::NAN);
            let _ = write!(out, "{v:>28.0}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Figure 6: the BtcRelay trace (write-intensive first half, read-intensive
/// second half), epoch of 4 transactions, GRuB with K=2.
pub fn fig6() -> String {
    // 200 relayed blocks; the second half carries a 10x read boost, giving
    // the paper's phase flip around the middle epoch.
    let trace = BtcRelayTrace::new()
        .blocks(200)
        .read_delay_blocks(6)
        .boost_reads(100..200, 10.0)
        .generate();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Figure 6 — BtcRelay trace, gas/op per epoch (each of 4 txs)"
    );
    let mut series = Vec::new();
    let mut totals = Vec::new();
    for policy in [
        PolicyKind::Bl1,
        PolicyKind::Bl2,
        PolicyKind::Memoryless { k: 2 },
    ] {
        let config = SystemConfig::new(policy).epoch_ops(4).live_reads();
        let report = run(&trace, &config);
        totals.push((report.policy.clone(), report.feed_gas_per_op()));
        series.push((report.policy.clone(), report.feed_series()));
    }
    let _ = write!(out, "{:<8}", "epoch");
    for (name, _) in &series {
        let _ = write!(out, "{:>28}", truncate(name, 26));
    }
    let _ = writeln!(out);
    let epochs = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for e in (0..epochs).step_by(4) {
        let _ = write!(out, "{e:<8}");
        for (_, s) in &series {
            let v = s.get(e).copied().unwrap_or(f64::NAN);
            let _ = write!(out, "{v:>28.0}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "\naggregate gas/op:");
    let grub = totals.last().expect("grub row").1;
    for (name, value) in &totals {
        let saving = if *value > grub {
            format!(" (GRuB saves {:.1}%)", 100.0 * (value - grub) / value)
        } else {
            String::new()
        };
        let _ = writeln!(out, "  {name:<28} {value:>10.0}{saving}");
    }
    out
}

/// Figure 7: GRuB vs the static baselines and the on-chain-trace dynamic
/// baselines (BL3) across ratios.
pub fn fig7() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Figure 7 — converged gas/op vs read-to-write ratio");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>14} {:>16} {:>12}",
        "ratio", "BL1", "BL2", "BL3(reads)", "BL3(reads+wr)", "GRuB"
    );
    for &ratio in RATIOS {
        let trace = ratio_trace(ratio, 32);
        let bl1 = run(&trace, &SystemConfig::new(PolicyKind::Bl1));
        let bl2 = run(&trace, &SystemConfig::new(PolicyKind::Bl2));
        let bl3r = run(
            &trace,
            &SystemConfig::new(PolicyKind::Memoryless { k: 2 }).on_chain_trace(OnChainTrace::Reads),
        );
        let bl3rw = run(
            &trace,
            &SystemConfig::new(PolicyKind::Memoryless { k: 2 })
                .on_chain_trace(OnChainTrace::ReadsAndWrites),
        );
        let grub = run(&trace, &SystemConfig::new(PolicyKind::Memoryless { k: 2 }));
        let _ = writeln!(
            out,
            "{ratio:>8} {:>12.0} {:>12.0} {:>14.0} {:>16.0} {:>12.0}",
            bl1.feed_gas_per_op(),
            bl2.feed_gas_per_op(),
            bl3r.feed_gas_per_op(),
            bl3rw.feed_gas_per_op(),
            grub.feed_gas_per_op()
        );
    }
    let _ = writeln!(
        out,
        "\nGRuB should track min(BL1, BL2); BL3 pays on-chain monitoring on top."
    );
    out
}

/// Figure 8a: memoryless vs memorizing vs the offline optimum on the
/// worst-case-style workload (K = K' = 8, ratio K+1).
pub fn fig8a() -> String {
    let k = 8u64;
    let trace = RatioWorkload::new("feed", (k + 1) as f64).generate(40);
    let mut out = String::new();
    let _ = writeln!(out, "## Figure 8a — gas/op over time (K=K'=8, ratio K+1)");
    let memless = run(&trace, &SystemConfig::new(PolicyKind::Memoryless { k }));
    let memor = run(
        &trace,
        &SystemConfig::new(PolicyKind::Memorizing {
            k_prime: k as f64,
            d: 1.0,
        }),
    );
    let optimal = GrubSystem::run_with_policy(
        &mut trace.source(),
        &SystemConfig::new(PolicyKind::Bl1),
        Box::new(OfflineOptimal::from_trace(
            &trace,
            GasSchedule::default().two_competitive_k(),
        )),
    )
    .expect("offline run");
    let _ = writeln!(
        out,
        "{:<8}{:>18}{:>18}{:>18}",
        "epoch", "memoryless", "memorizing", "optimal"
    );
    let n = memless
        .epochs
        .len()
        .max(memor.epochs.len())
        .max(optimal.epochs.len());
    for e in 0..n {
        let _ = writeln!(
            out,
            "{e:<8}{:>18.0}{:>18.0}{:>18.0}",
            memless.feed_series().get(e).copied().unwrap_or(f64::NAN),
            memor.feed_series().get(e).copied().unwrap_or(f64::NAN),
            optimal.feed_series().get(e).copied().unwrap_or(f64::NAN),
        );
    }
    let _ = writeln!(
        out,
        "\naggregate gas/op: memoryless {:.0}, memorizing {:.0}, optimal {:.0}",
        memless.feed_gas_per_op(),
        memor.feed_gas_per_op(),
        optimal.feed_gas_per_op()
    );
    out
}

/// Figure 8b: record-size sweep (1–16 words) for BL1/BL2/GRuB.
pub fn fig8b() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Figure 8b — gas/op vs record size (ratio 4)");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12}",
        "words", "BL1", "BL2", "GRuB"
    );
    for words in [1usize, 2, 4, 8, 16] {
        let trace = ratio_trace(4.0, words * 32);
        let bl1 = run(&trace, &SystemConfig::new(PolicyKind::Bl1));
        let bl2 = run(&trace, &SystemConfig::new(PolicyKind::Bl2));
        let grub = run(&trace, &SystemConfig::new(PolicyKind::Memoryless { k: 2 }));
        let _ = writeln!(
            out,
            "{words:>8} {:>12.0} {:>12.0} {:>12.0}",
            bl1.feed_gas_per_op(),
            bl2.feed_gas_per_op(),
            grub.feed_gas_per_op()
        );
    }
    out
}

fn run_ycsb_mix(
    mix: &[(YcsbKind, usize)],
    record_len: usize,
    records: u64,
) -> Vec<(String, RunReport)> {
    let preload: Vec<(String, Vec<u8>)> = ycsb::preload(records, record_len, 42)
        .into_iter()
        .map(|(k, v)| (k, v.materialize()))
        .collect();
    let trace = ycsb::mixed_trace(records, record_len, 42, mix);
    [
        PolicyKind::Bl1,
        PolicyKind::Bl2,
        PolicyKind::Memoryless { k: 2 },
    ]
    .into_iter()
    .map(|policy| {
        // GRuB runs warm-started (provisioned replicated, like BL2): the
        // paper's steady-state measurement with slot reuse (§4.2), so
        // adaptation is about evicting write-hot records and re-replicating
        // at Cupdate, not about first-insert capex.
        let warm = matches!(policy, PolicyKind::Memoryless { .. });
        let mut config = SystemConfig::new(policy).preload(preload.clone());
        if warm {
            config = config.warm_start();
        }
        let report = run(&trace, &config);
        (report.policy.clone(), report)
    })
    .collect()
}

fn render_ycsb(title: &str, results: &[(String, RunReport)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let grub = results.last().expect("grub row").1.feed_gas_total();
    let _ = writeln!(
        out,
        "{:<28} {:>16} {:>10}",
        "policy", "total gas", "vs GRuB"
    );
    for (name, report) in results {
        let total = report.feed_gas_total();
        let vs = if total != grub {
            format!(
                "{:+.1}%",
                100.0 * (total as f64 - grub as f64) / grub as f64
            )
        } else {
            "—".to_owned()
        };
        let _ = writeln!(out, "{name:<28} {total:>16} {vs:>10}");
    }
    let _ = writeln!(out, "\nper-epoch feed gas/op (every 8th epoch):");
    let _ = write!(out, "{:<8}", "epoch");
    for (name, _) in results {
        let _ = write!(out, "{:>28}", truncate(name, 26));
    }
    let _ = writeln!(out);
    let epochs = results
        .iter()
        .map(|(_, r)| r.epochs.len())
        .max()
        .unwrap_or(0);
    for e in (0..epochs).step_by(8) {
        let _ = write!(out, "{e:<8}");
        for (_, r) in results {
            let v = r.feed_series().get(e).copied().unwrap_or(f64::NAN);
            let _ = write!(out, "{v:>28.0}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Figure 9 + Table 4 row 1: mixed YCSB A,B (4 phases), 1 KiB records.
///
/// Scale: 1024 ops/phase over 2^12 preloaded records (paper: 4096 ops over
/// 2^16) — the phase dynamics are what the figure shows.
pub fn fig9_table4_ab() -> String {
    let mix = [
        (YcsbKind::A, 1024),
        (YcsbKind::B, 1024),
        (YcsbKind::A, 1024),
        (YcsbKind::B, 1024),
    ];
    let results = run_ycsb_mix(&mix, 1024, 1 << 12);
    render_ycsb(
        "## Figure 9 + Table 4 (A,B) — mixed YCSB A,B, 1 KiB records",
        &results,
    )
}

/// Figure 13 + Table 4 rows 2–3: mixed YCSB A,E (1 KiB) and A,F (32 B).
pub fn fig13_table4_ae_af() -> String {
    let mut out = String::new();
    let mix_ae = [
        (YcsbKind::A, 1024),
        (YcsbKind::E, 1024),
        (YcsbKind::A, 1024),
        (YcsbKind::E, 1024),
    ];
    let results = run_ycsb_mix(&mix_ae, 1024, 1 << 12);
    out.push_str(&render_ycsb(
        "## Figure 13a + Table 4 (A,E) — mixed YCSB A,E, 1 KiB records",
        &results,
    ));
    let mix_af = [
        (YcsbKind::A, 1024),
        (YcsbKind::F, 1024),
        (YcsbKind::A, 1024),
        (YcsbKind::F, 1024),
    ];
    let results = run_ycsb_mix(&mix_af, 32, 1 << 12);
    out.push('\n');
    out.push_str(&render_ycsb(
        "## Figure 13b + Table 4 (A,F) — mixed YCSB A,F, 32 B records",
        &results,
    ));
    out
}

/// Figure 11: memoryless K sweep across ratios 2/4/8.
pub fn fig11() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Figure 11 — GRuB gas/op vs parameter K");
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>14}",
        "K", "ratio 2", "ratio 4", "ratio 8"
    );
    for k in [1u64, 2, 4, 8, 16, 32, 64] {
        let mut row = format!("{k:>6}");
        for ratio in [2.0, 4.0, 8.0] {
            let trace = ratio_trace(ratio, 32);
            let report = run(&trace, &SystemConfig::new(PolicyKind::Memoryless { k }));
            let _ = write!(row, " {:>14.0}", report.feed_gas_per_op());
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Figure 12: the BL1/BL2 threshold (crossover) read-write ratio, vs record
/// size and vs data size.
pub fn fig12() -> String {
    // Finer resolution at low ratios, extended range for large records
    // whose crossover sits far right.
    let mut grid: Vec<f64> = (1..=16).map(|i| i as f64 * 0.125).collect();
    grid.extend((9..=16).map(|i| i as f64 * 0.25));
    grid.extend((9..=16).map(|i| i as f64 * 0.5));
    grid.extend((9..=16).map(|i| i as f64 * 1.0));
    grid.extend((9..=32).map(|i| i as f64 * 2.0));
    let crossover = |record_len: usize, data_size: u64| -> f64 {
        let preload: Vec<(String, Vec<u8>)> = ycsb::preload(data_size, record_len, 5)
            .into_iter()
            .map(|(k, v)| (k, v.materialize()))
            .collect();
        for &ratio in &grid {
            let trace = {
                let per_cycle = if ratio >= 1.0 {
                    1.0 + ratio
                } else {
                    1.0 / ratio + 1.0
                };
                let cycles = ((768.0 / per_cycle).ceil() as usize).max(4);
                RatioWorkload::new(ycsb::ycsb_key(0), ratio)
                    .value_len(record_len)
                    .generate(cycles)
            };
            let bl1 = run(
                &trace,
                &SystemConfig::new(PolicyKind::Bl1).preload(preload.clone()),
            );
            let bl2 = run(
                &trace,
                &SystemConfig::new(PolicyKind::Bl2).preload(preload.clone()),
            );
            if bl2.feed_gas_per_op() <= bl1.feed_gas_per_op() {
                return ratio;
            }
        }
        f64::NAN
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Figure 12a — threshold read-write ratio vs record size (256 records)"
    );
    for record_len in [32usize, 512, 4096] {
        let _ = writeln!(
            out,
            "  {record_len:>5} B: threshold ratio {:.2}",
            crossover(record_len, 256)
        );
    }
    let _ = writeln!(
        out,
        "\n## Figure 12b — threshold read-write ratio vs data size (32 B records)"
    );
    for data_size in [256u64, 4096, 65536] {
        let _ = writeln!(
            out,
            "  {data_size:>6} records: threshold ratio {:.2}",
            crossover(32, data_size)
        );
    }
    let _ = writeln!(
        out,
        "\nlarger records raise the threshold (storage writes dominate);\nlarger datasets deepen proofs and lower it."
    );
    out
}

/// Figure 14: K sweep under the YCSB A,B mix against the static baselines.
pub fn fig14() -> String {
    let mix = [(YcsbKind::A, 512), (YcsbKind::B, 512)];
    let records = 1u64 << 10;
    let record_len = 256usize;
    let preload: Vec<(String, Vec<u8>)> = ycsb::preload(records, record_len, 17)
        .into_iter()
        .map(|(k, v)| (k, v.materialize()))
        .collect();
    let trace = ycsb::mixed_trace(records, record_len, 17, &mix);
    let bl1 = run(
        &trace,
        &SystemConfig::new(PolicyKind::Bl1).preload(preload.clone()),
    );
    let bl2 = run(
        &trace,
        &SystemConfig::new(PolicyKind::Bl2).preload(preload.clone()),
    );
    let mut out = String::new();
    let _ = writeln!(out, "## Figure 14 — gas/op vs K under YCSB (A,B mix)");
    let _ = writeln!(
        out,
        "BL1 = {:.0}, BL2 = {:.0}",
        bl1.feed_gas_per_op(),
        bl2.feed_gas_per_op()
    );
    let _ = writeln!(out, "{:>6} {:>16}", "K", "GRuB gas/op");
    for k in [1u64, 2, 4, 8, 16, 32, 64] {
        let report = run(
            &trace,
            &SystemConfig::new(PolicyKind::Memoryless { k })
                .preload(preload.clone())
                .warm_start(),
        );
        let _ = writeln!(out, "{k:>6} {:>16.0}", report.feed_gas_per_op());
    }
    out
}

/// Figure 15 + Table 5: the adaptive-K heuristics on the oracle trace.
pub fn fig15_table5() -> String {
    let trace = OracleTrace::new().writes(400).generate();
    let mut out = String::new();
    let _ = writeln!(out, "## Table 5 — aggregated Gas under ethPriceOracle");
    let mut results = Vec::new();
    for policy in [
        PolicyKind::Memoryless { k: 1 },
        PolicyKind::Adaptive {
            dual: false,
            window: 3,
        },
        PolicyKind::Adaptive {
            dual: true,
            window: 3,
        },
    ] {
        let report = run(&trace, &SystemConfig::new(policy).live_reads());
        results.push((report.policy.clone(), report));
    }
    let baseline = results[0].1.feed_gas_total() as f64;
    for (name, report) in &results {
        let delta = 100.0 * (report.feed_gas_total() as f64 - baseline) / baseline;
        let _ = writeln!(
            out,
            "{:<42} {:>12} ({:+.1}%)",
            name,
            report.feed_gas_total(),
            delta
        );
    }
    let _ = writeln!(out, "\n## Figure 15 — gas/op per epoch (every 2nd epoch)");
    let _ = write!(out, "{:<8}", "epoch");
    for (name, _) in &results {
        let _ = write!(out, "{:>34}", truncate(name, 32));
    }
    let _ = writeln!(out);
    let epochs = results
        .iter()
        .map(|(_, r)| r.epochs.len())
        .max()
        .unwrap_or(0);
    for e in (0..epochs).step_by(2) {
        let _ = write!(out, "{e:<8}");
        for (_, r) in &results {
            let v = r.feed_series().get(e).copied().unwrap_or(f64::NAN);
            let _ = write!(out, "{v:>34.0}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Table 6 + Figure 16: the BtcRelay workload itself.
pub fn table6_fig16() -> String {
    let trace = BtcRelayTrace::new().blocks(5000).generate();
    let dist = stats::reads_after_write_distribution(&trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Table 6 — BtcRelay: distribution of writes by #reads following"
    );
    let _ = writeln!(out, "{:>4} {:>10}", "#r", "percent");
    for (reads, pct) in stats::distribution_rows(&dist).into_iter().take(12) {
        let _ = writeln!(out, "{reads:>4} {pct:>9.2}%");
    }
    let series = stats::reads_after_write_series(&trace);
    let _ = writeln!(
        out,
        "\n## Figure 16a — {} writes, max reads-after-write {}",
        series.len(),
        series.iter().max().copied().unwrap_or(0)
    );
    let _ = writeln!(
        out,
        "## Figure 16b — reads are delayed ~24 blocks (≈4 h at 10 min/block) by construction"
    );
    out
}

/// Theorems A.1/A.2: empirical competitiveness of the online algorithms on
/// their worst-case sequences.
pub fn competitive() -> String {
    let schedule = GasSchedule::default();
    let k_eq1 = schedule.two_competitive_k();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Theorem A.1 — memoryless worst case (every write followed by exactly K reads)"
    );
    for k in [2u64, 4, 8] {
        let trace = RatioWorkload::new("feed", k as f64).generate(64);
        let online = run(&trace, &SystemConfig::new(PolicyKind::Memoryless { k }));
        let offline = GrubSystem::run_with_policy(
            &mut trace.source(),
            &SystemConfig::new(PolicyKind::Bl1),
            Box::new(OfflineOptimal::from_trace(&trace, k_eq1)),
        )
        .expect("offline");
        let ratio = online.feed_gas_total() as f64 / offline.feed_gas_total() as f64;
        let bound = 1.0 + k as f64 * schedule.read_off_per_byte() / schedule.update_per_byte();
        let _ = writeln!(
            out,
            "  K={k}: online/offline = {ratio:.2} (theory bound {bound:.2}; protocol overheads shared)"
        );
    }
    let _ = writeln!(
        out,
        "\n## Theorem A.2 — memorizing bound (4D+2)/K' on alternating bursts"
    );
    for (k_prime, d) in [(2.0f64, 2.0f64), (4.0, 4.0)] {
        let trace = RatioWorkload::new("feed", 3.0).generate(64);
        let online = run(
            &trace,
            &SystemConfig::new(PolicyKind::Memorizing { k_prime, d }),
        );
        let offline = GrubSystem::run_with_policy(
            &mut trace.source(),
            &SystemConfig::new(PolicyKind::Bl1),
            Box::new(OfflineOptimal::from_trace(&trace, k_eq1)),
        )
        .expect("offline");
        let ratio = online.feed_gas_total() as f64 / offline.feed_gas_total() as f64;
        let bound = (4.0 * d + 2.0) / k_prime;
        let _ = writeln!(
            out,
            "  K'={k_prime}, D={d}: online/offline = {ratio:.2} (theory bound {bound:.2})"
        );
    }
    out
}

/// Ablation (beyond the paper): the future-work self-tuning K policy
/// against static K and the Appendix C.3 heuristics, on the oracle trace.
pub fn ablation_self_tuning() -> String {
    let trace = OracleTrace::new().writes(400).generate();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Ablation — K selection policies under ethPriceOracle (live tempo)"
    );
    let _ = writeln!(out, "{:<44} {:>14} {:>10}", "policy", "total gas", "gas/op");
    for policy in [
        PolicyKind::Memoryless { k: 1 },
        PolicyKind::Memoryless { k: 2 },
        PolicyKind::Memoryless { k: 4 },
        PolicyKind::Adaptive {
            dual: false,
            window: 3,
        },
        PolicyKind::Adaptive {
            dual: true,
            window: 3,
        },
        PolicyKind::SelfTuning { window: 32 },
    ] {
        let report = run(&trace, &SystemConfig::new(policy).live_reads());
        let _ = writeln!(
            out,
            "{:<44} {:>14} {:>10.0}",
            report.policy,
            report.feed_gas_total(),
            report.feed_gas_per_op()
        );
    }
    let _ = writeln!(
        out,
        "
the tuner replays the recent burst window under each candidate K and
         adopts the counterfactual argmin (the paper's open problem, App. C.3)."
    );
    out
}

/// Multi-tenant extension (beyond the paper): N feeds with Zipfian tenant
/// skew share one chain via `grub-engine`; cross-feed epoch batching
/// amortizes the per-transaction envelope across each shard's same-block
/// updates (`batchUpdate`) and deliveries (`batchDeliver`). Compares total
/// feed Gas across the unbatched sum-of-singles baseline, write-only
/// batching, and full batching with the read path coalesced too.
pub fn multifeed_batching() -> String {
    use grub_engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
    use grub_engine::{EngineConfig, FeedEngine, FeedSpec};

    let build_specs = |tenants: usize, total_ops: usize| -> Vec<FeedSpec> {
        zipfian_ratio_specs(tenants, total_ops, DEMO_RATIOS, &demo_policies())
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Multi-tenant engine — cross-feed epoch batching (zipfian tenant skew)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>15} {:>15} {:>15} {:>9} {:>9}",
        "tenants",
        "shards",
        "unbatched gas",
        "upd-batch gas",
        "full-batch gas",
        "upd save",
        "all save"
    );
    for (tenants, shards, total_ops) in [(4usize, 1usize, 512usize), (8, 2, 1024), (16, 4, 2048)] {
        let unbatched = FeedEngine::run_specs(
            &EngineConfig::new(shards).unbatched(),
            build_specs(tenants, total_ops),
        )
        .expect("unbatched engine run");
        let write_only = FeedEngine::run_specs(
            &EngineConfig::new(shards).without_read_batching(),
            build_specs(tenants, total_ops),
        )
        .expect("write-only engine run");
        let full =
            FeedEngine::run_specs(&EngineConfig::new(shards), build_specs(tenants, total_ops))
                .expect("fully batched engine run");
        let (u, w, f) = (
            unbatched.feed_gas_total(),
            write_only.feed_gas_total(),
            full.feed_gas_total(),
        );
        let saved = |to: u64| 100.0 * u.saturating_sub(to) as f64 / u.max(1) as f64;
        let _ = writeln!(
            out,
            "{tenants:<10} {shards:>7} {u:>15} {w:>15} {f:>15} {:>8.1}% {:>8.1}%",
            saved(w),
            saved(f)
        );
        assert!(w < u, "update batching must save gas ({tenants} tenants)");
        assert!(
            f < w,
            "read batching must save on top of update batching ({tenants} tenants)"
        );
    }
    let _ = writeln!(
        out,
        "\nunbatched = sum of independent single-feed runs on one chain; upd-batch\n\
         = one update tx per shard per block; full-batch additionally coalesces\n\
         each shard's SP deliveries into one batchDeliver tx per round."
    );
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_owned()
    } else {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take_while(|(i, _)| *i < max - 1)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(0)]
        )
    }
}
