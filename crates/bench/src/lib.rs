//! The experiment harness: one regenerator per table and figure of the
//! paper's evaluation.
//!
//! Every function in [`experiments`] reproduces one published artifact —
//! same workload shape, same parameter sweep, same comparison set — and
//! renders the rows/series the paper reports. Absolute Gas differs from the
//! paper's Ropsten measurements where unstated batching parameters differ
//! (the calibration bands in ARCHITECTURE.md, "Where the simulator departs
//! from the paper").
//!
//! Run everything with `cargo bench --bench experiments`, or a single one
//! with `cargo run --release -p grub-bench --bin experiment -- fig3`.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod experiments;

/// One experiment entry: `(name, paper artifact, function)`.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// Registry of all experiments.
pub fn registry() -> Vec<Experiment> {
    use experiments as e;
    vec![
        (
            "table1",
            "Table 1 + Figure 2 (oracle workload)",
            e::table1_fig2 as fn() -> String,
        ),
        ("table2", "Table 2 (gas schedule)", e::table2),
        ("fig3", "Figure 3 (static baselines vs ratio)", e::fig3),
        (
            "fig5",
            "Figure 5 + Table 3 (oracle trace, SCoin)",
            e::fig5_table3,
        ),
        ("fig6", "Figure 6 (BtcRelay trace)", e::fig6),
        ("fig7", "Figure 7 (GRuB vs baselines vs ratio)", e::fig7),
        (
            "fig8a",
            "Figure 8a (memoryless vs memorizing vs optimal)",
            e::fig8a,
        ),
        ("fig8b", "Figure 8b (record size sweep)", e::fig8b),
        (
            "fig9",
            "Figure 9 + Table 4 row 1 (YCSB A,B)",
            e::fig9_table4_ab,
        ),
        ("fig11", "Figure 11 (parameter K sweep)", e::fig11),
        (
            "fig12",
            "Figure 12 (threshold ratio vs record/data size)",
            e::fig12,
        ),
        (
            "fig13",
            "Figure 13 + Table 4 rows 2-3 (YCSB A,E / A,F)",
            e::fig13_table4_ae_af,
        ),
        ("fig14", "Figure 14 (K sweep under YCSB)", e::fig14),
        (
            "fig15",
            "Figure 15 + Table 5 (adaptive K policies)",
            e::fig15_table5,
        ),
        (
            "table6",
            "Table 6 + Figure 16 (BtcRelay workload)",
            e::table6_fig16,
        ),
        (
            "competitive",
            "Theorems A.1/A.2 (empirical competitiveness)",
            e::competitive,
        ),
        (
            "ablation",
            "Ablation (extension): self-tuning K vs static/adaptive",
            e::ablation_self_tuning,
        ),
        (
            "multifeed",
            "Multi-tenant engine (extension): cross-feed epoch batching",
            e::multifeed_batching,
        ),
    ]
}
