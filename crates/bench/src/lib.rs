//! The experiment harness: one regenerator per table and figure of the
//! paper's evaluation.
//!
//! Every function in [`experiments`] reproduces one published artifact —
//! same workload shape, same parameter sweep, same comparison set — and
//! returns the rows/series the paper reports as data: a `Vec<Table>`, in
//! print order. [`registry`] lists each one as an [`Experiment`],
//! `(name, artifact, fn() -> Vec<Table>)`, and [`Table::render`] is the
//! one text layout the bench binary prints. Absolute Gas differs from the
//! paper's Ropsten measurements where unstated batching parameters differ
//! (the calibration bands in ARCHITECTURE.md, "Where the simulator departs
//! from the paper").
//!
//! Run everything with `cargo bench --bench experiments`, or a subset with
//! `GRUB_EXPERIMENTS=fig3,fig7 cargo bench --bench experiments` (an
//! unknown name exits 1 listing the registry, see [`select`]).

#![forbid(unsafe_code)]

pub mod experiments;
mod table;

use grub_fault::KnobError;

pub use table::Table;

/// One experiment entry: `(name, paper artifact, function)`.
pub type Experiment = (&'static str, &'static str, fn() -> Vec<Table>);

/// Registry of all experiments.
#[rustfmt::skip]
pub fn registry() -> Vec<Experiment> {
    use experiments as e;
    vec![
        ("table1", "Table 1 + Figure 2 (oracle workload)", e::table1_fig2 as fn() -> Vec<Table>),
        ("table2", "Table 2 (gas schedule)", e::table2),
        ("fig3", "Figure 3 (static baselines vs ratio)", e::fig3),
        ("fig5", "Figure 5 + Table 3 (oracle trace, SCoin)", e::fig5_table3),
        ("fig6", "Figure 6 (BtcRelay trace)", e::fig6),
        ("fig7", "Figure 7 (GRuB vs baselines vs ratio)", e::fig7),
        ("fig8a", "Figure 8a (memoryless vs memorizing vs optimal)", e::fig8a),
        ("fig8b", "Figure 8b (record size sweep)", e::fig8b),
        ("fig9", "Figure 9 + Table 4 row 1 (YCSB A,B)", e::fig9_table4_ab),
        ("fig11", "Figure 11 (parameter K sweep)", e::fig11),
        ("fig12", "Figure 12 (threshold ratio vs record/data size)", e::fig12),
        ("fig13", "Figure 13 + Table 4 rows 2-3 (YCSB A,E / A,F)", e::fig13_table4_ae_af),
        ("fig14", "Figure 14 (K sweep under YCSB)", e::fig14),
        ("fig15", "Figure 15 + Table 5 (adaptive K policies)", e::fig15_table5),
        ("table6", "Table 6 + Figure 16 (BtcRelay workload)", e::table6_fig16),
        ("competitive", "Theorems A.1/A.2 (empirical competitiveness)", e::competitive),
        ("ablation", "Ablation (extension): self-tuning K vs static/adaptive", e::ablation_self_tuning),
        ("multifeed", "Multi-tenant engine (extension): cross-feed epoch batching", e::multifeed_batching),
    ]
}

/// Parses a `GRUB_EXPERIMENTS` value — comma-separated registry names — into
/// the experiments it selects, in registry order. `None` (the knob is off)
/// selects every experiment.
///
/// # Errors
///
/// A [`KnobError`] listing the registry's names when a name is not in it,
/// so a typo fails the run instead of running nothing.
pub fn select(raw: Option<&str>) -> Result<Vec<Experiment>, KnobError> {
    let all = registry();
    let Some(raw) = raw else {
        return Ok(all);
    };
    let wanted: Vec<&str> = raw.split(',').map(str::trim).collect();
    if let Some(unknown) = wanted.iter().find(|w| !all.iter().any(|(n, _, _)| n == *w)) {
        let names: Vec<&str> = all.iter().map(|(name, _, _)| *name).collect();
        let want = format!("a comma-separated subset of {}", names.join(", "));
        return Err(KnobError::new("GRUB_EXPERIMENTS", unknown, want));
    }
    Ok(all
        .into_iter()
        .filter(|(name, _, _)| wanted.contains(name))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(selected: &[Experiment]) -> Vec<&'static str> {
        selected.iter().map(|(name, _, _)| *name).collect()
    }

    #[test]
    fn experiments_knob_selects_a_subset_in_registry_order() {
        let selected = select(Some("fig7, table1")).unwrap();
        assert_eq!(names(&selected), ["table1", "fig7"]);
    }

    #[test]
    fn experiments_knob_names_an_unknown_experiment() {
        let err = select(Some("fig3,fig33")).unwrap_err();
        assert_eq!((err.name, err.raw.as_str()), ("GRUB_EXPERIMENTS", "fig33"));
        assert!(err.want.contains("fig3") && err.want.contains("multifeed"));
    }

    #[test]
    fn experiments_knob_off_runs_everything() {
        // `grub_fault::knob` hands the parser `None` for unset, empty and `0`.
        assert_eq!(names(&select(None).unwrap()), names(&registry()));
    }
}
