//! `compare A.json B.json`: per workload × end-to-end metric, both values,
//! how much worse B is than A, and a verdict against the bound
//! `BENCHMARK.json` fixes for that metric.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regression,
    /// The run-to-run spread is wider than the bound, so "no change" cannot
    /// be told from a change of the size the bound forbids.
    Unresolved,
}

/// One side's record of one metric.
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// The rule of the choosing-metrics guide: a regression is a median worse
/// by more than the bound; a spread wider than the bound leaves the metric
/// unresolved unless every run of B reads better than every run of A.
/// `exact` metrics (deterministic for a given seed) may not get worse at
/// all.
pub fn judge(a: &Side, b: &Side, lower_is_better: bool, bound: f64, exact: bool) -> Verdict {
    let worse = worsening(a.value, b.value, lower_is_better);
    if worse > bound || (exact && worse > 0.0) {
        return Verdict::Regression;
    }
    if spread_of(a, b) > bound {
        let every_b_better = a.samples.iter().all(|&x| {
            b.samples
                .iter()
                .all(|&y| worsening(x, y, lower_is_better) < 0.0)
        });
        if !every_b_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Pass
}

/// The wider of the two sides' run-to-run spreads.
fn spread_of(a: &Side, b: &Side) -> f64 {
    stats::spread(&a.samples).max(stats::spread(&b.samples))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(results: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = results.get(workload)?.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.num("value").ok()?,
        samples: m.nums("samples").ok()?,
    })
}

/// Returns `Ok(false)` (exit code 1) on any regression.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [path_a, path_b] = args else {
        return Err("compare takes two result files".into());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let contract = crate::load_contract()?;
    let same_seed = a.num("seed")? == b.num("seed")?;
    let results_a = a.get("results").ok_or("A: no results")?;
    let results_b = b.get("results").ok_or("B: no results")?;
    let bounds = contract
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let bound_of = |name: &str| {
        bounds
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("BENCHMARK.json: no bound for {name}"))?
            .num("bound")
    };

    println!(
        "{:<20} {:<18} {:>16} {:>16} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    let (mut regressions, mut unresolved, mut compared) = (0, 0, 0);
    for (workload, _) in results_a.entries().unwrap_or_default() {
        if results_b.get(workload).is_none() {
            println!("{workload:<20} only in A — skipped");
            continue;
        }
        for def in END_TO_END {
            let name = def.name;
            let bound = bound_of(name)?;
            let lower = def.better == "lower";
            let (Some(mut sa), Some(mut sb)) = (
                side(results_a, workload, name),
                side(results_b, workload, name),
            ) else {
                return Err(format!("{workload}/{name} is missing from a result file"));
            };
            if name == "setup_s" {
                // The value is the fastest repetition; the scatter of the
                // stalled ones says nothing about it (the acceptance driver
                // exempts set-up time from its spread rule as well).
                sa.samples.clear();
                sb.samples.clear();
            }
            // Feed Gas per operation is a deterministic function of the
            // inputs: with equal seeds it may not rise at all.
            let exact = same_seed && name == "feed_gas_per_op";
            let verdict = judge(&sa, &sb, lower, bound, exact);
            compared += 1;
            match verdict {
                Verdict::Regression => regressions += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Pass => {}
            }
            println!(
                "{:<20} {:<18} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}% {:>6.2}%  {}",
                workload,
                name,
                sa.value,
                sb.value,
                worsening(sa.value, sb.value, lower) * 100.0,
                bound * 100.0,
                spread_of(&sa, &sb) * 100.0,
                match verdict {
                    Verdict::Pass => "PASS",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            );
        }
    }
    println!(
        "# {compared} compared: {regressions} REGRESSION, {unresolved} UNRESOLVED{}",
        if same_seed {
            ""
        } else {
            " (different seeds: feed_gas_per_op judged by its bound only)"
        }
    );
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, samples: &[f64]) -> Side {
        Side {
            value,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, true), 0.0);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let tight_a = side(100.0, &[99.0, 100.0, 101.0]);
        // Within the bound, tight spread.
        let b = side(105.0, &[104.0, 105.0, 106.0]);
        assert_eq!(judge(&tight_a, &b, true, 0.10, false), Verdict::Pass);
        // Beyond the bound.
        let b = side(115.0, &[114.0, 115.0, 116.0]);
        assert_eq!(judge(&tight_a, &b, true, 0.10, false), Verdict::Regression);
        // Same medians, but a spread wider than the bound.
        let noisy = side(100.0, &[80.0, 100.0, 125.0]);
        assert_eq!(
            judge(&tight_a, &noisy, true, 0.10, false),
            Verdict::Unresolved
        );
        // Wide spread, yet every run of B beats every run of A.
        let better = side(60.0, &[50.0, 60.0, 75.0]);
        assert_eq!(judge(&tight_a, &better, true, 0.10, false), Verdict::Pass);
        // Higher-is-better metrics flip the sign.
        let slower = side(85.0, &[84.0, 85.0, 86.0]);
        assert_eq!(
            judge(&tight_a, &slower, false, 0.10, false),
            Verdict::Regression
        );
        assert_eq!(judge(&tight_a, &slower, true, 0.10, false), Verdict::Pass);
    }

    #[test]
    fn exact_metrics_may_not_rise_at_all() {
        let a = side(1000.0, &[1000.0; 3]);
        let same = side(1000.0, &[1000.0; 3]);
        let up = side(1000.5, &[1000.5; 3]);
        let down = side(999.0, &[999.0; 3]);
        assert_eq!(judge(&a, &same, true, 0.02, true), Verdict::Pass);
        assert_eq!(judge(&a, &up, true, 0.02, true), Verdict::Regression);
        assert_eq!(judge(&a, &up, true, 0.02, false), Verdict::Pass);
        assert_eq!(judge(&a, &down, true, 0.02, true), Verdict::Pass);
    }
}
