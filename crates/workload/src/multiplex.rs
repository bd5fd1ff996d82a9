//! Multi-tenant workload multiplexing: splitting a global operation budget
//! across N tenants with configurable (uniform or Zipfian) activity skew.
//!
//! Real multi-tenant deployments are not uniform: a handful of hot feeds
//! (major price pairs, popular relays) carry most of the traffic while a
//! long tail idles. [`Multiplex`] models that by allocating a total op
//! budget over tenants — deterministically, by largest-remainder
//! apportionment over the skew weights, so the same parameters always
//! produce the same split — and then handing each tenant's budget to a
//! caller-supplied generator: [`Multiplex::sources`] builds one streaming
//! [`OpSource`] per tenant.
//!
//! # Examples
//!
//! ```
//! use grub_workload::multiplex::Multiplex;
//!
//! // 4 tenants sharing 1000 ops, zipfian activity: tenant 0 is hottest.
//! let budgets = Multiplex::new(4, 1000).zipfian(0.99).ops_per_tenant();
//! assert_eq!(budgets.iter().sum::<usize>(), 1000);
//! assert!(budgets[0] > budgets[3]);
//! ```

use crate::source::OpSource;

/// A deterministic multi-tenant workload splitter.
#[derive(Clone, Debug)]
pub struct Multiplex {
    tenants: usize,
    total_ops: usize,
    /// Tenant `i`'s share is ∝ `1 / (i + 1)^theta`; θ = 0 is the uniform
    /// split.
    theta: f64,
}

impl Multiplex {
    /// Splits `total_ops` uniformly over `tenants` tenants.
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0`.
    pub fn new(tenants: usize, total_ops: usize) -> Self {
        assert!(tenants > 0, "need at least one tenant");
        Multiplex {
            tenants,
            total_ops,
            theta: 0.0,
        }
    }

    /// Switches to Zipfian tenant skew with exponent `theta` (YCSB uses
    /// 0.99) — the activity profile over tenants, not keys.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or not finite.
    pub fn zipfian(mut self, theta: f64) -> Self {
        assert!(theta.is_finite() && theta >= 0.0, "theta must be ≥ 0");
        self.theta = theta;
        self
    }

    /// The canonical tenant name for index `i` (`tenant-00`, `tenant-01`…).
    pub fn tenant_name(i: usize) -> String {
        format!("tenant-{i:02}")
    }

    /// The per-tenant op budget: sums **exactly** to `total_ops`, allocated
    /// by largest-remainder apportionment over the skew weights (tenant
    /// `i` weighs `1 / (i + 1)^theta`; ties broken toward lower-indexed,
    /// i.e. hotter, tenants).
    pub fn ops_per_tenant(&self) -> Vec<usize> {
        let weights: Vec<f64> = (0..self.tenants)
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.theta))
            .collect();
        let total_weight: f64 = weights.iter().sum();
        let quotas: Vec<f64> = weights
            .iter()
            .map(|w| self.total_ops as f64 * w / total_weight)
            .collect();
        let mut out: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut assigned: usize = out.iter().sum();
        // Distribute the remainder by descending fractional part; sort is
        // stable, so equal fractions favor hotter tenants deterministically.
        let mut order: Vec<usize> = (0..self.tenants).collect();
        order.sort_by(|&a, &b| {
            let fa = quotas[a] - quotas[a].floor();
            let fb = quotas[b] - quotas[b].floor();
            // grub-lint: allow(panic) — fractional parts of finite quotas are never NaN
            fb.partial_cmp(&fa).expect("finite fractions")
        });
        // In exact arithmetic the remainder is < tenants, but extreme
        // skews push the float quotas far enough that the floors can
        // undershoot by more than one op per tenant — cycle the order so
        // the budgets still sum exactly instead of silently dropping ops.
        let mut top_up = order.iter().cycle();
        while assigned < self.total_ops {
            // grub-lint: allow(panic) — cycle() over a non-empty tenant list never ends
            out[*top_up.next().expect("at least one tenant")] += 1;
            assigned += 1;
        }
        // The floors could only overshoot through float error (a quota
        // rounding *up* past its exact value); trim coldest-first so an
        // overshoot can never starve the hot tenants.
        let mut trim = order.iter().rev().cycle();
        while assigned > self.total_ops {
            // grub-lint: allow(panic) — cycle() over a non-empty tenant list never ends
            let &i = trim.next().expect("at least one tenant");
            if out[i] > 0 {
                out[i] -= 1;
                assigned -= 1;
            }
        }
        debug_assert_eq!(out.iter().sum::<usize>(), self.total_ops);
        out
    }

    /// One `(name, source)` pair per tenant. The generator receives the
    /// tenant index and its op budget; it may stream a different number of
    /// ops (e.g. whole read/write cycles only) — the budget is a target,
    /// not a straitjacket.
    pub fn sources<F>(&self, mut generator: F) -> Vec<(String, Box<dyn OpSource>)>
    where
        F: FnMut(usize, usize) -> Box<dyn OpSource>,
    {
        self.ops_per_tenant()
            .into_iter()
            .enumerate()
            .map(|(i, ops)| (Self::tenant_name(i), generator(i, ops)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::RatioWorkload;

    #[test]
    fn uniform_split_sums_and_balances() {
        let m = Multiplex::new(7, 100);
        let split = m.ops_per_tenant();
        assert_eq!(split.iter().sum::<usize>(), 100);
        assert!(split.iter().all(|&n| n == 14 || n == 15));
    }

    #[test]
    fn zipfian_split_is_skewed_and_exact() {
        let m = Multiplex::new(8, 1000).zipfian(0.99);
        let split = m.ops_per_tenant();
        assert_eq!(split.iter().sum::<usize>(), 1000);
        assert!(
            split.windows(2).all(|w| w[0] >= w[1]),
            "shares must be non-increasing: {split:?}"
        );
        assert!(
            split[0] > 2 * split[7],
            "hottest tenant must dominate the tail: {split:?}"
        );
    }

    #[test]
    fn zero_theta_degenerates_to_uniform() {
        let uniform = Multiplex::new(5, 500).ops_per_tenant();
        let zipf0 = Multiplex::new(5, 500).zipfian(0.0).ops_per_tenant();
        assert_eq!(uniform, zipf0);
    }

    #[test]
    fn split_is_deterministic() {
        let a = Multiplex::new(9, 12_345).zipfian(1.2).ops_per_tenant();
        let b = Multiplex::new(9, 12_345).zipfian(1.2).ops_per_tenant();
        assert_eq!(a, b);
    }

    #[test]
    fn generate_names_tenants_and_passes_budgets() {
        let feeds = Multiplex::new(3, 30).sources(|tenant, ops| {
            Box::new(RatioWorkload::new(format!("k{tenant}"), 1.0).source(ops / 2))
        });
        assert_eq!(feeds.len(), 3);
        assert_eq!(feeds[0].0, "tenant-00");
        assert_eq!(feeds[2].0, "tenant-02");
        for (i, (_, mut source)) in feeds.into_iter().enumerate() {
            let trace = crate::Trace::from_source(&mut source);
            assert_eq!(trace.ops.len(), 10);
            assert!(trace.ops.iter().all(|op| op.key() == format!("k{i}")));
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_rejected() {
        Multiplex::new(0, 10);
    }

    #[test]
    fn budgets_sum_exactly_under_adversarial_tenant_counts() {
        // Wide sweeps of tenant count, total, and skew — including tenants
        // far exceeding the budget, single-op totals, zero totals, and
        // extreme thetas whose float quotas are pure rounding noise.
        for tenants in [1, 2, 3, 7, 64, 97, 1000, 4096] {
            for total in [0usize, 1, 2, 7, 100, 12_345] {
                for theta in [0.0, 0.5, 0.99, 1.2, 4.0, 12.0] {
                    let split = Multiplex::new(tenants, total)
                        .zipfian(theta)
                        .ops_per_tenant();
                    assert_eq!(split.len(), tenants);
                    assert_eq!(
                        split.iter().sum::<usize>(),
                        total,
                        "{tenants} tenants, {total} ops, theta {theta}"
                    );
                }
                let uniform = Multiplex::new(tenants, total).ops_per_tenant();
                assert_eq!(uniform.iter().sum::<usize>(), total);
            }
        }
    }
}
