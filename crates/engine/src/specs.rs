//! Canned multi-tenant spec builders shared by the example, the bench
//! experiment, and the acceptance tests — one place for the
//! ratio-cycle arithmetic so the three surfaces measure the same workload.

use grub_core::policy::PolicyKind;
use grub_core::system::SystemConfig;
use grub_workload::multiplex::Multiplex;
use grub_workload::ratio::RatioWorkload;
use grub_workload::OpSource;

use crate::FeedSpec;

/// The default read/write-ratio rotation for demo fleets: write-heavy,
/// read-leaning, very write-heavy, balanced.
pub const DEMO_RATIOS: &[f64] = &[0.5, 4.0, 0.125, 2.0];

/// The default policy rotation for demo fleets.
pub fn demo_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Memoryless { k: 2 },
        PolicyKind::Memorizing {
            k_prime: 2.3,
            d: 2.0,
        },
        PolicyKind::SelfTuning { window: 16 },
        PolicyKind::Bl1,
    ]
}

/// Builds a Zipfian-skewed fleet of ratio-workload feeds: `total_ops` is
/// apportioned over `tenants` tenants by [`Multiplex`] with θ = 0.99
/// (tenant 0 hottest), and tenant `i` runs a [`RatioWorkload`] with
/// `ratios[i % len]` under `policies[i % len]`. Each feed carries a
/// *streaming* source — the engine pulls it one epoch per round, never
/// materializing the trace.
///
/// # Panics
///
/// Panics if `tenants`, `ratios`, or `policies` is empty.
pub fn zipfian_ratio_specs(
    tenants: usize,
    total_ops: usize,
    ratios: &[f64],
    policies: &[PolicyKind],
) -> Vec<FeedSpec> {
    assert!(
        !ratios.is_empty() && !policies.is_empty(),
        "need at least one ratio and one policy"
    );
    Multiplex::new(tenants, total_ops)
        .zipfian(0.99)
        .sources(|tenant, ops| {
            let workload =
                RatioWorkload::new(format!("feed-{tenant}"), ratios[tenant % ratios.len()])
                    .seed(tenant as u64 + 1);
            let (writes, reads) = workload.cycle_shape();
            Box::new(workload.source((ops / (writes + reads)).max(1))) as Box<dyn OpSource>
        })
        .into_iter()
        .enumerate()
        .map(|(i, (tenant, source))| {
            FeedSpec::from_source(
                tenant,
                SystemConfig::new(policies[i % policies.len()].clone()),
                source,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_handles_every_ratio_class_including_write_only() {
        let specs = zipfian_ratio_specs(6, 300, &[0.0, 0.25, 1.0, 16.0], &demo_policies());
        assert_eq!(specs.len(), 6);
        let traces: Vec<_> = specs.iter().map(|s| s.materialized()).collect();
        // Tenant 0 uses ratio 0.0 (write-only) without dividing by zero.
        assert_eq!(traces[0].read_count(), 0);
        assert!(traces[0].write_count() > 0);
        // Zipfian skew: the hot tenant out-traffics the tail.
        assert!(traces[0].ops.len() >= traces[5].ops.len());
        // Deterministic.
        let again = zipfian_ratio_specs(6, 300, &[0.0, 0.25, 1.0, 16.0], &demo_policies());
        for (a, b) in specs.iter().zip(&again) {
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.materialized(), b.materialized());
        }
    }
}
