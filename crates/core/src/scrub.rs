//! The background Merkle scrubber: cross-checks the SP's store contents
//! against the authoritative record set and the on-chain root digest.
//!
//! A GRuB deployment has three copies of the truth: the DO's authoritative
//! values, the SP's LSM store (with its Merkle tree), and the root digest
//! committed in the storage-manager contract. In normal operation all three
//! agree at every epoch boundary. Silent at-rest damage on the SP (bit rot,
//! a buggy operator script, a crash-truncated store) breaks that agreement
//! *without* any protocol message being wrong — the divergence only
//! surfaces later as an unverifiable `deliver`. The scrubber finds it
//! early: it audits every record, reports drift as typed
//! [`ScrubFinding`]s, and (when asked) repairs the SP by re-syncing the
//! divergent keys from the DO.

use grub_chain::{Address, Blockchain};
use grub_merkle::ReplState;

use crate::owner::DataOwner;
use crate::provider::StorageProvider;
use crate::{GrubError, Result};

/// What kind of drift a scrub pass found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// The authoritative set has the key; the SP store does not.
    Missing,
    /// The SP store has a record the authoritative set does not.
    Orphan,
    /// Both have the key but the value or replication state differs.
    Mismatch,
    /// A root digest disagrees: the DO mirror vs. the on-chain root, or the
    /// SP tree vs. the on-chain root.
    RootDrift,
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FindingKind::Missing => "missing",
            FindingKind::Orphan => "orphan",
            FindingKind::Mismatch => "mismatch",
            FindingKind::RootDrift => "root-drift",
        };
        f.write_str(name)
    }
}

/// One divergent record (or root) discovered by a scrub pass.
#[derive(Clone, Debug)]
pub struct ScrubFinding {
    /// The drift class.
    pub kind: FindingKind,
    /// The affected data key (empty for [`FindingKind::RootDrift`]).
    pub key: String,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// Whether this pass repaired the finding.
    pub repaired: bool,
}

/// The outcome of one scrub pass.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Records audited (the union of authoritative and stored key sets).
    pub audited: usize,
    /// Every divergence found, in deterministic key order.
    pub findings: Vec<ScrubFinding>,
}

impl ScrubReport {
    /// Whether the pass found no drift at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings this pass repaired.
    pub fn repaired(&self) -> usize {
        self.findings.iter().filter(|f| f.repaired).count()
    }

    /// Findings of a given kind.
    pub fn of_kind(&self, kind: FindingKind) -> usize {
        self.findings.iter().filter(|f| f.kind == kind).count()
    }
}

/// The scrubber itself: stateless; each call is one full pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scrubber {
    /// Whether to repair findings by re-syncing divergent keys from the DO
    /// (root drift is reported but never "repaired" — the chain is the
    /// arbiter, not the scrubber).
    pub repair: bool,
}

impl Scrubber {
    /// A scrubber that repairs what it finds.
    pub fn repairing() -> Self {
        Scrubber { repair: true }
    }

    /// Runs one scrub pass of `provider` against `owner`'s authoritative
    /// record set and the root digest stored in the `manager` contract.
    ///
    /// # Errors
    ///
    /// Store I/O failures, or [`GrubError::Chain`] when the manager's
    /// `root()` view cannot be read.
    pub fn scrub(
        &self,
        chain: &Blockchain,
        manager: Address,
        owner: &DataOwner,
        provider: &mut StorageProvider,
    ) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();

        // Root agreement first: the on-chain digest is the arbiter.
        let on_chain = chain
            .static_call(owner.address(), manager, "root", &[])
            .map_err(|e| GrubError::Chain(format!("root() view failed: {e}")))?;
        if !on_chain.is_empty() && on_chain != owner.root().as_bytes() {
            report.findings.push(ScrubFinding {
                kind: FindingKind::RootDrift,
                key: String::new(),
                detail: "DO mirror root diverges from the on-chain root".into(),
                repaired: false,
            });
        }
        if !on_chain.is_empty() && on_chain != provider.root().as_bytes() {
            report.findings.push(ScrubFinding {
                kind: FindingKind::RootDrift,
                key: String::new(),
                detail: "SP tree root diverges from the on-chain root \
                         (rebuilt-from-disk trees drop tombstones and may \
                         differ in shape; key-level audit below is the \
                         content check)"
                    .into(),
                repaired: false,
            });
        }

        // Key-level audit: walk both sorted record sets in lock-step.
        let truth = owner.live_records();
        let stored = provider.live_records()?;
        let mut by_key: std::collections::BTreeMap<&str, (ReplState, &[u8])> = stored
            .iter()
            .map(|(state, key, value)| (key.as_str(), (*state, value.as_slice())))
            .collect();
        for (key, state, value) in &truth {
            report.audited += 1;
            match by_key.remove(key.as_str()) {
                None => {
                    let repaired = self.try_repair(provider, key, value, *state)?;
                    report.findings.push(ScrubFinding {
                        kind: FindingKind::Missing,
                        key: key.clone(),
                        detail: format!("authoritative record absent from SP store ({state:?})"),
                        repaired,
                    });
                }
                Some((got_state, got_value)) => {
                    if got_state != *state || got_value != value.as_slice() {
                        let repaired = self.try_repair(provider, key, value, *state)?;
                        report.findings.push(ScrubFinding {
                            kind: FindingKind::Mismatch,
                            key: key.clone(),
                            detail: format!(
                                "SP holds {} bytes under {got_state:?}, \
                                 authoritative is {} bytes under {state:?}",
                                got_value.len(),
                                value.len()
                            ),
                            repaired,
                        });
                    }
                }
            }
        }
        // Anything left in the SP map has no authoritative counterpart.
        for (key, (state, _)) in by_key {
            report.audited += 1;
            let repaired = if self.repair {
                provider.remove_record(state, key)?;
                true
            } else {
                false
            };
            report.findings.push(ScrubFinding {
                kind: FindingKind::Orphan,
                key: key.to_owned(),
                detail: format!("SP store holds a record ({state:?}) the DO never produced"),
                repaired,
            });
        }
        Ok(report)
    }

    fn try_repair(
        &self,
        provider: &mut StorageProvider,
        key: &str,
        value: &[u8],
        state: ReplState,
    ) -> Result<bool> {
        if !self.repair {
            return Ok(false);
        }
        provider.repair_record(key, value, state)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::system::{DriverIdentity, EpochDriver, SystemConfig};
    use grub_chain::Blockchain;
    use grub_workload::{Op, Trace, ValueSpec};

    fn driven_system() -> (Blockchain, EpochDriver) {
        let mut chain = Blockchain::new();
        let config = SystemConfig::new(PolicyKind::Memoryless { k: 2 }).preload(vec![
            ("btc".into(), b"60000".to_vec()),
            ("eth".into(), b"3000".to_vec()),
            ("sol".into(), b"150".to_vec()),
        ]);
        let mut driver =
            EpochDriver::deploy(&mut chain, &config, &DriverIdentity::default()).unwrap();
        let mut trace = Trace::new();
        trace.ops.push(Op::Write {
            key: "btc".into(),
            value: ValueSpec::new(32, 7),
        });
        trace.ops.push(Op::Read { key: "btc".into() });
        trace.ops.push(Op::Read { key: "eth".into() });
        driver.drive(&mut chain, &mut trace.into_source()).unwrap();
        (chain, driver)
    }

    #[test]
    fn clean_system_scrubs_clean() {
        let (chain, mut driver) = driven_system();
        let report = driver.scrub(&chain, Scrubber::default()).unwrap();
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.findings
        );
        assert!(report.audited >= 3);
    }

    #[test]
    fn tampered_value_is_detected_and_repaired() {
        let (chain, mut driver) = driven_system();
        let state = driver.owner().state_of("eth");
        driver
            .provider_mut()
            .tamper_value(state, "eth", b"GARBAGE".to_vec())
            .unwrap();
        // Detection pass (no repair): exactly one mismatch.
        let report = driver.scrub(&chain, Scrubber::default()).unwrap();
        assert_eq!(report.of_kind(FindingKind::Mismatch), 1);
        assert!(report.findings.iter().all(|f| !f.repaired));
        // Repair pass fixes it; the next pass is clean.
        let report = driver.scrub(&chain, Scrubber::repairing()).unwrap();
        assert_eq!(report.repaired(), 1);
        let report = driver.scrub(&chain, Scrubber::default()).unwrap();
        assert!(
            report.is_clean(),
            "repair did not stick: {:?}",
            report.findings
        );
        assert_eq!(
            driver.provider().value_of(state, "eth").unwrap(),
            Some(b"3000".to_vec())
        );
    }

    #[test]
    fn lost_and_orphaned_records_are_found() {
        let (chain, mut driver) = driven_system();
        let state = driver.owner().state_of("sol");
        driver.provider_mut().tamper_remove(state, "sol").unwrap();
        driver
            .provider_mut()
            .tamper_value(ReplState::NotReplicated, "ghost", b"boo".to_vec())
            .unwrap();
        let report = driver.scrub(&chain, Scrubber::repairing()).unwrap();
        assert_eq!(report.of_kind(FindingKind::Missing), 1);
        assert_eq!(report.of_kind(FindingKind::Orphan), 1);
        assert_eq!(report.repaired(), 2);
        let report = driver.scrub(&chain, Scrubber::default()).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
    }
}
