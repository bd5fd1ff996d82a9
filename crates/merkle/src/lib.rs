//! The authenticated data structure (ADS) of GRuB.
//!
//! Per the paper (§3.3, Appendix B), the storage provider (SP) maintains a
//! binary Merkle tree over the key-value records, laid out by *replication
//! state first, then key*: all `NR` (not-replicated) records sorted by key,
//! followed by all `R` (replicated) records sorted by key (Figure 4b). The
//! data owner (DO) keeps only the root digest; every SP response carries a
//! proof that the DO (on update) or the storage-manager contract (on
//! `deliver`) verifies.
//!
//! The tree follows the paper's own update algebra (Appendix B.2.1):
//!
//! * value updates replace a leaf hash in place;
//! * state transitions (R↔NR) **invalidate** the old leaf in place and graft
//!   a fresh leaf next to its sorted neighbour (the paper's
//!   `h9 = H(h4 ‖ h8)` example);
//! * range queries over the NR group are answered with pruned-subtree proofs
//!   whose completeness the verifier checks structurally.
//!
//! # Examples
//!
//! ```
//! use grub_merkle::{MerkleKv, ProofKey, ReplState, record_value_hash};
//!
//! let mut tree = MerkleKv::new();
//! let key = ProofKey::new(ReplState::NotReplicated, b"eth-usd".to_vec());
//! tree.insert(key.clone(), record_value_hash(b"150"));
//! let root = tree.root();
//!
//! // A point read is the one-key range [key, key].
//! let proof = tree.prove_range(&key, &key);
//! let records = proof.verify(&root, &key, &key).expect("proof verifies");
//! assert_eq!(records, vec![(key, record_value_hash(b"150"))]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod proof;
mod tree;

pub use proof::{ProofNode, RangeProof, VerifyError};
pub use tree::{MerkleKv, TreeOp};

use grub_crypto::{sha256, Hash32, Sha256};
use serde::{Deserialize, Serialize};

/// Whether a record currently has an on-chain replica.
///
/// The replication state is part of the authenticated key ("the record's key
/// is prefixed with an extra bit", §3.2), so the SP cannot lie to the
/// contract about whether a record should have been served from the replica.
///
/// `NotReplicated` orders before `Replicated`, giving the paper's layout of
/// the NR group first (range queries on the read path only touch NR records).
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum ReplState {
    /// The record lives only on the SP; reads need a `deliver` transaction.
    /// The default: a record nobody has decided about is not replicated.
    #[default]
    NotReplicated,
    /// The record has a replica in smart-contract storage.
    Replicated,
}

impl ReplState {
    /// One-byte encoding used inside leaf hashes.
    pub fn as_byte(self) -> u8 {
        match self {
            ReplState::NotReplicated => 0,
            ReplState::Replicated => 1,
        }
    }

    /// Decodes the one-byte encoding.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(ReplState::NotReplicated),
            1 => Some(ReplState::Replicated),
            _ => None,
        }
    }
}

/// The authenticated key of a record: replication state, then data key.
///
/// Ordering is state-major, matching the tree layout of Figure 4b.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProofKey {
    /// Replication state prefix.
    pub state: ReplState,
    /// Application data key.
    pub key: Vec<u8>,
}

impl ProofKey {
    /// Builds a proof key.
    pub fn new(state: ReplState, key: impl Into<Vec<u8>>) -> Self {
        ProofKey {
            state,
            key: key.into(),
        }
    }
}

/// Hash of a record value, committed to by the leaf.
pub fn record_value_hash(value: &[u8]) -> Hash32 {
    let mut h = Sha256::new();
    h.update(b"grub-value");
    h.update(value);
    h.finalize()
}

/// Leaf digest: commits to state, key, value hash and validity flag.
///
/// Domain-separated from inner nodes (`0x00` prefix) so a leaf can never be
/// confused with an inner node — the standard second-preimage defence.
pub fn leaf_hash(pkey: &ProofKey, vhash: &Hash32, valid: bool) -> Hash32 {
    let mut h = Sha256::new();
    h.update(&[0x00, pkey.state.as_byte()]);
    h.update(&(pkey.key.len() as u32).to_le_bytes());
    h.update(&pkey.key);
    h.update(vhash.as_bytes());
    h.update(&[valid as u8]);
    h.finalize()
}

/// Inner-node digest: `H(0x01 ‖ left ‖ right)`.
pub fn inner_hash(left: &Hash32, right: &Hash32) -> Hash32 {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// Digest of the empty tree.
pub fn empty_root() -> Hash32 {
    sha256(b"grub-empty-tree")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repl_state_orders_nr_first() {
        assert!(ReplState::NotReplicated < ReplState::Replicated);
    }

    #[test]
    fn proof_key_ordering_is_state_major() {
        let nr_z = ProofKey::new(ReplState::NotReplicated, b"z".to_vec());
        let r_a = ProofKey::new(ReplState::Replicated, b"a".to_vec());
        assert!(nr_z < r_a, "all NR keys precede all R keys");
        let nr_a = ProofKey::new(ReplState::NotReplicated, b"a".to_vec());
        assert!(nr_a < nr_z);
    }

    #[test]
    fn repl_state_byte_round_trip() {
        for s in [ReplState::NotReplicated, ReplState::Replicated] {
            assert_eq!(ReplState::from_byte(s.as_byte()), Some(s));
        }
        assert_eq!(ReplState::from_byte(9), None);
    }

    #[test]
    fn leaf_hash_binds_all_fields() {
        let k = ProofKey::new(ReplState::NotReplicated, b"k".to_vec());
        let v = record_value_hash(b"v");
        let base = leaf_hash(&k, &v, true);
        assert_ne!(base, leaf_hash(&k, &v, false), "validity flag");
        assert_ne!(
            base,
            leaf_hash(
                &ProofKey::new(ReplState::Replicated, b"k".to_vec()),
                &v,
                true
            ),
            "state"
        );
        assert_ne!(base, leaf_hash(&k, &record_value_hash(b"w"), true), "value");
    }

    #[test]
    fn leaf_and_inner_domains_are_separated() {
        let a = record_value_hash(b"a");
        let b = record_value_hash(b"b");
        // No accidental structural collision between the two node kinds.
        assert_ne!(
            inner_hash(&a, &b),
            leaf_hash(
                &ProofKey::new(ReplState::NotReplicated, b"".to_vec()),
                &a,
                true
            )
        );
    }
}
