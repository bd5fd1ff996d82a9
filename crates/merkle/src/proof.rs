//! Proof objects and their verification.
//!
//! Verification is pure (no tree access): given only the trusted root digest
//! — which the storage-manager contract keeps on chain — a verifier can
//! check the completeness of a range result; membership of a single record
//! is the one-key range `[k, k]`, which is how the SP answers point reads.
//! Hash counts are exposed so the Gas layer can charge `Chash` for every
//! digest recomputed during verification, as the paper's cost model does
//! (`Ctx` is charged on the proof's actual encoded bytes, see
//! `grub_core::wire`).

use std::error::Error;
use std::fmt;

use grub_crypto::Hash32;
use serde::{Deserialize, Serialize};

use crate::{inner_hash, leaf_hash, ProofKey};

/// A node of a pruned-subtree range proof.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProofNode {
    /// A subtree entirely outside the (extended) range, collapsed to its
    /// digest.
    Opaque(Hash32),
    /// A revealed leaf (tombstones are revealed too — their keys order the
    /// run; verifiers exclude them from results).
    Leaf {
        /// Leaf key.
        pkey: ProofKey,
        /// Leaf value hash.
        vhash: Hash32,
        /// Validity flag (false = tombstone).
        valid: bool,
    },
    /// An inner node with both children present.
    Inner {
        /// Left child.
        left: Box<ProofNode>,
        /// Right child.
        right: Box<ProofNode>,
    },
}

impl ProofNode {
    fn root(&self) -> Hash32 {
        match self {
            ProofNode::Opaque(h) => *h,
            ProofNode::Leaf { pkey, vhash, valid } => leaf_hash(pkey, vhash, *valid),
            ProofNode::Inner { left, right } => inner_hash(&left.root(), &right.root()),
        }
    }

    fn walk<'a>(&'a self, out: &mut Vec<InOrderItem<'a>>) {
        match self {
            ProofNode::Opaque(_) => out.push(InOrderItem::Opaque),
            ProofNode::Leaf { pkey, vhash, valid } => {
                out.push(InOrderItem::Leaf(pkey, vhash, *valid))
            }
            ProofNode::Inner { left, right } => {
                left.walk(out);
                right.walk(out);
            }
        }
    }

    fn count_hashes(&self) -> usize {
        match self {
            ProofNode::Opaque(_) => 0,
            ProofNode::Leaf { .. } => 1,
            ProofNode::Inner { left, right } => 1 + left.count_hashes() + right.count_hashes(),
        }
    }
}

enum InOrderItem<'a> {
    Opaque,
    Leaf(&'a ProofKey, &'a Hash32, bool),
}

/// Reasons a range proof fails verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Recomputed root does not match the trusted root.
    RootMismatch,
    /// Revealed leaves are not a single contiguous in-order run.
    NonContiguousReveal,
    /// Revealed leaf keys are not strictly increasing.
    UnsortedLeaves,
    /// A hidden subtree could contain in-range keys (missing boundary).
    IncompleteBoundary,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            VerifyError::RootMismatch => "recomputed root does not match trusted root",
            VerifyError::NonContiguousReveal => "revealed leaves are not contiguous in order",
            VerifyError::UnsortedLeaves => "revealed leaf keys are not strictly increasing",
            VerifyError::IncompleteBoundary => "hidden subtree may contain in-range keys",
        };
        f.write_str(msg)
    }
}

impl Error for VerifyError {}

/// A completeness-checkable proof for a key range.
///
/// Produced by [`crate::MerkleKv::prove_range`]; verified with only the
/// trusted root. Soundness argument: the recomputed root pins the committed
/// structure, whose in-order leaves are sorted; the verifier requires the
/// revealed leaves to form one contiguous in-order run whose end leaves lie
/// strictly outside the queried range (or touch the tree's ends), so every
/// hidden leaf is provably outside the range.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeProof {
    /// Pruned tree (None ⇔ the whole tree is empty).
    pub tree: Option<ProofNode>,
}

impl RangeProof {
    /// Proof for a query against an empty tree.
    pub fn empty() -> Self {
        RangeProof { tree: None }
    }

    /// Verifies the proof against `root` for the query `[lo, hi]`, returning
    /// the live matching records in key order.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] describing the first check that failed.
    pub fn verify(
        &self,
        root: &Hash32,
        lo: &ProofKey,
        hi: &ProofKey,
    ) -> Result<Vec<(ProofKey, Hash32)>, VerifyError> {
        let Some(tree) = &self.tree else {
            return if *root == crate::empty_root() {
                Ok(Vec::new())
            } else {
                Err(VerifyError::RootMismatch)
            };
        };
        if tree.root() != *root {
            return Err(VerifyError::RootMismatch);
        }
        let mut items = Vec::new();
        tree.walk(&mut items);
        // Pattern check: Opaque* Leaf+ Opaque*.
        let first_leaf = items
            .iter()
            .position(|i| matches!(i, InOrderItem::Leaf(..)));
        let last_leaf = items
            .iter()
            .rposition(|i| matches!(i, InOrderItem::Leaf(..)));
        let (Some(first), Some(last)) = (first_leaf, last_leaf) else {
            return Err(VerifyError::IncompleteBoundary);
        };
        if items[first..=last]
            .iter()
            .any(|i| matches!(i, InOrderItem::Opaque))
        {
            return Err(VerifyError::NonContiguousReveal);
        }
        let leaves: Vec<(&ProofKey, &Hash32, bool)> = items[first..=last]
            .iter()
            .map(|i| match i {
                InOrderItem::Leaf(k, v, valid) => (*k, *v, *valid),
                InOrderItem::Opaque => unreachable!("checked contiguous"),
            })
            .collect();
        for pair in leaves.windows(2) {
            if pair[0].0 >= pair[1].0 {
                return Err(VerifyError::UnsortedLeaves);
            }
        }
        // Boundary checks: anything hidden before the run must be < lo, which
        // holds iff the run either starts at the global first leaf (no opaque
        // before it) or its first leaf is itself below the range. Dually for
        // the high side.
        let opaque_before = first > 0;
        if opaque_before && leaves[0].0 >= lo {
            return Err(VerifyError::IncompleteBoundary);
        }
        let opaque_after = last + 1 < items.len();
        if opaque_after && leaves[leaves.len() - 1].0 <= hi {
            return Err(VerifyError::IncompleteBoundary);
        }
        Ok(leaves
            .into_iter()
            .filter(|(k, _, valid)| *valid && *k >= lo && *k <= hi)
            .map(|(k, v, _)| (k.clone(), *v))
            .collect())
    }

    /// Number of hash evaluations a verifier performs.
    pub fn hash_count(&self) -> usize {
        self.tree.as_ref().map(|t| t.count_hashes()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_value_hash, MerkleKv, ReplState};

    fn nr(key: &str) -> ProofKey {
        ProofKey::new(ReplState::NotReplicated, key.as_bytes().to_vec())
    }

    fn r(key: &str) -> ProofKey {
        ProofKey::new(ReplState::Replicated, key.as_bytes().to_vec())
    }

    fn vh(v: &str) -> Hash32 {
        record_value_hash(v.as_bytes())
    }

    fn figure_4b_tree() -> MerkleKv {
        // ⟨w,NR,100⟩ ⟨y,NR,200⟩ ⟨x,R,300⟩ ⟨z,R,400⟩ — the paper's example.
        let mut tree = MerkleKv::new();
        tree.insert_batch(vec![
            (nr("w"), vh("100")),
            (nr("y"), vh("200")),
            (r("x"), vh("300")),
            (r("z"), vh("400")),
        ]);
        tree
    }

    /// The one-key range `[k, k]` is the membership proof the SP serves for
    /// point reads.
    fn point(t: &MerkleKv, root: &Hash32, k: &ProofKey) -> Vec<(ProofKey, Hash32)> {
        t.prove_range(k, k).verify(root, k, k).unwrap()
    }

    #[test]
    fn point_proof_verifies() {
        let t = figure_4b_tree();
        assert_eq!(point(&t, &t.root(), &nr("y")), vec![(nr("y"), vh("200"))]);
        // The leaf, its two boundary leaves, and the inner nodes above them.
        assert_eq!(t.prove_range(&nr("y"), &nr("y")).hash_count(), 6);
    }

    #[test]
    fn point_proof_binds_value_and_key() {
        let t = figure_4b_tree();
        let root = t.root();
        let p = t.prove_range(&nr("y"), &nr("y"));
        assert_ne!(p.verify(&root, &nr("y"), &nr("y")).unwrap()[0].1, vh("999"));
        // The same proof says nothing about a key hidden behind a digest.
        assert_eq!(
            p.verify(&root, &r("z"), &r("z")),
            Err(VerifyError::IncompleteBoundary)
        );
    }

    #[test]
    fn point_proof_rejects_stale_root() {
        let mut t = figure_4b_tree();
        let p = t.prove_range(&nr("y"), &nr("y"));
        t.insert(nr("y"), vh("201"));
        assert_eq!(
            p.verify(&t.root(), &nr("y"), &nr("y")),
            Err(VerifyError::RootMismatch),
            "old proof must not verify against the new root"
        );
    }

    #[test]
    fn tampered_path_is_rejected() {
        let t = figure_4b_tree();
        let root = t.root();
        let mut p = t.prove_range(&nr("w"), &nr("w"));
        fn tamper(node: &mut ProofNode) -> bool {
            match node {
                ProofNode::Opaque(h) => {
                    *h = vh("evil");
                    true
                }
                ProofNode::Inner { left, right } => tamper(left) || tamper(right),
                ProofNode::Leaf { .. } => false,
            }
        }
        assert!(tamper(p.tree.as_mut().unwrap()), "a sibling is collapsed");
        assert_eq!(
            p.verify(&root, &nr("w"), &nr("w")),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn no_proof_for_missing_or_tombstoned_keys() {
        let mut t = figure_4b_tree();
        assert_eq!(point(&t, &t.root(), &nr("nope")), Vec::new());
        t.invalidate(&nr("w"));
        assert_eq!(point(&t, &t.root(), &nr("w")), Vec::new());
    }

    #[test]
    fn range_proof_returns_exact_matches() {
        let t = figure_4b_tree();
        let root = t.root();
        // Query the whole NR group, as the read path does.
        let lo = ProofKey::new(ReplState::NotReplicated, Vec::new());
        let hi = ProofKey::new(ReplState::NotReplicated, vec![0xff; 8]);
        let proof = t.prove_range(&lo, &hi);
        let got = proof.verify(&root, &lo, &hi).unwrap();
        assert_eq!(got, vec![(nr("w"), vh("100")), (nr("y"), vh("200"))]);
    }

    #[test]
    fn range_proof_paper_example() {
        // Appendix B.2.2: query [x, z] over NR records reveals ⟨y,NR,200⟩
        // with boundary records around it.
        let t = figure_4b_tree();
        let root = t.root();
        let lo = nr("x");
        let hi = nr("z");
        let proof = t.prove_range(&lo, &hi);
        let got = proof.verify(&root, &lo, &hi).unwrap();
        assert_eq!(got, vec![(nr("y"), vh("200"))]);
    }

    #[test]
    fn empty_range_still_verifies() {
        let t = figure_4b_tree();
        let root = t.root();
        let lo = nr("aa");
        let hi = nr("ab");
        let proof = t.prove_range(&lo, &hi);
        assert_eq!(proof.verify(&root, &lo, &hi).unwrap(), Vec::new());
    }

    #[test]
    fn empty_tree_range_proof() {
        let t = MerkleKv::new();
        let proof = t.prove_range(&nr("a"), &nr("z"));
        assert_eq!(
            proof.verify(&t.root(), &nr("a"), &nr("z")).unwrap(),
            Vec::new()
        );
        // But not against some other root.
        assert_eq!(
            proof.verify(&vh("other"), &nr("a"), &nr("z")),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn omission_attack_is_detected() {
        // The SP tries to answer the full-NR query while hiding ⟨y⟩ by
        // collapsing it into an opaque digest. The pruned tree still hashes
        // to the correct root, but the boundary check must fail.
        let t = figure_4b_tree();
        let root = t.root();
        let lo = ProofKey::new(ReplState::NotReplicated, Vec::new());
        let hi = ProofKey::new(ReplState::NotReplicated, vec![0xff; 8]);
        let honest = t.prove_range(&lo, &hi);
        // Build a dishonest proof: replace the revealed ⟨y⟩ leaf with its
        // opaque digest.
        fn hide_leaf(node: &ProofNode, target: &ProofKey) -> ProofNode {
            match node {
                ProofNode::Leaf { pkey, vhash, valid } if pkey == target => {
                    ProofNode::Opaque(crate::leaf_hash(pkey, vhash, *valid))
                }
                ProofNode::Inner { left, right } => ProofNode::Inner {
                    left: Box::new(hide_leaf(left, target)),
                    right: Box::new(hide_leaf(right, target)),
                },
                other => other.clone(),
            }
        }
        let dishonest = RangeProof {
            tree: honest.tree.as_ref().map(|t| hide_leaf(t, &nr("y"))),
        };
        let err = dishonest.verify(&root, &lo, &hi).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::NonContiguousReveal | VerifyError::IncompleteBoundary
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn forged_value_fails_root_check() {
        let t = figure_4b_tree();
        let root = t.root();
        let lo = nr("x");
        let hi = nr("z");
        let mut proof = t.prove_range(&lo, &hi);
        fn forge(node: &mut ProofNode) {
            match node {
                ProofNode::Leaf { vhash, .. } => *vhash = vh("forged"),
                ProofNode::Inner { left, right } => {
                    forge(left);
                    forge(right);
                }
                ProofNode::Opaque(_) => {}
            }
        }
        forge(proof.tree.as_mut().unwrap());
        assert_eq!(
            proof.verify(&root, &lo, &hi),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn tombstones_are_revealed_but_excluded_from_results() {
        let mut t = figure_4b_tree();
        t.invalidate(&nr("y"));
        let root = t.root();
        let lo = ProofKey::new(ReplState::NotReplicated, Vec::new());
        let hi = ProofKey::new(ReplState::NotReplicated, vec![0xff; 8]);
        let proof = t.prove_range(&lo, &hi);
        let got = proof.verify(&root, &lo, &hi).unwrap();
        assert_eq!(got, vec![(nr("w"), vh("100"))]);
    }

    #[test]
    fn proof_sizes_are_positive_and_scale() {
        // (Encoded size is measured where it is paid for: on the wire
        // encoding, `grub_core::wire::tests`.)
        let small = figure_4b_tree();
        let records: Vec<_> = (0..256)
            .map(|i| (nr(&format!("k{i:04}")), vh(&i.to_string())))
            .collect();
        let mut big = MerkleKv::new();
        big.insert_batch(records);
        let ps = small.prove_range(&nr("w"), &nr("w"));
        let pb = big.prove_range(&nr("k0100"), &nr("k0100"));
        assert!(pb.hash_count() > ps.hash_count());
    }
}
