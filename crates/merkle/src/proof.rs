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
//!
//! One proof can answer several queries: [`RangeProof::union_with`] merges
//! pruned trees of one root into the tree pruned to all their runs, and
//! [`RangeProof::verify_queries`] checks each query against its own run of
//! the shared proof. [`RangeProof::verify`] is its one-query case.

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
    /// The digest this subtree commits to — what a verifier recomputes.
    pub fn digest(&self) -> Hash32 {
        match self {
            ProofNode::Opaque(h) => *h,
            ProofNode::Leaf { pkey, vhash, valid } => leaf_hash(pkey, vhash, *valid),
            ProofNode::Inner { left, right } => inner_hash(&left.digest(), &right.digest()),
        }
    }

    /// Walks the in-order items below `self` (revealed leaves and opaque
    /// digests), counting them in `items` and appending each revealed leaf
    /// with its position to `leaves`. Reports whether any inner node has
    /// two opaque children (a subtree that reveals nothing and should have
    /// been one digest).
    fn walk<'a>(&'a self, items: &mut usize, leaves: &mut Vec<Revealed<'a>>) -> bool {
        match self {
            ProofNode::Opaque(_) => {
                *items += 1;
                false
            }
            ProofNode::Leaf { pkey, vhash, valid } => {
                leaves.push((*items, pkey, vhash, *valid));
                *items += 1;
                false
            }
            ProofNode::Inner { left, right } => {
                let hollow = matches!(
                    (left.as_ref(), right.as_ref()),
                    (ProofNode::Opaque(_), ProofNode::Opaque(_))
                );
                let left_hollow = left.walk(items, leaves);
                let right_hollow = right.walk(items, leaves);
                hollow || left_hollow || right_hollow
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

    /// Whether `self` and `other` can be pruned trees of one committed
    /// tree: wherever both reveal a node, they reveal the same kind, and
    /// two revealed leaves are the same leaf.
    fn unites(&self, other: &ProofNode) -> bool {
        match (self, other) {
            (ProofNode::Opaque(_), _) | (_, ProofNode::Opaque(_)) => true,
            (
                ProofNode::Inner { left, right },
                ProofNode::Inner {
                    left: other_left,
                    right: other_right,
                },
            ) => left.unites(other_left) && right.unites(other_right),
            (leaf, other) => leaf == other,
        }
    }

    /// Reveals in `self` every node `other` reveals, in place. Only called
    /// after [`ProofNode::unites`], so where both reveal a leaf it is the
    /// same leaf.
    fn absorb(&mut self, other: ProofNode) {
        match (self, other) {
            (_, ProofNode::Opaque(_)) => {}
            (node @ ProofNode::Opaque(_), other) => *node = other,
            (
                ProofNode::Inner { left, right },
                ProofNode::Inner {
                    left: other_left,
                    right: other_right,
                },
            ) => {
                left.absorb(*other_left);
                right.absorb(*other_right);
            }
            (ProofNode::Leaf { .. } | ProofNode::Inner { .. }, _) => {}
        }
    }
}

/// A revealed leaf of a proof: its in-order position among all the proof's
/// items (leaves and opaque digests), key, value hash and validity.
type Revealed<'a> = (usize, &'a ProofKey, &'a Hash32, bool);

/// Reasons a range proof fails verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Recomputed root does not match the trusted root.
    RootMismatch,
    /// A hidden subtree sits inside a query's run of revealed leaves.
    NonContiguousReveal,
    /// Revealed leaf keys are not strictly increasing.
    UnsortedLeaves,
    /// A hidden subtree could contain in-range keys (missing boundary).
    IncompleteBoundary,
    /// A query's low end is above its high end.
    InvertedQuery,
    /// The proof reveals more than its queries need: a leaf outside every
    /// query's run, or an inner node over two opaque children.
    NotMinimal,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            VerifyError::RootMismatch => "recomputed root does not match trusted root",
            VerifyError::NonContiguousReveal => "revealed leaves are not contiguous in order",
            VerifyError::UnsortedLeaves => "revealed leaf keys are not strictly increasing",
            VerifyError::IncompleteBoundary => "hidden subtree may contain in-range keys",
            VerifyError::InvertedQuery => "query low end is above its high end",
            VerifyError::NotMinimal => "proof reveals nodes no query needs",
        };
        f.write_str(msg)
    }
}

impl Error for VerifyError {}

/// A completeness-checkable proof for one or more key ranges.
///
/// Produced by [`crate::MerkleKv::prove_range`] (one range) and
/// [`RangeProof::union_with`] (several); verified with only the trusted root.
/// Soundness argument: the recomputed root pins the committed structure,
/// whose in-order leaves are sorted; for every query the verifier requires a
/// contiguous in-order run of revealed leaves whose end leaves lie strictly
/// outside the queried range (or are the tree's own first and last leaves),
/// so every hidden leaf is provably outside that range. Queries are checked
/// independently, so leaves revealed for one query cannot hide a key from
/// another. Minimality — every revealed leaf lies in some query's run, and
/// no inner node has two opaque children — makes the encoding for a query
/// set unique.
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

    /// Makes `self` the union of itself and `other`, two proofs pruned from
    /// the same tree: the tree pruned to every leaf either reveals. For
    /// proofs [`crate::MerkleKv::prove_range`] built against one tree, that
    /// is the tree pruned to the union of the queries' boundary-extended
    /// runs — shared upper levels sent once — and it is minimal for the
    /// union of their queries. Subtrees move; nothing is copied.
    ///
    /// # Errors
    ///
    /// Hands `other` back, leaving `self` unchanged, when the two cannot be
    /// pruned trees of one tree (a leaf against an inner node, two
    /// different leaves, an empty tree against a non-empty one). Digests are
    /// not compared: a union of proofs of different roots verifies against
    /// neither.
    pub fn union_with(&mut self, other: RangeProof) -> Result<(), RangeProof> {
        match (&mut self.tree, other.tree) {
            (None, None) => Ok(()),
            (Some(tree), Some(theirs)) if tree.unites(&theirs) => {
                tree.absorb(theirs);
                Ok(())
            }
            (_, tree) => Err(RangeProof { tree }),
        }
    }

    /// Verifies the proof against `root` for the query `[lo, hi]`, returning
    /// the live matching records in key order. The one-query case of
    /// [`RangeProof::verify_queries`].
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
        let mut results = self.verify_queries(root, &[(lo, hi)])?;
        Ok(results.pop().unwrap_or_default())
    }

    /// Verifies the proof against `root` for every query `[lo, hi]` in
    /// `queries`, returning each query's live matching records in key
    /// order, one list per query in query order.
    ///
    /// Checks, in order: the recomputed root; revealed leaves strictly
    /// increasing; per query, a contiguous run of revealed leaves from the
    /// last one below `lo` (or the tree's first leaf) to the first one
    /// above `hi` (or the tree's last leaf); finally minimality.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] describing the first check that failed.
    pub fn verify_queries(
        &self,
        root: &Hash32,
        queries: &[(&ProofKey, &ProofKey)],
    ) -> Result<Vec<Vec<(ProofKey, Hash32)>>, VerifyError> {
        if queries.iter().any(|(lo, hi)| lo > hi) {
            return Err(VerifyError::InvertedQuery);
        }
        let Some(tree) = &self.tree else {
            return if *root == crate::empty_root() {
                Ok(vec![Vec::new(); queries.len()])
            } else {
                Err(VerifyError::RootMismatch)
            };
        };
        if tree.digest() != *root {
            return Err(VerifyError::RootMismatch);
        }
        let mut items = 0;
        let mut leaves = Vec::new();
        let hollow = tree.walk(&mut items, &mut leaves);
        let (Some(head), Some(tail)) = (leaves.first(), leaves.last()) else {
            return Err(VerifyError::IncompleteBoundary);
        };
        let (starts_tree, ends_tree) = (head.0 == 0, tail.0 + 1 == items);
        if leaves.windows(2).any(|pair| pair[0].1 >= pair[1].1) {
            return Err(VerifyError::UnsortedLeaves);
        }
        let mut needed = vec![false; leaves.len()];
        let mut results = Vec::with_capacity(queries.len());
        for &(lo, hi) in queries {
            // leaves[below..above] are the revealed leaves inside [lo, hi].
            let below = leaves.partition_point(|leaf| leaf.1 < lo);
            let above = leaves.partition_point(|leaf| leaf.1 <= hi);
            // The run's ends: anything hidden before it must be < lo, which
            // holds iff its first leaf is below the range or nothing precedes
            // it at all. Dually for the high side.
            let first = match below.checked_sub(1) {
                Some(first) => first,
                None if starts_tree => 0,
                None => return Err(VerifyError::IncompleteBoundary),
            };
            let last = if above < leaves.len() {
                above
            } else if ends_tree {
                leaves.len() - 1
            } else {
                return Err(VerifyError::IncompleteBoundary);
            };
            if leaves[last].0 - leaves[first].0 != last - first {
                return Err(VerifyError::NonContiguousReveal);
            }
            needed[first..=last].fill(true);
            results.push(
                leaves[below..above]
                    .iter()
                    .filter(|leaf| leaf.3)
                    .map(|leaf| (leaf.1.clone(), *leaf.2))
                    .collect(),
            );
        }
        if hollow || needed.contains(&false) {
            return Err(VerifyError::NotMinimal);
        }
        Ok(results)
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

    /// 64 NR keys `k00`..`k63` (odd values only, so every even key is
    /// absent) plus two R keys after them.
    fn wide_tree() -> MerkleKv {
        let mut tree = MerkleKv::new();
        let mut records: Vec<_> = (0..64)
            .filter(|i| i % 2 == 1)
            .map(|i| (nr(&format!("k{i:02}")), vh(&i.to_string())))
            .collect();
        records.push((r("a"), vh("ra")));
        records.push((r("b"), vh("rb")));
        tree.insert_batch(records);
        tree
    }

    fn union_of(t: &MerkleKv, keys: &[ProofKey]) -> RangeProof {
        let mut proofs = keys.iter().map(|k| t.prove_range(k, k));
        let mut shared = proofs.next().expect("at least one key");
        for proof in proofs {
            shared.union_with(proof).expect("pruned from one tree");
        }
        shared
    }

    #[test]
    fn union_of_point_proofs_answers_every_query_once() {
        let t = wide_tree();
        let root = t.root();
        let keys: Vec<ProofKey> = ["k03", "k04", "k31", "k33", "k61"]
            .iter()
            .map(|k| nr(k))
            .collect();
        let shared = union_of(&t, &keys);
        let queries: Vec<(&ProofKey, &ProofKey)> = keys.iter().map(|k| (k, k)).collect();
        let got = shared.verify_queries(&root, &queries).unwrap();
        let each: Vec<_> = keys
            .iter()
            .map(|k| t.prove_range(k, k).verify(&root, k, k).unwrap())
            .collect();
        assert_eq!(got, each);
        assert_eq!(got[1], Vec::new(), "k04 is absent");
        // Shared upper levels are hashed once.
        let separate: usize = keys.iter().map(|k| t.prove_range(k, k).hash_count()).sum();
        assert!(shared.hash_count() < separate);
        // Union is order-free and idempotent.
        let mut reversed = keys.clone();
        reversed.reverse();
        assert_eq!(union_of(&t, &reversed), shared);
        let mut again = shared.clone();
        assert_eq!(again.union_with(shared.clone()), Ok(()));
        assert_eq!(again, shared);
    }

    #[test]
    fn union_of_adjacent_points_is_the_range_proof() {
        // Adjacent runs merge: the union of the point proofs of k05 and k07
        // is the tree pruned to k03..=k09, exactly `prove_range(k05, k07)`.
        let t = wide_tree();
        assert_eq!(
            union_of(&t, &[nr("k05"), nr("k07")]),
            t.prove_range(&nr("k05"), &nr("k07"))
        );
    }

    #[test]
    fn shared_proof_checks_each_query_on_its_own() {
        let t = wide_tree();
        let root = t.root();
        let shared = union_of(&t, &[nr("k11"), nr("k41")]);
        // A key between the two runs is hidden behind digests.
        let hidden = nr("k25");
        assert_eq!(
            shared.verify_queries(&root, &[(&nr("k11"), &nr("k11")), (&hidden, &hidden)]),
            Err(VerifyError::NonContiguousReveal)
        );
        // A query the proof was not built for leaves its leaves unneeded.
        assert_eq!(
            shared.verify(&root, &nr("k11"), &nr("k11")),
            Err(VerifyError::NotMinimal)
        );
        assert_eq!(
            shared.verify(&root, &nr("k41"), &nr("k11")),
            Err(VerifyError::InvertedQuery)
        );
    }

    #[test]
    fn extra_reveals_are_not_minimal() {
        let t = wide_tree();
        let root = t.root();
        let k = nr("k21");
        // One leaf beyond the run's upper boundary, next to it.
        let padded = t.prove_range(&k, &nr("k24"));
        assert_eq!(padded.verify(&root, &k, &k), Err(VerifyError::NotMinimal));
        // An inner node over two opaque children instead of one digest: the
        // first opaque subtree of the honest proof, opened one level using
        // the digests a whole-tree reveal shows.
        fn open_first_opaque(node: &mut ProofNode, full: &ProofNode) -> bool {
            match (node, full) {
                (ProofNode::Inner { left, right }, ProofNode::Inner { left: l, right: r }) => {
                    open_first_opaque(left, l) || open_first_opaque(right, r)
                }
                (node @ ProofNode::Opaque(_), ProofNode::Inner { left, right }) => {
                    *node = ProofNode::Inner {
                        left: Box::new(ProofNode::Opaque(left.digest())),
                        right: Box::new(ProofNode::Opaque(right.digest())),
                    };
                    true
                }
                _ => false,
            }
        }
        let everything = t.prove_range(&nr(""), &r("z")).tree.unwrap();
        let mut hollow = t.prove_range(&k, &k);
        assert!(open_first_opaque(
            hollow.tree.as_mut().unwrap(),
            &everything
        ));
        assert_eq!(hollow.tree.as_ref().unwrap().digest(), root, "same root");
        assert_eq!(hollow.verify(&root, &k, &k), Err(VerifyError::NotMinimal));
    }

    #[test]
    fn union_refuses_proofs_of_different_shapes() {
        let t = wide_tree();
        let k = nr("k21");
        // Refused: `self` unchanged, `other` handed back.
        let refused = |mut a: RangeProof, b: RangeProof| {
            let before = a.clone();
            let back = a.union_with(b.clone());
            assert_eq!(a, before);
            back == Err(b)
        };
        // The same position holding two different leaves.
        let mut moved = t.clone();
        moved.insert(k.clone(), vh("moved"));
        assert!(refused(t.prove_range(&k, &k), moved.prove_range(&k, &k)));
        // A leaf where the other proof has an inner node.
        let mut pair = MerkleKv::new();
        pair.insert_batch(vec![(nr("a"), vh("a")), (nr("b"), vh("b"))]);
        let mut quad = MerkleKv::new();
        quad.insert_batch(["a", "b", "c", "d"].map(|x| (nr(x), vh(x))).to_vec());
        let all = |tree: &MerkleKv| tree.prove_range(&nr(""), &nr("z"));
        assert!(refused(all(&pair), all(&quad)));
        assert!(refused(t.prove_range(&k, &k), RangeProof::empty()));
        let mut empty = RangeProof::empty();
        assert_eq!(empty.union_with(RangeProof::empty()), Ok(()));
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
