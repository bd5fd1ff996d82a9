//! The SP-side Merkle tree over state-prefixed, key-sorted records.

use grub_crypto::Hash32;

use crate::proof::{ProofNode, RangeProof};
use crate::{empty_root, inner_hash, leaf_hash, ProofKey};

#[derive(Clone, Debug)]
pub(crate) struct LeafData {
    pub pkey: ProofKey,
    pub vhash: Hash32,
    pub valid: bool,
    pub hash: Hash32,
    /// `hash` is stale; recomputed by the batch rehash pass. Never true
    /// outside [`MerkleKv::apply_batch`].
    pub dirty: bool,
}

#[derive(Clone, Debug)]
pub(crate) struct InnerData {
    pub hash: Hash32,
    /// `hash` is stale; recomputed by the batch rehash pass. Never true
    /// outside [`MerkleKv::apply_batch`].
    pub dirty: bool,
    pub min: ProofKey,
    pub max: ProofKey,
    pub count: usize,
    pub left: Box<Node>,
    pub right: Box<Node>,
}

#[derive(Clone, Debug)]
pub(crate) enum Node {
    Leaf(LeafData),
    Inner(InnerData),
}

impl Node {
    /// A fresh live leaf. With `defer` the hash is left stale (and the leaf
    /// marked dirty) for the batch rehash pass, so shared root-to-leaf
    /// paths pay for hashing once per round rather than once per op.
    fn new_leaf(pkey: ProofKey, vhash: Hash32, defer: bool) -> Node {
        let hash = if defer {
            Hash32::default()
        } else {
            leaf_hash(&pkey, &vhash, true)
        };
        Node::Leaf(LeafData {
            pkey,
            vhash,
            valid: true,
            hash,
            dirty: defer,
        })
    }

    fn hash(&self) -> Hash32 {
        match self {
            Node::Leaf(l) => l.hash,
            Node::Inner(i) => i.hash,
        }
    }

    fn min(&self) -> &ProofKey {
        match self {
            Node::Leaf(l) => &l.pkey,
            Node::Inner(i) => &i.min,
        }
    }

    fn max(&self) -> &ProofKey {
        match self {
            Node::Leaf(l) => &l.pkey,
            Node::Inner(i) => &i.max,
        }
    }

    /// Physical leaf count (tombstones included).
    fn count(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Inner(i) => i.count,
        }
    }

    /// Joins two subtrees into an inner node. With `defer` the parent hash
    /// is left stale (dirty) for the batch rehash pass; min/max/count — the
    /// only inputs shape decisions read — are always maintained eagerly.
    fn join(left: Box<Node>, right: Box<Node>, defer: bool) -> Node {
        let hash = if defer {
            Hash32::default()
        } else {
            inner_hash(&left.hash(), &right.hash())
        };
        Node::Inner(InnerData {
            hash,
            dirty: defer,
            min: left.min().clone(),
            max: right.max().clone(),
            count: left.count() + right.count(),
            left,
            right,
        })
    }

    /// A leaf holding nothing — no heap behind its empty key — parked in a
    /// slot for the instant its real node is taken out by value (a graft
    /// wraps the old leaf, a rebuild flattens the old subtree). Never
    /// observable: the slot is overwritten before control leaves the caller.
    fn vacant() -> Node {
        Node::Leaf(LeafData {
            pkey: ProofKey::new(crate::ReplState::NotReplicated, Vec::new()),
            vhash: Hash32::default(),
            valid: false,
            hash: Hash32::default(),
            dirty: false,
        })
    }
}

impl InnerData {
    /// The scapegoat test: one side holds more than 3/4 of a subtree of
    /// more than 8 leaves. A pure function of leaf counts, never hashes, so
    /// the SP tree, the DO mirror, and the deferred-hash batch path all
    /// make identical shape decisions and their roots agree.
    fn lopsided(&self) -> bool {
        let (left, right) = (self.left.count(), self.right.count());
        let total = left + right;
        total > 8 && (left * 4 > total * 3 || right * 4 > total * 3)
    }

    /// Brings `hash` up to date with the children after a mutation below:
    /// recomputed now, or left stale (dirty) for the batch rehash pass.
    fn touch(&mut self, defer: bool) {
        if defer {
            self.dirty = true;
        } else {
            self.hash = inner_hash(&self.left.hash(), &self.right.hash());
        }
    }
}

fn flatten(node: Node, out: &mut Vec<LeafData>) {
    match node {
        Node::Leaf(l) => out.push(l),
        Node::Inner(i) => {
            flatten(*i.left, out);
            flatten(*i.right, out);
        }
    }
}

/// The one shape rule: the balanced tree over `n` leaves taken in key
/// order from `leaves`, split `n / 2 | n − n / 2` at every level. A
/// scapegoat rebuild, the tombstone compaction, [`MerkleKv::rebuild`] and
/// the bulk load of [`MerkleKv::apply_batch`] all build with it, so the
/// same leaf set always comes out as the same tree. Leaves keep whatever
/// hashes (and dirty flags) they arrive with; every inner node is joined
/// fresh.
fn build_balanced(n: usize, leaves: &mut impl Iterator<Item = Node>, defer: bool) -> Box<Node> {
    if n <= 1 {
        // grub-lint: allow(panic) — every caller passes the iterator's own length (≥ 1) as `n`
        return Box::new(leaves.next().expect("n leaves"));
    }
    let left = build_balanced(n / 2, leaves, defer);
    let right = build_balanced(n - n / 2, leaves, defer);
    Box::new(Node::join(left, right, defer))
}

/// The authenticated KV index: a binary Merkle tree whose in-order leaves
/// are sorted by [`ProofKey`] (NR group first, then R group — Figure 4b).
///
/// Mutations follow the paper's Appendix B.2.1: updates replace a leaf hash
/// in place; fresh keys split the adjacent leaf into an inner node; state
/// transitions tombstone the old leaf and graft a new one. The structure
/// deterministically rebalances itself (dropping tombstones) once grafts or
/// tombstones dominate, so proof depth stays `O(log n)` — both the SP and
/// the DO's mirror apply the same rule, keeping their roots in lock-step.
#[derive(Clone, Debug, Default)]
pub struct MerkleKv {
    root: Option<Box<Node>>,
    live: usize,
    tombstones: usize,
}

impl MerkleKv {
    /// Creates an empty tree.
    pub fn new() -> Self {
        MerkleKv::default()
    }

    /// The root digest ([`empty_root`] when the tree holds nothing).
    pub fn root(&self) -> Hash32 {
        self.root
            .as_ref()
            .map(|n| n.hash())
            .unwrap_or_else(empty_root)
    }

    /// Number of live (non-tombstoned) records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the tree holds no live records.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of tombstoned leaves awaiting compaction.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Looks up a key, returning its value hash if present and live.
    pub fn get(&self, pkey: &ProofKey) -> Option<Hash32> {
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                Node::Leaf(l) => {
                    return (l.pkey == *pkey && l.valid).then_some(l.vhash);
                }
                Node::Inner(i) => {
                    node = if *pkey <= *i.left.max() {
                        &i.left
                    } else {
                        &i.right
                    };
                }
            }
        }
    }

    /// Inserts a key or updates it in place (reviving a tombstone if one
    /// exists for the same key).
    pub fn insert(&mut self, pkey: ProofKey, vhash: Hash32) {
        self.insert_with(pkey, vhash, false);
    }

    fn insert_with(&mut self, pkey: ProofKey, vhash: Hash32, defer: bool) {
        match &mut self.root {
            None => {
                self.root = Some(Box::new(Node::new_leaf(pkey, vhash, defer)));
                self.live += 1;
            }
            Some(root) => match insert_rec(root, pkey, vhash, defer) {
                InsertOutcome::Grafted => {
                    self.live += 1;
                }
                InsertOutcome::Revived => {
                    self.live += 1;
                    self.tombstones -= 1;
                }
                InsertOutcome::Updated => {}
            },
        }
        self.maybe_rebalance(defer);
    }

    /// Tombstones a key (the paper's "mark invalid"); returns whether it was
    /// live.
    pub fn invalidate(&mut self, pkey: &ProofKey) -> bool {
        self.invalidate_with(pkey, false)
    }

    fn invalidate_with(&mut self, pkey: &ProofKey, defer: bool) -> bool {
        let Some(root) = self.root.as_deref_mut() else {
            return false;
        };
        let removed = invalidate_rec(root, pkey, defer);
        if removed {
            self.live -= 1;
            self.tombstones += 1;
        }
        self.maybe_rebalance(defer);
        removed
    }

    /// Applies a whole sync round of mutations in one pass, with hashing
    /// deferred: every structural decision (graft order, scapegoat joins,
    /// the tombstone-compaction trigger) is made exactly as the equivalent
    /// sequence of [`MerkleKv::insert`]/[`MerkleKv::invalidate`] calls
    /// would make it — shape depends only on keys and counts, never hashes
    /// — but dirty nodes are rehashed once, bottom-up, at the end of the
    /// round. Root-to-leaf paths shared by several ops (and subtrees churned
    /// by a mid-round compaction) therefore pay for hashing once instead of
    /// once per op, while the resulting root is byte-identical to the
    /// sequential one.
    ///
    /// **The bulk load is the one exception.** A batch of inserts in
    /// strictly ascending key order applied to an *empty* tree is a sorted
    /// dataset being loaded, not a round of updates: it is built directly as
    /// the balanced tree [`MerkleKv::rebuild`] would leave (`2n − 1` hashes,
    /// no scapegoat rebuilds), not as the right-leaning tree `n` one-by-one
    /// appends grow. The rule reads only the tree and the batch, so every
    /// party that applies the same batch to an empty tree — the DO's mirror,
    /// the SP, a recovery scan — takes it alike and reaches the same root.
    /// Up to three keys the two shapes coincide.
    ///
    /// Returns the number of nodes rehashed — the per-round
    /// `merkle_nodes_rehashed` observability counter.
    pub fn apply_batch(&mut self, ops: Vec<TreeOp>) -> usize {
        if self.root.is_none() && is_sorted_load(&ops) {
            self.live = ops.len();
            let mut leaves = ops.into_iter().filter_map(|op| match op {
                TreeOp::Insert(pkey, vhash) => Some(Node::new_leaf(pkey, vhash, true)),
                TreeOp::Invalidate(_) => None,
            });
            self.root = Some(build_balanced(self.live, &mut leaves, true));
        } else {
            for op in ops {
                match op {
                    TreeOp::Insert(pkey, vhash) => self.insert_with(pkey, vhash, true),
                    TreeOp::Invalidate(pkey) => {
                        self.invalidate_with(&pkey, true);
                    }
                }
            }
        }
        self.root.as_deref_mut().map(rehash).unwrap_or(0)
    }

    /// [`MerkleKv::apply_batch`] over inserts only — how a dataset is
    /// loaded (`open_at` recovery, preloads): sorted records into an empty
    /// tree take the bulk-load rule. Returns the number of nodes rehashed.
    pub fn insert_batch(&mut self, records: Vec<(ProofKey, Hash32)>) -> usize {
        self.apply_batch(
            records
                .into_iter()
                .map(|(pkey, vhash)| TreeOp::Insert(pkey, vhash))
                .collect(),
        )
    }

    /// Deterministic compaction rule shared by SP and DO mirror: rebuild
    /// (dropping tombstones) once tombstones exceed half the live set.
    /// Shape balance itself is maintained incrementally by the scapegoat
    /// rebuilds in `insert_rec` (see [`InnerData::lopsided`]).
    fn maybe_rebalance(&mut self, defer: bool) {
        if self.tombstones > (self.live / 2).max(64) {
            self.rebuild_with(defer);
        }
    }

    /// Rebuilds a balanced tree from the live records, dropping tombstones.
    pub fn rebuild(&mut self) {
        self.rebuild_with(false);
    }

    fn rebuild_with(&mut self, defer: bool) {
        let mut leaves = Vec::with_capacity(self.live + self.tombstones);
        if let Some(root) = self.root.take() {
            flatten(*root, &mut leaves);
        }
        // Live leaves are re-made (and so re-hashed), as they always have
        // been: a round's rehash count is a published metric.
        let mut live = leaves
            .into_iter()
            .filter(|leaf| leaf.valid)
            .map(|leaf| Node::new_leaf(leaf.pkey, leaf.vhash, defer));
        self.root = (self.live > 0).then(|| build_balanced(self.live, &mut live, defer));
        self.tombstones = 0;
    }

    /// In-order live records, for tests and SP-side iteration.
    pub fn iter_live(&self) -> Vec<(ProofKey, Hash32)> {
        let mut out = Vec::with_capacity(self.live);
        if let Some(root) = &self.root {
            collect_live(root, &mut out);
        }
        out
    }

    /// Range proof over `[lo, hi]` (by full [`ProofKey`] order): a pruned
    /// tree revealing every leaf in range plus one boundary leaf on each
    /// side, with everything else collapsed to opaque digests.
    pub fn prove_range(&self, lo: &ProofKey, hi: &ProofKey) -> RangeProof {
        let Some(root) = self.root.as_deref() else {
            return RangeProof::empty();
        };
        // Extend the range to the immediate neighbours so the verifier can
        // check completeness (the paper's boundary records, Appendix B.2.2).
        let pred = find_predecessor(root, lo);
        let succ = find_successor(root, hi);
        let lo_ext = pred.unwrap_or_else(|| root.min().clone());
        let hi_ext = succ.unwrap_or_else(|| root.max().clone());
        RangeProof {
            tree: Some(prune(root, &lo_ext, &hi_ext)),
        }
    }

    /// Maximum leaf depth (proof length); exposed for gas modelling and the
    /// rebalance tests.
    pub fn depth(&self) -> usize {
        fn d(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Inner(i) => 1 + d(&i.left).max(d(&i.right)),
            }
        }
        self.root.as_deref().map(d).unwrap_or(0)
    }
}

/// One mutation in a deferred-hash [`MerkleKv::apply_batch`] round: the
/// batch analog of [`MerkleKv::insert`] / [`MerkleKv::invalidate`].
#[derive(Clone, Debug)]
pub enum TreeOp {
    /// Insert the key or update it in place (reviving a tombstone).
    Insert(ProofKey, Hash32),
    /// Tombstone the key (the paper's "mark invalid").
    Invalidate(ProofKey),
}

impl TreeOp {
    /// The key this op inserts, if it is an insert.
    fn inserted(&self) -> Option<&ProofKey> {
        match self {
            TreeOp::Insert(pkey, _) => Some(pkey),
            TreeOp::Invalidate(_) => None,
        }
    }
}

/// Whether `ops` is a sorted dataset: inserts only, keys strictly
/// ascending. Read only when the tree is empty, so steady-state rounds
/// never pay for the scan.
fn is_sorted_load(ops: &[TreeOp]) -> bool {
    !ops.is_empty()
        && ops.iter().all(|op| op.inserted().is_some())
        && ops
            .windows(2)
            .all(|pair| pair[0].inserted() < pair[1].inserted())
}

enum InsertOutcome {
    Updated,
    Revived,
    Grafted,
}

/// Inserts below `slot`, in place: an update or revival rewrites the leaf
/// and touches each ancestor's hash (or dirty flag) on the way back up,
/// with no heap traffic; only a graft (two new boxes) or a scapegoat
/// rebuild allocates.
fn insert_rec(slot: &mut Box<Node>, pkey: ProofKey, vhash: Hash32, defer: bool) -> InsertOutcome {
    match &mut **slot {
        Node::Leaf(l) if l.pkey == pkey => {
            let outcome = if l.valid {
                InsertOutcome::Updated
            } else {
                InsertOutcome::Revived
            };
            l.vhash = vhash;
            l.valid = true;
            if defer {
                l.dirty = true;
            } else {
                l.hash = leaf_hash(&l.pkey, &l.vhash, true);
            }
            outcome
        }
        Node::Leaf(_) => {
            // Graft: split this leaf into an inner node holding both, in
            // key order (the paper's h9 = H(h4 ‖ h8) step).
            let new_leaf = Box::new(Node::new_leaf(pkey, vhash, defer));
            let old_leaf = Box::new(std::mem::replace(&mut **slot, Node::vacant()));
            **slot = if *new_leaf.max() < *old_leaf.min() {
                Node::join(new_leaf, old_leaf, defer)
            } else {
                Node::join(old_leaf, new_leaf, defer)
            };
            InsertOutcome::Grafted
        }
        Node::Inner(i) => {
            let went_left = pkey <= *i.left.max();
            let child = if went_left { &mut i.left } else { &mut i.right };
            let outcome = insert_rec(child, pkey, vhash, defer);
            if matches!(outcome, InsertOutcome::Grafted) {
                // The new key sorts at or below `left.max` when it went
                // left and above it otherwise, so only the outer bound on
                // the side it took can have moved.
                i.count += 1;
                if went_left {
                    if i.min != *i.left.min() {
                        i.min = i.left.min().clone();
                    }
                } else if i.max != *i.right.max() {
                    i.max = i.right.max().clone();
                }
            }
            if i.lopsided() {
                // Scapegoat rebuild of this subtree: leaves keep their
                // hashes (and dirty flags), every inner node is rejoined.
                let mut leaves = Vec::with_capacity(i.count);
                flatten(std::mem::replace(&mut **slot, Node::vacant()), &mut leaves);
                *slot =
                    build_balanced(leaves.len(), &mut leaves.into_iter().map(Node::Leaf), defer);
            } else {
                i.touch(defer);
            }
            outcome
        }
    }
}

/// Tombstones `pkey` below `slot`, in place and without allocating. Shape
/// and counts never change (a tombstone is still a physical leaf). The
/// path's hashes are touched whether or not the key was found live: a
/// batch's rehash count is a published metric and must not depend on it.
fn invalidate_rec(slot: &mut Node, pkey: &ProofKey, defer: bool) -> bool {
    match slot {
        Node::Leaf(l) => {
            if l.pkey != *pkey || !l.valid {
                return false;
            }
            l.valid = false;
            if defer {
                l.dirty = true;
            } else {
                l.hash = leaf_hash(&l.pkey, &l.vhash, false);
            }
            true
        }
        Node::Inner(i) => {
            let child = if *pkey <= *i.left.max() {
                &mut i.left
            } else {
                &mut i.right
            };
            let removed = invalidate_rec(child, pkey, defer);
            i.touch(defer);
            removed
        }
    }
}

/// The batch finalizer: recomputes every dirty hash bottom-up and returns
/// the number of nodes rehashed. Clean subtrees are skipped whole — a dirty
/// node's ancestors are always dirty (a deferred mutation marks every inner
/// node on its root-to-leaf path on the way back up, and a rebuilt subtree
/// is rejoined dirty throughout), so the early return never strands a stale
/// hash below a clean one.
fn rehash(node: &mut Node) -> usize {
    match node {
        Node::Leaf(l) => {
            if !l.dirty {
                return 0;
            }
            l.hash = leaf_hash(&l.pkey, &l.vhash, l.valid);
            l.dirty = false;
            1
        }
        Node::Inner(i) => {
            if !i.dirty {
                return 0;
            }
            let below = rehash(&mut i.left) + rehash(&mut i.right);
            i.hash = inner_hash(&i.left.hash(), &i.right.hash());
            i.dirty = false;
            below + 1
        }
    }
}

fn collect_live(node: &Node, out: &mut Vec<(ProofKey, Hash32)>) {
    match node {
        Node::Leaf(l) => {
            if l.valid {
                out.push((l.pkey.clone(), l.vhash));
            }
        }
        Node::Inner(i) => {
            collect_live(&i.left, out);
            collect_live(&i.right, out);
        }
    }
}

/// Largest leaf key strictly below `bound` (any validity), if one exists.
fn find_predecessor(node: &Node, bound: &ProofKey) -> Option<ProofKey> {
    match node {
        Node::Leaf(l) => (l.pkey < *bound).then(|| l.pkey.clone()),
        Node::Inner(i) => {
            if *i.right.min() < *bound {
                find_predecessor(&i.right, bound).or_else(|| find_predecessor(&i.left, bound))
            } else {
                find_predecessor(&i.left, bound)
            }
        }
    }
}

/// Smallest leaf key strictly above `bound` (any validity), if one exists.
fn find_successor(node: &Node, bound: &ProofKey) -> Option<ProofKey> {
    match node {
        Node::Leaf(l) => (l.pkey > *bound).then(|| l.pkey.clone()),
        Node::Inner(i) => {
            if *i.left.max() > *bound {
                find_successor(&i.left, bound).or_else(|| find_successor(&i.right, bound))
            } else {
                find_successor(&i.right, bound)
            }
        }
    }
}

fn prune(node: &Node, lo: &ProofKey, hi: &ProofKey) -> ProofNode {
    match node {
        Node::Leaf(l) => {
            if l.pkey < *lo || l.pkey > *hi {
                ProofNode::Opaque(l.hash)
            } else {
                ProofNode::Leaf {
                    pkey: l.pkey.clone(),
                    vhash: l.vhash,
                    valid: l.valid,
                }
            }
        }
        Node::Inner(i) => {
            if i.max < *lo || i.min > *hi {
                ProofNode::Opaque(i.hash)
            } else {
                ProofNode::Inner {
                    left: Box::new(prune(&i.left, lo, hi)),
                    right: Box::new(prune(&i.right, lo, hi)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_value_hash, ReplState};

    fn nr(key: &str) -> ProofKey {
        ProofKey::new(ReplState::NotReplicated, key.as_bytes().to_vec())
    }

    fn r(key: &str) -> ProofKey {
        ProofKey::new(ReplState::Replicated, key.as_bytes().to_vec())
    }

    fn vh(v: &str) -> Hash32 {
        record_value_hash(v.as_bytes())
    }

    #[test]
    fn empty_tree_has_sentinel_root() {
        let t = MerkleKv::new();
        assert_eq!(t.root(), empty_root());
        assert!(t.is_empty());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn insert_get_round_trip() {
        let mut t = MerkleKv::new();
        t.insert(nr("w"), vh("100"));
        t.insert(nr("y"), vh("200"));
        t.insert(r("x"), vh("300"));
        t.insert(r("z"), vh("400"));
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(&nr("w")), Some(vh("100")));
        assert_eq!(t.get(&r("z")), Some(vh("400")));
        assert_eq!(t.get(&nr("missing")), None);
        // Same key under the other state is a different record.
        assert_eq!(t.get(&r("w")), None);
    }

    #[test]
    fn in_order_leaves_are_sorted_regardless_of_insert_order() {
        let mut t = MerkleKv::new();
        for k in ["m", "c", "z", "a", "q", "f"] {
            t.insert(nr(k), vh(k));
        }
        t.insert(r("b"), vh("b"));
        let live = t.iter_live();
        let mut sorted = live.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(live, sorted);
        // NR group strictly precedes R group.
        assert_eq!(live.last().unwrap().0, r("b"));
    }

    #[test]
    fn update_in_place_changes_root_only() {
        let mut t = MerkleKv::new();
        t.insert(nr("a"), vh("1"));
        t.insert(nr("b"), vh("2"));
        let root1 = t.root();
        let len1 = t.len();
        t.insert(nr("a"), vh("1'"));
        assert_ne!(t.root(), root1);
        assert_eq!(t.len(), len1);
        assert_eq!(t.get(&nr("a")), Some(vh("1'")));
    }

    #[test]
    fn root_is_history_independent_after_rebuild() {
        // Two trees with the same live set have the same root after rebuild,
        // regardless of insertion order (needed for SP/DO root agreement).
        let mut t1 = MerkleKv::new();
        let mut t2 = MerkleKv::new();
        for k in ["a", "b", "c", "d"] {
            t1.insert(nr(k), vh(k));
        }
        for k in ["d", "b", "a", "c"] {
            t2.insert(nr(k), vh(k));
        }
        t1.rebuild();
        t2.rebuild();
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn invalidate_tombstones_and_revive() {
        let mut t = MerkleKv::new();
        t.insert(nr("a"), vh("1"));
        t.insert(nr("b"), vh("2"));
        assert!(t.invalidate(&nr("a")));
        assert!(!t.invalidate(&nr("a")), "already tombstoned");
        assert_eq!(t.get(&nr("a")), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.tombstone_count(), 1);
        // Re-inserting the key revives the tombstone in place.
        t.insert(nr("a"), vh("3"));
        assert_eq!(t.get(&nr("a")), Some(vh("3")));
        assert_eq!(t.tombstone_count(), 0);
    }

    #[test]
    fn relocation_changes_membership_under_both_states() {
        // The paper's R→NR transition: invalidate ⟨x,R⟩, graft ⟨x,NR⟩.
        let mut t = MerkleKv::new();
        t.insert(r("x"), vh("300"));
        t.insert(nr("w"), vh("100"));
        t.invalidate(&r("x"));
        t.insert(nr("x"), vh("310"));
        assert_eq!(t.get(&r("x")), None);
        assert_eq!(t.get(&nr("x")), Some(vh("310")));
    }

    #[test]
    fn sequential_appends_stay_logarithmic() {
        // BtcRelay-style append-only keys would degrade an unbalanced graft
        // chain to O(n) depth; the deterministic rebuild must prevent that.
        let mut t = MerkleKv::new();
        for i in 0..5000u32 {
            t.insert(nr(&format!("blk{i:08}")), vh(&i.to_string()));
        }
        assert_eq!(t.len(), 5000);
        assert!(
            t.depth() <= 4 * 13, // generous bound vs log2(5000) ≈ 12.3
            "depth {} is not logarithmic",
            t.depth()
        );
    }

    /// Replays `ops` sequentially into one tree and as a single batch into
    /// another, asserting byte-identical roots and bookkeeping.
    fn assert_batch_matches_sequential(ops: Vec<TreeOp>) {
        let mut seq = MerkleKv::new();
        for op in &ops {
            match op {
                TreeOp::Insert(k, v) => seq.insert(k.clone(), *v),
                TreeOp::Invalidate(k) => {
                    seq.invalidate(k);
                }
            }
        }
        let mut batch = MerkleKv::new();
        batch.apply_batch(ops);
        assert_eq!(batch.root(), seq.root(), "batch root != sequential root");
        assert_eq!(batch.len(), seq.len());
        assert_eq!(batch.tombstone_count(), seq.tombstone_count());
        assert_eq!(
            batch.depth(),
            seq.depth(),
            "batch shape != sequential shape"
        );
    }

    #[test]
    fn batch_root_equals_sequential_root() {
        let ops: Vec<TreeOp> = (0..200u32)
            .map(|i| TreeOp::Insert(nr(&format!("k{:03}", i % 60)), vh(&i.to_string())))
            .chain((0..50u32).map(|i| TreeOp::Invalidate(nr(&format!("k{:03}", i % 60)))))
            .collect();
        assert_batch_matches_sequential(ops);
    }

    #[test]
    fn batch_matches_sequential_through_compaction() {
        // Enough tombstones to trip the deterministic rebuild mid-batch:
        // the deferred path must compact at the exact same op boundary.
        let mut ops: Vec<TreeOp> = (0..200u32)
            .map(|i| TreeOp::Insert(nr(&format!("k{i:03}")), vh(&i.to_string())))
            .collect();
        ops.extend((0..130u32).map(|i| TreeOp::Invalidate(nr(&format!("k{i:03}")))));
        ops.extend((0..40u32).map(|i| TreeOp::Insert(nr(&format!("k{i:03}")), vh("revived"))));
        assert_batch_matches_sequential(ops);
    }

    #[test]
    fn batch_relocation_mix_matches_sequential() {
        // The provider's Relocate shape: invalidate under one state, insert
        // under the other, interleaved with plain writes.
        let mut ops = Vec::new();
        for i in 0..80u32 {
            let key = format!("rec{:02}", i % 20);
            ops.push(TreeOp::Insert(nr(&key), vh(&i.to_string())));
            if i % 3 == 0 {
                ops.push(TreeOp::Invalidate(nr(&key)));
                ops.push(TreeOp::Insert(r(&key), vh(&i.to_string())));
            }
        }
        assert_batch_matches_sequential(ops);
    }

    #[test]
    fn batch_counts_rehashed_nodes() {
        let mut t = MerkleKv::new();
        t.insert_batch(
            (0..64u32)
                .map(|i| (nr(&format!("k{i:02}")), vh("v")))
                .collect(),
        );
        let root_before = t.root();
        // A single in-place update dirties one root-to-leaf path; with 64
        // balanced leaves that is well under the whole tree (127 nodes).
        let rehashed = t.apply_batch(vec![TreeOp::Insert(nr("k00"), vh("v'"))]);
        assert!(rehashed >= 2, "path must be rehashed, got {rehashed}");
        assert!(
            rehashed <= 8,
            "rehash must not touch the whole tree: {rehashed}"
        );
        assert_ne!(t.root(), root_before);
        // An empty batch touches nothing.
        assert_eq!(t.apply_batch(Vec::new()), 0);
    }

    #[test]
    fn batch_invalidate_miss_still_rehashes_the_path() {
        // `merkle_nodes_rehashed` is a published count: a tombstone request
        // for an absent (or already dead) key walks to the leaf that would
        // hold it and re-derives that path's inner hashes, leaf untouched.
        let mut t = MerkleKv::new();
        t.insert_batch(
            (0..64u32)
                .map(|i| (nr(&format!("k{i:02}")), vh("v")))
                .collect(),
        );
        let root_before = t.root();
        let rehashed = t.apply_batch(vec![TreeOp::Invalidate(nr("k00x"))]);
        assert!((2..=8).contains(&rehashed), "inner path only: {rehashed}");
        assert_eq!(t.root(), root_before);
        assert_eq!((t.len(), t.tombstone_count()), (64, 0));
        check_invariants(&t, true);
    }

    #[test]
    fn batch_shares_path_hashing_across_ops() {
        let mut t = MerkleKv::new();
        t.insert_batch(
            (0..64u32)
                .map(|i| (nr(&format!("k{i:02}")), vh("v")))
                .collect(),
        );
        // 32 updates as one batch: every node is rehashed at most once, so
        // the count is bounded by the whole tree, not ops × path length.
        let rehashed = t.apply_batch(
            (0..32u32)
                .map(|i| TreeOp::Insert(nr(&format!("k{i:02}")), vh("v'")))
                .collect(),
        );
        assert!(
            rehashed < 32 * t.depth(),
            "shared paths must be rehashed once: {rehashed}"
        );
    }

    /// Every structural fact the mutation paths maintain incrementally,
    /// recomputed from scratch: subtree summaries match the children, keys
    /// are in order, no subtree the scapegoat rule would rebuild is left
    /// standing, nothing is dirty at rest, and the live/tombstone tallies
    /// match a leaf census. With `hashes`, additionally every stored hash
    /// is the hash of what is stored below it (the expensive part: one
    /// SHA-256 per node).
    fn check_invariants(tree: &MerkleKv, hashes: bool) {
        fn walk(node: &Node, hashes: bool, live: &mut usize, tombstones: &mut usize) {
            match node {
                Node::Leaf(l) => {
                    assert!(!l.dirty, "dirty leaf at rest: {:?}", l.pkey);
                    if hashes {
                        assert_eq!(l.hash, leaf_hash(&l.pkey, &l.vhash, l.valid));
                    }
                    *(if l.valid { live } else { tombstones }) += 1;
                }
                Node::Inner(i) => {
                    assert_eq!(i.count, i.left.count() + i.right.count());
                    assert_eq!(i.min, *i.left.min());
                    assert_eq!(i.max, *i.right.max());
                    assert!(i.left.max() < i.right.min(), "leaves out of order");
                    assert!(!i.lopsided(), "{} | {}", i.left.count(), i.right.count());
                    assert!(!i.dirty, "dirty inner node at rest");
                    if hashes {
                        assert_eq!(i.hash, inner_hash(&i.left.hash(), &i.right.hash()));
                    }
                    walk(&i.left, hashes, live, tombstones);
                    walk(&i.right, hashes, live, tombstones);
                }
            }
        }
        let (mut live, mut tombstones) = (0, 0);
        if let Some(root) = tree.root.as_deref() {
            walk(root, hashes, &mut live, &mut tombstones);
        }
        assert_eq!((live, tombstones), (tree.len(), tree.tombstone_count()));
    }

    #[test]
    fn invariants_hold_after_every_op_eager_and_batched() {
        // splitmix64: a fixed, dependency-free op stream.
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_1eb1);
            (z ^ (z >> 31)) % bound
        };
        let mut eager = MerkleKv::new();
        let mut batched = MerkleKv::new();
        let mut batch: Vec<TreeOp> = Vec::new();
        let mut batch_len = 1;
        let mut compactions = 0;
        for step in 0..5000u32 {
            let key = format!("k{:03}", next(120));
            let value = vh(&step.to_string());
            let ops = match next(8) {
                // Insert or update in place (reviving a tombstone), either group.
                0..=3 => vec![TreeOp::Insert(nr(&key), value)],
                4 => vec![TreeOp::Insert(r(&key), value)],
                // Tombstone; a miss still walks (and touches) the path.
                5 => vec![TreeOp::Invalidate(nr(&key))],
                // The DO's transition: tombstone under one state, graft or
                // revive under the other.
                6 => vec![TreeOp::Invalidate(nr(&key)), TreeOp::Insert(r(&key), value)],
                _ => vec![TreeOp::Invalidate(r(&key)), TreeOp::Insert(nr(&key), value)],
            };
            for op in ops {
                let tombstones_before = eager.tombstone_count();
                match &op {
                    TreeOp::Insert(k, v) => eager.insert(k.clone(), *v),
                    TreeOp::Invalidate(k) => {
                        eager.invalidate(k);
                    }
                }
                // One op revives at most one tombstone; more gone at once
                // is the compaction rebuild.
                compactions += usize::from(eager.tombstone_count() + 1 < tombstones_before);
                // Shape after every op; hashes at the batch boundaries
                // below (1–40 ops apart), which keeps the debug-build test
                // to a second.
                check_invariants(&eager, false);
                batch.push(op);
            }
            if batch.len() >= batch_len {
                batched.apply_batch(std::mem::take(&mut batch));
                check_invariants(&batched, true);
                check_invariants(&eager, true);
                assert_eq!(batched.root(), eager.root(), "step {step}");
                assert_eq!(batched.depth(), eager.depth(), "step {step}");
                batch_len = 1 + next(40) as usize;
            }
        }
        assert!(compactions > 0, "the mix never tripped a compaction");
        assert!(eager.len() > 100, "both state groups populated");
    }

    fn sorted_records(n: usize) -> Vec<(ProofKey, Hash32)> {
        (0..n)
            .map(|i| (nr(&format!("k{i:05}")), vh(&i.to_string())))
            .collect()
    }

    #[test]
    fn bulk_load_builds_the_rebuild_shape_in_2n_minus_1_hashes() {
        // History independence: a sorted batch into an empty tree lands on
        // the same tree — hence the same root — as any other route to the
        // same record set followed by `rebuild()`.
        for n in [1usize, 2, 3, 4, 5, 8, 9, 100, 1000, 4096, 4097] {
            let records = sorted_records(n);
            let mut bulk = MerkleKv::new();
            assert_eq!(bulk.insert_batch(records.clone()), 2 * n - 1, "n = {n}");
            check_invariants(&bulk, true);
            assert_eq!((bulk.len(), bulk.tombstone_count()), (n, 0));
            let log2_ceil = n.next_power_of_two().trailing_zeros() as usize;
            assert_eq!(bulk.depth(), log2_ceil + 1, "n = {n}");
            // Every third key first, one by one, then the rest.
            let mut grown = MerkleKv::new();
            for phase in 0..3 {
                for (key, value) in records.iter().skip(phase).step_by(3) {
                    grown.insert(key.clone(), *value);
                }
            }
            grown.rebuild();
            assert_eq!(bulk.root(), grown.root(), "n = {n}");
            assert_eq!(bulk.iter_live(), records);
        }
    }

    #[test]
    fn bulk_load_coincides_with_appends_up_to_three_keys() {
        // Which is why a feed that starts with a handful of writes mines the
        // same roots it always has.
        for n in 1..=3 {
            let mut bulk = MerkleKv::new();
            bulk.insert_batch(sorted_records(n));
            let mut grown = MerkleKv::new();
            for (key, value) in sorted_records(n) {
                grown.insert(key, value);
            }
            assert_eq!(bulk.root(), grown.root(), "n = {n}");
        }
    }

    #[test]
    fn far_right_graft_after_a_bulk_load_rehashes_one_path() {
        // The first replication after a 2^16-record NR preload grafts the
        // tree's only R leaf at the far right. On the balanced tree that is
        // one root-to-leaf path, not the whole-tree rebuild it triggers on
        // the append-built shape (next test).
        let mut tree = MerkleKv::new();
        tree.insert_batch(sorted_records(1 << 16));
        let depth = tree.depth();
        assert_eq!(depth, 17);
        let mut eager = tree.clone();
        let rehashed = tree.apply_batch(vec![TreeOp::Insert(r("k"), vh("v"))]);
        assert!(rehashed <= depth + 1, "{rehashed} nodes for one graft");
        check_invariants(&tree, false);
        eager.insert(r("k"), vh("v"));
        assert_eq!(tree.root(), eager.root());
        assert_eq!(tree.depth(), depth + 1);
    }

    #[test]
    fn far_right_graft_after_sorted_appends_rebuilds_the_root() {
        // The per-op path is untouched: keys appended one by one (a feed
        // that follows the tip rather than loading a dataset) leave the root
        // due for a rebuild exactly when the tree reaches 2^k + 1 leaves, so
        // after 2^k NR keys the first R key rebuilds the whole tree in place
        // of the root.
        for k in 4..=10u32 {
            let n = 1usize << k;
            let mut eager = MerkleKv::new();
            for (key, value) in sorted_records(n) {
                eager.insert(key, value);
            }
            check_invariants(&eager, true);
            assert_eq!(
                eager.depth(),
                2 * k as usize + 1,
                "append-built, not balanced"
            );
            let mut batched = eager.clone();
            // Every inner node of the rebuilt tree plus the new leaf; the
            // old leaves keep their hashes.
            let rehashed = batched.apply_batch(vec![TreeOp::Insert(r("k"), vh("v"))]);
            assert_eq!(rehashed, n + 1, "2^{k} leaves: no root-level rebuild");
            check_invariants(&batched, true);
            eager.insert(r("k"), vh("v"));
            check_invariants(&eager, true);
            assert_eq!(batched.root(), eager.root());
            assert_eq!(batched.depth(), k as usize + 2);
        }
    }

    #[test]
    fn batches_that_are_not_a_sorted_load_take_the_per_op_path() {
        let load = || -> Vec<TreeOp> {
            sorted_records(64)
                .into_iter()
                .map(|(key, value)| TreeOp::Insert(key, value))
                .collect()
        };
        // Out of order.
        let mut unsorted = load();
        unsorted.swap(62, 63);
        assert_batch_matches_sequential(unsorted);
        // A repeated key.
        let mut repeated = load();
        repeated.push(TreeOp::Insert(nr("k00063"), vh("again")));
        assert_batch_matches_sequential(repeated);
        // A tombstone request, even one that misses.
        let mut with_invalidate = load();
        with_invalidate.push(TreeOp::Invalidate(nr("zz")));
        assert_batch_matches_sequential(with_invalidate);
        assert_batch_matches_sequential(vec![TreeOp::Invalidate(nr("zz"))]);
        // A non-empty tree — one leaf, or one tombstone, is enough.
        for first in [
            vec![TreeOp::Insert(nr("a"), vh("a"))],
            vec![
                TreeOp::Insert(nr("a"), vh("a")),
                TreeOp::Invalidate(nr("a")),
            ],
        ] {
            let mut seq = MerkleKv::new();
            let mut batch = MerkleKv::new();
            seq.apply_batch(first.clone());
            batch.apply_batch(first);
            for (key, value) in sorted_records(64) {
                seq.insert(key, value);
            }
            batch.apply_batch(load());
            assert_eq!(batch.root(), seq.root());
            assert_eq!(batch.depth(), seq.depth());
            assert_ne!(batch.depth(), 7, "not the balanced 64-leaf tree");
        }
    }

    #[test]
    fn depth_bound_under_churn() {
        let mut t = MerkleKv::new();
        for i in 0..2000u32 {
            t.insert(nr(&format!("k{:04}", i % 500)), vh(&i.to_string()));
            if i % 3 == 0 {
                t.invalidate(&nr(&format!("k{:04}", (i / 2) % 500)));
            }
        }
        assert!(t.depth() <= 40, "depth {}", t.depth());
    }
}
