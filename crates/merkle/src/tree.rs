//! The SP-side Merkle tree over state-prefixed, key-sorted records.
//!
//! The tree is an arena: leaves in one `Vec`, inner nodes in another, each
//! child named by a tagged `u32` index ([`Link`]). A key is stored once, at
//! its leaf; an inner node names the two leaves on either side of its split
//! instead of holding copies of their keys, and range proofs prune by
//! in-order position (leaf counts), not by key. There is no free list — every
//! shape change keeps `inners.len() == leaves.len() − 1`: a graft pushes one
//! leaf and one inner node, a scapegoat rebuild rejoins its subtree into
//! that subtree's own inner slots, and the tombstone compaction rebuilds
//! both vectors in place.
//!
//! Hashing has one path. Every mutation marks the leaf it writes and the
//! inner nodes above it dirty, and a round of mutations — one
//! [`MerkleKv::insert`], or a whole [`MerkleKv::apply_batch`] — ends in one
//! bottom-up rehash of the dirty nodes.

use std::ops::{Range, RangeInclusive};

use grub_crypto::Hash32;

use crate::proof::{ProofNode, RangeProof};
use crate::{empty_root, inner_hash, leaf_hash, ProofKey};

#[derive(Clone, Debug)]
struct Leaf {
    pkey: ProofKey,
    vhash: Hash32,
    hash: Hash32,
    valid: bool,
    /// `hash` is stale; recomputed by the rehash pass that ends every
    /// round, so never true at rest.
    dirty: bool,
}

#[derive(Clone, Copy, Debug)]
struct Inner {
    hash: Hash32,
    left: Link,
    right: Link,
    /// Physical leaf count of the subtree (tombstones included).
    count: u32,
    /// The left subtree's last leaf: keys at or below its key route left.
    left_max: u32,
    /// The right subtree's first leaf.
    right_min: u32,
    /// `hash` is stale; recomputed by the rehash pass that ends every
    /// round, so never true at rest.
    dirty: bool,
}

/// A child link: an index into `leaves` (top bit set) or into `inners`.
/// Thirty-one bits of index cap a tree at 2^31 leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Link(u32);

/// A decoded [`Link`].
enum Node {
    Leaf(usize),
    Inner(usize),
}

impl Link {
    const LEAF: u32 = 1 << 31;

    fn leaf(index: usize) -> Link {
        debug_assert!(index < Self::LEAF as usize, "arena index overflow");
        Link(index as u32 | Self::LEAF)
    }

    fn inner(index: usize) -> Link {
        debug_assert!(index < Self::LEAF as usize, "arena index overflow");
        Link(index as u32)
    }

    fn node(self) -> Node {
        if self.0 & Self::LEAF == 0 {
            Node::Inner(self.0 as usize)
        } else {
            Node::Leaf((self.0 & !Self::LEAF) as usize)
        }
    }
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
    leaves: Vec<Leaf>,
    inners: Vec<Inner>,
    root: Option<Link>,
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
            .map(|root| self.hash_of(root))
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

    /// Heap bytes the tree owns: both arena vectors at their capacity plus
    /// every leaf's key buffer — one entry of the memory ledger
    /// (ARCHITECTURE.md).
    pub fn heap_bytes(&self) -> usize {
        self.leaves.capacity() * std::mem::size_of::<Leaf>()
            + self.inners.capacity() * std::mem::size_of::<Inner>()
            + self
                .leaves
                .iter()
                .map(|leaf| leaf.pkey.key.capacity())
                .sum::<usize>()
    }

    /// Looks up a key, returning its value hash if present and live.
    pub fn get(&self, pkey: &ProofKey) -> Option<Hash32> {
        let mut at = self.root?;
        loop {
            match at.node() {
                Node::Leaf(l) => {
                    let leaf = &self.leaves[l];
                    return (leaf.pkey == *pkey && leaf.valid).then_some(leaf.vhash);
                }
                Node::Inner(i) => at = self.route(i, pkey).0,
            }
        }
    }

    /// Inserts a key or updates it in place (reviving a tombstone if one
    /// exists for the same key): a round of one op.
    pub fn insert(&mut self, pkey: ProofKey, vhash: Hash32) {
        self.insert_op(pkey, vhash);
        self.rehash_root();
    }

    fn insert_op(&mut self, pkey: ProofKey, vhash: Hash32) {
        match self.root {
            None => {
                self.root = Some(self.push_leaf(pkey, vhash));
                self.live += 1;
            }
            Some(root) => {
                let (root, outcome) = self.insert_at(root, pkey, vhash);
                self.root = Some(root);
                match outcome {
                    InsertOutcome::Grafted { .. } => {
                        self.live += 1;
                    }
                    InsertOutcome::Revived => {
                        self.live += 1;
                        self.tombstones -= 1;
                    }
                    InsertOutcome::Updated => {}
                }
            }
        }
        self.maybe_rebalance();
    }

    /// Tombstones a key (the paper's "mark invalid"): a round of one op.
    /// Returns whether the key was live.
    pub fn invalidate(&mut self, pkey: &ProofKey) -> bool {
        let removed = self.invalidate_op(pkey);
        self.rehash_root();
        removed
    }

    fn invalidate_op(&mut self, pkey: &ProofKey) -> bool {
        let Some(root) = self.root else {
            return false;
        };
        let removed = self.invalidate_at(root, pkey);
        if removed {
            self.live -= 1;
            self.tombstones += 1;
        }
        self.maybe_rebalance();
        removed
    }

    /// Applies a whole sync round of mutations in one pass: every structural
    /// decision (graft order, scapegoat joins, the tombstone-compaction
    /// trigger) is made exactly as the equivalent sequence of
    /// [`MerkleKv::insert`]/[`MerkleKv::invalidate`] calls would make it —
    /// shape depends only on keys and counts, never hashes — but dirty nodes
    /// are rehashed once, bottom-up, at the end of the round. Root-to-leaf
    /// paths shared by several ops (and subtrees churned by a mid-round
    /// compaction) therefore pay for hashing once instead of once per op,
    /// while the resulting root is byte-identical to the sequential one.
    ///
    /// **The bulk load is the one exception.** A batch of inserts in
    /// strictly ascending key order applied to an *empty* tree is a sorted
    /// dataset being loaded, not a round of updates: it is built directly as
    /// the balanced tree [`MerkleKv::rebuild`] would leave (`2n − 1` hashes,
    /// no scapegoat rebuilds), not as the right-leaning tree `n` one-by-one
    /// appends grow. The rule reads only the tree and the batch, so every
    /// party that applies the same batch to an empty tree — the DO's mirror,
    /// the SP, a recovery scan — takes it alike and reaches the same root.
    /// Up to three keys the two shapes coincide. Both arena vectors are
    /// sized exactly and each op's key moves into its leaf, so the load
    /// allocates nothing beyond the two vectors.
    ///
    /// Returns the number of nodes rehashed — the per-round
    /// `merkle_nodes_rehashed` observability counter.
    pub fn apply_batch(&mut self, ops: Vec<TreeOp>) -> usize {
        if self.root.is_none() && is_sorted_load(&ops) {
            let n = ops.len();
            self.leaves = Vec::with_capacity(n);
            self.inners = Vec::with_capacity(n - 1);
            for op in ops {
                if let TreeOp::Insert(pkey, vhash) = op {
                    self.push_leaf(pkey, vhash);
                }
            }
            self.live = n;
            self.root = Some(self.build_balanced(&|j| j, 0..n, &mut Vec::new()));
        } else {
            for op in ops {
                match op {
                    TreeOp::Insert(pkey, vhash) => self.insert_op(pkey, vhash),
                    TreeOp::Invalidate(pkey) => {
                        self.invalidate_op(&pkey);
                    }
                }
            }
        }
        self.rehash_root()
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
    /// rebuilds in `insert_at` (see `MerkleKv::lopsided`).
    fn maybe_rebalance(&mut self) {
        if self.tombstones > (self.live / 2).max(64) {
            self.compact();
        }
    }

    /// Rebuilds a balanced tree from the live records, dropping tombstones:
    /// a round of one compaction.
    pub fn rebuild(&mut self) {
        self.compact();
        self.rehash_root();
    }

    /// Rebuilds the arena in place: tombstones are dropped, the survivors
    /// sorted by key (the in-order sequence of every tree over them), and
    /// the inner nodes rejoined over them from scratch — never two copies
    /// of the tree at once. Live leaves are marked dirty too: a round's
    /// rehash count is a published metric, and it has always counted them.
    fn compact(&mut self) {
        self.leaves.retain(|leaf| leaf.valid);
        self.leaves.sort_unstable_by(|a, b| a.pkey.cmp(&b.pkey));
        for leaf in &mut self.leaves {
            leaf.dirty = true;
        }
        self.inners.clear();
        let n = self.leaves.len();
        self.root = (n > 0).then(|| self.build_balanced(&|j| j, 0..n, &mut Vec::new()));
        self.tombstones = 0;
    }

    /// In-order live records, for tests and SP-side iteration.
    pub fn iter_live(&self) -> Vec<(ProofKey, Hash32)> {
        let mut out = Vec::with_capacity(self.live);
        if let Some(root) = self.root {
            self.collect_live(root, &mut out);
        }
        out
    }

    /// Range proof over `[lo, hi]` (by full [`ProofKey`] order): a pruned
    /// tree revealing every leaf in range plus one boundary leaf on each
    /// side, with everything else collapsed to opaque digests.
    pub fn prove_range(&self, lo: &ProofKey, hi: &ProofKey) -> RangeProof {
        let Some(root) = self.root else {
            return RangeProof::empty();
        };
        // Extend the range to the immediate neighbours so the verifier can
        // check completeness (the paper's boundary records, Appendix B.2.2).
        // Both ends are leaves of this tree, so what to reveal is a run of
        // in-order positions, and pruning compares positions, not keys.
        let first = self.predecessor(root, 0, lo).unwrap_or(0);
        let last = self
            .successor(root, 0, hi)
            .unwrap_or_else(|| self.count_of(root) - 1);
        RangeProof {
            tree: Some(self.prune(root, 0, first..=last)),
        }
    }

    /// Maximum leaf depth (proof length); exposed for gas modelling and the
    /// rebalance tests.
    pub fn depth(&self) -> usize {
        self.root.map(|root| self.depth_of(root)).unwrap_or(0)
    }

    fn depth_of(&self, at: Link) -> usize {
        match at.node() {
            Node::Leaf(_) => 1,
            Node::Inner(i) => {
                let Inner { left, right, .. } = self.inners[i];
                1 + self.depth_of(left).max(self.depth_of(right))
            }
        }
    }

    fn hash_of(&self, at: Link) -> Hash32 {
        match at.node() {
            Node::Leaf(l) => self.leaves[l].hash,
            Node::Inner(i) => self.inners[i].hash,
        }
    }

    /// Physical leaf count below `at` (tombstones included).
    fn count_of(&self, at: Link) -> usize {
        match at.node() {
            Node::Leaf(_) => 1,
            Node::Inner(i) => self.inners[i].count as usize,
        }
    }

    /// The leaf holding the smallest key below `at`: the leftmost path.
    fn first_leaf(&self, mut at: Link) -> usize {
        loop {
            match at.node() {
                Node::Leaf(l) => return l,
                Node::Inner(i) => at = self.inners[i].left,
            }
        }
    }

    /// The leaf holding the largest key below `at`: the rightmost path.
    fn last_leaf(&self, mut at: Link) -> usize {
        loop {
            match at.node() {
                Node::Leaf(l) => return l,
                Node::Inner(i) => at = self.inners[i].right,
            }
        }
    }

    /// The child of inner node `i` whose key range holds `pkey` — the left
    /// one iff `pkey` sorts at or below the left subtree's last key — and
    /// whether it is the left one.
    fn route(&self, i: usize, pkey: &ProofKey) -> (Link, bool) {
        let Inner {
            left,
            right,
            left_max,
            ..
        } = self.inners[i];
        if *pkey <= self.leaves[left_max as usize].pkey {
            (left, true)
        } else {
            (right, false)
        }
    }

    /// A fresh live leaf, dirty: its hash is left for the rehash pass, so
    /// shared root-to-leaf paths pay for hashing once per round rather than
    /// once per op.
    fn push_leaf(&mut self, pkey: ProofKey, vhash: Hash32) -> Link {
        self.leaves.push(Leaf {
            pkey,
            vhash,
            hash: Hash32::default(),
            valid: true,
            dirty: true,
        });
        Link::leaf(self.leaves.len() - 1)
    }

    /// Joins two subtrees under a dirty inner node written to `slot`, or
    /// pushed when there is none. Its hash is left for the rehash pass;
    /// count and split — the only inputs shape decisions read — are set
    /// now.
    fn join(&mut self, left: Link, right: Link, slot: Option<u32>) -> Link {
        let inner = Inner {
            hash: Hash32::default(),
            left,
            right,
            count: (self.count_of(left) + self.count_of(right)) as u32,
            left_max: self.last_leaf(left) as u32,
            right_min: self.first_leaf(right) as u32,
            dirty: true,
        };
        match slot {
            Some(slot) => {
                self.inners[slot as usize] = inner;
                Link::inner(slot as usize)
            }
            None => {
                self.inners.push(inner);
                Link::inner(self.inners.len() - 1)
            }
        }
    }

    /// The one shape rule: the balanced tree over the leaves `leaf(j)` for
    /// `j` in `range`, taken in key order, split `n / 2 | n − n / 2` at every
    /// level. A scapegoat rebuild, the tombstone compaction,
    /// [`MerkleKv::rebuild`] and the bulk load of [`MerkleKv::apply_batch`]
    /// all build with it, so the same leaf set always comes out as the same
    /// tree. Leaves keep whatever hashes (and dirty flags) they arrive with;
    /// every inner node is joined fresh, into a slot popped from `free`
    /// while it lasts and pushed after. `range` is never empty.
    fn build_balanced(
        &mut self,
        leaf: &impl Fn(usize) -> usize,
        range: Range<usize>,
        free: &mut Vec<u32>,
    ) -> Link {
        let n = range.len();
        if n <= 1 {
            return Link::leaf(leaf(range.start));
        }
        let mid = range.start + n / 2;
        let left = self.build_balanced(leaf, range.start..mid, free);
        let right = self.build_balanced(leaf, mid..range.end, free);
        self.join(left, right, free.pop())
    }

    /// The scapegoat test on inner node `i`: one side holds more than 3/4 of
    /// a subtree of more than 8 leaves. A pure function of leaf counts,
    /// never hashes, so the SP tree, the DO mirror, and rounds of any size
    /// all make identical shape decisions and their roots agree.
    fn lopsided(&self, i: usize) -> bool {
        let Inner { left, right, .. } = self.inners[i];
        let (left, right) = (self.count_of(left), self.count_of(right));
        let total = left + right;
        total > 8 && (left * 4 > total * 3 || right * 4 > total * 3)
    }

    /// Inserts below `at`, returning the subtree's (possibly new) link: an
    /// update or revival rewrites the leaf and marks it and each ancestor
    /// dirty on the way back up, with no heap traffic; a graft pushes one
    /// leaf and one inner node; a scapegoat rebuild reuses the rebuilt
    /// subtree's inner slots.
    fn insert_at(&mut self, at: Link, pkey: ProofKey, vhash: Hash32) -> (Link, InsertOutcome) {
        match at.node() {
            Node::Leaf(l) => {
                let leaf = &mut self.leaves[l];
                if leaf.pkey == pkey {
                    let outcome = if leaf.valid {
                        InsertOutcome::Updated
                    } else {
                        InsertOutcome::Revived
                    };
                    leaf.vhash = vhash;
                    leaf.valid = true;
                    leaf.dirty = true;
                    return (at, outcome);
                }
                // Graft: split this leaf into an inner node holding both, in
                // key order (the paper's h9 = H(h4 ‖ h8) step).
                let first = pkey < leaf.pkey;
                let grafted = self.leaves.len();
                let new = self.push_leaf(pkey, vhash);
                let joined = if first {
                    self.join(new, at, None)
                } else {
                    self.join(at, new, None)
                };
                (joined, InsertOutcome::Grafted { leaf: grafted })
            }
            Node::Inner(i) => {
                let (child, went_left) = self.route(i, &pkey);
                let (child, outcome) = self.insert_at(child, pkey, vhash);
                if let InsertOutcome::Grafted { leaf } = outcome {
                    // A graft (or a rebuild it set off) below replaced the
                    // child. A key that went left sorts below `left_max`, so
                    // only a key that went right can move the split: it is
                    // the right side's new first leaf if it sorts below the
                    // old one.
                    let new_min = !went_left
                        && self.leaves[leaf].pkey
                            < self.leaves[self.inners[i].right_min as usize].pkey;
                    let inner = &mut self.inners[i];
                    inner.count += 1;
                    if went_left {
                        inner.left = child;
                    } else {
                        inner.right = child;
                    }
                    if new_min {
                        inner.right_min = leaf as u32;
                    }
                }
                if self.lopsided(i) {
                    return (self.rebuild_subtree(at), outcome);
                }
                self.inners[i].dirty = true;
                (at, outcome)
            }
        }
    }

    /// Scapegoat rebuild of the subtree at `at`: its `m` leaves keep their
    /// hashes (and dirty flags) and are rejoined by [`build_balanced`] into
    /// its own `m − 1` inner slots, so the arena neither grows nor leaks.
    ///
    /// [`build_balanced`]: MerkleKv::build_balanced
    fn rebuild_subtree(&mut self, at: Link) -> Link {
        let m = self.count_of(at);
        let mut leaves = Vec::with_capacity(m);
        let mut slots = Vec::with_capacity(m - 1);
        self.gather(at, &mut leaves, &mut slots);
        self.build_balanced(&|j| leaves[j] as usize, 0..m, &mut slots)
    }

    /// The leaves below `at` in key order, and every inner slot below it.
    fn gather(&self, at: Link, leaves: &mut Vec<u32>, slots: &mut Vec<u32>) {
        match at.node() {
            Node::Leaf(l) => leaves.push(l as u32),
            Node::Inner(i) => {
                slots.push(i as u32);
                let Inner { left, right, .. } = self.inners[i];
                self.gather(left, leaves, slots);
                self.gather(right, leaves, slots);
            }
        }
    }

    /// Tombstones `pkey` below `at`, in place and without allocating. Shape
    /// and counts never change (a tombstone is still a physical leaf). The
    /// path's inner nodes are marked dirty whether or not the key was found
    /// live: a batch's rehash count is a published metric and must not
    /// depend on it.
    fn invalidate_at(&mut self, at: Link, pkey: &ProofKey) -> bool {
        match at.node() {
            Node::Leaf(l) => {
                let leaf = &mut self.leaves[l];
                if leaf.pkey != *pkey || !leaf.valid {
                    return false;
                }
                leaf.valid = false;
                leaf.dirty = true;
                true
            }
            Node::Inner(i) => {
                let removed = self.invalidate_at(self.route(i, pkey).0, pkey);
                self.inners[i].dirty = true;
                removed
            }
        }
    }

    /// The round finalizer: recomputes every dirty hash and returns the
    /// number of nodes rehashed.
    fn rehash_root(&mut self) -> usize {
        self.root.map(|root| self.rehash(root)).unwrap_or(0)
    }

    /// Recomputes every dirty hash below `at` bottom-up and returns how many
    /// there were. Clean subtrees are skipped whole — a dirty node's
    /// ancestors are always dirty (a mutation marks every inner node on its
    /// root-to-leaf path on the way back up, and a rebuilt subtree is
    /// rejoined dirty throughout), so the early return never strands a stale
    /// hash below a clean one.
    fn rehash(&mut self, at: Link) -> usize {
        match at.node() {
            Node::Leaf(l) => {
                let leaf = &mut self.leaves[l];
                if !leaf.dirty {
                    return 0;
                }
                leaf.hash = leaf_hash(&leaf.pkey, &leaf.vhash, leaf.valid);
                leaf.dirty = false;
                1
            }
            Node::Inner(i) => {
                let Inner {
                    left, right, dirty, ..
                } = self.inners[i];
                if !dirty {
                    return 0;
                }
                let below = self.rehash(left) + self.rehash(right);
                let hash = inner_hash(&self.hash_of(left), &self.hash_of(right));
                let inner = &mut self.inners[i];
                inner.hash = hash;
                inner.dirty = false;
                below + 1
            }
        }
    }

    fn collect_live(&self, at: Link, out: &mut Vec<(ProofKey, Hash32)>) {
        match at.node() {
            Node::Leaf(l) => {
                let leaf = &self.leaves[l];
                if leaf.valid {
                    out.push((leaf.pkey.clone(), leaf.vhash));
                }
            }
            Node::Inner(i) => {
                let Inner { left, right, .. } = self.inners[i];
                self.collect_live(left, out);
                self.collect_live(right, out);
            }
        }
    }

    /// The in-order position (any validity) of the largest key strictly
    /// below `bound` in the subtree at `at`, whose first leaf sits at
    /// position `offset`, if there is one.
    fn predecessor(&self, at: Link, offset: usize, bound: &ProofKey) -> Option<usize> {
        match at.node() {
            Node::Leaf(l) => (self.leaves[l].pkey < *bound).then_some(offset),
            Node::Inner(i) => {
                let Inner {
                    left,
                    right,
                    right_min,
                    ..
                } = self.inners[i];
                if self.leaves[right_min as usize].pkey < *bound {
                    self.predecessor(right, offset + self.count_of(left), bound)
                } else {
                    self.predecessor(left, offset, bound)
                }
            }
        }
    }

    /// The in-order position (any validity) of the smallest key strictly
    /// above `bound` in the subtree at `at`, whose first leaf sits at
    /// position `offset`, if there is one.
    fn successor(&self, at: Link, offset: usize, bound: &ProofKey) -> Option<usize> {
        match at.node() {
            Node::Leaf(l) => (self.leaves[l].pkey > *bound).then_some(offset),
            Node::Inner(i) => {
                let Inner {
                    left,
                    right,
                    left_max,
                    ..
                } = self.inners[i];
                if self.leaves[left_max as usize].pkey > *bound {
                    self.successor(left, offset, bound)
                } else {
                    self.successor(right, offset + self.count_of(left), bound)
                }
            }
        }
    }

    /// The pruned proof tree below `at`, whose first leaf sits at in-order
    /// position `offset`: leaves at positions in `reveal` are revealed, and
    /// every subtree wholly outside it collapses to its digest.
    fn prune(&self, at: Link, offset: usize, reveal: RangeInclusive<usize>) -> ProofNode {
        let last = offset + self.count_of(at) - 1;
        if last < *reveal.start() || offset > *reveal.end() {
            return ProofNode::Opaque(self.hash_of(at));
        }
        match at.node() {
            Node::Leaf(l) => {
                let leaf = &self.leaves[l];
                ProofNode::Leaf {
                    pkey: leaf.pkey.clone(),
                    vhash: leaf.vhash,
                    valid: leaf.valid,
                }
            }
            Node::Inner(i) => {
                let Inner { left, right, .. } = self.inners[i];
                let mid = offset + self.count_of(left);
                ProofNode::Inner {
                    left: Box::new(self.prune(left, offset, reveal.clone())),
                    right: Box::new(self.prune(right, mid, reveal)),
                }
            }
        }
    }
}

/// One mutation in a [`MerkleKv::apply_batch`] round: the
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
    /// A new leaf, at this index, was grafted in.
    Grafted {
        leaf: usize,
    },
}

#[cfg(test)]
mod oracle;

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
        // the batched path must compact at the exact same op boundary.
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
    /// recomputed from scratch: subtree counts and splits match the
    /// children, keys are in order, no subtree the scapegoat rule would
    /// rebuild is left standing, nothing is dirty at rest, the live/tombstone
    /// tallies match a leaf census, and every arena slot is reached exactly
    /// once (no free list, no leak: `inners.len() == leaves.len() − 1`).
    /// With `hashes`, additionally every stored hash is the hash of what is
    /// stored below it (the expensive part: one SHA-256 per node).
    pub(super) fn check_invariants(tree: &MerkleKv, hashes: bool) {
        struct Census {
            leaves: Vec<bool>,
            inners: Vec<bool>,
            live: usize,
            tombstones: usize,
        }
        fn walk(tree: &MerkleKv, at: Link, hashes: bool, seen: &mut Census) {
            match at.node() {
                Node::Leaf(l) => {
                    assert!(
                        !std::mem::replace(&mut seen.leaves[l], true),
                        "leaf {l} twice"
                    );
                    let leaf = &tree.leaves[l];
                    assert!(!leaf.dirty, "dirty leaf at rest: {:?}", leaf.pkey);
                    if hashes {
                        assert_eq!(leaf.hash, leaf_hash(&leaf.pkey, &leaf.vhash, leaf.valid));
                    }
                    *(if leaf.valid {
                        &mut seen.live
                    } else {
                        &mut seen.tombstones
                    }) += 1;
                }
                Node::Inner(i) => {
                    assert!(
                        !std::mem::replace(&mut seen.inners[i], true),
                        "inner {i} twice"
                    );
                    let inner = tree.inners[i];
                    let (left, right) = (inner.left, inner.right);
                    assert_eq!(
                        inner.count as usize,
                        tree.count_of(left) + tree.count_of(right)
                    );
                    assert_eq!(inner.left_max as usize, tree.last_leaf(left));
                    assert_eq!(inner.right_min as usize, tree.first_leaf(right));
                    assert!(
                        tree.leaves[inner.left_max as usize].pkey
                            < tree.leaves[inner.right_min as usize].pkey,
                        "leaves out of order"
                    );
                    assert!(
                        !tree.lopsided(i),
                        "{} | {}",
                        tree.count_of(left),
                        tree.count_of(right)
                    );
                    assert!(!inner.dirty, "dirty inner node at rest");
                    if hashes {
                        assert_eq!(
                            inner.hash,
                            inner_hash(&tree.hash_of(left), &tree.hash_of(right))
                        );
                    }
                    walk(tree, left, hashes, seen);
                    walk(tree, right, hashes, seen);
                }
            }
        }
        let mut seen = Census {
            leaves: vec![false; tree.leaves.len()],
            inners: vec![false; tree.inners.len()],
            live: 0,
            tombstones: 0,
        };
        if let Some(root) = tree.root {
            walk(tree, root, hashes, &mut seen);
        }
        assert_eq!(
            (seen.live, seen.tombstones),
            (tree.len(), tree.tombstone_count())
        );
        assert!(seen.leaves.iter().all(|&s| s), "unreachable leaf slot");
        assert!(seen.inners.iter().all(|&s| s), "unreachable inner slot");
        assert_eq!(tree.inners.len(), tree.leaves.len().saturating_sub(1));
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
    fn the_arena_grows_by_a_leaf_and_an_inner_node_per_graft_and_no_more() {
        // A bulk load sizes both vectors exactly.
        let n = 1000;
        let mut tree = MerkleKv::new();
        tree.insert_batch(sorted_records(n));
        let sizes = |t: &MerkleKv| (t.leaves.len(), t.inners.len());
        assert_eq!(sizes(&tree), (n, n - 1));
        assert_eq!((tree.leaves.capacity(), tree.inners.capacity()), (n, n - 1));
        // Grafts down the right edge: one leaf and one inner node each,
        // while the scapegoat rebuilds they set off reuse their own slots.
        let before = tree.depth();
        for i in 0..200 {
            tree.insert(r(&format!("g{i:03}")), vh("g"));
            assert_eq!(sizes(&tree), (n + i + 1, n + i));
        }
        assert!(tree.depth() <= before + 8, "rebuilds kept it shallow");
        check_invariants(&tree, true);
        // The compaction rebuilds in place: tombstones leave, nothing is
        // allocated beside the vectors the tree already holds.
        let capacity = (tree.leaves.capacity(), tree.inners.capacity());
        for (key, _) in sorted_records(n) {
            assert!(tree.invalidate(&key));
            if tree.tombstone_count() == 0 {
                break;
            }
        }
        assert_eq!(sizes(&tree), (tree.len(), tree.len() - 1));
        assert!(tree.len() < n, "compacted");
        assert_eq!((tree.leaves.capacity(), tree.inners.capacity()), capacity);
        check_invariants(&tree, true);
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
