//! The arena tree checked against the design it replaced: the boxed tree of
//! PR 24 — one heap `Node` per leaf and inner node, each inner node holding
//! clones of its subtree's `min`/`max` keys — its bodies kept here
//! unchanged as the oracle, the way `chain::undo_tests` keeps
//! `StateSnapshot`.

#![cfg(test)]

use grub_crypto::Hash32;
use proptest::prelude::*;

use super::{is_sorted_load, MerkleKv, TreeOp};
use crate::proof::{ProofNode, RangeProof};
use crate::{empty_root, inner_hash, leaf_hash, record_value_hash, ProofKey, ReplState};

#[derive(Clone, Debug)]
struct LeafData {
    pkey: ProofKey,
    vhash: Hash32,
    valid: bool,
    hash: Hash32,
    dirty: bool,
}

#[derive(Clone, Debug)]
struct InnerData {
    hash: Hash32,
    dirty: bool,
    min: ProofKey,
    max: ProofKey,
    count: usize,
    left: Box<Node>,
    right: Box<Node>,
}

#[derive(Clone, Debug)]
enum Node {
    Leaf(LeafData),
    Inner(InnerData),
}

impl Node {
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

    fn count(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Inner(i) => i.count,
        }
    }

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

    fn vacant() -> Node {
        Node::Leaf(LeafData {
            pkey: ProofKey::new(ReplState::NotReplicated, Vec::new()),
            vhash: Hash32::default(),
            valid: false,
            hash: Hash32::default(),
            dirty: false,
        })
    }
}

impl InnerData {
    fn lopsided(&self) -> bool {
        let (left, right) = (self.left.count(), self.right.count());
        let total = left + right;
        total > 8 && (left * 4 > total * 3 || right * 4 > total * 3)
    }

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

fn build_balanced(n: usize, leaves: &mut impl Iterator<Item = Node>, defer: bool) -> Box<Node> {
    if n <= 1 {
        return Box::new(leaves.next().expect("n leaves"));
    }
    let left = build_balanced(n / 2, leaves, defer);
    let right = build_balanced(n - n / 2, leaves, defer);
    Box::new(Node::join(left, right, defer))
}

/// The boxed tree: [`MerkleKv`]'s public surface, PR 24's body.
#[derive(Clone, Debug, Default)]
struct BoxedKv {
    root: Option<Box<Node>>,
    live: usize,
    tombstones: usize,
}

impl BoxedKv {
    fn root(&self) -> Hash32 {
        self.root
            .as_ref()
            .map(|n| n.hash())
            .unwrap_or_else(empty_root)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    fn get(&self, pkey: &ProofKey) -> Option<Hash32> {
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

    fn insert(&mut self, pkey: ProofKey, vhash: Hash32) {
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

    fn invalidate(&mut self, pkey: &ProofKey) -> bool {
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

    fn apply_batch(&mut self, ops: Vec<TreeOp>) -> usize {
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

    fn maybe_rebalance(&mut self, defer: bool) {
        if self.tombstones > (self.live / 2).max(64) {
            self.rebuild_with(defer);
        }
    }

    fn rebuild(&mut self) {
        self.rebuild_with(false);
    }

    fn rebuild_with(&mut self, defer: bool) {
        let mut leaves = Vec::with_capacity(self.live + self.tombstones);
        if let Some(root) = self.root.take() {
            flatten(*root, &mut leaves);
        }
        let mut live = leaves
            .into_iter()
            .filter(|leaf| leaf.valid)
            .map(|leaf| Node::new_leaf(leaf.pkey, leaf.vhash, defer));
        self.root = (self.live > 0).then(|| build_balanced(self.live, &mut live, defer));
        self.tombstones = 0;
    }

    fn iter_live(&self) -> Vec<(ProofKey, Hash32)> {
        let mut out = Vec::with_capacity(self.live);
        if let Some(root) = &self.root {
            collect_live(root, &mut out);
        }
        out
    }

    fn prove_range(&self, lo: &ProofKey, hi: &ProofKey) -> RangeProof {
        let Some(root) = self.root.as_deref() else {
            return RangeProof::empty();
        };
        let pred = find_predecessor(root, lo);
        let succ = find_successor(root, hi);
        let lo_ext = pred.unwrap_or_else(|| root.min().clone());
        let hi_ext = succ.unwrap_or_else(|| root.max().clone());
        RangeProof {
            tree: Some(prune(root, &lo_ext, &hi_ext)),
        }
    }

    fn depth(&self) -> usize {
        fn d(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Inner(i) => 1 + d(&i.left).max(d(&i.right)),
            }
        }
        self.root.as_deref().map(d).unwrap_or(0)
    }
}

enum InsertOutcome {
    Updated,
    Revived,
    Grafted,
}

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

// ---------------------------------------------------------------------------
// The differential property: random scripts through both trees.

/// Key `i` of the script alphabet: wide enough that a batch can leave more
/// than 64 tombstones (the compaction floor) and graft runs long enough to
/// trip scapegoat rebuilds.
const KEYS: u16 = 240;

fn pkey(replicated: bool, i: u16) -> ProofKey {
    let state = if replicated {
        ReplState::Replicated
    } else {
        ReplState::NotReplicated
    };
    ProofKey::new(state, format!("k{i:03}").into_bytes())
}

/// One generated mutation: `(kind, replicated, key, value)`.
type RawOp = (u8, bool, u16, u8);

fn tree_ops(raw: &[RawOp]) -> Vec<TreeOp> {
    let mut ops = Vec::with_capacity(raw.len() * 2);
    for &(kind, replicated, key, value) in raw {
        let vhash = record_value_hash(&[value]);
        match kind % 4 {
            // Insert or update in place (reviving a tombstone).
            0 | 1 => ops.push(TreeOp::Insert(pkey(replicated, key), vhash)),
            2 => ops.push(TreeOp::Invalidate(pkey(replicated, key))),
            // The DO's relocation: tombstone under one state, graft (or
            // revive) under the other.
            _ => {
                ops.push(TreeOp::Invalidate(pkey(replicated, key)));
                ops.push(TreeOp::Insert(pkey(!replicated, key), vhash));
            }
        }
    }
    ops
}

/// How a sorted load is spoiled (or not) before it is applied.
#[derive(Clone, Copy, Debug)]
enum Spoil {
    None,
    Swap,
    Repeat,
    Invalidate,
}

#[derive(Clone, Debug)]
enum Step {
    /// Strictly ascending inserts of every `stride`-th key from `first`.
    Load {
        first: u16,
        stride: u16,
        replicated: bool,
        spoil: Spoil,
    },
    /// One deferred-hash round.
    Batch(Vec<RawOp>),
    /// The same mutations one eager call at a time.
    Eager(Vec<RawOp>),
    /// Tombstone every `stride`-th key from `first`, as one round or one
    /// eager call at a time: past the compaction floor whenever the tree is
    /// big enough.
    Purge {
        first: u16,
        stride: u16,
        eager: bool,
    },
    Rebuild,
    /// Clone both trees, drive the clones apart from the originals, and
    /// check the originals did not move.
    Fork(Vec<RawOp>),
}

fn raw_ops(max: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0..4u8, any::<bool>(), 0..KEYS, any::<u8>()), 1..max)
}

fn load() -> impl Strategy<Value = Step> {
    (0..8u16, 1..4u16, any::<bool>(), 0..4u8).prop_map(|(first, stride, replicated, spoil)| {
        Step::Load {
            first,
            stride,
            replicated,
            spoil: [Spoil::None, Spoil::Swap, Spoil::Repeat, Spoil::Invalidate][usize::from(spoil)],
        }
    })
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        load(),
        raw_ops(160).prop_map(Step::Batch),
        raw_ops(160).prop_map(Step::Batch),
        raw_ops(24).prop_map(Step::Eager),
        (0..4u16, 1..3u16, any::<bool>()).prop_map(|(first, stride, eager)| Step::Purge {
            first,
            stride,
            eager
        }),
        Just(Step::Rebuild),
        raw_ops(40).prop_map(Step::Fork),
    ]
}

/// Seeds for the random bounds [`assert_same`] proves.
fn probe() -> impl Strategy<Value = (u16, u16, bool)> {
    (0..KEYS, 0..KEYS, any::<bool>())
}

fn load_ops(first: u16, stride: u16, replicated: bool, spoil: Spoil) -> Vec<TreeOp> {
    let mut ops: Vec<TreeOp> = (first..KEYS)
        .step_by(usize::from(stride))
        .map(|i| TreeOp::Insert(pkey(replicated, i), record_value_hash(&i.to_le_bytes())))
        .collect();
    let n = ops.len();
    match spoil {
        Spoil::None => {}
        Spoil::Swap => ops.swap(n / 2, n - 1),
        Spoil::Repeat => ops.push(TreeOp::Insert(
            pkey(replicated, first),
            record_value_hash(b"again"),
        )),
        Spoil::Invalidate => ops.push(TreeOp::Invalidate(pkey(replicated, KEYS))),
    }
    ops
}

/// Applies `ops` to both trees, one batch each, and compares what
/// `apply_batch` returned.
fn batch(arena: &mut MerkleKv, boxed: &mut BoxedKv, ops: Vec<TreeOp>) {
    let want = boxed.apply_batch(ops.clone());
    assert_eq!(arena.apply_batch(ops), want, "nodes rehashed");
}

fn eager(arena: &mut MerkleKv, boxed: &mut BoxedKv, ops: Vec<TreeOp>) {
    for op in ops {
        match op {
            TreeOp::Insert(k, v) => {
                boxed.insert(k.clone(), v);
                arena.insert(k, v);
            }
            TreeOp::Invalidate(k) => {
                assert_eq!(
                    arena.invalidate(&k),
                    boxed.invalidate(&k),
                    "invalidate {k:?}"
                );
            }
        }
    }
}

/// Everything a caller can observe, compared. `probe` seeds the two random
/// range bounds.
fn assert_same(arena: &MerkleKv, boxed: &BoxedKv, probe: (u16, u16, bool)) {
    assert_eq!(arena.root(), boxed.root(), "root");
    assert_eq!(arena.len(), boxed.len(), "len");
    assert_eq!(
        arena.tombstone_count(),
        boxed.tombstone_count(),
        "tombstones"
    );
    assert_eq!(arena.depth(), boxed.depth(), "depth");
    assert_eq!(arena.iter_live(), boxed.iter_live(), "live records");
    for i in 0..=KEYS {
        for replicated in [false, true] {
            let k = pkey(replicated, i);
            assert_eq!(arena.get(&k), boxed.get(&k), "get {k:?}");
        }
    }
    let (a, b, replicated) = probe;
    let (lo, hi) = (pkey(false, a.min(b)), pkey(replicated, a.max(b)));
    assert_eq!(
        arena.prove_range(&lo, &hi),
        boxed.prove_range(&lo, &hi),
        "range proof"
    );
    assert_eq!(
        arena.prove_range(&hi, &lo),
        boxed.prove_range(&hi, &lo),
        "inverted range proof"
    );
    let point = pkey(replicated, a);
    assert_eq!(
        arena.prove_range(&point, &point),
        boxed.prove_range(&point, &point),
        "point proof"
    );
    super::tests::check_invariants(arena, false);
}

fn run_script(script: Vec<(Step, (u16, u16, bool))>) {
    let mut arena = MerkleKv::new();
    let mut boxed = BoxedKv::default();
    for (step, probe) in script {
        match step {
            Step::Load {
                first,
                stride,
                replicated,
                spoil,
            } => batch(
                &mut arena,
                &mut boxed,
                load_ops(first, stride, replicated, spoil),
            ),
            Step::Batch(raw) => batch(&mut arena, &mut boxed, tree_ops(&raw)),
            Step::Eager(raw) => eager(&mut arena, &mut boxed, tree_ops(&raw)),
            Step::Purge {
                first,
                stride,
                eager: one_by_one,
            } => {
                let ops = (first..KEYS)
                    .step_by(usize::from(stride))
                    .map(|i| TreeOp::Invalidate(pkey(i % 3 == 0, i)))
                    .collect();
                if one_by_one {
                    eager(&mut arena, &mut boxed, ops);
                } else {
                    batch(&mut arena, &mut boxed, ops);
                }
            }
            Step::Rebuild => {
                arena.rebuild();
                boxed.rebuild();
            }
            Step::Fork(raw) => {
                let (before, boxed_before) = (arena.root(), boxed.root());
                let (mut arena_fork, mut boxed_fork) = (arena.clone(), boxed.clone());
                batch(&mut arena_fork, &mut boxed_fork, tree_ops(&raw));
                assert_same(&arena_fork, &boxed_fork, probe);
                eager(
                    &mut arena_fork,
                    &mut boxed_fork,
                    tree_ops(&raw[..raw.len() / 2]),
                );
                assert_same(&arena_fork, &boxed_fork, probe);
                assert_eq!(
                    (arena.root(), boxed.root()),
                    (before, boxed_before),
                    "fork leaked"
                );
            }
        }
        assert_same(&arena, &boxed, probe);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arena_tree_equals_the_boxed_oracle(
        first in (load(), probe()),
        rest in prop::collection::vec((step(), probe()), 0..9),
    ) {
        // Every script opens on an empty tree with a load, a bulk load
        // unless spoiled.
        run_script(std::iter::once(first).chain(rest).collect());
    }
}

#[test]
fn directed_scripts_reach_every_shape_path() {
    // A load, a spoiled load on top, a graft run down one edge (scapegoat
    // rebuilds), a purge past the compaction floor, then eager revivals.
    let probe = (17, 200, true);
    let grafts: Vec<RawOp> = (0..KEYS).map(|i| (3, false, i, 7)).collect();
    run_script(vec![
        (
            Step::Load {
                first: 0,
                stride: 2,
                replicated: false,
                spoil: Spoil::None,
            },
            probe,
        ),
        (
            Step::Load {
                first: 1,
                stride: 2,
                replicated: false,
                spoil: Spoil::Swap,
            },
            probe,
        ),
        (Step::Batch(grafts.clone()), probe),
        (
            Step::Purge {
                first: 0,
                stride: 1,
                eager: false,
            },
            probe,
        ),
        (Step::Eager(grafts[..40].to_vec()), probe),
        (Step::Fork(grafts[40..].to_vec()), probe),
        (Step::Rebuild, probe),
    ]);
}
