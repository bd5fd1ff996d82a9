//! A bounded, deterministic LRU cache over verified SSTable data blocks.
//!
//! A cached block is the raw frame whose length and CRC were checked when
//! it was read; readers decode it in place ([`crate::sstable::Block`]), so a
//! hit costs no checksum and no decode of the entries it skips.
//!
//! Entries are keyed by `(file number, block index)`. File numbers are
//! monotonically assigned and never reused, so a stale hit is impossible:
//! compaction evicts a deleted table's blocks eagerly, and even a missed
//! eviction could only produce a key that no live table maps to.
//!
//! Recency is a logical tick counter and eviction always removes the entry
//! with the smallest tick, so the cache contents are a pure function of the
//! access sequence — a cold-cache and a warm-cache run return byte-identical
//! results; only the I/O counters move.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::sstable::Block;

/// A shared, immutable verified data block.
pub(crate) type CachedBlock = Arc<Block>;

/// The cache. Interior-mutable (`Cell`/`RefCell`) so the read path can stay
/// `&self`; `Arc` blocks keep the owning [`crate::Db`] `Send`.
#[derive(Debug)]
pub(crate) struct BlockCache {
    capacity: usize,
    tick: Cell<u64>,
    /// `(file_no, block)` → `(last-use tick, block)`.
    entries: RefCell<BTreeMap<(u64, usize), (u64, CachedBlock)>>,
    /// `last-use tick` → `(file_no, block)`; the smallest tick is the LRU
    /// victim. Ticks are unique, so this is an exact recency order.
    lru: RefCell<BTreeMap<u64, (u64, usize)>>,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity` blocks (0 disables it).
    pub(crate) fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            tick: Cell::new(0),
            entries: RefCell::new(BTreeMap::new()),
            lru: RefCell::new(BTreeMap::new()),
        }
    }

    /// Looks up a block, refreshing its recency on a hit.
    pub(crate) fn get(&self, file_no: u64, block: usize) -> Option<CachedBlock> {
        let mut entries = self.entries.borrow_mut();
        let slot = entries.get_mut(&(file_no, block))?;
        let tick = self.next_tick();
        let old = std::mem::replace(&mut slot.0, tick);
        let mut lru = self.lru.borrow_mut();
        lru.remove(&old);
        lru.insert(tick, (file_no, block));
        Some(slot.1.clone())
    }

    /// Inserts a block, evicting the least-recently-used entry when full.
    pub(crate) fn insert(&self, file_no: u64, block: usize, data: CachedBlock) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.borrow_mut();
        let mut lru = self.lru.borrow_mut();
        if !entries.contains_key(&(file_no, block)) && entries.len() >= self.capacity {
            if let Some((&oldest, _)) = lru.iter().next() {
                if let Some(victim) = lru.remove(&oldest) {
                    entries.remove(&victim);
                }
            }
        }
        let tick = self.next_tick();
        if let Some((old, _)) = entries.insert((file_no, block), (tick, data)) {
            lru.remove(&old);
        }
        lru.insert(tick, (file_no, block));
    }

    /// Drops every cached block of `file_no` (its table was deleted).
    pub(crate) fn evict_table(&self, file_no: u64) {
        let mut entries = self.entries.borrow_mut();
        let mut lru = self.lru.borrow_mut();
        let dead: Vec<(u64, usize)> = entries
            .range((file_no, 0)..=(file_no, usize::MAX))
            .map(|(k, _)| *k)
            .collect();
        for key in dead {
            if let Some((tick, _)) = entries.remove(&key) {
                lru.remove(&tick);
            }
        }
    }

    fn next_tick(&self) -> u64 {
        let t = self.tick.get() + 1;
        self.tick.set(t);
        t
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(tag: u8) -> CachedBlock {
        Arc::new(Block::with_entries(&[(&[tag], 1, Some(&[tag]))]))
    }

    #[test]
    fn bounded_with_lru_eviction() {
        let c = BlockCache::new(2);
        c.insert(1, 0, block(0));
        c.insert(1, 1, block(1));
        assert!(c.get(1, 0).is_some(), "refresh (1,0)");
        c.insert(1, 2, block(2)); // evicts (1,1), the LRU entry
        assert_eq!(c.len(), 2);
        assert!(c.get(1, 1).is_none(), "LRU victim gone");
        assert!(c.get(1, 0).is_some());
        assert!(c.get(1, 2).is_some());
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let c = BlockCache::new(0);
        c.insert(1, 0, block(0));
        assert_eq!(c.len(), 0);
        assert!(c.get(1, 0).is_none());
    }

    #[test]
    fn evict_table_drops_only_that_file() {
        let c = BlockCache::new(8);
        c.insert(1, 0, block(0));
        c.insert(1, 1, block(1));
        c.insert(2, 0, block(2));
        c.evict_table(1);
        assert_eq!(c.len(), 1);
        assert!(c.get(1, 0).is_none());
        assert!(c.get(2, 0).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let c = BlockCache::new(2);
        c.insert(1, 0, block(0));
        c.insert(1, 0, block(9));
        assert_eq!(c.len(), 1);
        let block = c.get(1, 0).unwrap();
        assert_eq!(block.get(&[9]).unwrap(), Some(Some(vec![9])));
    }
}
