//! The in-memory write buffer: an ordered map holding each key's latest write.
//!
//! Every write carries a monotonically increasing sequence number; deletes
//! are tombstones. A write replaces the key's previous one — the store serves
//! only the latest value of each record — so a flush writes one entry per key.

use std::collections::BTreeMap;
use std::ops::Bound;

/// A key's latest write: sequence number plus value (None = tombstone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Write sequence number.
    pub seq: u64,
    /// The written value, or `None` for a delete tombstone.
    pub value: Option<Vec<u8>>,
}

/// The mutable in-memory table.
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    map: BTreeMap<Vec<u8>, Version>,
    approx_bytes: usize,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Records a put or delete at `seq`, replacing the key's previous write.
    pub fn insert(&mut self, key: Vec<u8>, seq: u64, value: Option<Vec<u8>>) {
        self.approx_bytes += key.len() + value.as_ref().map(|v| v.len()).unwrap_or(0) + 24;
        self.map.insert(key, Version { seq, value });
    }

    /// The latest write of `key`.
    ///
    /// Returns `None` when the memtable has no opinion; `Some(None)` when the
    /// latest write is a tombstone.
    pub fn get(&self, key: &[u8]) -> Option<Option<&Vec<u8>>> {
        self.map.get(key).map(|v| v.value.as_ref())
    }

    /// Bytes written since the last flush — every write counts, replaced or
    /// not — used for flush triggering.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every key's latest write in key order, as consumed by the SSTable
    /// writer.
    pub fn iter_all(&self) -> impl Iterator<Item = (&Vec<u8>, &Version)> {
        self.map.iter()
    }

    /// Keys in `[start, end)` with their latest write (`None` = tombstone).
    pub fn range(
        &self,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> impl Iterator<Item = (&Vec<u8>, Option<&Vec<u8>>)> {
        self.map
            .range::<[u8], _>((start, end))
            .map(|(k, v)| (k, v.value.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_returns_latest_version() {
        let mut m = Memtable::new();
        m.insert(b"k".to_vec(), 1, Some(b"v1".to_vec()));
        m.insert(b"k".to_vec(), 2, Some(b"v2".to_vec()));
        assert_eq!(m.get(b"k"), Some(Some(&b"v2".to_vec())));
        assert_eq!(m.iter_all().count(), 1, "one entry per key");
    }

    #[test]
    fn tombstone_is_distinguished_from_absence() {
        let mut m = Memtable::new();
        m.insert(b"k".to_vec(), 3, None);
        assert_eq!(m.get(b"k"), Some(None), "tombstone");
        assert_eq!(m.get(b"other"), None, "no opinion");
    }

    #[test]
    fn range_skips_tombstones_and_respects_seq() {
        let mut m = Memtable::new();
        m.insert(b"a".to_vec(), 1, Some(b"1".to_vec()));
        m.insert(b"b".to_vec(), 2, Some(b"2".to_vec()));
        m.insert(b"b".to_vec(), 3, None); // delete b at seq 3
        m.insert(b"c".to_vec(), 4, Some(b"3".to_vec()));
        let all: Vec<_> = m.range(Bound::Unbounded, Bound::Unbounded).collect();
        assert_eq!(all.len(), 3, "the tombstone is reported, not skipped");
        assert_eq!(all[1], (&b"b".to_vec(), None), "the newer delete wins");
        let live: Vec<_> = all.into_iter().filter(|(_, v)| v.is_some()).collect();
        assert_eq!(live.len(), 2);
        let tail: Vec<_> = m
            .range(Bound::Excluded(b"a"), Bound::Unbounded)
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(tail, [b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn bytes_accounting_grows() {
        let mut m = Memtable::new();
        assert_eq!(m.approx_bytes(), 0);
        m.insert(b"key".to_vec(), 1, Some(vec![0u8; 100]));
        assert!(m.approx_bytes() >= 103);
        // A replacing write still counts: the flush trigger measures bytes
        // written, not bytes held.
        let one = m.approx_bytes();
        m.insert(b"key".to_vec(), 2, Some(vec![0u8; 100]));
        assert_eq!(m.approx_bytes(), 2 * one);
    }
}
