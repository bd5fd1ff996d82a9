//! Gas-metered, journaled contract storage.
//!
//! Each contract owns a map from byte-string slot keys to byte-string values.
//! Costs are charged per 32-byte word exactly as in the paper's Table 2:
//! inserting a fresh slot costs `20000·X`, overwriting costs `5000·X`,
//! reading costs `200·X` (minimum one word). A per-transaction journal allows
//! reverting all writes if execution fails, matching EVM semantics; a
//! reorg-capable chain keeps the successful transactions' entries per block
//! and undoes whole blocks the same way.

use std::collections::HashMap;

/// One contract's persistent storage.
#[derive(Debug, Default, Clone)]
pub struct ContractStorage {
    slots: HashMap<Vec<u8>, Vec<u8>>,
}

impl ContractStorage {
    /// Creates empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raw read without metering (for assertions and debugging).
    pub fn peek(&self, key: &[u8]) -> Option<&Vec<u8>> {
        self.slots.get(key)
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the storage holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<&Vec<u8>> {
        self.slots.get(key)
    }

    /// Sets a slot, returning the previous value (None = fresh insert).
    pub(crate) fn set(&mut self, key: Vec<u8>, value: Vec<u8>) -> Option<Vec<u8>> {
        self.slots.insert(key, value)
    }

    pub(crate) fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.slots.remove(key)
    }

    /// Every slot, for comparing whole storages against an oracle.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> &HashMap<Vec<u8>, Vec<u8>> {
        &self.slots
    }
}

/// A recorded pre-image of one storage slot, to undo on revert.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Contract index in the chain's address table.
    pub contract: crate::types::Address,
    /// Slot key.
    pub key: Vec<u8>,
    /// Value before the write (`None` = the slot did not exist).
    pub prior: Option<Vec<u8>>,
}

/// Undoes `journal` newest-first, so that of several writes to one slot the
/// oldest pre-image is the one left standing. A slot whose first write is
/// undone leaves its contract's (empty) map behind.
pub(crate) fn revert(
    storages: &mut HashMap<crate::types::Address, ContractStorage>,
    journal: Vec<JournalEntry>,
) {
    for entry in journal.into_iter().rev() {
        let storage = storages.entry(entry.contract).or_default();
        match entry.prior {
            Some(v) => {
                storage.set(entry.key, v);
            }
            None => {
                storage.remove(&entry.key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_reports_prior_value() {
        let mut s = ContractStorage::new();
        assert_eq!(s.set(b"k".to_vec(), b"v1".to_vec()), None);
        assert_eq!(s.set(b"k".to_vec(), b"v2".to_vec()), Some(b"v1".to_vec()));
        assert_eq!(s.peek(b"k"), Some(&b"v2".to_vec()));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_clears_slot() {
        let mut s = ContractStorage::new();
        s.set(b"k".to_vec(), b"v".to_vec());
        assert_eq!(s.remove(b"k"), Some(b"v".to_vec()));
        assert!(s.is_empty());
        assert_eq!(s.remove(b"k"), None);
    }
}
