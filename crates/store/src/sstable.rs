//! Immutable sorted-table files (SSTables).
//!
//! Layout, LevelDB-style:
//!
//! ```text
//! [data block]*  [index block]  [bloom block]  [footer]
//! ```
//!
//! Data blocks hold `(key, seq, value?)` entries, one per key, in strictly
//! ascending key order, cut once a block reaches ~4 KiB. The index maps each
//! block's last key to its file extent; the bloom filter short-circuits point
//! lookups; the footer pins everything with a magic number. Blocks are
//! CRC-checked. The sequence number is kept so compaction can pick the newest
//! of overlapping tables and `Db::open` can recover the store's sequence.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use grub_fault::{should_trip, FaultPoint};

use crate::bloom::Bloom;
use crate::crc::crc32;
use crate::{Result, StoreError};

const MAGIC: u64 = 0x4752_5542_5353_5442; // "GRUBSSTB"
const FOOTER_LEN: usize = 8 + 4 + 8 + 4 + 8 + 8;

/// One stored entry as returned by table iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// User key.
    pub key: Vec<u8>,
    /// Write sequence number.
    pub seq: u64,
    /// Value, or `None` for a tombstone.
    pub value: Option<Vec<u8>>,
}

#[derive(Debug, Clone)]
struct IndexEntry {
    last_key: Vec<u8>,
    offset: u64,
    len: u32,
}

/// Streaming SSTable writer. Entries must arrive one per key, in strictly
/// ascending key order.
///
/// Bytes go to a `.tmp` sibling of the target path; [`SsTableWriter::finish`]
/// syncs and renames it into place, so a crash at any point during the write
/// leaves either no table or a complete one at the final name — never a
/// half-written `.sst` that poisons the next open. Stray `.tmp` leftovers
/// are swept by `Db::open`.
#[derive(Debug)]
pub struct SsTableWriter {
    file: File,
    path: PathBuf,
    tmp_path: PathBuf,
    block: Vec<u8>,
    offset: u64,
    index: Vec<IndexEntry>,
    keys: Vec<Vec<u8>>,
    block_target: usize,
    bits_per_key: usize,
}

impl SsTableWriter {
    /// Creates a writer over a fresh file at `path`.
    ///
    /// # Errors
    ///
    /// Any filesystem error creating the file.
    pub fn create(
        path: impl Into<PathBuf>,
        block_target: usize,
        bits_per_key: usize,
    ) -> Result<Self> {
        let path = path.into();
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(".tmp");
        let tmp_path = path.with_file_name(tmp_name);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp_path)?;
        Ok(SsTableWriter {
            file,
            path,
            tmp_path,
            block: Vec::new(),
            offset: 0,
            index: Vec::new(),
            keys: Vec::new(),
            block_target,
            bits_per_key,
        })
    }

    /// Appends one entry.
    ///
    /// # Panics
    ///
    /// Panics unless `key` sorts strictly above the previous key — a
    /// repeated or out-of-order key is a caller bug that would corrupt
    /// lookups.
    pub fn add(&mut self, key: &[u8], seq: u64, value: Option<&[u8]>) -> Result<()> {
        if let Some(last) = self.keys.last() {
            assert!(
                key > last.as_slice(),
                "keys must be sorted strictly ascending"
            );
        }
        if self.block.len() >= self.block_target {
            self.finish_block()?;
        }
        self.block
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.block.extend_from_slice(&seq.to_le_bytes());
        self.block.push(value.is_some() as u8);
        let vlen = value.map(|v| v.len()).unwrap_or(0);
        self.block.extend_from_slice(&(vlen as u32).to_le_bytes());
        self.block.extend_from_slice(key);
        if let Some(v) = value {
            self.block.extend_from_slice(v);
        }
        self.keys.push(key.to_vec());
        Ok(())
    }

    fn finish_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let crc = crc32(&self.block);
        let mut framed = Vec::with_capacity(self.block.len() + 8);
        framed.extend_from_slice(&(self.block.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc.to_le_bytes());
        framed.extend_from_slice(&self.block);
        self.file.write_all(&framed)?;
        self.index.push(IndexEntry {
            // A non-empty block ends with the last key add() recorded.
            last_key: self.keys.last().cloned().unwrap_or_default(),
            offset: self.offset,
            len: framed.len() as u32,
        });
        self.offset += framed.len() as u64;
        self.block.clear();
        Ok(())
    }

    /// Finishes the table: writes index, bloom and footer, syncs, and
    /// renames the `.tmp` file to the final path.
    ///
    /// # Errors
    ///
    /// Any filesystem error writing or syncing.
    pub fn finish(mut self) -> Result<PathBuf> {
        self.finish_block()?;
        if should_trip(FaultPoint::MidSstableFlush) {
            // Simulated crash mid-flush: the data blocks written so far stay
            // in the .tmp file — no footer, no rename — which is exactly the
            // artifact a power cut leaves. Db::open sweeps it.
            self.file.sync_data().ok();
            return Err(StoreError::Injected("mid-sstable-flush"));
        }
        // Index block.
        let mut index = Vec::new();
        index.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for e in &self.index {
            index.extend_from_slice(&(e.last_key.len() as u32).to_le_bytes());
            index.extend_from_slice(&e.last_key);
            index.extend_from_slice(&e.offset.to_le_bytes());
            index.extend_from_slice(&e.len.to_le_bytes());
        }
        let index_off = self.offset;
        self.file.write_all(&index)?;
        self.offset += index.len() as u64;
        // Bloom block.
        let bloom = Bloom::from_keys(&self.keys, self.bits_per_key).encode();
        let bloom_off = self.offset;
        self.file.write_all(&bloom)?;
        self.offset += bloom.len() as u64;
        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&(index.len() as u32).to_le_bytes());
        footer.extend_from_slice(&bloom_off.to_le_bytes());
        footer.extend_from_slice(&(bloom.len() as u32).to_le_bytes());
        footer.extend_from_slice(&(self.keys.len() as u64).to_le_bytes());
        footer.extend_from_slice(&MAGIC.to_le_bytes());
        self.file.write_all(&footer)?;
        self.file.sync_data()?;
        std::fs::rename(&self.tmp_path, &self.path)?;
        // Persist the rename (best effort where directories cannot be
        // opened for sync), mirroring the SEQ sidecar discipline.
        if let Some(parent) = self.path.parent() {
            if let Ok(d) = File::open(parent) {
                d.sync_all().ok();
            }
        }
        Ok(self.path)
    }
}

/// A read handle over a finished SSTable: index and bloom in memory, data
/// blocks fetched (and CRC-checked) on demand.
#[derive(Debug)]
pub struct SsTableReader {
    file: File,
    index: Vec<IndexEntry>,
    bloom: Bloom,
    entry_count: u64,
    smallest: Vec<u8>,
    largest: Vec<u8>,
}

impl SsTableReader {
    /// Opens and validates a table file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on bad magic, framing or CRC;
    /// [`StoreError::Io`] on filesystem failures.
    pub fn open(path: &Path) -> Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < FOOTER_LEN as u64 {
            return Err(StoreError::Corrupt("file shorter than footer".into()));
        }
        let mut footer = vec![0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer, len - FOOTER_LEN as u64)?;
        let magic = le_u64(&footer[32..40]);
        if magic != MAGIC {
            return Err(StoreError::Corrupt("bad magic".into()));
        }
        let index_off = le_u64(&footer[0..8]);
        let index_len = le_u32(&footer[8..12]) as usize;
        let bloom_off = le_u64(&footer[12..20]);
        let bloom_len = le_u32(&footer[20..24]) as usize;
        let entry_count = le_u64(&footer[24..32]);

        let mut index_raw = vec![0u8; index_len];
        file.read_exact_at(&mut index_raw, index_off)?;
        let index = parse_index(&index_raw)?;

        let mut bloom_raw = vec![0u8; bloom_len];
        file.read_exact_at(&mut bloom_raw, bloom_off)?;
        let bloom = Bloom::decode(&bloom_raw)
            .ok_or_else(|| StoreError::Corrupt("bad bloom block".into()))?;

        let mut reader = SsTableReader {
            file,
            index,
            bloom,
            entry_count,
            smallest: Vec::new(),
            largest: Vec::new(),
        };
        if let Some(first) = reader.index.first().cloned() {
            let entries = reader.read_block(&first)?;
            reader.smallest = entries.first().map(|e| e.key.clone()).unwrap_or_default();
            reader.largest = reader
                .index
                .last()
                .map(|e| e.last_key.clone())
                .unwrap_or_default();
        }
        Ok(reader)
    }

    /// Number of entries (one per key).
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Smallest user key in the table.
    pub fn smallest(&self) -> &[u8] {
        &self.smallest
    }

    /// Largest user key in the table.
    pub fn largest(&self) -> &[u8] {
        &self.largest
    }

    fn read_block(&self, entry: &IndexEntry) -> Result<Vec<TableEntry>> {
        let mut framed = vec![0u8; entry.len as usize];
        self.file.read_exact_at(&mut framed, entry.offset)?;
        if framed.len() < 8 {
            return Err(StoreError::Corrupt("short block frame".into()));
        }
        let blen = le_u32(&framed[0..4]) as usize;
        let crc = le_u32(&framed[4..8]);
        let body = &framed[8..];
        if body.len() != blen {
            return Err(StoreError::Corrupt("block length mismatch".into()));
        }
        if crc32(body) != crc {
            return Err(StoreError::Corrupt("block crc mismatch".into()));
        }
        parse_block(body)
    }

    /// Number of data blocks in the table.
    pub(crate) fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Whether the bloom filter admits `key` (`false` ⇒ definitely absent).
    pub(crate) fn may_contain(&self, key: &[u8]) -> bool {
        self.bloom.may_contain(key)
    }

    /// Index of the first block whose `last_key >= key` — the only block
    /// that can contain `key`, and the seek target for a scan starting at
    /// `key`. `None` when `key` sorts past every block.
    pub(crate) fn find_block_idx(&self, key: &[u8]) -> Option<usize> {
        let idx = self.index.partition_point(|e| e.last_key.as_slice() < key);
        (idx < self.index.len()).then_some(idx)
    }

    /// Reads (and CRC-checks) data block `idx`.
    pub(crate) fn block_at(&self, idx: usize) -> Result<Vec<TableEntry>> {
        match self.index.get(idx) {
            Some(entry) => self.read_block(entry),
            None => Ok(Vec::new()),
        }
    }

    /// All entries, in key order.
    ///
    /// # Errors
    ///
    /// I/O or corruption while reading blocks.
    pub fn iter_all(&self) -> Result<Vec<TableEntry>> {
        let mut out = Vec::with_capacity(self.entry_count as usize);
        for e in &self.index {
            out.extend(self.read_block(e)?);
        }
        Ok(out)
    }
}

/// Reads a little-endian `u32` from a slice of exactly 4 bytes.
fn le_u32(b: &[u8]) -> u32 {
    // grub-lint: allow(panic) — every caller passes a 4-byte range already bounds-checked
    u32::from_le_bytes(b.try_into().expect("4-byte slice"))
}

/// Reads a little-endian `u64` from a slice of exactly 8 bytes.
fn le_u64(b: &[u8]) -> u64 {
    // grub-lint: allow(panic) — every caller passes an 8-byte range already bounds-checked
    u64::from_le_bytes(b.try_into().expect("8-byte slice"))
}

fn parse_index(raw: &[u8]) -> Result<Vec<IndexEntry>> {
    let corrupt = |m: &str| StoreError::Corrupt(m.into());
    if raw.len() < 4 {
        return Err(corrupt("index too short"));
    }
    let count = le_u32(&raw[0..4]) as usize;
    let mut pos = 4usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if pos + 4 > raw.len() {
            return Err(corrupt("index truncated"));
        }
        let klen = le_u32(&raw[pos..pos + 4]) as usize;
        pos += 4;
        if pos + klen + 12 > raw.len() {
            return Err(corrupt("index truncated"));
        }
        let last_key = raw[pos..pos + klen].to_vec();
        pos += klen;
        let offset = le_u64(&raw[pos..pos + 8]);
        pos += 8;
        let len = le_u32(&raw[pos..pos + 4]);
        pos += 4;
        out.push(IndexEntry {
            last_key,
            offset,
            len,
        });
    }
    Ok(out)
}

fn parse_block(body: &[u8]) -> Result<Vec<TableEntry>> {
    let corrupt = |m: &str| StoreError::Corrupt(m.into());
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < body.len() {
        if pos + 17 > body.len() {
            return Err(corrupt("entry header truncated"));
        }
        let klen = le_u32(&body[pos..pos + 4]) as usize;
        let seq = le_u64(&body[pos + 4..pos + 12]);
        let has_value = body[pos + 12] != 0;
        let vlen = le_u32(&body[pos + 13..pos + 17]) as usize;
        pos += 17;
        if pos + klen + if has_value { vlen } else { 0 } > body.len() {
            return Err(corrupt("entry body truncated"));
        }
        let key = body[pos..pos + klen].to_vec();
        pos += klen;
        let value = if has_value {
            let v = body[pos..pos + vlen].to_vec();
            pos += vlen;
            Some(v)
        } else {
            None
        };
        out.push(TableEntry { key, seq, value });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("grub-sst-{}-{name}.sst", std::process::id()))
    }

    fn build_table(name: &str, n: u32) -> PathBuf {
        let path = temp_path(name);
        let mut w = SsTableWriter::create(&path, 4096, 10).unwrap();
        for i in 0..n {
            let key = format!("key{i:06}");
            w.add(
                key.as_bytes(),
                i as u64 + 1,
                Some(format!("val{i}").as_bytes()),
            )
            .unwrap();
        }
        w.finish().unwrap();
        path
    }

    #[test]
    fn write_read_round_trip() {
        let path = build_table("round", 500);
        let r = SsTableReader::open(&path).unwrap();
        assert_eq!(r.entry_count(), 500);
        assert_eq!(r.smallest(), b"key000000");
        assert_eq!(r.largest(), b"key000499");
        let all = r.iter_all().unwrap();
        assert_eq!(
            all[123],
            TableEntry {
                key: b"key000123".to_vec(),
                seq: 124,
                value: Some(b"val123".to_vec()),
            }
        );
        assert!(!all.iter().any(|e| e.key == b"nope"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn iter_all_is_sorted_and_complete() {
        let path = build_table("iter", 300);
        let r = SsTableReader::open(&path).unwrap();
        let all = r.iter_all().unwrap();
        assert_eq!(all.len(), 300);
        for pair in all.windows(2) {
            assert!(pair[0].key < pair[1].key);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tombstones_and_sequence_numbers_round_trip() {
        let path = temp_path("tombstone");
        let mut w = SsTableWriter::create(&path, 4096, 10).unwrap();
        w.add(b"a", 9, None).unwrap();
        w.add(b"b", 2, Some(b"bee")).unwrap();
        w.finish().unwrap();
        let r = SsTableReader::open(&path).unwrap();
        let entry = |key: &[u8], seq, value: Option<&[u8]>| TableEntry {
            key: key.to_vec(),
            seq,
            value: value.map(<[u8]>::to_vec),
        };
        assert_eq!(
            r.iter_all().unwrap(),
            [entry(b"a", 9, None), entry(b"b", 2, Some(b"bee"))]
        );
        assert!(r.may_contain(b"a") && r.may_contain(b"b"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn out_of_order_add_panics() {
        let path = temp_path("order");
        let mut w = SsTableWriter::create(&path, 4096, 10).unwrap();
        w.add(b"b", 1, Some(b"x")).unwrap();
        let _ = w.add(b"a", 2, Some(b"y"));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn a_repeated_key_panics() {
        let path = temp_path("repeat");
        let mut w = SsTableWriter::create(&path, 4096, 10).unwrap();
        w.add(b"a", 2, Some(b"new")).unwrap();
        let _ = w.add(b"a", 1, Some(b"old"));
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let path = build_table("magic", 10);
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            SsTableReader::open(&path),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_block_detected_on_read() {
        let path = build_table("crc", 200);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a byte early in the first data block's body.
        data[16] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        match SsTableReader::open(&path) {
            // Either open (which reads block 0 for smallest key) or a read
            // must surface the corruption.
            Err(StoreError::Corrupt(_)) => {}
            Ok(r) => {
                assert!(matches!(r.iter_all(), Err(StoreError::Corrupt(_))));
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_blocks_are_cut_at_the_size_target() {
        let path = temp_path("blocks");
        let mut w = SsTableWriter::create(&path, 64, 10).unwrap();
        for i in 0..50u32 {
            w.add(format!("k{i:04}").as_bytes(), i as u64 + 1, Some(b"v"))
                .unwrap();
        }
        w.finish().unwrap();
        let r = SsTableReader::open(&path).unwrap();
        // 23-byte entries: a block takes three before it reaches 64 bytes.
        assert_eq!(r.block_count(), 17);
        let keys: Vec<_> = r.iter_all().unwrap().into_iter().map(|e| e.key).collect();
        let want: Vec<_> = (0..50u32)
            .map(|i| format!("k{i:04}").into_bytes())
            .collect();
        assert_eq!(keys, want);
        assert_eq!(r.find_block_idx(b"k0049"), Some(16));
        assert_eq!(r.find_block_idx(b"k0050"), None);
        std::fs::remove_file(&path).ok();
    }
}
