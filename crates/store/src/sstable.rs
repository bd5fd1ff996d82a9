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
//! lookups; the footer pins everything with a magic number. The sequence
//! number is kept so compaction can pick the newest of overlapping tables
//! and `Db::open` can recover the store's sequence.
//!
//! A data block is framed as `len:u32 · crc32:u32 · body`, and each body
//! entry as `klen:u32 · seq:u64 · has_value:u8 · vlen:u32 · key · value`.
//! A block read from disk has its frame length and CRC checked once and is
//! then kept as those raw bytes (`Block`, what the block cache holds);
//! every reader decodes it in place through one iterator,
//! `Block::entries`, which borrows keys and values from the frame and
//! turns an entry that overruns the block into a typed
//! [`StoreError::Corrupt`]. A point lookup walks it to the first key at or
//! above the one asked for and copies out only the hit's value.

use std::cmp::Ordering;
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
        encode_entry(&mut self.block, key, seq, value);
        self.keys.push(key.to_vec());
        Ok(())
    }

    fn finish_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let framed = frame(&self.block);
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
        if let Some(first) = reader.index.first() {
            // Block 0 is decoded in full, so a malformed first block fails
            // the open rather than a later read.
            let block = reader.read_block(first)?;
            let mut entries = block.entries();
            let smallest = match entries.next() {
                Some(entry) => entry?.0.to_vec(),
                None => Vec::new(),
            };
            for entry in entries {
                entry?;
            }
            reader.smallest = smallest;
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

    fn read_block(&self, entry: &IndexEntry) -> Result<Block> {
        let mut framed = vec![0u8; entry.len as usize];
        self.file.read_exact_at(&mut framed, entry.offset)?;
        Block::from_frame(framed)
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
    pub(crate) fn block_at(&self, idx: usize) -> Result<Block> {
        match self.index.get(idx) {
            Some(entry) => self.read_block(entry),
            None => Err(StoreError::Corrupt(format!("no data block {idx}"))),
        }
    }

    /// Every data block in key order, each read and CRC-checked as the
    /// iterator reaches it.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = Result<Block>> + '_ {
        self.index.iter().map(|entry| self.read_block(entry))
    }

    /// All entries, in key order.
    ///
    /// # Errors
    ///
    /// I/O or corruption while reading blocks.
    pub fn iter_all(&self) -> Result<Vec<TableEntry>> {
        let mut out = Vec::with_capacity(self.entry_count as usize);
        for block in self.blocks() {
            for entry in block?.entries() {
                let (key, seq, value) = entry?;
                out.push(TableEntry {
                    key: key.to_vec(),
                    seq,
                    value: value.map(<[u8]>::to_vec),
                });
            }
        }
        Ok(out)
    }
}

/// Bytes of a block frame's header: the body length, then its CRC-32.
const FRAME_HEADER: usize = 8;

/// Bytes of an entry header: key length (`u32`), sequence (`u64`), value
/// flag (`u8`) and value length (`u32`), all little-endian.
const ENTRY_HEADER: usize = 17;

/// Appends one `(key, seq, value?)` entry to a block body.
fn encode_entry(body: &mut Vec<u8>, key: &[u8], seq: u64, value: Option<&[u8]>) {
    body.extend_from_slice(&(key.len() as u32).to_le_bytes());
    body.extend_from_slice(&seq.to_le_bytes());
    body.push(value.is_some() as u8);
    let vlen = value.map(|v| v.len()).unwrap_or(0);
    body.extend_from_slice(&(vlen as u32).to_le_bytes());
    body.extend_from_slice(key);
    if let Some(v) = value {
        body.extend_from_slice(v);
    }
}

/// Frames a block body: length, CRC-32, body.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(FRAME_HEADER + body.len());
    framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(body).to_le_bytes());
    framed.extend_from_slice(body);
    framed
}

/// One decoded entry, borrowed from its block: key, sequence, and the value
/// (`None` for a tombstone).
pub(crate) type EntryRef<'a> = (&'a [u8], u64, Option<&'a [u8]>);

/// A data block whose frame length and CRC have been checked: the framed
/// bytes as read from disk, decoded in place on every use. Nothing is
/// copied out but what a caller asks for, so a point lookup allocates only
/// the value it returns.
#[derive(Debug)]
pub(crate) struct Block {
    framed: Vec<u8>,
}

impl Block {
    /// Verifies a framed block: its length field must match the body and
    /// its CRC must match the body's.
    fn from_frame(framed: Vec<u8>) -> Result<Block> {
        if framed.len() < FRAME_HEADER {
            return Err(StoreError::Corrupt("short block frame".into()));
        }
        let blen = le_u32(&framed[0..4]) as usize;
        let crc = le_u32(&framed[4..8]);
        let body = &framed[FRAME_HEADER..];
        if body.len() != blen {
            return Err(StoreError::Corrupt("block length mismatch".into()));
        }
        if crc32(body) != crc {
            return Err(StoreError::Corrupt("block crc mismatch".into()));
        }
        Ok(Block { framed })
    }

    /// The block's entries in key order. An entry whose header or body runs
    /// past the block yields [`StoreError::Corrupt`] and ends the walk.
    pub(crate) fn entries(&self) -> Entries<'_> {
        Entries {
            rest: self.framed.get(FRAME_HEADER..).unwrap_or_default(),
        }
    }

    /// The block's opinion on `key`: `None` if it holds no entry for it,
    /// `Some(None)` for a tombstone, `Some(Some(value))` for a value. The
    /// walk stops at the first key above `key` (entries are strictly
    /// ascending), and only the hit's value is copied.
    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>> {
        for entry in self.entries() {
            let (k, _, value) = entry?;
            match k.cmp(key) {
                Ordering::Less => {}
                Ordering::Equal => return Ok(Some(value.map(<[u8]>::to_vec))),
                Ordering::Greater => break,
            }
        }
        Ok(None)
    }
}

/// Iterator over a [`Block`]'s entries; see [`Block::entries`].
#[derive(Debug)]
pub(crate) struct Entries<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Entries<'a> {
    type Item = Result<EntryRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        // Taken, not borrowed: a malformed entry leaves nothing to walk.
        let rest = std::mem::take(&mut self.rest);
        let corrupt = |m: &str| Some(Err(StoreError::Corrupt(m.into())));
        let Some((header, rest)) = rest.split_first_chunk::<ENTRY_HEADER>() else {
            return corrupt("entry header truncated");
        };
        let [k0, k1, k2, k3, s0, s1, s2, s3, s4, s5, s6, s7, flag, v0, v1, v2, v3] = *header;
        let klen = u32::from_le_bytes([k0, k1, k2, k3]) as usize;
        let seq = u64::from_le_bytes([s0, s1, s2, s3, s4, s5, s6, s7]);
        let has_value = flag != 0;
        let vlen = if has_value {
            u32::from_le_bytes([v0, v1, v2, v3]) as usize
        } else {
            0
        };
        let Some((key, rest)) = rest.split_at_checked(klen) else {
            return corrupt("entry body truncated");
        };
        let Some((value, rest)) = rest.split_at_checked(vlen) else {
            return corrupt("entry body truncated");
        };
        self.rest = rest;
        Some(Ok((key, seq, has_value.then_some(value))))
    }
}

/// Reads a little-endian `u32` from a slice of exactly 4 bytes.
#[expect(
    clippy::expect_used,
    reason = "every caller passes a 4-byte range already bounds-checked"
)]
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4-byte slice"))
}

/// Reads a little-endian `u64` from a slice of exactly 8 bytes.
#[expect(
    clippy::expect_used,
    reason = "every caller passes an 8-byte range already bounds-checked"
)]
fn le_u64(b: &[u8]) -> u64 {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl Block {
        /// A verified block holding `entries` (strictly ascending keys), as the
        /// writer would frame it.
        pub(crate) fn with_entries(entries: &[EntryRef<'_>]) -> Block {
            let mut body = Vec::new();
            for &(key, seq, value) in entries {
                encode_entry(&mut body, key, seq, value);
            }
            Block::from_frame(frame(&body)).expect("a framed block verifies")
        }
    }

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

    /// Fifty `k{i:04}` → `v` entries in 64-byte blocks: 23-byte entries,
    /// three to a block.
    fn tiny_table(name: &str) -> PathBuf {
        let path = temp_path(name);
        let mut w = SsTableWriter::create(&path, 64, 10).unwrap();
        for i in 0..50u32 {
            w.add(format!("k{i:04}").as_bytes(), i as u64 + 1, Some(b"v"))
                .unwrap();
        }
        w.finish().unwrap();
        path
    }

    /// A structural fault planted in a block that still passes its CRC.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Damage {
        /// The first entry's value swallows all but 5 bytes of the block,
        /// leaving too little for the next entry's header.
        HeaderTruncated,
        /// The last entry's value is one byte longer than the block.
        BodyTruncated,
        /// The last entry's key length is `u32::MAX`.
        KeyOverrun,
    }

    impl Damage {
        pub(crate) const ALL: [Damage; 3] = [
            Damage::HeaderTruncated,
            Damage::BodyTruncated,
            Damage::KeyOverrun,
        ];

        /// The `StoreError::Corrupt` message the decoder reports.
        pub(crate) fn message(self) -> &'static str {
            match self {
                Damage::HeaderTruncated => "entry header truncated",
                Damage::BodyTruncated | Damage::KeyOverrun => "entry body truncated",
            }
        }
    }

    /// Plants `damage` in data block `idx` of the table at `path` and
    /// re-frames the block with a matching CRC, so only the entry decoder
    /// can catch it. Every length outside the block stays as it was.
    pub(crate) fn damage_block(path: &Path, idx: usize, damage: Damage) {
        let mut data = std::fs::read(path).unwrap();
        let mut offset = 0;
        for _ in 0..idx {
            offset += FRAME_HEADER + le_u32(&data[offset..offset + 4]) as usize;
        }
        let blen = le_u32(&data[offset..offset + 4]) as usize;
        let body = &mut data[offset + FRAME_HEADER..offset + FRAME_HEADER + blen];
        let (mut last, mut pos) = (0, 0);
        while pos < blen {
            last = pos;
            let klen = le_u32(&body[pos..pos + 4]) as usize;
            pos += ENTRY_HEADER + klen + le_u32(&body[pos + 13..pos + 17]) as usize;
        }
        match damage {
            Damage::HeaderTruncated => {
                let klen = le_u32(&body[0..4]) as usize;
                let vlen = blen - 5 - (ENTRY_HEADER + klen);
                body[13..17].copy_from_slice(&(vlen as u32).to_le_bytes());
            }
            Damage::BodyTruncated => {
                let vlen = le_u32(&body[last + 13..last + 17]) + 1;
                body[last + 13..last + 17].copy_from_slice(&vlen.to_le_bytes());
            }
            Damage::KeyOverrun => {
                body[last..last + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
        }
        let crc = crc32(body);
        data[offset + 4..offset + 8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &data).unwrap();
    }

    fn assert_corrupt<T: std::fmt::Debug>(result: Result<T>, message: &str) {
        match result {
            Err(StoreError::Corrupt(m)) => assert_eq!(m, message),
            other => panic!("expected Corrupt({message:?}), got {other:?}"),
        }
    }

    #[test]
    fn hostile_blocks_fail_open_and_iteration_with_corrupt() {
        for damage in Damage::ALL {
            // Block 0 is decoded by the open itself.
            let path = tiny_table(&format!("hostile-open-{damage:?}"));
            damage_block(&path, 0, damage);
            assert_corrupt(SsTableReader::open(&path), damage.message());
            std::fs::remove_file(&path).ok();
            // A later block opens fine and fails the walk that reaches it.
            let path = tiny_table(&format!("hostile-iter-{damage:?}"));
            damage_block(&path, 5, damage);
            let r = SsTableReader::open(&path).unwrap();
            assert_corrupt(r.iter_all(), damage.message());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn block_lookup_stops_at_the_first_greater_key() {
        let block = Block::with_entries(&[
            (b"b", 1, Some(b"bee")),
            (b"d", 2, None),
            (b"f", 3, Some(b"")),
        ]);
        assert_eq!(block.get(b"b").unwrap(), Some(Some(b"bee".to_vec())));
        assert_eq!(block.get(b"d").unwrap(), Some(None), "tombstone");
        assert_eq!(block.get(b"f").unwrap(), Some(Some(Vec::new())));
        for absent in [&b"a"[..], b"c", b"e", b"g"] {
            assert_eq!(block.get(absent).unwrap(), None);
        }
        // Entries past the first greater key are never decoded: a block
        // whose tail is malformed still answers keys before the damage.
        let mut body = Vec::new();
        encode_entry(&mut body, b"b", 1, Some(b"bee"));
        body.extend_from_slice(&[0xFF; 5]);
        let block = Block::from_frame(frame(&body)).unwrap();
        assert_eq!(block.get(b"a").unwrap(), None);
        assert_eq!(block.get(b"b").unwrap(), Some(Some(b"bee".to_vec())));
        assert_corrupt(block.get(b"c"), "entry header truncated");
        let entries: Vec<_> = block.entries().collect();
        assert_eq!(entries.len(), 2, "a malformed entry ends the walk");
    }

    #[test]
    fn tiny_blocks_are_cut_at_the_size_target() {
        let path = tiny_table("blocks");
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
