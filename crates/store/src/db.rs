//! The top-level database: WAL + memtable + leveled SSTables.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::cache::{BlockCache, CachedBlock};
use crate::memtable::Memtable;
use crate::sstable::{SsTableReader, SsTableWriter, TableEntry};
use crate::wal::Wal;
use crate::Result;

/// Tuning knobs, mirroring LevelDB's `Options`.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Memtable size that triggers a flush to L0.
    pub memtable_bytes: usize,
    /// Number of L0 files that triggers compaction into L1.
    pub l0_compaction_trigger: usize,
    /// Target data-block size inside SSTables.
    pub block_bytes: usize,
    /// Bloom-filter bits per key.
    pub bits_per_key: usize,
    /// Whether to fsync the WAL on every write.
    pub sync_writes: bool,
    /// Block-cache capacity in data blocks (0 disables).
    pub block_cache_capacity: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_bytes: 1 << 20,
            l0_compaction_trigger: 4,
            block_bytes: 4096,
            bits_per_key: 10,
            sync_writes: false,
            block_cache_capacity: 1024,
        }
    }
}

/// Cumulative read-path counters since open.
///
/// Caching and filtering only change *how much I/O* a read performs, never
/// its result, so these counters are observability-only: they must not feed
/// any digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Block-cache hits.
    pub cache_hits: u64,
    /// Block-cache misses (each implies one block read).
    pub cache_misses: u64,
    /// Table probes skipped by a bloom-filter true negative.
    pub bloom_skips: u64,
    /// Table probes skipped because the key falls outside the table's span.
    pub span_skips: u64,
    /// Data blocks read (and CRC-checked) from disk.
    pub block_reads: u64,
}

#[derive(Debug)]
struct Table {
    path: PathBuf,
    reader: SsTableReader,
    /// Monotonic file number (never reused) — the cache key prefix.
    file_no: u64,
}

/// The storage engine facade: `put`/`get`/`delete`/`scan` with durability.
#[derive(Debug)]
pub struct Db {
    dir: PathBuf,
    opts: Options,
    wal: Wal,
    mem: Memtable,
    seq: u64,
    next_file_no: u64,
    /// L0: newest file last; files may overlap.
    l0: Vec<Table>,
    /// L1: non-overlapping, sorted by smallest key.
    l1: Vec<Table>,
    flush_count: u64,
    compaction_count: u64,
    cache: BlockCache,
    reads: RefCell<ReadStats>,
}

impl Db {
    /// Opens (creating if needed) a database under `dir`, replaying the WAL
    /// and registering existing SSTables.
    ///
    /// # Errors
    ///
    /// Filesystem failures, or [`crate::StoreError::Corrupt`] for damaged tables.
    pub fn open(dir: impl Into<PathBuf>, opts: Options) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut l0 = Vec::new();
        let mut l1 = Vec::new();
        let mut next_file_no = 1u64;
        let mut names: Vec<(u64, u8, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some((no, level)) = parse_table_name(&name) {
                names.push((no, level, entry.path()));
                next_file_no = next_file_no.max(no + 1);
            } else if name.ends_with(".tmp") && name != "SEQ.tmp" {
                // A crash mid-flush leaves a partial `.sst.tmp` behind (the
                // writer renames only on a complete, synced finish). Its
                // contents are still covered by the WAL — the WAL is reset
                // strictly after the rename — so the leftover is dead weight:
                // sweep it. SEQ.tmp follows its own temp+rename discipline.
                std::fs::remove_file(entry.path()).ok();
            }
        }
        names.sort();
        // The SEQ sidecar (written on every flush, LevelDB-MANIFEST style)
        // guards against sequence regression: compaction drops tombstones at
        // the bottom level, so the max over surviving records can undercount.
        // Flush order (table → SEQ → WAL reset) guarantees max(SEQ, WAL)
        // covers every SSTable record, so when the sidecar is present the
        // per-record scan below is skipped.
        let mut max_seq = 0u64;
        let mut have_sidecar = false;
        match std::fs::read(dir.join("SEQ")) {
            Ok(bytes) => {
                if let Ok(bytes) = <[u8; 8]>::try_from(bytes.as_slice()) {
                    max_seq = u64::from_le_bytes(bytes);
                    have_sidecar = true;
                }
                // A torn sidecar (wrong length) falls back to the scan.
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(crate::StoreError::Io(e)),
        }
        for (no, level, path) in names {
            let reader = SsTableReader::open(&path)?;
            if !have_sidecar {
                // Pre-sidecar directory: recover the sequence the old way,
                // from the max over surviving records.
                for block in reader.blocks() {
                    for entry in block?.entries() {
                        max_seq = max_seq.max(entry?.1);
                    }
                }
            }
            let table = Table {
                path,
                reader,
                file_no: no,
            };
            if level == 0 {
                l0.push(table);
            } else {
                l1.push(table);
            }
        }
        l1.sort_by(|a, b| a.reader.smallest().cmp(b.reader.smallest()));
        // Replay the WAL into a fresh memtable.
        let wal_path = dir.join("wal.log");
        let mut mem = Memtable::new();
        for rec in Wal::replay(&wal_path)? {
            max_seq = max_seq.max(rec.seq);
            mem.insert(rec.key, rec.seq, rec.value);
        }
        let wal = Wal::open(&wal_path)?;
        Ok(Db {
            dir,
            opts,
            wal,
            mem,
            seq: max_seq,
            next_file_no,
            l0,
            l1,
            flush_count: 0,
            compaction_count: 0,
            cache: BlockCache::new(opts.block_cache_capacity),
            reads: RefCell::new(ReadStats::default()),
        })
    }

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// WAL or flush I/O failures.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        self.write(key, Some(value))
    }

    /// Removes `key` (writes a tombstone).
    ///
    /// # Errors
    ///
    /// WAL or flush I/O failures.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.write(key.to_vec(), None)
    }

    fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) -> Result<()> {
        self.seq += 1;
        self.wal.append(self.seq, &key, value.as_deref())?;
        if self.opts.sync_writes {
            self.wal.sync()?;
        }
        self.mem.insert(key, self.seq, value);
        if self.mem.approx_bytes() >= self.opts.memtable_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Reads the latest value of `key`.
    ///
    /// # Errors
    ///
    /// I/O or corruption while consulting SSTables.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if let Some(opinion) = self.mem.get(key) {
            return Ok(opinion.cloned());
        }
        for table in self.l0.iter().rev() {
            if let Some(opinion) = self.table_get(table, key)? {
                return Ok(opinion);
            }
        }
        // L1 is non-overlapping: at most one candidate table.
        let idx = self.l1.partition_point(|t| t.reader.largest() < key);
        if let Some(table) = self.l1.get(idx) {
            if let Some(opinion) = self.table_get(table, key)? {
                return Ok(opinion);
            }
        }
        Ok(None)
    }

    /// Point lookup in one table, with the span and bloom checks hoisted
    /// above any block I/O: a miss on a table whose span or bloom excludes
    /// the key costs zero block reads.
    fn table_get(&self, table: &Table, key: &[u8]) -> Result<Option<Option<Vec<u8>>>> {
        let r = &table.reader;
        if key < r.smallest() || key > r.largest() {
            self.reads.borrow_mut().span_skips += 1;
            return Ok(None);
        }
        if !r.may_contain(key) {
            self.reads.borrow_mut().bloom_skips += 1;
            return Ok(None);
        }
        // First block whose last_key >= key: the only candidate.
        let Some(idx) = r.find_block_idx(key) else {
            return Ok(None);
        };
        self.cached_block(table, idx)?.get(key)
    }

    /// Fetches data block `idx` of `table` through the block cache.
    fn cached_block(&self, table: &Table, idx: usize) -> Result<CachedBlock> {
        if let Some(block) = self.cache.get(table.file_no, idx) {
            self.reads.borrow_mut().cache_hits += 1;
            return Ok(block);
        }
        let block = Arc::new(table.reader.block_at(idx)?);
        {
            let mut reads = self.reads.borrow_mut();
            reads.cache_misses += 1;
            reads.block_reads += 1;
        }
        self.cache.insert(table.file_no, idx, block.clone());
        Ok(block)
    }

    /// Ordered scan of live keys in `[start, end)` (unbounded when `None`).
    ///
    /// # Errors
    ///
    /// I/O or corruption while consulting SSTables.
    pub fn scan(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let in_range = |key: &[u8]| {
            start.map(|s| key >= s).unwrap_or(true) && end.map(|e| key < e).unwrap_or(true)
        };
        // Winner per key = the entry with the highest seq: L0 tables overlap
        // each other and L1.
        let mut best: BTreeMap<Vec<u8>, (u64, Option<Vec<u8>>)> = BTreeMap::new();
        let mut offer = |key: &[u8], seq: u64, value: Option<&[u8]>| {
            if !in_range(key) {
                return;
            }
            match best.get(key) {
                Some((s, _)) if *s >= seq => {}
                _ => {
                    best.insert(key.to_vec(), (seq, value.map(<[u8]>::to_vec)));
                }
            }
        };
        for table in self.l1.iter().chain(self.l0.iter()) {
            let r = &table.reader;
            // Skip tables whose key span cannot intersect the scan range.
            if start.map(|s| r.largest() < s).unwrap_or(false)
                || end.map(|e| r.smallest() >= e).unwrap_or(false)
            {
                self.reads.borrow_mut().span_skips += 1;
                continue;
            }
            // Seek into the first block that can hold `start` instead of
            // iterating the table from the front; stop at the first key past
            // `end` (blocks and entries are key-ascending).
            let first = match start {
                Some(s) => r.find_block_idx(s).unwrap_or(r.block_count()),
                None => 0,
            };
            'blocks: for idx in first..r.block_count() {
                let block = self.cached_block(table, idx)?;
                for entry in block.entries() {
                    let (key, seq, value) = entry?;
                    if end.map(|e| key >= e).unwrap_or(false) {
                        break 'blocks;
                    }
                    offer(key, seq, value);
                }
            }
        }
        let sb = start.map(Bound::Included).unwrap_or(Bound::Unbounded);
        let eb = end.map(Bound::Excluded).unwrap_or(Bound::Unbounded);
        for (key, value) in self.mem.range(sb, eb) {
            // Memtable writes are newest overall: they win outright.
            best.insert(key.clone(), (u64::MAX, value.cloned()));
        }
        Ok(best
            .into_iter()
            .filter_map(|(k, (_, v))| v.map(|v| (k, v)))
            .collect())
    }

    /// Flushes the memtable to a fresh L0 table and truncates the WAL.
    ///
    /// # Errors
    ///
    /// I/O failures writing the table.
    pub fn flush(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        let (file_no, path) = self.table_path(0);
        let mut w = SsTableWriter::create(&path, self.opts.block_bytes, self.opts.bits_per_key)?;
        for (key, version) in self.mem.iter_all() {
            w.add(key, version.seq, version.value.as_deref())?;
        }
        let path = w.finish()?;
        let reader = SsTableReader::open(&path)?;
        self.l0.push(Table {
            path,
            reader,
            file_no,
        });
        self.mem = Memtable::new();
        // Persist the sequence BEFORE truncating the WAL: a crash in between
        // leaves both sources available and recovery takes the max.
        self.persist_sequence()?;
        self.wal.reset()?;
        self.flush_count += 1;
        if self.l0.len() >= self.opts.l0_compaction_trigger {
            self.compact()?;
        }
        Ok(())
    }

    /// Merges all L0 and L1 tables into a fresh non-overlapping L1,
    /// keeping only the newest version per key and dropping tombstones
    /// (L1 is the bottom level).
    ///
    /// # Errors
    ///
    /// I/O failures reading or writing tables.
    pub fn compact(&mut self) -> Result<()> {
        if self.l0.is_empty() && self.l1.len() <= 1 {
            return Ok(());
        }
        let mut best: BTreeMap<Vec<u8>, (u64, Option<Vec<u8>>)> = BTreeMap::new();
        for table in self.l1.iter().chain(self.l0.iter()) {
            for TableEntry { key, seq, value } in table.reader.iter_all()? {
                match best.get(&key) {
                    Some((s, _)) if *s >= seq => {}
                    _ => {
                        best.insert(key, (seq, value));
                    }
                }
            }
        }
        let old: Vec<(u64, PathBuf)> = self
            .l0
            .drain(..)
            .chain(self.l1.drain(..))
            .map(|t| (t.file_no, t.path))
            .collect();
        // Newest version per key, tombstones dropped at the bottom level.
        let live = best
            .into_iter()
            .filter_map(|(key, (seq, value))| Some((key, seq, value?)));
        self.write_l1(live)?;
        for (file_no, path) in old {
            // File numbers are never reused, so a forgotten eviction could
            // never alias — but dead blocks would squat in the cache.
            self.cache.evict_table(file_no);
            std::fs::remove_file(&path).ok();
        }
        self.compaction_count += 1;
        Ok(())
    }

    /// Loads a dataset: equivalent to [`Db::put`] of every record in order,
    /// but a dataset in strictly ascending key order handed to a store that
    /// has never been written is laid down directly as finished,
    /// non-overlapping L1 tables — no WAL append, no memtable, no flush, no
    /// compaction (the shape of RocksDB's external-file ingestion). Anything
    /// else — a key out of order anywhere in the input, a store with history
    /// — is the `put` loop.
    ///
    /// Crash safety needs no WAL. Each table goes through [`SsTableWriter`]
    /// (`.tmp`, `sync_data`, rename), so a crash leaves a prefix of complete
    /// tables plus at most one `.tmp` that [`Db::open`] sweeps; the SEQ
    /// sidecar is written after the last table, and a never-written store
    /// has none, so until then `open` recovers the sequence from the tables
    /// themselves. The caller still holds the dataset and loads it again:
    /// the store now has history, so the second pass is all `put`s and
    /// converges on the same contents.
    ///
    /// # Errors
    ///
    /// Table, sidecar, WAL or flush I/O failures.
    pub fn ingest_sorted<'a>(
        &mut self,
        records: impl Iterator<Item = (Vec<u8>, &'a [u8])> + Clone,
    ) -> Result<()> {
        let keys = records.clone().map(|(key, _)| key);
        if self.seq == 0 && keys.is_sorted_by(|a, b| a < b) {
            let numbered = records.zip(1u64..);
            self.write_l1(numbered.map(|((key, value), seq)| (key, seq, value)))?;
            if self.seq > 0 {
                self.persist_sequence()?;
            }
            return Ok(());
        }
        for (key, value) in records {
            self.put(key, value.to_vec())?;
        }
        Ok(())
    }

    /// Writes key-ascending live entries out as fresh L1 tables, cut at
    /// ~2 MiB, and registers them. The caller guarantees they overlap no
    /// table already in L1. The store's sequence never trails a registered
    /// table's (a no-op for compaction, whose entries are already counted),
    /// so an ingest that fails part-way leaves a handle with history: a
    /// retry on it takes the `put` path, numbered above what was written.
    fn write_l1<V: AsRef<[u8]>>(
        &mut self,
        entries: impl Iterator<Item = (Vec<u8>, u64, V)>,
    ) -> Result<()> {
        const TARGET: usize = 2 << 20;
        let mut entries = entries.peekable();
        while entries.peek().is_some() {
            let (file_no, path) = self.table_path(1);
            let mut w =
                SsTableWriter::create(&path, self.opts.block_bytes, self.opts.bits_per_key)?;
            let (mut written, mut max_seq) = (0usize, 0u64);
            while written < TARGET {
                let Some((key, seq, value)) = entries.next() else {
                    break;
                };
                let value = value.as_ref();
                w.add(&key, seq, Some(value))?;
                written += key.len() + value.len() + 17;
                max_seq = max_seq.max(seq);
            }
            let path = w.finish()?;
            let reader = SsTableReader::open(&path)?;
            self.l1.push(Table {
                path,
                reader,
                file_no,
            });
            self.seq = self.seq.max(max_seq);
        }
        Ok(())
    }

    fn table_path(&mut self, level: u8) -> (u64, PathBuf) {
        let no = self.next_file_no;
        self.next_file_no += 1;
        (no, self.dir.join(format!("{no:06}-l{level}.sst")))
    }

    /// Durably records the current sequence number in the SEQ sidecar:
    /// temp-file + fsync + rename + directory fsync, so a crash at any
    /// point leaves either the old or the new sidecar intact — matching
    /// the sync discipline of the SSTable and WAL paths.
    fn persist_sequence(&self) -> Result<()> {
        let tmp = self.dir.join("SEQ.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut f, &self.seq.to_le_bytes())?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.dir.join("SEQ"))?;
        // Persist the rename itself (best effort on platforms where
        // directories cannot be opened for sync).
        if let Ok(d) = std::fs::File::open(&self.dir) {
            d.sync_all().ok();
        }
        Ok(())
    }

    /// (L0 file count, L1 file count, flushes, compactions) — for tests.
    pub fn stats(&self) -> (usize, usize, u64, u64) {
        (
            self.l0.len(),
            self.l1.len(),
            self.flush_count,
            self.compaction_count,
        )
    }

    /// Cumulative read-path counters (cache, bloom/span skips, block reads).
    pub fn read_stats(&self) -> ReadStats {
        *self.reads.borrow()
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current write sequence number.
    pub fn sequence(&self) -> u64 {
        self.seq
    }
}

fn parse_table_name(name: &str) -> Option<(u64, u8)> {
    let rest = name.strip_suffix(".sst")?;
    let (no, level) = rest.split_once("-l")?;
    Some((no.parse().ok()?, level.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("grub-db-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_opts() -> Options {
        Options {
            memtable_bytes: 1024,
            l0_compaction_trigger: 3,
            block_bytes: 512,
            bits_per_key: 10,
            sync_writes: false,
            block_cache_capacity: 64,
        }
    }

    #[test]
    fn sequence_survives_tombstone_dropping_compaction() {
        // The newest operation is a delete; its tombstone is flushed and then
        // compacted away (L1 drops tombstones). Recovery must still restore
        // the pre-crash sequence number via the SEQ sidecar.
        let dir = temp_dir("seq-sidecar");
        let mut db = Db::open(&dir, small_opts()).unwrap();
        db.put(b"a".to_vec(), b"1".to_vec()).unwrap();
        db.put(b"b".to_vec(), b"2".to_vec()).unwrap();
        db.delete(b"b").unwrap();
        db.flush().unwrap();
        db.compact().unwrap();
        let seq = db.sequence();
        drop(db);
        let db = Db::open(&dir, small_opts()).unwrap();
        assert_eq!(db.sequence(), seq, "sequence regressed across recovery");
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_get_delete() {
        let dir = temp_dir("basic");
        let mut db = Db::open(&dir, Options::default()).unwrap();
        db.put(b"a".to_vec(), b"1".to_vec()).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
        db.put(b"a".to_vec(), b"2".to_vec()).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"2".to_vec()));
        db.delete(b"a").unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn survives_flush_and_compaction() {
        let dir = temp_dir("churn");
        let mut db = Db::open(&dir, small_opts()).unwrap();
        for i in 0..500u32 {
            db.put(
                format!("key{:04}", i % 100).into_bytes(),
                format!("val{i}").into_bytes(),
            )
            .unwrap();
        }
        // Every key holds its latest value.
        for k in 0..100u32 {
            let expect = format!("val{}", 400 + k);
            assert_eq!(
                db.get(format!("key{k:04}").as_bytes()).unwrap(),
                Some(expect.into_bytes()),
                "key{k:04}"
            );
        }
        let (_, _, flushes, compactions) = db.stats();
        assert!(flushes > 0, "flushes must have happened");
        assert!(compactions > 0, "compactions must have happened");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deletes_survive_flush() {
        let dir = temp_dir("del");
        let mut db = Db::open(&dir, small_opts()).unwrap();
        db.put(b"gone".to_vec(), b"x".to_vec()).unwrap();
        db.flush().unwrap();
        db.delete(b"gone").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"gone").unwrap(), None);
        // And after compaction removes the tombstone, still gone.
        db.compact().unwrap();
        assert_eq!(db.get(b"gone").unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_from_wal_and_tables() {
        let dir = temp_dir("reopen");
        {
            let mut db = Db::open(&dir, small_opts()).unwrap();
            for i in 0..200u32 {
                db.put(
                    format!("k{i:04}").into_bytes(),
                    format!("v{i}").into_bytes(),
                )
                .unwrap();
            }
            // Some writes remain only in the WAL (no explicit flush).
        }
        let db = Db::open(&dir, small_opts()).unwrap();
        for i in 0..200u32 {
            assert_eq!(
                db.get(format!("k{i:04}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "k{i:04}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let dir = temp_dir("scan");
        let mut db = Db::open(&dir, small_opts()).unwrap();
        for i in (0..100u32).rev() {
            db.put(
                format!("k{i:04}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
        db.delete(b"k0050").unwrap();
        let out = db.scan(Some(b"k0040"), Some(b"k0060")).unwrap();
        let keys: Vec<String> = out
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys.len(), 19, "20 keys in range minus 1 deleted");
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(!keys.contains(&"k0050".to_string()));
        assert_eq!(keys[0], "k0040");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flush_writes_one_entry_per_key() {
        let dir = temp_dir("one-per-key");
        let mut opts = small_opts();
        opts.l0_compaction_trigger = 1_000; // every flush stays its own L0 table
        let mut db = Db::open(&dir, opts).unwrap();
        let key = |i: u32| format!("k{}", i % 10).into_bytes();
        for i in 0..1_000u32 {
            db.put(key(i), format!("v{i:04}").into_bytes()).unwrap();
        }
        // The flush trigger counts every write, replaced or not: 31 bytes a
        // write against 1,024 flushes after every 34th.
        assert_eq!(db.stats(), (29, 0, 29, 0));
        for table in &db.l0 {
            let entries = table.reader.iter_all().unwrap();
            let mut keys: Vec<_> = entries.iter().map(|e| &e.key).collect();
            keys.dedup();
            assert_eq!(table.reader.entry_count(), keys.len() as u64);
            assert_eq!(keys.len(), 10, "34 writes over 10 keys, one entry each");
        }
        let newest = |db: &Db| {
            (990..1_000u32)
                .all(|i| db.get(&key(i)).unwrap() == Some(format!("v{i:04}").into_bytes()))
        };
        assert!(newest(&db));
        drop(db);
        let db = Db::open(&dir, opts).unwrap();
        assert!(newest(&db), "after a reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reads_take_the_newest_of_overlapping_tables() {
        let dir = temp_dir("overlap");
        let mut opts = small_opts();
        opts.l0_compaction_trigger = 100;
        let mut db = Db::open(&dir, opts).unwrap();
        let reads = |db: &Db| {
            let scanned = db.scan(Some(b"a"), Some(b"z")).unwrap();
            (db.get(b"x").unwrap(), db.get(b"y").unwrap(), scanned)
        };
        let pair = |k: &[u8], v: &[u8]| (k.to_vec(), v.to_vec());
        // Each step leaves its writes in a table of its own (or the
        // memtable): L1, then two overlapping L0 tables, then memory.
        db.put(b"x".to_vec(), b"1".to_vec()).unwrap();
        db.put(b"y".to_vec(), b"1".to_vec()).unwrap();
        db.flush().unwrap();
        db.compact().unwrap();
        db.put(b"x".to_vec(), b"2".to_vec()).unwrap();
        db.flush().unwrap();
        db.delete(b"x").unwrap();
        db.put(b"y".to_vec(), b"3".to_vec()).unwrap();
        db.flush().unwrap();
        assert_eq!(db.stats(), (2, 1, 3, 1));
        assert_eq!(
            reads(&db),
            (None, Some(b"3".to_vec()), vec![pair(b"y", b"3")])
        );
        db.put(b"x".to_vec(), b"4".to_vec()).unwrap();
        db.delete(b"y").unwrap();
        assert_eq!(
            reads(&db),
            (Some(b"4".to_vec()), None, vec![pair(b"x", b"4")])
        );
        drop(db);
        let mut db = Db::open(&dir, opts).unwrap();
        assert_eq!(
            reads(&db),
            (Some(b"4".to_vec()), None, vec![pair(b"x", b"4")])
        );
        db.flush().unwrap();
        db.compact().unwrap();
        assert_eq!(
            reads(&db),
            (Some(b"4".to_vec()), None, vec![pair(b"x", b"4")])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn large_values_cross_blocks() {
        let dir = temp_dir("large");
        let mut db = Db::open(&dir, small_opts()).unwrap();
        let big = vec![0xabu8; 10_000];
        db.put(b"big".to_vec(), big.clone()).unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"big").unwrap(), Some(big));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_mid_flush_crash_leaves_reopenable_dir() {
        use grub_fault::{arm, FaultPlan, FaultPoint};
        let dir = temp_dir("midflush");
        {
            let mut db = Db::open(&dir, small_opts()).unwrap();
            db.put(b"a".to_vec(), b"1".to_vec()).unwrap();
            db.put(b"b".to_vec(), b"2".to_vec()).unwrap();
            arm(FaultPlan::at(FaultPoint::MidSstableFlush));
            let err = db.flush().unwrap_err();
            assert!(
                matches!(err, crate::StoreError::Injected(_)),
                "expected injected crash, got {err}"
            );
            // Simulated process death: drop without cleanup.
        }
        // The partial .tmp table is on disk; the WAL still covers the data.
        let has_tmp = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(has_tmp, "crash artifact (.tmp table) expected on disk");
        let mut db = Db::open(&dir, small_opts()).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
        // The sweep removed the leftover and a clean flush now succeeds.
        let has_tmp = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(!has_tmp, "stray .tmp must be swept on open");
        db.flush().unwrap();
        drop(db);
        let db = Db::open(&dir, small_opts()).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `n` key-ascending records of `len` bytes each.
    fn dataset(n: u32, len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| (format!("k{i:06}").into_bytes(), vec![i as u8; len]))
            .collect()
    }

    fn borrowed(records: &[(Vec<u8>, Vec<u8>)]) -> impl Iterator<Item = (Vec<u8>, &[u8])> + Clone {
        records.iter().map(|(k, v)| (k.clone(), v.as_slice()))
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn ingest_sorted_writes_l1_tables_and_nothing_else() {
        let dir = temp_dir("ingest");
        // 5 MiB: three tables at the 2 MiB cut.
        let records = dataset(10_000, 512);
        let mut db = Db::open(&dir, Options::default()).unwrap();
        db.ingest_sorted(borrowed(&records)).unwrap();
        assert_eq!(db.stats(), (0, 3, 0, 0), "pure L1, no flush, no compaction");
        assert_eq!(db.sequence(), 10_000);
        assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
        assert_eq!(db.scan(None, None).unwrap(), records);
        assert_eq!(db.get(b"k004242").unwrap(), Some(vec![4242u32 as u8; 512]));
        assert_eq!(db.get(b"k004242x").unwrap(), None);
        // Later writes shadow the ingested tables like any others.
        db.put(b"k000007".to_vec(), b"new".to_vec()).unwrap();
        db.delete(b"k000008").unwrap();
        drop(db);
        let db = Db::open(&dir, Options::default()).unwrap();
        assert_eq!(db.sequence(), 10_002);
        assert_eq!(db.get(b"k000007").unwrap(), Some(b"new".to_vec()));
        assert_eq!(db.get(b"k000008").unwrap(), None);
        assert_eq!(db.scan(None, None).unwrap().len(), 9_999);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_sorted_matches_put_whatever_it_is_handed() {
        let records = dataset(300, 40);
        let mut swapped = records.clone();
        swapped.swap(120, 121);
        let mut repeated = records.clone();
        repeated.insert(200, (b"k000100".to_vec(), b"again".to_vec()));
        for (name, input) in [
            ("sorted", &records),
            ("swapped", &swapped),
            ("repeated", &repeated),
            ("empty", &Vec::new()),
        ] {
            let put_dir = temp_dir(&format!("ingest-put-{name}"));
            let mut by_put = Db::open(&put_dir, small_opts()).unwrap();
            for (key, value) in input {
                by_put.put(key.clone(), value.clone()).unwrap();
            }
            let expect = by_put.scan(None, None).unwrap();
            // Into a fresh store, and into one that already has history.
            for history in [false, true] {
                let dir = temp_dir(&format!("ingest-{name}-{history}"));
                let mut db = Db::open(&dir, small_opts()).unwrap();
                if history {
                    db.put(b"k000150".to_vec(), b"old".to_vec()).unwrap();
                    db.delete(b"k000150").unwrap();
                }
                db.ingest_sorted(borrowed(input)).unwrap();
                assert_eq!(db.scan(None, None).unwrap(), expect, "{name}/{history}");
                assert_eq!(
                    db.sequence(),
                    input.len() as u64 + 2 * u64::from(history),
                    "{name}/{history}: one sequence number per record"
                );
                drop(db);
                let db = Db::open(&dir, small_opts()).unwrap();
                assert_eq!(db.scan(None, None).unwrap(), expect, "{name}/{history}");
                std::fs::remove_dir_all(&dir).ok();
            }
            std::fs::remove_dir_all(&put_dir).ok();
        }
        // An empty ingest leaves a fresh store fresh: no sidecar, no table.
        let dir = temp_dir("ingest-nothing");
        let mut db = Db::open(&dir, small_opts()).unwrap();
        db.ingest_sorted(std::iter::empty()).unwrap();
        assert_eq!(file_names(&dir), ["wal.log"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_sorted_crash_leaves_a_clean_prefix_of_tables() {
        use grub_fault::{arm, FaultPlan, FaultPoint};
        let records = dataset(10_000, 512); // three tables
        let clean_dir = temp_dir("ingest-clean");
        let mut clean = Db::open(&clean_dir, Options::default()).unwrap();
        clean.ingest_sorted(borrowed(&records)).unwrap();
        for survive in 0..3u32 {
            let dir = temp_dir(&format!("ingest-crash-{survive}"));
            {
                let mut db = Db::open(&dir, Options::default()).unwrap();
                arm(FaultPlan::nth(FaultPoint::MidSstableFlush, survive));
                let err = db.ingest_sorted(borrowed(&records)).unwrap_err();
                assert!(matches!(err, crate::StoreError::Injected(_)), "{err}");
                // Simulated process death: drop without cleanup.
            }
            let mut db = Db::open(&dir, Options::default()).unwrap();
            let names = file_names(&dir);
            assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
            assert!(
                !names.contains(&"SEQ".to_owned()),
                "no sidecar before the last table"
            );
            assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
            assert_eq!(
                db.stats(),
                (0, survive as usize, 0, 0),
                "complete tables only"
            );
            // What survived is a prefix of the dataset, and the sequence
            // covers every record of it.
            let survived = db.scan(None, None).unwrap();
            assert_eq!(survived[..], records[..survived.len()]);
            assert_eq!(db.sequence(), survived.len() as u64);
            assert_eq!(survived.is_empty(), survive == 0);
            // The owner of the data loads it again. The store has history
            // now (unless nothing survived), so this is the put path.
            db.ingest_sorted(borrowed(&records)).unwrap();
            assert!(db.sequence() >= records.len() as u64);
            assert_eq!(
                db.scan(None, None).unwrap(),
                clean.scan(None, None).unwrap(),
                "crash at table {survive}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&clean_dir).ok();
    }

    #[test]
    fn ingest_sorted_retried_on_the_same_handle_takes_the_put_path() {
        use grub_fault::{arm, FaultPlan, FaultPoint};
        let records = dataset(10_000, 512); // three tables
        for survive in 0..3u32 {
            let dir = temp_dir(&format!("ingest-retry-{survive}"));
            let mut db = Db::open(&dir, Options::default()).unwrap();
            arm(FaultPlan::nth(FaultPoint::MidSstableFlush, survive));
            db.ingest_sorted(borrowed(&records)).unwrap_err();
            // An I/O error, not a death: the handle lives on, with the
            // tables it registered counted in its sequence.
            let (_, l1, _, _) = db.stats();
            assert_eq!(l1, survive as usize);
            let held = db.scan(None, None).unwrap();
            assert_eq!(held[..], records[..held.len()]);
            assert_eq!(db.sequence(), held.len() as u64);
            // Retry with new values for every key: nothing ingested before
            // the error may shadow them, now or after a compaction.
            let fresh: Vec<(Vec<u8>, Vec<u8>)> = records
                .iter()
                .map(|(key, _)| (key.clone(), b"second".to_vec()))
                .collect();
            db.ingest_sorted(borrowed(&fresh)).unwrap();
            assert_eq!(db.sequence(), (held.len() + fresh.len()) as u64);
            assert_eq!(db.scan(None, None).unwrap(), fresh, "crash at {survive}");
            db.flush().unwrap();
            db.compact().unwrap();
            assert_eq!(db.scan(None, None).unwrap(), fresh, "crash at {survive}");
            drop(db);
            let db = Db::open(&dir, Options::default()).unwrap();
            assert_eq!(db.scan(None, None).unwrap(), fresh, "crash at {survive}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn miss_on_multi_table_db_reads_zero_blocks() {
        let dir = temp_dir("missfree");
        let mut opts = small_opts();
        opts.l0_compaction_trigger = 100; // keep every flush as its own L0 table
        let mut db = Db::open(&dir, opts).unwrap();
        for t in 0..4u32 {
            for i in 0..20u32 {
                db.put(format!("k{t}-{i:04}").into_bytes(), b"v".to_vec())
                    .unwrap();
            }
            db.flush().unwrap();
        }
        let (l0, _, _, _) = db.stats();
        assert!(l0 >= 4, "test needs several tables, got {l0}");
        let before = db.read_stats();
        // Out of every table's span: the span check alone must answer.
        assert_eq!(db.get(b"zz-absent").unwrap(), None);
        // Inside table 0's span but never written: the bloom must answer.
        assert_eq!(db.get(b"k0-0007x").unwrap(), None);
        let after = db.read_stats();
        assert_eq!(
            after.block_reads, before.block_reads,
            "a miss must perform zero block reads"
        );
        assert!(after.span_skips > before.span_skips);
        assert!(after.bloom_skips > before.bloom_skips);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_and_warm_cache_agree() {
        let dir = temp_dir("cachecold");
        let write = |opts: Options| {
            let mut db = Db::open(&dir, opts).unwrap();
            for i in 0..300u32 {
                db.put(
                    format!("k{:04}", i % 60).into_bytes(),
                    format!("v{i}").into_bytes(),
                )
                .unwrap();
            }
            db.flush().unwrap();
            db
        };
        let mut cold_opts = small_opts();
        cold_opts.block_cache_capacity = 0;
        let db = write(cold_opts);
        let cold: Vec<_> = (0..60u32)
            .map(|k| db.get(format!("k{k:04}").as_bytes()).unwrap())
            .collect();
        assert_eq!(db.read_stats().cache_hits, 0, "disabled cache never hits");
        drop(db);
        std::fs::remove_dir_all(&dir).ok();

        let db = write(small_opts());
        let warm: Vec<_> = (0..60u32)
            .map(|k| db.get(format!("k{k:04}").as_bytes()).unwrap())
            .collect();
        // Second pass over the same keys: answers identical, all from cache.
        let miss_high = db.read_stats().cache_misses;
        let rewarm: Vec<_> = (0..60u32)
            .map(|k| db.get(format!("k{k:04}").as_bytes()).unwrap())
            .collect();
        assert_eq!(cold, warm, "cache must not change results");
        assert_eq!(warm, rewarm);
        let stats = db.read_stats();
        assert_eq!(stats.cache_misses, miss_high, "warm pass misses nothing");
        assert!(stats.cache_hits > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_cache_evicts_but_stays_correct() {
        let dir = temp_dir("cachetiny");
        let mut opts = small_opts();
        opts.block_cache_capacity = 2; // far fewer than the blocks touched
        let mut db = Db::open(&dir, opts).unwrap();
        for i in 0..200u32 {
            db.put(
                format!("k{i:04}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
        db.flush().unwrap();
        for i in 0..200u32 {
            assert_eq!(
                db.get(format!("k{i:04}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weak_bloom_false_positives_do_not_change_results() {
        // One bit per key makes bloom false positives near-certain; every
        // read must still agree with a strong-bloom database.
        let load = |dir: &PathBuf, bits: usize| {
            let mut opts = small_opts();
            opts.bits_per_key = bits;
            let mut db = Db::open(dir, opts).unwrap();
            for i in 0..150u32 {
                db.put(
                    format!("k{i:04}").into_bytes(),
                    format!("v{i}").into_bytes(),
                )
                .unwrap();
            }
            db.delete(b"k0077").unwrap();
            db.flush().unwrap();
            db
        };
        let dir_weak = temp_dir("bloomweak");
        let dir_strong = temp_dir("bloomstrong");
        let weak = load(&dir_weak, 1);
        let strong = load(&dir_strong, 10);
        for i in 0..150u32 {
            for probe in [format!("k{i:04}"), format!("k{i:04}x"), format!("q{i:04}")] {
                assert_eq!(
                    weak.get(probe.as_bytes()).unwrap(),
                    strong.get(probe.as_bytes()).unwrap(),
                    "probe {probe}"
                );
            }
        }
        std::fs::remove_dir_all(&dir_weak).ok();
        std::fs::remove_dir_all(&dir_strong).ok();
    }

    #[test]
    fn scan_seeks_past_leading_blocks() {
        let dir = temp_dir("scanseek");
        let mut db = Db::open(&dir, small_opts()).unwrap();
        for i in 0..400u32 {
            db.put(
                format!("k{i:04}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
        db.flush().unwrap();
        db.compact().unwrap();
        let before = db.read_stats().block_reads;
        let out = db.scan(Some(b"k0390"), None).unwrap();
        assert_eq!(out.len(), 10);
        let tail_reads = db.read_stats().block_reads - before;
        let before = db.read_stats().block_reads;
        let all = db.scan(None, None).unwrap();
        assert_eq!(all.len(), 400);
        let full_reads = db.read_stats().block_reads - before;
        assert!(
            tail_reads < full_reads,
            "tail scan ({tail_reads} reads) must seek past blocks a full scan \
             ({full_reads} reads) touches"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_db_behaves() {
        let dir = temp_dir("empty");
        let mut db = Db::open(&dir, Options::default()).unwrap();
        assert_eq!(db.get(b"nothing").unwrap(), None);
        assert!(db.scan(None, None).unwrap().is_empty());
        db.flush().unwrap(); // no-op
        db.compact().unwrap(); // no-op
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tiny_key(i: u32) -> Vec<u8> {
        format!("k{i:04}").into_bytes()
    }

    /// Options for one L0 table of fifty `k{i:04}` → `v` entries, three to
    /// a 64-byte block (keys `3b..3b+2` in block `b`), read without a cache.
    fn tiny_opts() -> Options {
        Options {
            block_bytes: 64,
            block_cache_capacity: 0,
            ..Options::default()
        }
    }

    /// Writes the [`tiny_opts`] table under `dir` and returns its path.
    fn tiny_db(dir: &Path) -> PathBuf {
        let mut db = Db::open(dir, tiny_opts()).unwrap();
        for i in 0..50 {
            db.put(tiny_key(i), b"v".to_vec()).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.stats(), (1, 0, 1, 0));
        dir.join("000001-l0.sst")
    }

    fn is_corrupt<T>(result: &Result<T>) -> bool {
        matches!(result, Err(crate::StoreError::Corrupt(_)))
    }

    #[test]
    fn hostile_blocks_surface_as_corrupt_through_get_and_scan() {
        use crate::sstable::tests::{damage_block, Damage};
        for damage in Damage::ALL {
            let dir = temp_dir(&format!("hostile-{damage:?}"));
            let table = tiny_db(&dir);
            // Block 1 holds k0003..k0005; every shape damages the entry
            // after k0003 or k0005 itself.
            damage_block(&table, 1, damage);
            let db = Db::open(&dir, tiny_opts()).unwrap();
            assert!(is_corrupt(&db.get(&tiny_key(5))), "{damage:?}");
            assert!(is_corrupt(&db.scan(None, None)), "{damage:?}");
            assert!(is_corrupt(&db.scan(Some(&tiny_key(4)), None)), "{damage:?}");
            // Blocks on either side still read.
            assert_eq!(db.get(&tiny_key(2)).unwrap(), Some(b"v".to_vec()));
            assert_eq!(db.get(&tiny_key(6)).unwrap(), Some(b"v".to_vec()));
            assert_eq!(db.scan(Some(&tiny_key(6)), None).unwrap().len(), 44);
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn every_byte_flip_in_a_block_reads_corrupt_or_right() {
        use std::os::unix::fs::FileExt;
        let dir = temp_dir("flip-sweep");
        let table = tiny_db(&dir);
        // Opened before the damage, with no cache: every read below goes
        // to the file as it is at that moment.
        let db = Db::open(&dir, tiny_opts()).unwrap();
        let clean = std::fs::read(&table).unwrap();
        let frame_len = 8 + u32::from_le_bytes(clean[0..4].try_into().unwrap()) as usize;
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&table)
            .unwrap();
        for i in 0..frame_len {
            file.write_all_at(&[clean[i] ^ 0xFF], i as u64).unwrap();
            let mut corrupt = 0;
            for k in 0..50 {
                let got = db.get(&tiny_key(k));
                if is_corrupt(&got) {
                    corrupt += 1;
                } else {
                    assert_eq!(got.unwrap(), Some(b"v".to_vec()), "byte {i}, key {k}");
                }
            }
            assert_eq!(corrupt, 3, "byte {i}: exactly block 0's keys fail");
            assert!(is_corrupt(&db.scan(None, None)), "byte {i}");
            assert!(
                is_corrupt(&SsTableReader::open(&table)),
                "byte {i}: the open must fail"
            );
            file.write_all_at(&clean[i..=i], i as u64).unwrap();
        }
        assert_eq!(db.scan(None, None).unwrap().len(), 50);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
