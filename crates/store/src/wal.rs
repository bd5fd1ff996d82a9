//! The write-ahead log: CRC-framed records, replayed on open.
//!
//! Record framing follows LevelDB's spirit (length + checksum + payload);
//! a torn tail (partial write at crash) is detected by CRC/length mismatch
//! and the log is truncated there, recovering every fully-written record.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use grub_fault::{should_trip, FaultPoint};

use crate::crc::crc32;
use crate::{Result, StoreError};

/// One logical WAL record: a put or delete with its sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number of the write.
    pub seq: u64,
    /// User key.
    pub key: Vec<u8>,
    /// Value, or `None` for a delete tombstone.
    pub value: Option<Vec<u8>>,
}

impl WalRecord {
    fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            if *pos + n > payload.len() {
                return None;
            }
            let out = &payload[*pos..*pos + n];
            *pos += n;
            Some(out)
        };
        let seq = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let has_value = take(&mut pos, 1)?[0] != 0;
        let klen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let key = take(&mut pos, klen)?.to_vec();
        let value = if has_value {
            let vlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            Some(take(&mut pos, vlen)?.to_vec())
        } else {
            None
        };
        (pos == payload.len()).then_some(WalRecord { seq, key, value })
    }
}

/// Bytes of a frame's header: the payload length, then its CRC-32.
const FRAME_HEADER: usize = 8;

/// An append-only write-ahead log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// The frame being appended, reused so an append allocates nothing once
    /// it has grown to the largest record.
    frame: Vec<u8>,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending.
    ///
    /// # Errors
    ///
    /// Any filesystem error opening the file.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Wal {
            path,
            file,
            frame: Vec::new(),
        })
    }

    /// Appends the record `(seq, key, value)` — `None` is a delete
    /// tombstone — buffered by the OS; see [`Wal::sync`].
    ///
    /// The payload is encoded straight into the frame behind a reserved
    /// header, whose length and CRC are filled in over the payload slice:
    /// the bytes are [`WalRecord`]'s framing, with no copy of the key or
    /// value beyond the frame itself.
    ///
    /// # Errors
    ///
    /// Any filesystem error writing the frame.
    pub fn append(&mut self, seq: u64, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0; FRAME_HEADER]);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.push(value.is_some() as u8);
        frame.extend_from_slice(&(key.len() as u32).to_le_bytes());
        frame.extend_from_slice(key);
        if let Some(v) = value {
            frame.extend_from_slice(&(v.len() as u32).to_le_bytes());
            frame.extend_from_slice(v);
        }
        let (header, payload) = frame.split_at_mut(FRAME_HEADER);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        let frame = &self.frame;
        if should_trip(FaultPoint::MidWalAppend) {
            // Simulated crash mid-append: the torn half of the frame reaches
            // the log (exactly what a power cut during write_all leaves),
            // then the process "dies" via the injected error.
            self.file.write_all(&frame[..frame.len() / 2])?;
            self.file.sync_data().ok();
            return Err(StoreError::Injected("mid-wal-append"));
        }
        self.file.write_all(frame)?;
        Ok(())
    }

    /// Forces the log to stable storage.
    ///
    /// # Errors
    ///
    /// Any filesystem error from `fsync`.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Truncates the log (after a successful memtable flush).
    ///
    /// # Errors
    ///
    /// Any filesystem error reopening the file.
    pub fn reset(&mut self) -> Result<()> {
        self.file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        Ok(())
    }

    /// Reads every intact record from a log file, stopping (without error)
    /// at the first torn or corrupt frame — LevelDB's recovery contract —
    /// and **truncating the log there**. The truncation is what makes
    /// recovery durable: the log stays in append mode after replay, so
    /// garbage left beyond the last intact frame would otherwise sit between
    /// the valid prefix and every post-recovery append, silently losing
    /// those appends at the *next* replay.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures; corruption truncates instead.
    pub fn replay(path: &Path) -> Result<Vec<WalRecord>> {
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::Io(e)),
        }
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos + 8 <= data.len() {
            #[expect(
                clippy::expect_used,
                reason = "the loop condition guarantees 8 bytes remain at `pos`"
            )]
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            #[expect(
                clippy::expect_used,
                reason = "the loop condition guarantees 8 bytes remain at `pos`"
            )]
            let expect_crc =
                u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
            if pos + 8 + len > data.len() {
                break; // torn tail
            }
            let payload = &data[pos + 8..pos + 8 + len];
            if crc32(payload) != expect_crc {
                break; // corrupt frame: stop recovery here
            }
            match WalRecord::decode(payload) {
                Some(rec) => out.push(rec),
                None => break,
            }
            pos += 8 + len;
        }
        if pos < data.len() {
            // Cut the torn/corrupt tail so subsequent appends land directly
            // after the recovered prefix.
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(pos as u64)?;
            f.sync_data()?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WalRecord {
        /// The record's frame payload, built the plain way: the oracle
        /// [`Wal::append`]'s in-place encoding is tested against.
        fn encode(&self) -> Vec<u8> {
            let mut payload = Vec::with_capacity(
                8 + 1 + 4 + self.key.len() + 4 + self.value.as_ref().map(|v| v.len()).unwrap_or(0),
            );
            payload.extend_from_slice(&self.seq.to_le_bytes());
            payload.push(self.value.is_some() as u8);
            payload.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
            payload.extend_from_slice(&self.key);
            if let Some(v) = &self.value {
                payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
                payload.extend_from_slice(v);
            }
            payload
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("grub-wal-{}-{name}.log", std::process::id()))
    }

    fn rec(seq: u64, key: &str, value: Option<&str>) -> WalRecord {
        WalRecord {
            seq,
            key: key.as_bytes().to_vec(),
            value: value.map(|v| v.as_bytes().to_vec()),
        }
    }

    fn append(wal: &mut Wal, record: &WalRecord) -> Result<()> {
        wal.append(record.seq, &record.key, record.value.as_deref())
    }

    #[test]
    fn in_place_frames_match_the_record_encoding() {
        let path = temp_path("frames");
        std::fs::remove_file(&path).ok();
        let records = [
            rec(1, "eth-usd", Some("150")),
            rec(2, "eth-usd", None),
            rec(3, "", Some("")),
            rec(u64::MAX, "k", Some(&"v".repeat(300))),
            rec(5, &"k".repeat(70), None),
        ];
        let mut want = Vec::new();
        let mut wal = Wal::open(&path).unwrap();
        for record in &records {
            append(&mut wal, record).unwrap();
            let payload = record.encode();
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            want.extend_from_slice(&crc32(&payload).to_le_bytes());
            want.extend_from_slice(&payload);
        }
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), want);
        assert_eq!(Wal::replay(&path).unwrap(), records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_and_replay() {
        let path = temp_path("basic");
        std::fs::remove_file(&path).ok();
        {
            let mut wal = Wal::open(&path).unwrap();
            append(&mut wal, &rec(1, "a", Some("1"))).unwrap();
            append(&mut wal, &rec(2, "b", None)).unwrap();
            wal.sync().unwrap();
        }
        let records = Wal::replay(&path).unwrap();
        assert_eq!(records, vec![rec(1, "a", Some("1")), rec(2, "b", None)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let path = temp_path("missing");
        std::fs::remove_file(&path).ok();
        assert!(Wal::replay(&path).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = temp_path("torn");
        std::fs::remove_file(&path).ok();
        {
            let mut wal = Wal::open(&path).unwrap();
            append(&mut wal, &rec(1, "a", Some("1"))).unwrap();
            append(&mut wal, &rec(2, "b", Some("2"))).unwrap();
            wal.sync().unwrap();
        }
        // Chop a few bytes off the end, simulating a crash mid-write.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let records = Wal::replay(&path).unwrap();
        assert_eq!(records, vec![rec(1, "a", Some("1"))]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_frame_stops_recovery() {
        let path = temp_path("corrupt");
        std::fs::remove_file(&path).ok();
        {
            let mut wal = Wal::open(&path).unwrap();
            append(&mut wal, &rec(1, "a", Some("1"))).unwrap();
            append(&mut wal, &rec(2, "b", Some("2"))).unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        // Flip a byte inside the *first* record's payload.
        let idx = 10;
        data[idx] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(Wal::replay(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_with_stale_bytes_is_truncated_durably() {
        // The crash shape that used to lose data: the final record is only
        // half-written AND stale bytes from an earlier, longer log
        // generation sit beyond it. Replay must stop at the intact prefix,
        // truncate the file there, and post-recovery appends must land
        // directly after the prefix — visible to the *next* replay.
        let path = temp_path("torn-stale");
        std::fs::remove_file(&path).ok();
        {
            let mut wal = Wal::open(&path).unwrap();
            append(&mut wal, &rec(1, "a", Some("1"))).unwrap();
            append(&mut wal, &rec(2, "b", Some("2"))).unwrap();
            wal.sync().unwrap();
        }
        let data = std::fs::read(&path).unwrap();
        // Keep record 1 intact plus the first half of record 2's frame, then
        // splice in stale garbage that a previous generation left behind.
        let record_len = data.len() / 2;
        let mut torn = data[..record_len + record_len / 2].to_vec();
        torn.extend_from_slice(&[0xAA; 37]);
        std::fs::write(&path, &torn).unwrap();

        let records = Wal::replay(&path).unwrap();
        assert_eq!(records, vec![rec(1, "a", Some("1"))]);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            record_len as u64,
            "replay must truncate the torn tail, not just skip it"
        );

        // Post-recovery appends go right after the prefix and survive the
        // next replay (the bug: they used to land after the garbage and be
        // unreachable forever).
        let mut wal = Wal::open(&path).unwrap();
        append(&mut wal, &rec(2, "c", Some("3"))).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let records = Wal::replay(&path).unwrap();
        assert_eq!(
            records,
            vec![rec(1, "a", Some("1")), rec(2, "c", Some("3"))]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_mid_append_crash_leaves_recoverable_log() {
        let path = temp_path("fault-append");
        std::fs::remove_file(&path).ok();
        let mut wal = Wal::open(&path).unwrap();
        append(&mut wal, &rec(1, "a", Some("1"))).unwrap();
        grub_fault::arm(grub_fault::FaultPlan::at(FaultPoint::MidWalAppend));
        let err = append(&mut wal, &rec(2, "b", Some("2"))).unwrap_err();
        assert!(matches!(err, StoreError::Injected(_)), "typed crash error");
        drop(wal);
        // The torn half-frame is on disk; recovery keeps the intact prefix.
        let records = Wal::replay(&path).unwrap();
        assert_eq!(records, vec![rec(1, "a", Some("1"))]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_truncates() {
        let path = temp_path("reset");
        std::fs::remove_file(&path).ok();
        let mut wal = Wal::open(&path).unwrap();
        append(&mut wal, &rec(1, "a", Some("1"))).unwrap();
        wal.reset().unwrap();
        assert!(Wal::replay(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_key_and_value_round_trip() {
        let path = temp_path("empty");
        std::fs::remove_file(&path).ok();
        let mut wal = Wal::open(&path).unwrap();
        append(&mut wal, &rec(1, "", Some(""))).unwrap();
        drop(wal);
        let records = Wal::replay(&path).unwrap();
        assert_eq!(records[0].key, b"");
        assert_eq!(records[0].value, Some(Vec::new()));
        std::fs::remove_file(&path).ok();
    }
}
