//! The on-disk format of the durable [`QueryStore`](crate::QueryStore): an
//! append-only record log plus compacted snapshots.
//!
//! The paper's frontend memoizes answers in LevelDB (§4.2) so month-long
//! hardware campaigns survive restarts.  This module is the std-only
//! equivalent — two files inside the store directory:
//!
//! * **`store.log`** — an append-only sequence of framed records.  Each
//!   record is `[u32 LE payload length][u32 LE FNV-1a checksum][payload]`;
//!   the payload is one line of the store's tab-separated export format
//!   (`namespace \t pattern \t rendered query`).  Records are appended by
//!   one writer thread as queries are recorded, so a crash loses the
//!   unsynced tail — and the appends the writer dropped since the last
//!   snapshot (see [`QueryStore::flush`](crate::QueryStore::flush)).
//! * **`store.snap`** — a compacted snapshot: the full plain-text
//!   [`export`](crate::QueryStore::export) of the store, written atomically
//!   (temp file + fsync + rename) whenever the log grows past the
//!   compaction threshold and on graceful shutdown.  After a snapshot the
//!   log is truncated to zero.
//!
//! Startup replays **snapshot first, then log**: the snapshot holds
//! everything compacted so far, the log holds everything since.  Because
//! re-recording an already-stored answer is a no-op (tries are
//! prefix-consistent), records that ended up in both files are harmless.
//!
//! Recovery is prefix-honest: [`decode_log`] walks records in order and
//! stops at the first frame that is short, oversized, fails its checksum or
//! is not UTF-8 — everything before the cut is recovered, nothing after a
//! corruption is trusted, and the caller truncates the log back to the last
//! valid boundary so the next append starts clean.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File name of the append-only record log inside a store directory.
pub const LOG_FILE: &str = "store.log";

/// File name of the compacted snapshot inside a store directory.
pub const SNAP_FILE: &str = "store.snap";

/// Scratch name the snapshot is written under before the atomic rename.
const SNAP_TMP: &str = "store.snap.tmp";

/// Upper bound on one record's payload, in bytes.  A length prefix above
/// this is treated as corruption (a truncated header read as garbage), not
/// as a gigantic record.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// 32-bit FNV-1a over the payload — cheap, dependency-free, and plenty to
/// catch torn writes and bit rot in a length-prefixed log.
pub fn checksum(payload: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &byte in payload {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Frames one payload as a log record: `[len][checksum][payload]`.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&checksum(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes a log image into its valid record payloads.
///
/// Returns `(payloads, valid_end)` where `valid_end` is the byte offset just
/// past the last intact record: the prefix `bytes[..valid_end]` is exactly
/// the recoverable part of the log, and the caller should truncate the file
/// to it before appending again.  Decoding stops — never panics — at the
/// first truncated header, truncated payload, oversized length, checksum
/// mismatch or non-UTF-8 payload.
pub fn decode_log(bytes: &[u8]) -> (Vec<String>, usize) {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let sum = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN {
            break;
        }
        let len = len as usize;
        if rest.len() < 8 + len {
            break;
        }
        let payload = &rest[8..8 + len];
        if checksum(payload) != sum {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        payloads.push(text.to_string());
        offset += 8 + len;
    }
    (payloads, offset)
}

/// Path of the record log inside `dir`.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join(LOG_FILE)
}

/// Path of the compacted snapshot inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAP_FILE)
}

/// Reads and decodes the record log of `dir`.
///
/// Returns the recovered payloads and the valid byte length (see
/// [`decode_log`]); a missing log reads as empty.
///
/// # Errors
///
/// Propagates I/O errors other than the log not existing.
pub fn read_log(dir: &Path) -> io::Result<(Vec<String>, u64)> {
    let bytes = match fs::read(log_path(dir)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let (payloads, valid_end) = decode_log(&bytes);
    Ok((payloads, valid_end as u64))
}

/// Truncates the record log of `dir` to `len` bytes — discarding the
/// unrecoverable tail after a crash so the next append starts at a record
/// boundary.  A missing log is fine when `len` is zero.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn truncate_log(dir: &Path, len: u64) -> io::Result<()> {
    match OpenOptions::new().write(true).open(log_path(dir)) {
        Ok(file) => {
            file.set_len(len)?;
            file.sync_data()
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound && len == 0 => Ok(()),
        Err(e) => Err(e),
    }
}

/// Opens (creating if needed) the record log of `dir` for appending.
///
/// # Errors
///
/// Propagates I/O errors (including a non-creatable directory).
pub fn open_log_for_append(dir: &Path) -> io::Result<File> {
    fs::create_dir_all(dir)?;
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(log_path(dir))
}

/// Reads the compacted snapshot of `dir`, `None` when there is none yet.
///
/// # Errors
///
/// Propagates I/O errors other than the snapshot not existing.
pub fn read_snapshot(dir: &Path) -> io::Result<Option<String>> {
    match fs::read_to_string(snapshot_path(dir)) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Writes `text` as the compacted snapshot of `dir`, atomically: the bytes
/// go to a temp file, are fsynced, and replace the previous snapshot in one
/// rename, so a crash mid-snapshot leaves the old snapshot intact.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_snapshot(dir: &Path, text: &str) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(SNAP_TMP);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_data()?;
    }
    fs::rename(&tmp, snapshot_path(dir))?;
    // Make the rename itself durable where the platform allows syncing a
    // directory handle; failure here only risks replaying the previous
    // snapshot plus the log, which is still a consistent state.
    if let Ok(dir_handle) = File::open(dir) {
        let _ = dir_handle.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_the_frame() {
        let lines = ["ns\tHM\tA B? C?", "other ns\tH\tX?"];
        let mut log = Vec::new();
        for line in lines {
            log.extend_from_slice(&encode_record(line.as_bytes()));
        }
        let (decoded, valid_end) = decode_log(&log);
        assert_eq!(decoded, lines);
        assert_eq!(valid_end, log.len());
    }

    #[test]
    fn truncated_tails_are_dropped_not_misread() {
        let first = encode_record(b"ns\tH\tA?");
        let second = encode_record(b"ns\tM\tB?");
        let mut log = first.clone();
        log.extend_from_slice(&second);
        // Cut anywhere strictly inside the second record: only the first
        // survives, and the valid prefix ends exactly at its boundary.
        for cut in first.len()..log.len() {
            let (decoded, valid_end) = decode_log(&log[..cut]);
            assert_eq!(decoded.len(), 1, "cut at {cut}");
            assert_eq!(valid_end, first.len(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_payloads_fail_the_checksum() {
        let mut log = encode_record(b"ns\tH\tA?");
        let last = log.len() - 1;
        log[last] ^= 0x01;
        let (decoded, valid_end) = decode_log(&log);
        assert!(decoded.is_empty());
        assert_eq!(valid_end, 0);
    }

    #[test]
    fn oversized_length_prefixes_are_treated_as_corruption() {
        let mut log = Vec::new();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 100]);
        let (decoded, valid_end) = decode_log(&log);
        assert!(decoded.is_empty());
        assert_eq!(valid_end, 0);
    }

    #[test]
    fn snapshot_write_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!(
            "cq_persist_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(read_snapshot(&dir).unwrap(), None);
        write_snapshot(&dir, "ns\tH\tA?\n").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().as_deref(), Some("ns\tH\tA?\n"));
        write_snapshot(&dir, "ns\tM\tB?\n").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().as_deref(), Some("ns\tM\tB?\n"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_files_survive_the_read_truncate_append_cycle() {
        let dir = std::env::temp_dir().join(format!(
            "cq_persist_log_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(read_log(&dir).unwrap(), (Vec::new(), 0));
        truncate_log(&dir, 0).unwrap();

        let mut log = open_log_for_append(&dir).unwrap();
        log.write_all(&encode_record(b"ns\tH\tA?")).unwrap();
        log.write_all(&encode_record(b"ns\tM\tB?")).unwrap();
        // A torn third record…
        log.write_all(&encode_record(b"ns\tM\tC?")[..5]).unwrap();
        log.sync_data().unwrap();
        drop(log);

        let (records, valid) = read_log(&dir).unwrap();
        assert_eq!(records, vec!["ns\tH\tA?", "ns\tM\tB?"]);
        truncate_log(&dir, valid).unwrap();

        // …is healed by the truncate: the next append continues cleanly.
        let mut log = open_log_for_append(&dir).unwrap();
        log.write_all(&encode_record(b"ns\tM\tC?")).unwrap();
        drop(log);
        let (records, _) = read_log(&dir).unwrap();
        assert_eq!(records, vec!["ns\tH\tA?", "ns\tM\tB?", "ns\tM\tC?"]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
