//! The segmented write-ahead log: append path, segment rolling, and the
//! torn-tail-truncating replay scan, which streams every frame through one
//! decode-and-sink pass on the calling thread.
//!
//! Segments are named `wal-NNNNNNNN.seg` (zero-padded decimal, ascending;
//! the log is their concatenation in name order). Each segment starts with a
//! 16-byte header — magic `BDWALv1\n` then the space digest (`u64` LE) — and
//! continues with frames (see [`crate::frame`]). A segment rolls when the
//! next frame would push it past the configured byte size, so every frame
//! lives wholly inside one segment and a torn write can only damage the tail
//! of the *last* segment.

use crate::frame::{append_frame, next_frame, read_u64_at, NextFrame};
use crate::{u64_of, PersistError, WAL_MAGIC, WAL_HEADER_BYTES};
use bugdoc_core::RunRef;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Name of segment `index`.
pub(crate) fn segment_name(index: u64) -> String {
    format!("wal-{index:08}.seg")
}

/// Parses a segment file name back to its index.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Segment indices present in `dir`, ascending.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<u64>, PersistError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| PersistError::io(dir, e))? {
        let entry = entry.map_err(|e| PersistError::io(dir, e))?;
        if let Some(idx) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push(idx);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Flushes `dir`'s directory entries to disk, so a segment created there
/// survives power loss along with the frames later synced into it.
fn fsync_dir(dir: &Path) -> Result<(), PersistError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| PersistError::io(dir, e))
}

fn segment_header(digest: u64) -> [u8; WAL_HEADER_BYTES] {
    let mut h = [0u8; WAL_HEADER_BYTES];
    let (magic, dig) = h.split_at_mut(WAL_MAGIC.len());
    magic.copy_from_slice(WAL_MAGIC);
    dig.copy_from_slice(&digest.to_le_bytes());
    h
}

/// A byte position in the log: `(segment index, offset within segment)`.
/// Offsets always point at a frame boundary (or the header end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalPosition {
    /// Segment index (`wal-NNNNNNNN.seg`).
    pub segment: u64,
    /// Byte offset within the segment.
    pub offset: u64,
}

/// The append half of the log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    digest: u64,
    segment_bytes: u64,
    seg_index: u64,
    seg_len: u64,
    file: File,
    /// Segments rolled past since the last sync, by index: [`Wal::sync`]
    /// flushes them before the tail, so a sync covers the whole log while
    /// a roll (inside an append) never waits on the disk.
    unsynced: Vec<(u64, File)>,
    /// Reusable frame-encoding scratch.
    buf: Vec<u8>,
}

impl Wal {
    /// Opens the log for appending at its current tail (creating the first
    /// segment if none exists). Call only after [`replay`] has truncated any
    /// torn tail — this positions at raw end-of-file.
    pub fn open(dir: &Path, digest: u64, segment_bytes: u64) -> Result<Wal, PersistError> {
        let segments = list_segments(dir)?;
        let (seg_index, create) = match segments.last() {
            Some(&last) => (last, false),
            None => (1, true),
        };
        let path = dir.join(segment_name(seg_index));
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        let mut seg_len = file
            .metadata()
            .map_err(|e| PersistError::io(&path, e))?
            .len();
        if create || seg_len == 0 {
            file.write_all(&segment_header(digest))
                .map_err(|e| PersistError::io(&path, e))?;
            seg_len = u64_of(WAL_HEADER_BYTES);
            fsync_dir(dir)?;
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            digest,
            segment_bytes: segment_bytes.max(u64_of(WAL_HEADER_BYTES) + 1),
            seg_index,
            seg_len,
            file,
            unsynced: Vec::new(),
            buf: Vec::new(),
        })
    }

    /// The position the *next* appended frame will start at.
    pub fn position(&self) -> WalPosition {
        WalPosition {
            segment: self.seg_index,
            offset: self.seg_len,
        }
    }

    /// Appends one run's record as a checksummed frame, rolling to a fresh
    /// segment first when the current one is at its byte size.
    pub fn append(&mut self, run: RunRef<'_>) -> Result<(), PersistError> {
        self.buf.clear();
        append_frame(run, &mut self.buf)?;
        if self.seg_len > u64_of(WAL_HEADER_BYTES)
            && self.seg_len + u64_of(self.buf.len()) > self.segment_bytes
        {
            self.roll()?;
        }
        // The segment's path is built only to report a failed write.
        self.file
            .write_all(&self.buf)
            .map_err(|e| PersistError::io(&self.dir.join(segment_name(self.seg_index)), e))?;
        self.seg_len += u64_of(self.buf.len());
        Ok(())
    }

    /// Flushes buffered OS state to disk (`fsync`): the segments rolled
    /// past since the last sync, then the tail. Called every `sync_every`
    /// appends and at close; per-append fsync would dominate the append
    /// cost.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        for (index, file) in &self.unsynced {
            let path = self.dir.join(segment_name(*index));
            file.sync_data().map_err(|e| PersistError::io(&path, e))?;
        }
        self.unsynced.clear();
        let path = self.dir.join(segment_name(self.seg_index));
        self.file.sync_data().map_err(|e| PersistError::io(&path, e))
    }

    fn roll(&mut self) -> Result<(), PersistError> {
        self.seg_index += 1;
        let path = self.dir.join(segment_name(self.seg_index));
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        file.write_all(&segment_header(self.digest))
            .map_err(|e| PersistError::io(&path, e))?;
        // Make the new directory entry durable: segment names must never
        // survive out of order, or recovery would see a gap.
        fsync_dir(&self.dir)?;
        let finished = std::mem::replace(&mut self.file, file);
        self.unsynced.push((self.seg_index - 1, finished));
        self.seg_len = u64_of(WAL_HEADER_BYTES);
        Ok(())
    }
}

/// Scans one segment's frames, from its header end, in one streaming pass:
/// each frame is checksummed, decoded into the reused `key` buffer, and
/// handed to `sink` before the next is read, with no staging. Returns
/// `(accepted frames, stop offset)` — `None` for a clean end of segment,
/// `Some(offset)` for the first bad byte: a torn or undecodable frame, or
/// one the sink rejected (truncated alike).
fn scan_segment(
    bytes: &[u8],
    key: &mut Vec<u32>,
    sink: &mut impl FnMut(RunRef<'_>) -> bool,
) -> (usize, Option<usize>) {
    let mut frames = 0;
    let mut offset = WAL_HEADER_BYTES;
    loop {
        match next_frame(bytes, offset, key) {
            NextFrame::End => return (frames, None),
            NextFrame::Frame(eval, next) => {
                if !sink(RunRef { key, eval }) {
                    return (frames, Some(offset));
                }
                frames += 1;
                offset = next;
            }
            NextFrame::Torn => return (frames, Some(offset)),
        }
    }
}

/// What a [`replay`] scan found.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    /// Checksum-valid frames yielded.
    pub frames: usize,
    /// Bytes discarded as a torn tail (including any whole later segments).
    pub truncated_bytes: u64,
}

/// Replays the whole log, segment 1 onward, calling `sink` for each valid
/// frame in order. On the first torn or undecodable frame the scan stops,
/// **truncates** the damaged segment at the last valid frame boundary, and
/// deletes every later segment — so a reopened log is always an exact
/// prefix of what was appended.
///
/// Each run reaches `sink` borrowed: its key lives in one buffer that every
/// frame's decode reuses, so a sink that keeps a run copies what it needs.
/// `sink` may reject a record (returning `false`) to signal that the frame
/// is semantically invalid for the space (e.g. a dense key that no longer
/// fits); the scan treats that exactly like a torn frame.
pub fn replay(
    dir: &Path,
    digest: u64,
    mut sink: impl FnMut(RunRef<'_>) -> bool,
) -> Result<ReplaySummary, PersistError> {
    let mut summary = ReplaySummary::default();
    let mut key = Vec::new();
    let segments = list_segments(dir)?;
    let mut torn_at: Option<(usize, u64)> = None; // (position in `segments`, offset)
    for (si, &idx) in segments.iter().enumerate() {
        // Segment indices must run 1, 2, 3, … without a gap. A missing
        // segment means the directory lost history *in the middle* (or its
        // start) — concatenating across the hole would fabricate a log that
        // never existed, so it is a hard error, never a silent skip.
        let expected = u64_of(si) + 1;
        if idx != expected {
            return Err(PersistError::MissingSegment {
                expected,
                found: idx,
                dir: dir.to_path_buf(),
            });
        }
        let path = dir.join(segment_name(idx));
        let bytes = std::fs::read(&path).map_err(|e| PersistError::io(&path, e))?;
        // Header check: a short or mangled header reads as a torn segment
        // (crash during creation); a *valid* header with a different digest
        // is a spec mismatch and aborts recovery without destroying data.
        let header_digest = if bytes.starts_with(WAL_MAGIC) {
            read_u64_at(&bytes, WAL_MAGIC.len()).filter(|_| bytes.len() >= WAL_HEADER_BYTES)
        } else {
            None
        };
        let Some(found) = header_digest else {
            torn_at = Some((si, 0));
            break;
        };
        if found != digest {
            return Err(PersistError::SpaceMismatch {
                expected: digest,
                found,
                path,
            });
        }
        let (frames, stop) = scan_segment(&bytes, &mut key, &mut sink);
        summary.frames += frames;
        if let Some(stop) = stop {
            torn_at = Some((si, u64_of(stop)));
            break;
        }
    }
    if let Some((si, offset)) = torn_at {
        // Truncate the damaged segment to its last valid frame boundary
        // (drop it wholesale when even its header is bad) and drop every
        // later segment wholesale.
        for (pos, &idx) in segments.iter().enumerate().skip(si) {
            let path = dir.join(segment_name(idx));
            let len = std::fs::metadata(&path)
                .map_err(|e| PersistError::io(&path, e))?
                .len();
            let keep = if pos == si { offset } else { 0 };
            summary.truncated_bytes += len.saturating_sub(keep);
            if keep == 0 {
                std::fs::remove_file(&path).map_err(|e| PersistError::io(&path, e))?;
            } else {
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| PersistError::io(&path, e))?;
                file.set_len(keep).map_err(|e| PersistError::io(&path, e))?;
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{EvalResult, Outcome};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bugdoc-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Record `i`, owned: its key and evaluation.
    type Record = (Vec<u32>, EvalResult);

    fn record(i: u32) -> Record {
        let outcome = if i.is_multiple_of(3) { Outcome::Fail } else { Outcome::Succeed };
        let eval = EvalResult {
            outcome,
            score: Some(i as f64 / 10.0),
        };
        (vec![i, i + 1], eval)
    }

    fn append(wal: &mut Wal, (key, eval): &Record) {
        wal.append(RunRef { key, eval: *eval }).unwrap();
    }

    fn replay_all(dir: &Path, digest: u64) -> (Vec<Record>, ReplaySummary) {
        let mut got = Vec::new();
        let summary = replay(dir, digest, |r| {
            got.push((r.key.to_vec(), r.eval));
            true
        })
        .unwrap();
        (got, summary)
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmp("roundtrip");
        let mut wal = Wal::open(&dir, 42, 1 << 20).unwrap();
        let records: Vec<Record> = (0..100).map(record).collect();
        for r in &records {
            append(&mut wal, r);
        }
        drop(wal);
        let (got, summary) = replay_all(&dir, 42);
        assert_eq!(got, records);
        assert_eq!(summary.frames, 100);
        assert_eq!(summary.truncated_bytes, 0);
    }

    #[test]
    fn segments_roll_and_concatenate() {
        let dir = tmp("roll");
        // Tiny segments: every few frames roll a new file.
        let mut wal = Wal::open(&dir, 7, 128).unwrap();
        let records: Vec<Record> = (0..64).map(record).collect();
        for r in &records {
            append(&mut wal, r);
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 4, "expected many segments, got {segments:?}");
        assert_eq!(segments[0], 1);
        drop(wal);
        let (got, _) = replay_all(&dir, 7);
        assert_eq!(got, records);
        // Reopen appends to the tail, not a fresh segment 1.
        let mut wal = Wal::open(&dir, 7, 128).unwrap();
        assert_eq!(wal.position().segment, *segments.last().unwrap());
        append(&mut wal, &record(64));
        drop(wal);
        let (got, _) = replay_all(&dir, 7);
        assert_eq!(got.len(), 65);
    }

    #[test]
    fn torn_tail_is_truncated_exactly_once() {
        let dir = tmp("torn");
        let mut wal = Wal::open(&dir, 9, 1 << 20).unwrap();
        for i in 0..10 {
            append(&mut wal, &record(i));
        }
        drop(wal);
        // Chop 3 bytes off the single segment: the last frame is torn.
        let path = dir.join(segment_name(1));
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (got, summary) = replay_all(&dir, 9);
        assert_eq!(got.len(), 9);
        assert!(summary.truncated_bytes > 0);
        // The file was truncated at the boundary: a second replay is clean.
        let (again, summary) = replay_all(&dir, 9);
        assert_eq!(again.len(), 9);
        assert_eq!(summary.truncated_bytes, 0);
        // And appending after recovery resumes at the boundary.
        let mut wal = Wal::open(&dir, 9, 1 << 20).unwrap();
        append(&mut wal, &record(99));
        drop(wal);
        let (got, _) = replay_all(&dir, 9);
        assert_eq!(got.len(), 10);
        assert_eq!(got[9].0[0], 99);
    }

    #[test]
    fn corruption_mid_log_drops_later_segments() {
        let dir = tmp("midcorrupt");
        let mut wal = Wal::open(&dir, 5, 160).unwrap();
        for i in 0..40 {
            append(&mut wal, &record(i));
        }
        drop(wal);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        // Corrupt one byte in the middle segment's first frame.
        let victim = dir.join(segment_name(segments[segments.len() / 2]));
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[WAL_HEADER_BYTES + 9] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        let (got, summary) = replay_all(&dir, 5);
        assert!(got.len() < 40);
        assert!(summary.truncated_bytes > 0);
        // Prefix property: the recovered records are the first `len` appended.
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r, &record(i as u32));
        }
        // Later segments are gone; the log ends at the truncation point.
        let remaining = list_segments(&dir).unwrap();
        assert!(remaining.len() < segments.len());
    }

    #[test]
    fn missing_middle_segment_is_an_error_not_a_splice() {
        let dir = tmp("gap");
        let mut wal = Wal::open(&dir, 4, 160).unwrap();
        for i in 0..40 {
            append(&mut wal, &record(i));
        }
        drop(wal);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        std::fs::remove_file(dir.join(segment_name(segments[1]))).unwrap();
        let err = replay(&dir, 4, |_| true).unwrap_err();
        assert!(
            matches!(err, PersistError::MissingSegment { expected, found, .. }
                if expected == segments[1] && found == segments[2]),
            "{err}"
        );
        assert!(err.to_string().contains("missing"));
        // A missing segment 1 — what older versions' snapshot pruning left
        // behind — is the same refusal.
        std::fs::remove_file(dir.join(segment_name(1))).unwrap();
        let err = replay(&dir, 4, |_| true).unwrap_err();
        assert!(matches!(err, PersistError::MissingSegment { expected: 1, .. }), "{err}");
    }

    #[test]
    fn digest_mismatch_is_an_error_not_truncation() {
        let dir = tmp("digest");
        let mut wal = Wal::open(&dir, 1, 1 << 20).unwrap();
        append(&mut wal, &record(0));
        drop(wal);
        let err = replay(&dir, 2, |_| true).unwrap_err();
        assert!(matches!(err, PersistError::SpaceMismatch { .. }));
        // Nothing was deleted or truncated.
        let (got, _) = replay_all(&dir, 1);
        assert_eq!(got.len(), 1);
    }
}
