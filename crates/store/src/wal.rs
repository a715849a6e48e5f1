//! The write-ahead log: one append-only file, replayed by the open that
//! returns its append handle.
//!
//! The file is `wal-00000001.seg`: a 16-byte header — magic `BDWALv1\n`
//! then the space digest (`u64` LE) — followed by frames (see
//! [`crate::frame`]). Earlier versions split the log into numbered
//! segments; the one file keeps the first segment's name and bytes, so a
//! directory those versions wrote as one segment opens unchanged. A torn
//! write can only damage the file's tail, which [`Wal::open`] cuts off.
//!
//! Appends are group-committed: each frame is encoded into one pending
//! buffer, and the frames appended between two flushes reach the file with
//! one `write_all`.

use crate::frame::{append_frame, next_frame, read_u64_at, NextFrame};
use crate::{probes, u64_of, PersistError, WAL_MAGIC, WAL_HEADER_BYTES};
use bugdoc_core::RunRef;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The log's file name.
const LOG_NAME: &str = "wal-00000001.seg";

/// Pending bytes an append may leave unwritten: the append that takes the
/// buffer past this writes it at once. It bounds the memory of a caller
/// that appends many runs between flushes, such as a history loaded in one
/// go; a record phase's few frames stay far below it.
pub(crate) const PENDING_LIMIT_BYTES: usize = 64 * 1024;

/// Flushes `dir`'s directory entries to disk, so the log created there
/// survives power loss along with the frames later synced into it.
fn fsync_dir(dir: &Path) -> Result<(), PersistError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| PersistError::io(dir, e))
}

fn log_header(digest: u64) -> [u8; WAL_HEADER_BYTES] {
    let mut h = [0u8; WAL_HEADER_BYTES];
    let (magic, dig) = h.split_at_mut(WAL_MAGIC.len());
    magic.copy_from_slice(WAL_MAGIC);
    dig.copy_from_slice(&digest.to_le_bytes());
    h
}

/// Refuses a directory holding a `wal-N.seg` with N ≠ 1: a later segment
/// an earlier version rolled to, or what its pruning left of a log. The
/// log is one file, so recovering without that segment would return a
/// shorter or spliced history.
fn refuse_stray_segments(dir: &Path) -> Result<(), PersistError> {
    for entry in std::fs::read_dir(dir).map_err(|e| PersistError::io(dir, e))? {
        let name = entry.map_err(|e| PersistError::io(dir, e))?.file_name();
        let index = name.to_str().and_then(|n| {
            n.strip_prefix("wal-")?
                .strip_suffix(".seg")?
                .parse::<u64>()
                .ok()
        });
        if index.is_some_and(|n| n != 1) {
            return Err(PersistError::StraySegment {
                path: dir.join(name),
            });
        }
    }
    Ok(())
}

/// The log's append handle, positioned at its tail by [`Wal::open`].
///
/// [`append`](Wal::append) encodes a frame into the pending buffer; the
/// buffer reaches the file, and the OS page cache, with one `write_all` at
/// [`flush`](Wal::flush), at [`sync`](Wal::sync), when the handle drops,
/// and at an append that takes it past 64 KiB. Frames reach the file in
/// the order they were appended, so the log's bytes are those one write per
/// frame would leave.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    /// Where the next frame starts: the file's length plus the pending
    /// bytes.
    len: u64,
    file: File,
    /// Frames appended since the last write, back to back.
    pending: Vec<u8>,
}

impl Wal {
    /// Opens the log in `dir`, creating it when absent, and replays it:
    /// the file is read whole into one buffer, and each checksum-valid
    /// frame goes to `sink` in order, its key borrowed from one buffer that
    /// every frame's decode reuses. The first torn or undecodable frame —
    /// or one `sink` rejects by returning `false` (a key that does not fit
    /// the space, a repeated run) — ends the replay, and the file is cut
    /// back to the frame boundary before it, so a reopened log is always an
    /// exact prefix of what was appended. A header cut short at creation —
    /// a file shorter than the header, or one whose magic is still all
    /// zero bytes — empties the file, which gets a fresh header.
    ///
    /// Returns the append handle at the tail and the bytes cut off. A
    /// valid header with another digest is [`PersistError::SpaceMismatch`],
    /// a whole header with another magic is [`PersistError::ForeignMagic`],
    /// and a directory holding any other `wal-N.seg` is
    /// [`PersistError::StraySegment`]; all three leave every file as it was.
    pub fn open(
        dir: &Path,
        digest: u64,
        mut sink: impl FnMut(RunRef<'_>) -> bool,
    ) -> Result<(Wal, u64), PersistError> {
        refuse_stray_segments(dir)?;
        let path = dir.join(LOG_NAME);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| PersistError::io(&path, e))?;
        let header_digest = match bytes.first_chunk::<8>() {
            Some(magic) if magic == WAL_MAGIC => read_u64_at(&bytes, WAL_MAGIC.len()),
            // A whole header whose magic is neither this version's nor
            // still unwritten is another format, or damage: emptying the
            // file would destroy a history this version cannot read.
            Some(&magic) if bytes.len() >= WAL_HEADER_BYTES && magic != [0; 8] => {
                return Err(PersistError::ForeignMagic { magic, path });
            }
            _ => None,
        };
        let mut end = 0;
        if let Some(found) = header_digest {
            if found != digest {
                return Err(PersistError::SpaceMismatch {
                    expected: digest,
                    found,
                    path,
                });
            }
            let mut key = Vec::new();
            end = WAL_HEADER_BYTES;
            while let NextFrame::Frame(eval, next) = next_frame(&bytes, end, &mut key) {
                if !sink(RunRef { key: &key, eval }) {
                    break;
                }
                end = next;
            }
        }
        let (total, end) = (u64_of(bytes.len()), u64_of(end));
        if end < total {
            file.set_len(end).map_err(|e| PersistError::io(&path, e))?;
        }
        if end == 0 {
            file.write_all(&log_header(digest))
                .map_err(|e| PersistError::io(&path, e))?;
            fsync_dir(dir)?;
        }
        let wal = Wal {
            path,
            len: end.max(u64_of(WAL_HEADER_BYTES)),
            file,
            pending: Vec::new(),
        };
        Ok((wal, total - end))
    }

    /// The byte offset the *next* appended frame will start at: the log's
    /// length once the pending frames are written.
    pub fn position(&self) -> u64 {
        self.len
    }

    /// Appends one run's record as a checksummed frame to the pending
    /// buffer. It reaches the file at the next [`flush`](Self::flush) or
    /// [`sync`](Self::sync), or when the handle drops; an append that takes
    /// the buffer past 64 KiB writes it at once. A record that cannot be
    /// framed is [`PersistError::FrameOverflow`] and leaves the buffer as
    /// it was.
    pub fn append(&mut self, run: RunRef<'_>) -> Result<(), PersistError> {
        let start = self.pending.len();
        append_frame(run, &mut self.pending)?;
        self.len += u64_of(self.pending.len() - start);
        if self.pending.len() > PENDING_LIMIT_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes the pending frames to the file with one `write_all`: they
    /// reach the OS page cache, so a later open reads them however this
    /// process ends, and disk at the next [`sync`](Self::sync). A no-op
    /// when nothing is pending. The buffer is emptied even when the write
    /// fails: the file then ends in an unknown part of those frames, which
    /// the next open cuts back to the last whole one.
    pub fn flush(&mut self) -> Result<(), PersistError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let written = self.file.write_all(&self.pending);
        probes().wal_write_ns.record_elapsed(started);
        self.pending.clear();
        written.map_err(|e| PersistError::io(&self.path, e))
    }

    /// Writes the pending frames, then flushes the file's data to disk
    /// (`fsync`). Called every `sync_every` appends and at close;
    /// per-append fsync would dominate the append cost.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.flush()?;
        self.file
            .sync_data()
            .map_err(|e| PersistError::io(&self.path, e))
    }
}

/// Writes the pending frames; a failed write is dropped with them (call
/// [`Wal::flush`] to see it). Nothing is synced.
impl Drop for Wal {
    fn drop(&mut self) {
        let _ = self.flush();
    }
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

    /// Opens the log, keeping every frame: the records replayed, the bytes
    /// cut off, and the append handle.
    fn open_all(dir: &Path, digest: u64) -> (Vec<Record>, u64, Wal) {
        let mut got = Vec::new();
        let (wal, truncated) = Wal::open(dir, digest, |r| {
            got.push((r.key.to_vec(), r.eval));
            true
        })
        .unwrap();
        (got, truncated, wal)
    }

    fn log_len(dir: &Path) -> u64 {
        std::fs::metadata(dir.join(LOG_NAME)).unwrap().len()
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmp("roundtrip");
        let (_, _, mut wal) = open_all(&dir, 42);
        let records: Vec<Record> = (0..100).map(record).collect();
        for r in &records {
            append(&mut wal, r);
        }
        let end = wal.position();
        drop(wal);
        let (got, truncated, wal) = open_all(&dir, 42);
        assert_eq!(got, records);
        assert_eq!(truncated, 0);
        assert_eq!((wal.position(), log_len(&dir)), (end, end));
    }

    #[test]
    fn torn_tail_is_truncated_exactly_once() {
        let dir = tmp("torn");
        let (_, _, mut wal) = open_all(&dir, 9);
        for i in 0..10 {
            append(&mut wal, &record(i));
        }
        drop(wal);
        // Chop 3 bytes off the log: the last frame is torn.
        let path = dir.join(LOG_NAME);
        let len = log_len(&dir);
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (got, truncated, wal) = open_all(&dir, 9);
        assert_eq!(got.len(), 9);
        assert!(truncated > 0);
        drop(wal);
        // The file was truncated at the boundary: a second replay is clean.
        let (again, truncated, mut wal) = open_all(&dir, 9);
        assert_eq!(again.len(), 9);
        assert_eq!(truncated, 0);
        // And appending after recovery resumes at the boundary.
        append(&mut wal, &record(99));
        drop(wal);
        let (got, _, _) = open_all(&dir, 9);
        assert_eq!(got.len(), 10);
        assert_eq!(got[9].0[0], 99);
    }

    /// A flipped byte inside frame 20 of 40: recovery keeps the 20 frames
    /// before it and cuts the file back to the end of the last of them.
    #[test]
    fn corruption_mid_log_truncates_at_the_last_good_frame() {
        let dir = tmp("midcorrupt");
        let (_, _, mut wal) = open_all(&dir, 5);
        let mut ends = Vec::new();
        for i in 0..40 {
            append(&mut wal, &record(i));
            ends.push(wal.position());
        }
        drop(wal);
        let path = dir.join(LOG_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[ends[19] as usize + 9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (got, truncated, wal) = open_all(&dir, 5);
        let prefix: Vec<Record> = (0..20).map(record).collect();
        assert_eq!(got, prefix);
        assert_eq!(truncated, ends[39] - ends[19]);
        assert_eq!((wal.position(), log_len(&dir)), (ends[19], ends[19]));
    }

    /// A crash between creating the log and writing its header leaves a
    /// file shorter than the header: it reopens as an empty log, rewritten
    /// with a fresh header, and the next append survives a reopen.
    #[test]
    fn header_cut_short_at_creation_reopens_empty() {
        for cut in [0, 1, 8, 15] {
            let dir = tmp(&format!("shortheader-{cut}"));
            std::fs::write(dir.join(LOG_NAME), &log_header(3)[..cut]).unwrap();
            let (got, truncated, mut wal) = open_all(&dir, 3);
            assert!(got.is_empty(), "cut {cut}");
            assert_eq!(truncated, cut as u64, "cut {cut}");
            assert_eq!(std::fs::read(dir.join(LOG_NAME)).unwrap(), log_header(3));
            append(&mut wal, &record(4));
            drop(wal);
            let (got, truncated, _) = open_all(&dir, 3);
            assert_eq!((got, truncated), (vec![record(4)], 0), "cut {cut}");
        }
    }

    /// A file as long as a header or longer whose magic is all zero bytes
    /// (the file's length reached disk before its header did) is a header
    /// cut short too: it reopens empty. Any other magic is refused.
    #[test]
    fn zeroed_magic_reopens_empty_and_any_other_is_refused() {
        let dir = tmp("zeromagic");
        std::fs::write(dir.join(LOG_NAME), [0u8; 40]).unwrap();
        let (got, truncated, _) = open_all(&dir, 3);
        assert_eq!((got.len(), truncated), (0, 40));
        assert_eq!(std::fs::read(dir.join(LOG_NAME)).unwrap(), log_header(3));

        let mut foreign = log_header(3);
        foreign[0] = 0;
        std::fs::write(dir.join(LOG_NAME), foreign).unwrap();
        let err = Wal::open(&dir, 3, |_| true).unwrap_err();
        assert!(matches!(err, PersistError::ForeignMagic { .. }), "{err}");
        assert_eq!(std::fs::read(dir.join(LOG_NAME)).unwrap(), foreign);
    }

    #[test]
    fn digest_mismatch_is_an_error_not_truncation() {
        let dir = tmp("digest");
        let (_, _, mut wal) = open_all(&dir, 1);
        append(&mut wal, &record(0));
        drop(wal);
        let before = std::fs::read(dir.join(LOG_NAME)).unwrap();
        let err = Wal::open(&dir, 2, |_| true).unwrap_err();
        assert!(matches!(err, PersistError::SpaceMismatch { .. }));
        // Nothing was deleted or truncated.
        assert_eq!(std::fs::read(dir.join(LOG_NAME)).unwrap(), before);
        let (got, _, _) = open_all(&dir, 1);
        assert_eq!(got.len(), 1);
    }
}
