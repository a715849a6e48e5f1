//! Snapshots: one compact file holding a [`ProvenanceStore`]'s entire run
//! history (dense-key arena rows + outcomes + scores, overflow runs as raw
//! values) plus the WAL position it covers, so recovery is snapshot-load +
//! WAL-*tail* replay instead of a full-log replay.
//!
//! File name: `snap-NNNNNNNNNNNN.bds`, the number being the covered run
//! count (monotonic, so lexicographic order is recency order). Layout: a
//! 64-byte header — magic `BDSNAPv1`, space digest, epoch size, run count,
//! WAL segment, WAL offset, watermark (all `u64` LE), then the CRC-32 of
//! those first 56 bytes (`u32` LE) and 4 zero bytes — then one
//! checksummed frame per run in recording order (the same frame format as
//! the WAL). The header carries its own checksum because its WAL
//! position *drives destruction*: replay truncates the log from it and
//! pruning deletes segments below it, so a bit-flipped position must read
//! as "snapshot damaged", never as license to delete valid data.
//! Snapshots are written to a `.tmp` file, fsynced, and renamed into place
//! (with a directory fsync), so a crash mid-write leaves no half-snapshot
//! under the real name and a rename that "happened" is actually on disk
//! before any WAL segment is pruned against it; loading still validates
//! the header checksum and every frame, and falls back to the previous
//! snapshot (then to full WAL replay) if anything is off.
//!
//! The watermark word once counted the index epochs a store had retired.
//! Stores no longer retire epochs, so snapshots write 0 there and loading
//! ignores the value — except that a watermark above the image's
//! full-epoch count is damage, as it always was. Snapshots whose watermark
//! is non-zero therefore still load, with no format change.

use crate::crc32::crc32;
use crate::frame::{append_frame, next_frame, NextFrame, RunRecord, FRAME_HEADER_BYTES};
use crate::wal::WalPosition;
use crate::{PersistError, SNAP_MAGIC};
use bugdoc_core::{ParamSpace, ProvenanceStore};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Byte length of the snapshot header (checksummed fields + CRC + padding).
const SNAP_HEADER_BYTES: usize = 64;
/// The header prefix the header CRC covers.
const SNAP_HEADER_CRC_AT: usize = 56;

fn snapshot_name(runs: u64) -> String {
    format!("snap-{runs:012}.bds")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".bds")?
        .parse()
        .ok()
}

/// Snapshot files in `dir`, ascending by covered run count.
pub(crate) fn list_snapshots(dir: &Path) -> Result<Vec<u64>, PersistError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| PersistError::io(dir, e))? {
        let entry = entry.map_err(|e| PersistError::io(dir, e))?;
        if let Some(runs) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            out.push(runs);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// A successfully loaded snapshot.
pub struct LoadedSnapshot {
    /// The rebuilt store.
    pub store: ProvenanceStore,
    /// Where WAL replay should resume.
    pub wal_position: WalPosition,
    /// Runs the snapshot held.
    pub runs: usize,
}

/// Flushes `dir`'s directory entries to disk, so renames and creates that
/// "happened" survive power loss before anything is destroyed against them.
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), PersistError> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| PersistError::io(dir, e))
}

/// Serializes `store` into `dir`, covering the WAL up to `wal_position`.
/// The file is fsynced before the rename and the directory after it — a
/// snapshot that `load_latest` can see is durably on disk, which is the
/// precondition for pruning the WAL against it. Keeps the newest two
/// snapshots (the previous one is the fallback if this one is damaged).
pub fn write_snapshot(
    dir: &Path,
    digest: u64,
    store: &ProvenanceStore,
    wal_position: WalPosition,
) -> Result<(), PersistError> {
    let runs = store.len() as u64;
    let bytes = snapshot_bytes(digest, store, wal_position)?;

    let tmp = dir.join(format!("{}.tmp", snapshot_name(runs)));
    let fin = dir.join(snapshot_name(runs));
    let mut file = std::fs::File::create(&tmp).map_err(|e| PersistError::io(&tmp, e))?;
    file.write_all(&bytes).map_err(|e| PersistError::io(&tmp, e))?;
    file.sync_all().map_err(|e| PersistError::io(&tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, &fin).map_err(|e| PersistError::io(&fin, e))?;
    fsync_dir(dir)?;

    // Retain the newest two snapshots.
    let all = list_snapshots(dir)?;
    for &old in all.iter().rev().skip(2) {
        let path = dir.join(snapshot_name(old));
        std::fs::remove_file(&path).map_err(|e| PersistError::io(&path, e))?;
    }
    Ok(())
}

/// The serialized image `write_snapshot` persists: checksummed header plus
/// one frame per run. Public so the perf bench can time serialization
/// without the fsync+rename tail (fsync latency is environment noise).
/// Fails only when a run cannot be framed within the codec's bounds
/// ([`PersistError::FrameOverflow`]).
pub fn snapshot_bytes(
    digest: u64,
    store: &ProvenanceStore,
    wal_position: WalPosition,
) -> Result<Vec<u8>, PersistError> {
    let runs = store.len() as u64;
    let mut bytes = Vec::with_capacity(SNAP_HEADER_BYTES + store.len() * 32);
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&digest.to_le_bytes());
    bytes.extend_from_slice(&(store.epoch_runs() as u64).to_le_bytes());
    bytes.extend_from_slice(&runs.to_le_bytes());
    bytes.extend_from_slice(&wal_position.segment.to_le_bytes());
    bytes.extend_from_slice(&wal_position.offset.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes()); // watermark (module docs)
    debug_assert_eq!(bytes.len(), SNAP_HEADER_CRC_AT);
    let header_crc = crc32(&bytes);
    bytes.extend_from_slice(&header_crc.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 4]);
    debug_assert_eq!(bytes.len(), SNAP_HEADER_BYTES);
    let space = store.space();
    for run in store.runs() {
        let record = RunRecord::from_run(run, space);
        append_frame(&record, &mut bytes)?;
    }
    Ok(bytes)
}

/// Loads the newest intact snapshot, trying older ones when the newest is
/// damaged. Returns `None` when no usable snapshot exists (recovery then
/// falls back to full WAL replay). A snapshot whose space digest differs is
/// a hard [`PersistError::SpaceMismatch`] — the directory belongs to a
/// different spec and silently ignoring it would resurrect stale history.
pub fn load_latest(
    dir: &Path,
    digest: u64,
    space: &Arc<ParamSpace>,
) -> Result<Option<LoadedSnapshot>, PersistError> {
    let snapshots = list_snapshots(dir)?;
    for &runs in snapshots.iter().rev() {
        let path = dir.join(snapshot_name(runs));
        let bytes = std::fs::read(&path).map_err(|e| PersistError::io(&path, e))?;
        match parse_snapshot(&bytes, digest, space) {
            Ok(loaded) => return Ok(Some(loaded)),
            Err(PersistError::SpaceMismatch {
                expected,
                found,
                ..
            }) => {
                return Err(PersistError::SpaceMismatch {
                    expected,
                    found,
                    path,
                })
            }
            Err(_) => continue, // damaged: fall back to an older snapshot
        }
    }
    Ok(None)
}

/// The WAL position in the *oldest retained* snapshot's header (used to
/// decide which WAL segments are safely prunable). `None` when there is no
/// snapshot or its header is unreadable — pruning then just doesn't happen.
pub(crate) fn load_oldest_position(dir: &Path) -> Result<Option<WalPosition>, PersistError> {
    let snapshots = list_snapshots(dir)?;
    let Some(&oldest) = snapshots.first() else {
        return Ok(None);
    };
    let path = dir.join(snapshot_name(oldest));
    let bytes = std::fs::read(&path).map_err(|e| PersistError::io(&path, e))?;
    if !header_crc_ok(&bytes) {
        // An unreadable header must never license pruning.
        return Ok(None);
    }
    let word = |i: usize| u64::from_le_bytes(bytes[8 + i * 8..16 + i * 8].try_into().unwrap());
    Ok(Some(WalPosition {
        segment: word(3),
        offset: word(4),
    }))
}

/// Magic, length, and header-CRC check — the gate in front of every use of
/// a snapshot header's fields.
fn header_crc_ok(bytes: &[u8]) -> bool {
    bytes.len() >= SNAP_HEADER_BYTES
        && bytes[..8] == *SNAP_MAGIC
        && u32::from_le_bytes(
            bytes[SNAP_HEADER_CRC_AT..SNAP_HEADER_CRC_AT + 4]
                .try_into()
                .unwrap(),
        ) == crc32(&bytes[..SNAP_HEADER_CRC_AT])
}

fn parse_snapshot(
    bytes: &[u8],
    digest: u64,
    space: &Arc<ParamSpace>,
) -> Result<LoadedSnapshot, PersistError> {
    let corrupt = || PersistError::CorruptSnapshot;
    if !header_crc_ok(bytes) {
        return Err(corrupt());
    }
    let word = |i: usize| -> u64 {
        u64::from_le_bytes(bytes[8 + i * 8..16 + i * 8].try_into().unwrap())
    };
    let found = word(0);
    if found != digest {
        return Err(PersistError::SpaceMismatch {
            expected: digest,
            found,
            path: PathBuf::new(),
        });
    }
    let epoch_runs = word(1) as usize;
    if epoch_runs == 0 || epoch_runs % 64 != 0 || epoch_runs > 1 << 30 {
        return Err(corrupt());
    }
    let runs = word(2) as usize;
    let wal_position = WalPosition {
        segment: word(3),
        offset: word(4),
    };
    // The watermark is ignored beyond this range check (see the module
    // docs): it can never exceed the image's full epochs.
    if word(5) > (runs / epoch_runs) as u64 {
        return Err(corrupt());
    }

    // One streaming pass: each row is checksummed, decoded, checked against
    // the space, and recorded before the next is read. Any bad row makes
    // the whole snapshot corrupt. The reservation is capped by the frames
    // the image can hold, so a damaged run count cannot force a huge
    // allocation.
    let mut store = ProvenanceStore::with_epoch_size(space.clone(), epoch_runs);
    store.reserve(runs.min(bytes.len() / FRAME_HEADER_BYTES));
    let mut offset = SNAP_HEADER_BYTES;
    for _ in 0..runs {
        let NextFrame::Frame(record, next) = next_frame(bytes, offset) else {
            return Err(corrupt());
        };
        let run = record.into_run(space).map_err(|_| corrupt())?;
        if !store.record(run.instance, run.eval) {
            return Err(corrupt()); // duplicate rows: not a valid store image
        }
        offset = next;
    }
    if offset != bytes.len() {
        return Err(corrupt());
    }
    Ok(LoadedSnapshot {
        store,
        wal_position,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{Comparator, Conjunction, EvalResult, Outcome, Predicate};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bugdoc-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("x", (0..16).collect::<Vec<_>>())
            .ordinal("y", (0..8).collect::<Vec<_>>())
            .build()
    }

    fn filled_store(n: usize) -> ProvenanceStore {
        let s = space();
        let x = s.by_name("x").unwrap();
        let mut store = ProvenanceStore::with_epoch_size(s.clone(), 64);
        for inst in s.instances().take(n) {
            let outcome = Outcome::from_check(inst.get(x) != &bugdoc_core::Value::from(3));
            store.record(inst, EvalResult::of(outcome));
        }
        store
    }

    const POS: WalPosition = WalPosition { segment: 4, offset: 1234 };

    #[test]
    fn snapshot_roundtrips_store_and_position() {
        let dir = tmp("roundtrip");
        let store = filled_store(100);
        write_snapshot(&dir, 11, &store, POS).unwrap();
        let loaded = load_latest(&dir, 11, &space()).unwrap().unwrap();
        assert_eq!(loaded.runs, 100);
        assert_eq!(loaded.wal_position, POS);
        assert_eq!(loaded.store.len(), store.len());
        assert_eq!(loaded.store.num_failing(), store.num_failing());
        for (a, b) in loaded.store.runs().iter().zip(store.runs()) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.eval, b.eval);
        }
    }

    /// Rewrites the watermark word of a written snapshot and re-seals the
    /// header CRC — the header a store that had retired `watermark` index
    /// epochs used to write.
    fn patch_watermark(path: &Path, watermark: u64) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[48..SNAP_HEADER_CRC_AT].copy_from_slice(&watermark.to_le_bytes());
        let crc = crc32(&bytes[..SNAP_HEADER_CRC_AT]);
        bytes[SNAP_HEADER_CRC_AT..SNAP_HEADER_CRC_AT + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    /// Snapshots written by stores that retired index epochs carry a
    /// non-zero watermark. They load with the same runs and the same
    /// answers; a watermark above the full-epoch count is still damage, so
    /// loading falls back to the older snapshot, then to WAL replay.
    #[test]
    fn legacy_watermark_loads_and_out_of_range_is_corrupt() {
        let dir = tmp("watermark");
        let older = WalPosition {
            segment: 2,
            offset: 16,
        };
        write_snapshot(&dir, 1, &filled_store(100), older).unwrap();
        let store = filled_store(128); // two full 64-run epochs
        write_snapshot(&dir, 1, &store, POS).unwrap();
        let newest = dir.join(snapshot_name(128));
        let written = std::fs::read(&newest).unwrap();
        assert_eq!(
            written[48..SNAP_HEADER_CRC_AT],
            [0u8; 8],
            "new snapshots write 0"
        );

        // Both full epochs retired: the header a fully compacted store wrote.
        patch_watermark(&newest, 2);
        let loaded = load_latest(&dir, 1, &space()).unwrap().unwrap();
        assert_eq!(loaded.runs, 128);
        assert_eq!(loaded.wal_position, POS);
        assert_eq!(loaded.store.epoch_runs(), 64);
        assert_eq!(loaded.store.runs(), store.runs());
        let s = space();
        let (x, y) = (s.by_name("x").unwrap(), s.by_name("y").unwrap());
        let causes: Vec<Conjunction> = (0..16i64)
            .flat_map(|v| {
                [
                    Conjunction::new(vec![Predicate::eq(x, v)]),
                    Conjunction::new(vec![
                        Predicate::eq(x, v),
                        Predicate::new(y, Comparator::Le, v % 8),
                    ]),
                ]
            })
            .collect();
        for cause in &causes {
            assert_eq!(
                loaded.store.succeeding_superset_exists_exact(cause),
                store.succeeding_superset_exists_exact(cause),
                "{}",
                cause.display(&s)
            );
        }

        // Three retired epochs out of two full ones: corrupt.
        patch_watermark(&newest, 3);
        let loaded = load_latest(&dir, 1, &space()).unwrap().unwrap();
        assert_eq!(loaded.runs, 100, "fell back to the older snapshot");
        assert_eq!(loaded.wal_position, older);
        std::fs::remove_file(dir.join(snapshot_name(100))).unwrap();
        assert!(
            load_latest(&dir, 1, &space()).unwrap().is_none(),
            "no intact snapshot left: recovery replays the WAL"
        );
    }

    #[test]
    fn damaged_newest_falls_back_to_previous() {
        let dir = tmp("fallback");
        write_snapshot(&dir, 1, &filled_store(50), POS).unwrap();
        let store = filled_store(80);
        write_snapshot(&dir, 1, &store, WalPosition { segment: 9, offset: 9 }).unwrap();
        // Damage the newest file.
        let newest = dir.join(snapshot_name(80));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let loaded = load_latest(&dir, 1, &space()).unwrap().unwrap();
        assert_eq!(loaded.runs, 50, "fell back to the intact snapshot");
        assert_eq!(loaded.wal_position, POS);
    }

    #[test]
    fn only_two_snapshots_are_kept() {
        let dir = tmp("retention");
        for n in [10, 20, 30, 40] {
            write_snapshot(&dir, 1, &filled_store(n), POS).unwrap();
        }
        assert_eq!(list_snapshots(&dir).unwrap(), vec![30, 40]);
    }

    /// Any bit flip in the header must invalidate the snapshot: its WAL
    /// position licenses truncation and pruning, so a mangled position has
    /// to read as "damaged", never as a different position.
    #[test]
    fn header_bit_flips_invalidate_the_snapshot() {
        let dir = tmp("headerflip");
        write_snapshot(&dir, 1, &filled_store(20), POS).unwrap();
        let path = dir.join(snapshot_name(20));
        let pristine = std::fs::read(&path).unwrap();
        for byte in 8..SNAP_HEADER_BYTES - 4 {
            // (skip magic: flipping it is covered by the magic check; skip
            // the zero padding, which is not semantically meaningful)
            let mut bytes = pristine.clone();
            bytes[byte] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                load_latest(&dir, 1, &space()).unwrap().is_none(),
                "header byte {byte} flipped yet the snapshot loaded"
            );
            assert_eq!(
                load_oldest_position(&dir).unwrap(),
                None,
                "header byte {byte} flipped yet pruning would trust the position"
            );
        }
        std::fs::write(&path, &pristine).unwrap();
        assert!(load_latest(&dir, 1, &space()).unwrap().is_some());
    }

    #[test]
    fn digest_mismatch_is_hard_error() {
        let dir = tmp("digest");
        write_snapshot(&dir, 1, &filled_store(10), POS).unwrap();
        assert!(matches!(
            load_latest(&dir, 2, &space()),
            Err(PersistError::SpaceMismatch { .. })
        ));
    }

    #[test]
    fn no_snapshot_is_none() {
        let dir = tmp("none");
        assert!(load_latest(&dir, 1, &space()).unwrap().is_none());
    }
}
