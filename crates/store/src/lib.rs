//! # bugdoc-store — durable provenance
//!
//! BugDoc's central economy is reusing provenance from earlier runs so the
//! debugger never re-executes a configuration it has already seen (paper
//! §3's cost measure counts only *new* executions). This crate makes that
//! history survive the process: a segmented, checksummed **write-ahead log**
//! of run records — the one on-disk copy of the history — and **crash
//! recovery** that replays it, truncates torn tails, and rebuilds an exact
//! prefix of what was recorded. `std`-only — no registry dependencies.
//!
//! ## On-disk format (version 1)
//!
//! A persist directory holds the WAL segments and a lock file:
//!
//! ```text
//! <dir>/wal-00000001.seg      segments, ascending; the log is their
//! <dir>/wal-00000002.seg      concatenation in name order
//! <dir>/lock                  the writer's OS file lock and pid
//! ```
//!
//! **WAL segment** — 16-byte header (`"BDWALv1\n"` magic, then the space
//! digest as `u64` LE), then frames. A segment rolls when the next frame
//! would exceed the configured byte size, so a frame never spans files.
//! Appends reach the OS page cache at once and disk at the next sync: every
//! [`PersistConfig::sync_every`] appends when set, and at
//! [`DurableStore::close`].
//!
//! **Frame** — `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`.
//! CRC-32 is the IEEE/zlib polynomial, implemented in
//! [`crc32`](crc32::crc32). The payload is one run record:
//!
//! ```text
//! kind: u8      0 = dense key, 1 = raw values (overflow instance)
//! outcome: u8   0 = succeed, 1 = fail
//! score: u8     0 = none; 1 = present, followed by f64 bits (u64 LE)
//! count: u32 LE parameters
//! key           dense: count × u32 LE domain indices
//!               raw:   count × value (tag u8: 0 bool+1B, 1 int+8B LE,
//!                      2 float+8B LE bits, 3 str+u32 LE len+UTF-8)
//! ```
//!
//! The `lock` file guards the directory against concurrent writers: its
//! holder keeps an OS file lock on it and writes its pid into it. The
//! kernel drops the lock when the holder dies, so a dead process's lock is
//! re-taken automatically; live holders are [`PersistError::Locked`].
//!
//! **Recovery** ([`DurableStore::open`]) replays every segment from
//! `wal-00000001.seg` on, verifies every frame's CRC and that every dense
//! key fits the spec's [`ParamSpace`] (raw frames route through the
//! provenance store's existing overflow path), truncates the log at the
//! first torn or undecodable frame — or the first frame repeating an
//! instance already recovered, which no writer appends — and deletes any
//! segments past it: reopened history is always an exact prefix of what was
//! appended. Every frame streams through one decode-and-record pass on the
//! calling thread; nothing is staged. A log with a missing segment — in the
//! middle, or segment 1 itself — is [`PersistError::MissingSegment`]:
//! concatenating across the hole would fabricate a history that never
//! existed. A segment whose space digest differs from the spec's is a hard
//! [`PersistError::SpaceMismatch`]: dense keys are meaningless across spec
//! changes, and silently reinterpreting them would corrupt every downstream
//! guarantee.
//!
//! **Older directories** may also hold `snap-*.bds` files: snapshots, which
//! earlier versions wrote as a second copy of the log's frames. Recovery
//! ignores them, since the log holds every run they do, and they are safe to
//! delete. Where those versions pruned leading segments against a snapshot
//! (only past one full segment), segment 1 is gone and the directory is
//! refused with [`PersistError::MissingSegment`].

#![warn(missing_docs)]

pub mod crc32;
pub mod frame;
pub mod wal;

pub use frame::{DecodeError, RecordKey, RunRecord};
pub use wal::{Wal, WalPosition};

use bugdoc_core::{Outcome, ParamSpace, ProvenanceStore, Run};
use std::fs::{File, TryLockError};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Telemetry handles for the durable-store timings, registered once and
/// cached so record paths never touch the registry lock. Append and fsync
/// are the costs a serving deployment watches; replay is the rare
/// heavyweight phase the flight recorder also captures.
struct StoreProbes {
    wal_append_ns: &'static bugdoc_telemetry::Histogram,
    wal_fsync_ns: &'static bugdoc_telemetry::Histogram,
    replay_ns: &'static bugdoc_telemetry::Histogram,
}

/// Whole microseconds since `started`, saturating (flight-event payloads
/// are u64 microseconds).
fn elapsed_us(started: Instant) -> u64 {
    let us = started.elapsed().as_micros();
    if us > u64::MAX as u128 { u64::MAX } else { us as u64 }
}

fn probes() -> &'static StoreProbes {
    static P: OnceLock<StoreProbes> = OnceLock::new();
    P.get_or_init(|| StoreProbes {
        wal_append_ns: bugdoc_telemetry::histogram(
            "bugdoc_store_wal_append_ns",
            "Latency of one WAL frame append, encode included (ns)",
        ),
        wal_fsync_ns: bugdoc_telemetry::histogram(
            "bugdoc_store_wal_fsync_ns",
            "Latency of syncing the WAL tail to disk (ns)",
        ),
        replay_ns: bugdoc_telemetry::histogram(
            "bugdoc_store_replay_ns",
            "Latency of WAL replay during recovery (ns)",
        ),
    })
}

/// WAL segment magic bytes.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"BDWALv1\n";
/// WAL segment header length: magic + space digest.
pub(crate) const WAL_HEADER_BYTES: usize = 16;

/// Default segment roll size.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Where and how to persist provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Directory holding the WAL segments (created if absent).
    pub dir: PathBuf,
    /// Segment roll size in bytes (default [`DEFAULT_SEGMENT_BYTES`]).
    pub segment_bytes: u64,
    /// Fsync the WAL every this many appended runs (`None`: only at
    /// [`DurableStore::close`]).
    pub sync_every: Option<u64>,
}

impl PersistConfig {
    /// A config with default segment size that syncs only at close.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            sync_every: None,
        }
    }
}

/// Why a persistence operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// An OS-level I/O failure, with the path involved.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A segment was written against a different parameter space: dense
    /// keys cannot be reinterpreted across spec changes.
    SpaceMismatch {
        /// Digest of the spec's space.
        expected: u64,
        /// Digest found on disk.
        found: u64,
        /// The offending file.
        path: PathBuf,
    },
    /// A WAL segment is missing from the middle of the log (or the log's
    /// anchor segment is gone). Replaying across the hole would fabricate a
    /// history that never existed, so recovery refuses.
    MissingSegment {
        /// The segment index recovery expected next.
        expected: u64,
        /// The index actually found.
        found: u64,
        /// The persist directory.
        dir: PathBuf,
    },
    /// A record field exceeds the frame format's `u32` bounds or the frame
    /// exceeds [`frame::MAX_FRAME_BYTES`] (a pathological instance: billions
    /// of parameters or a multi-gigabyte string value). Writing it anyway
    /// would emit a frame replay refuses — silently truncated lengths
    /// corrupt the log — so the append fails instead.
    FrameOverflow {
        /// Which length overflowed.
        field: &'static str,
        /// The oversized length.
        len: usize,
    },
    /// Another live process (or another executor in this process) holds the
    /// persist directory. Concurrent appenders would interleave frames and
    /// corrupt the run-order invariant, so opening refuses.
    Locked {
        /// The pid recorded in the lock file.
        pid: u32,
        /// The lock file.
        path: PathBuf,
    },
    /// A seed run merged into a warm start contradicts the persisted
    /// history: the same instance with the other outcome. Evaluations are
    /// deterministic (paper §3, Def. 2), so one of the two is wrong.
    ConflictingSeed {
        /// The instance, rendered against the spec's space.
        instance: String,
        /// The outcome the persisted history records.
        persisted: Outcome,
        /// The outcome the seed gives.
        seeded: Outcome,
    },
}

/// Widens a `usize` to `u64`. Lossless on every supported target; named so
/// the WAL codec needs no raw `as` casts (the checked-cast lint W005 bans
/// them there — a truncating cast and a widening one look identical at the
/// cast site).
pub(crate) fn u64_of(n: usize) -> u64 {
    n as u64
}

impl PersistError {
    pub(crate) fn io(path: &Path, error: std::io::Error) -> Self {
        PersistError::Io {
            path: path.to_path_buf(),
            error,
        }
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            PersistError::SpaceMismatch {
                expected,
                found,
                path,
            } => write!(
                f,
                "{}: persisted provenance belongs to a different parameter space \
                 (digest {found:#018x}, spec has {expected:#018x}); point persist_dir at a \
                 fresh directory or restore the original spec",
                path.display()
            ),
            PersistError::MissingSegment {
                expected,
                found,
                dir,
            } => write!(
                f,
                "{}: WAL segment {expected} is missing (found segment {found} instead); \
                 the directory lost mid-log history and cannot be recovered as an exact \
                 prefix — restore the missing segment or start a fresh directory",
                dir.display()
            ),
            PersistError::FrameOverflow { field, len } => write!(
                f,
                "record cannot be framed: {field} is {len} bytes, past the codec's u32/frame \
                 bounds — persisting it would write a frame recovery refuses to read"
            ),
            PersistError::Locked { pid, path } => write!(
                f,
                "{}: persist directory is locked by live process {pid}; two concurrent \
                 writers would corrupt the log (delete the lock file only if that \
                 process is truly gone)",
                path.display()
            ),
            PersistError::ConflictingSeed {
                instance,
                persisted,
                seeded,
            } => write!(
                f,
                "seed run {instance} is evaluated '{seeded}' but the persisted history \
                 records '{persisted}'; evaluations must be deterministic, so fix the seed \
                 or point persist_dir at a fresh directory"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A stable fingerprint of a [`ParamSpace`]: parameter names, kinds, and
/// every domain value, in order. Stamped into every segment header so
/// recovery refuses to decode dense keys against the wrong space.
pub fn space_digest(space: &ParamSpace) -> u64 {
    let mut h = bugdoc_core::FxHasher::default();
    space.len().hash(&mut h);
    for (_, def) in space.iter() {
        def.name().hash(&mut h);
        def.domain().is_ordinal().hash(&mut h);
        def.domain().len().hash(&mut h);
        for v in def.domain().values() {
            v.hash(&mut h);
        }
    }
    h.finish()
}

/// What recovery found when a durable store was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Runs recovered by replaying the log.
    pub runs: usize,
    /// Bytes discarded as a torn tail.
    pub truncated_bytes: u64,
}

/// The open, appendable durable store: a [`Wal`] tail plus its sync
/// cadence. Obtained from [`DurableStore::open`], which performs recovery
/// first; thereafter every newly recorded run is teed in via
/// [`DurableStore::append`].
#[derive(Debug)]
pub struct DurableStore {
    wal: Wal,
    sync_every: Option<u64>,
    appended_since_sync: u64,
    /// Runs the log holds: recovered plus appended since open.
    runs: usize,
    /// The directory's lock file, removed on drop.
    lock_path: PathBuf,
    /// The open lock file whose OS lock this store holds; closing it (after
    /// `drop` has removed the name) releases the lock.
    _lock_file: File,
}

impl Drop for DurableStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

/// Takes the directory's advisory lock: an OS file lock on the `lock` file,
/// which then holds this process's pid for error reports. The kernel
/// releases the lock when its holder exits, however it exits, so a lock
/// file left by a dead process is simply re-taken. A live holder —
/// including another executor in this very process, since every open is
/// its own lock owner — is [`PersistError::Locked`].
///
/// A holder unlinks the file before it unlocks (see the `Drop` impl), so a
/// contender can end up locking a file that no longer has the `lock` name.
/// Acquire therefore checks that the file it locked is still the one the
/// name points at, and retries on the name's current file when it is not.
/// The lock never changes hands through a rename or a delete by a
/// contender, so two writers can never both believe they hold it.
fn acquire_lock(dir: &Path) -> Result<(PathBuf, File), PersistError> {
    use std::io::Write as _;
    use std::os::unix::fs::MetadataExt as _;
    let path = dir.join("lock");
    loop {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                // The holder writes its pid just after locking; 0 reports
                // a holder caught in between.
                let pid = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .unwrap_or(0);
                return Err(PersistError::Locked { pid, path });
            }
            Err(TryLockError::Error(e)) => return Err(PersistError::io(&path, e)),
        }
        let locked = file.metadata().map_err(|e| PersistError::io(&path, e))?;
        match std::fs::metadata(&path) {
            Ok(named) if (named.dev(), named.ino()) == (locked.dev(), locked.ino()) => {
                file.set_len(0)
                    .and_then(|()| write!(file, "{}", std::process::id()))
                    .map_err(|e| PersistError::io(&path, e))?;
                return Ok((path, file));
            }
            // The previous holder unlinked the file after we opened it.
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(PersistError::io(&path, e)),
        }
    }
}

impl DurableStore {
    /// Opens (or initializes) the durable store at `config.dir` for
    /// `space`, running crash recovery: full WAL replay with torn-tail
    /// truncation and domain verification of every frame. Returns the
    /// recovered [`ProvenanceStore`], the append handle, and a [`Recovery`]
    /// report.
    pub fn open(
        space: &Arc<ParamSpace>,
        config: &PersistConfig,
    ) -> Result<(ProvenanceStore, DurableStore, Recovery), PersistError> {
        std::fs::create_dir_all(&config.dir).map_err(|e| PersistError::io(&config.dir, e))?;
        let (lock_path, lock_file) = acquire_lock(&config.dir)?;
        match Self::open_locked(space, config) {
            Ok((store, wal, recovery)) => Ok((
                store,
                DurableStore {
                    wal,
                    sync_every: config.sync_every,
                    appended_since_sync: 0,
                    runs: recovery.runs,
                    lock_path,
                    _lock_file: lock_file,
                },
                recovery,
            )),
            Err(e) => {
                // A failed open must not leave the directory locked against
                // a retry from this same (live) process. The name goes
                // first; the lock is released when `lock_file` drops.
                let _ = std::fs::remove_file(&lock_path);
                Err(e)
            }
        }
    }

    /// The recovery body of [`DurableStore::open`]; the caller holds the
    /// directory lock.
    fn open_locked(
        space: &Arc<ParamSpace>,
        config: &PersistConfig,
    ) -> Result<(ProvenanceStore, Wal, Recovery), PersistError> {
        let digest = space_digest(space);
        let mut store = ProvenanceStore::new(space.clone());

        // The log streams: each frame is decoded, checked against the space,
        // and recorded before the next is read. The sink rejects — and
        // replay truncates, like a torn frame — a dense key that no longer
        // fits the (digest-matched) space (`into_run`'s domain check) and a
        // frame repeating an instance already recovered: writers append only
        // runs the store newly recorded, so a repeat is damage, and one
        // with the other outcome would trip `record`'s determinism assert.
        let replay_started = Instant::now();
        let summary = wal::replay(&config.dir, digest, |record| match record.into_run(space) {
            Ok(run) if store.lookup(&run.instance).is_none() => {
                store.record(run.instance, run.eval);
                true
            }
            _ => false,
        })?;

        probes().replay_ns.record_elapsed(replay_started);
        bugdoc_telemetry::event(
            bugdoc_telemetry::EventKind::WalReplay,
            u64_of(summary.frames),
            elapsed_us(replay_started),
            summary.truncated_bytes,
        );

        let wal = Wal::open(&config.dir, digest, config.segment_bytes)?;
        let recovery = Recovery {
            runs: store.len(),
            truncated_bytes: summary.truncated_bytes,
        };
        Ok((store, wal, recovery))
    }

    /// The log-tail position the next appended frame will start at (equally:
    /// the exclusive end position of everything appended so far).
    pub fn position(&self) -> WalPosition {
        self.wal.position()
    }

    /// Appends one newly recorded run to the WAL. Call in recording order —
    /// the WAL's frame order is the recovered store's run order.
    pub fn append(&mut self, run: &Run, space: &ParamSpace) -> Result<(), PersistError> {
        let started = Instant::now();
        let record = RunRecord::from_run(run, space);
        self.wal.append(&record)?;
        self.appended_since_sync += 1;
        self.runs += 1;
        probes().wal_append_ns.record_elapsed(started);
        Ok(())
    }

    /// True when `sync_every` appends have accumulated since the last sync
    /// — callers that append under a lock poll this, then run
    /// [`sync_if_due`](Self::sync_if_due) after releasing it.
    pub fn sync_due(&self) -> bool {
        matches!(self.sync_every, Some(every) if self.appended_since_sync >= every)
    }

    /// Fsyncs the WAL tail when [`sync_due`](Self::sync_due); a no-op
    /// otherwise.
    pub fn sync_if_due(&mut self) -> Result<(), PersistError> {
        if self.sync_due() {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), PersistError> {
        let started = Instant::now();
        self.wal.sync()?;
        probes().wal_fsync_ns.record_elapsed(started);
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Gracefully closes the store: fsyncs the WAL tail and releases the
    /// directory lock, which is released even when the sync fails. `store`
    /// is the history the caller kept in memory; debug builds assert it
    /// holds exactly the runs the log does, so memory is never ahead of disk.
    pub fn close(mut self, store: &ProvenanceStore) -> Result<(), PersistError> {
        debug_assert_eq!(
            store.len(),
            self.runs,
            "closing a history that differs from its log (recovered plus appended runs)"
        );
        self.sync()
        // Drop removes the lock file.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{EvalResult, Outcome, Value};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bugdoc-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("x", (0..10).collect::<Vec<_>>())
            .categorical("m", ["a", "b", "c"])
            .build()
    }

    fn run_for(s: &Arc<ParamSpace>, xi: u32, mi: u32) -> Run {
        let instance = s.instance_from_indices(&[xi, mi]);
        let x = s.by_name("x").unwrap();
        let outcome = Outcome::from_check(instance.get(x) != &Value::from(7));
        Run {
            instance,
            eval: EvalResult::of(outcome),
        }
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let dir = tmp("reopen");
        let s = space();
        let config = PersistConfig::new(&dir);
        let (store, mut durable, recovery) = DurableStore::open(&s, &config).unwrap();
        assert_eq!(recovery, Recovery::default());
        assert!(store.is_empty());
        let mut live = store;
        for xi in 0..10 {
            for mi in 0..3 {
                let run = run_for(&s, xi, mi);
                assert!(live.record(run.instance.clone(), run.eval));
                durable.append(&run, &s).unwrap();
            }
        }
        drop(durable);

        let (recovered, _, recovery) = DurableStore::open(&s, &config).unwrap();
        assert_eq!(recovery.runs, 30);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovered.len(), live.len());
        assert_eq!(recovered.num_failing(), live.num_failing());
        for (a, b) in recovered.runs().iter().zip(live.runs()) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.eval, b.eval);
        }
    }

    #[test]
    fn overflow_instances_persist_via_raw_frames() {
        let dir = tmp("overflow");
        let s = space();
        let config = PersistConfig::new(&dir);
        let (mut live, mut durable, _) = DurableStore::open(&s, &config).unwrap();
        let stray = Run {
            instance: bugdoc_core::Instance::new(vec![Value::from(99), Value::from("zz")]),
            eval: EvalResult::of(Outcome::Fail),
        };
        live.record(stray.instance.clone(), stray.eval);
        durable.append(&stray, &s).unwrap();
        let normal = run_for(&s, 1, 1);
        live.record(normal.instance.clone(), normal.eval);
        durable.append(&normal, &s).unwrap();
        drop(durable);

        let (recovered, _, recovery) = DurableStore::open(&s, &config).unwrap();
        assert_eq!(recovery.runs, 2);
        assert_eq!(recovered.lookup(&stray.instance).map(|e| e.outcome), Some(Outcome::Fail));
        assert_eq!(recovered.runs()[0].instance.dense_key(), None, "overflow path");
        assert!(recovered.runs()[1].instance.dense_key().is_some());
    }

    #[test]
    fn space_change_refuses_to_open() {
        let dir = tmp("specchange");
        let s = space();
        let config = PersistConfig::new(&dir);
        let (_, mut durable, _) = DurableStore::open(&s, &config).unwrap();
        durable.append(&run_for(&s, 0, 0), &s).unwrap();
        drop(durable);
        let other = ParamSpace::builder()
            .ordinal("x", (0..11).collect::<Vec<_>>()) // one more value
            .categorical("m", ["a", "b", "c"])
            .build();
        let err = DurableStore::open(&other, &config).unwrap_err();
        assert!(matches!(err, PersistError::SpaceMismatch { .. }));
        assert!(err.to_string().contains("different parameter space"));
    }

    #[test]
    fn directory_lock_refuses_live_holder_and_breaks_stale() {
        let dir = tmp("lock");
        let s = space();
        let config = PersistConfig::new(&dir);
        let (_, durable, _) = DurableStore::open(&s, &config).unwrap();
        // A second open while the first handle lives — even in this same
        // process — must refuse.
        let err = DurableStore::open(&s, &config).unwrap_err();
        assert!(matches!(err, PersistError::Locked { .. }), "{err}");
        assert!(err.to_string().contains("locked by live process"));
        drop(durable); // releases the lock
        let (_, durable, _) = DurableStore::open(&s, &config).unwrap();
        drop(durable);
        // A stale lock from a dead process is broken automatically. (Pid
        // u32::MAX - 2 exceeds any real pid_max, so /proc never has it.)
        std::fs::write(dir.join("lock"), format!("{}", u32::MAX - 2)).unwrap();
        let (_, durable, _) = DurableStore::open(&s, &config).unwrap();
        drop(durable);
        assert!(!dir.join("lock").exists(), "drop released the lock");
    }

    /// Regression test for the stale-lock-break race: contenders that all
    /// find a dead process's lock file must admit exactly one winner at a
    /// time, every loser must see `Locked`, and the winner's lock file
    /// must still exist (never deleted or moved out from under it). Lock
    /// protocols that break stale locks by deleting or renaming the file
    /// admitted two writers here.
    #[test]
    fn stale_lock_break_race_admits_exactly_one_writer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let dir = tmp("lockrace");
        let s = space();
        let config = PersistConfig::new(&dir);
        // Prime the directory (WAL header etc.) so racing opens do minimal
        // non-lock work, then release.
        drop(DurableStore::open(&s, &config).unwrap());

        const THREADS: usize = 8;
        const ROUNDS: usize = 25;
        for round in 0..ROUNDS {
            // Pre-seed a dead holder's lock for every round so each round
            // exercises the break path, not just plain contention.
            std::fs::write(dir.join("lock"), format!("{}", u32::MAX - 2)).unwrap();
            let holders = AtomicUsize::new(0);
            let winners = AtomicUsize::new(0);
            let barrier = Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        barrier.wait();
                        match DurableStore::open(&s, &config) {
                            Ok((_, durable, _)) => {
                                let live = holders.fetch_add(1, Ordering::SeqCst) + 1;
                                assert_eq!(live, 1, "two writers admitted (round {round})");
                                winners.fetch_add(1, Ordering::SeqCst);
                                // Hold the lock long enough for the losers'
                                // break attempts to land while we are live.
                                std::thread::sleep(std::time::Duration::from_millis(2));
                                assert!(
                                    dir.join("lock").exists(),
                                    "a contender deleted the live winner's lock (round {round})"
                                );
                                holders.fetch_sub(1, Ordering::SeqCst);
                                drop(durable);
                            }
                            Err(PersistError::Locked { .. }) => {}
                            Err(e) => panic!("unexpected acquire failure: {e}"),
                        }
                    });
                }
            });
            // More than one winner is legal only serially (a loser may
            // re-acquire after the first winner drops); overlap is caught
            // by the `live == 1` assert above. At least one contender must
            // break the stale lock and get through.
            assert!(
                winners.load(Ordering::SeqCst) >= 1,
                "no contender broke the stale lock (round {round})"
            );
            assert!(!dir.join("lock").exists(), "winner released on drop");
        }
        // No sidecar or temp litter left behind by the contention.
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(
                !name.starts_with("lock."),
                "leftover lock litter: {name}"
            );
        }
    }

    #[test]
    fn close_snapshots_and_releases_the_lock() {
        let dir = tmp("close");
        let s = space();
        let config = PersistConfig::new(&dir);
        let (mut live, mut durable, _) = DurableStore::open(&s, &config).unwrap();
        for xi in 0..5 {
            let run = run_for(&s, xi, 0);
            live.record(run.instance.clone(), run.eval);
            durable.append(&run, &s).unwrap();
        }
        durable.close(&live).unwrap();
        assert!(!dir.join("lock").exists(), "close released the lock");
        let (recovered, _, recovery) = DurableStore::open(&s, &config).unwrap();
        assert_eq!(recovery.runs, 5);
        assert_eq!(recovery.truncated_bytes, 0, "close left no torn bytes");
        assert_eq!(recovered.runs(), live.runs());
    }

    /// Snapshot files an older version left behind are not read: the log
    /// alone is recovered, and the files stay where they are.
    #[test]
    fn legacy_snapshot_files_are_ignored() {
        let dir = tmp("legacysnap");
        let s = space();
        let config = PersistConfig::new(&dir);
        let (mut live, mut durable, _) = DurableStore::open(&s, &config).unwrap();
        for xi in 0..3 {
            let run = run_for(&s, xi, 1);
            live.record(run.instance.clone(), run.eval);
            durable.append(&run, &s).unwrap();
        }
        durable.close(&live).unwrap();
        let legacy = dir.join("snap-000000000002.bds");
        std::fs::write(&legacy, b"BDSNAPv1 not a history").unwrap();
        let (recovered, _, recovery) = DurableStore::open(&s, &config).unwrap();
        assert_eq!((recovery.runs, recovery.truncated_bytes), (3, 0));
        assert_eq!(recovered.runs(), live.runs());
        assert!(legacy.exists());
    }

    #[test]
    fn failed_open_releases_the_lock() {
        let dir = tmp("lockfail");
        let s = space();
        let config = PersistConfig::new(&dir);
        let (_, mut durable, _) = DurableStore::open(&s, &config).unwrap();
        durable.append(&run_for(&s, 0, 0), &s).unwrap();
        drop(durable);
        let other = ParamSpace::builder().ordinal("z", [1, 2]).build();
        assert!(matches!(
            DurableStore::open(&other, &config),
            Err(PersistError::SpaceMismatch { .. })
        ));
        // The failed open must not wedge the directory for the real spec.
        let (store, _, _) = DurableStore::open(&s, &config).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = space_digest(&space());
        let b = space_digest(
            &ParamSpace::builder()
                .categorical("m", ["a", "b", "c"])
                .ordinal("x", (0..10).collect::<Vec<_>>())
                .build(),
        );
        let c = space_digest(
            &ParamSpace::builder()
                .ordinal("x", (0..10).collect::<Vec<_>>())
                .categorical("m", ["a", "b", "d"])
                .build(),
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, space_digest(&space()));
    }
}
