//! The flight recorder: a fixed-capacity ring of recent structured events.
//!
//! Writers claim a slot with one `fetch_add` and fill it behind a per-slot
//! sequence word (a seqlock): the sequence is odd while the write is in
//! flight and settles to an even value derived from the global index. A
//! reader that observes an odd or changed sequence discards the slot, so a
//! dump is best-effort by construction — it never blocks a writer and a
//! writer never blocks it.
//!
//! This module is a W008 record path: the ring is statically sized
//! ([`FLIGHT_CAPACITY`] slots), overwrites its oldest entry on wrap, and
//! never allocates. Reading slots out into a `Vec` lives in
//! [`crate::registry`], the rendering half.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Ring capacity in events. A power of two so the slot index is a mask,
/// not a division.
pub const FLIGHT_CAPACITY: usize = 1024;

/// What happened. Discriminants are stable wire values (the `FLIGHT`
/// daemon command emits them by name, tests match on them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum EventKind {
    /// A serve session was created. args: [session id, 0, 0]
    SessionCreated = 1,
    /// A serve session closed. args: [session id, 0, 0]
    SessionClosed = 2,
    /// A session bound a spec to a shared executor.
    /// args: [session id, executor index, sessions now bound]
    SpecBound = 3,
    /// A diagnosis began. args: [session id or 0 (one-shot), 0, 0]
    DiagnoseStart = 4,
    /// A diagnosis finished.
    /// args: [session id or 0, duration µs, new executions]
    DiagnoseEnd = 5,
    // 6 belonged to a removed kind (WAL snapshots); it is not reused, so an
    // old dump never decodes as a different event.
    /// A WAL replay completed during open.
    /// args: [frames replayed, duration µs, truncated bytes]
    WalReplay = 7,
    // 8 and 9 belonged to removed kinds (eviction pressure, bounds
    // pruning); they are not reused either.
}

impl EventKind {
    /// The stable name the wire protocol and docs use.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SessionCreated => "session_created",
            EventKind::SessionClosed => "session_closed",
            EventKind::SpecBound => "spec_bound",
            EventKind::DiagnoseStart => "diagnose_start",
            EventKind::DiagnoseEnd => "diagnose_end",
            EventKind::WalReplay => "wal_replay",
        }
    }

    /// Decodes a stored discriminant; `None` for a torn or zeroed slot.
    pub fn from_code(code: u64) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::SessionCreated,
            2 => EventKind::SessionClosed,
            3 => EventKind::SpecBound,
            4 => EventKind::DiagnoseStart,
            5 => EventKind::DiagnoseEnd,
            7 => EventKind::WalReplay,
            _ => return None,
        })
    }
}

/// One decoded ring entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (0-based, monotone across wraps).
    pub seq: u64,
    /// Microseconds since the recorder's first use in this process.
    pub t_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`] docs).
    pub args: [u64; 3],
}

/// One ring slot: a seqlock word plus the event fields.
struct Slot {
    /// Odd while a write is in flight; `2 * (index + 1)` once settled.
    seq: AtomicU64,
    kind: AtomicU64,
    t_us: AtomicU64,
    a0: AtomicU64,
    a1: AtomicU64,
    a2: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            t_us: AtomicU64::new(0),
            a0: AtomicU64::new(0),
            a1: AtomicU64::new(0),
            a2: AtomicU64::new(0),
        }
    }
}

/// The fixed-capacity event ring. All storage is inline; recording is
/// wait-free and wraps over the oldest slot.
pub struct FlightRecorder {
    head: AtomicU64,
    slots: [Slot; FLIGHT_CAPACITY],
}

impl FlightRecorder {
    /// A zeroed ring, usable in statics.
    pub const fn new() -> Self {
        // Interior-mutable const item, re-instantiated per slot (the same
        // std idiom Histogram's bucket array uses).
        const EMPTY: Slot = Slot::new();
        FlightRecorder { head: AtomicU64::new(0), slots: [EMPTY; FLIGHT_CAPACITY] }
    }

    /// Records one event. Wait-free: one `fetch_add` to claim a slot, then
    /// plain stores behind the slot's sequence word.
    pub fn record(&self, kind: EventKind, args: [u64; 3]) {
        // Relaxed: the claim only needs uniqueness; publication ordering is
        // provided by the per-slot Release store of the settled sequence.
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx as usize) & (FLIGHT_CAPACITY - 1)];
        // Odd marker: readers that land mid-write see it and discard.
        // Relaxed is enough for the marker itself — a reader validates by
        // re-reading the sequence after the fields (Acquire below).
        slot.seq.store(idx.wrapping_mul(2).wrapping_add(1), Ordering::Relaxed);
        // Relaxed field stores: ordered against readers by the seq
        // Release/Acquire pair, not individually.
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.t_us.store(now_us(), Ordering::Relaxed); // relaxed: as above
        slot.a0.store(args[0], Ordering::Relaxed); // relaxed: as above
        slot.a1.store(args[1], Ordering::Relaxed); // relaxed: as above
        slot.a2.store(args[2], Ordering::Relaxed); // relaxed: as above
        // Settled even value encodes the global index; Release publishes
        // the field stores above to any Acquire reader of this word.
        slot.seq.store(idx.wrapping_add(1).wrapping_mul(2), Ordering::Release);
    }

    /// The next global sequence number (equals the number of events ever
    /// recorded, modulo u64 wrap).
    pub fn cursor(&self) -> u64 {
        // Relaxed: a monotone watermark for sizing a read loop.
        self.head.load(Ordering::Relaxed)
    }

    /// Reads the slot that global index `idx` occupies, validating the
    /// seqlock. `None` when the slot is mid-write, has been overwritten by
    /// a later event, or has never been written.
    pub fn read_slot(&self, idx: u64) -> Option<FlightEvent> {
        let slot = &self.slots[(idx as usize) & (FLIGHT_CAPACITY - 1)];
        let expect = idx.wrapping_add(1).wrapping_mul(2);
        // Acquire pairs with record()'s Release: seeing the settled value
        // guarantees the field stores below are visible.
        if slot.seq.load(Ordering::Acquire) != expect {
            return None;
        }
        // Relaxed field loads: bracketed by the two seq checks.
        let kind = slot.kind.load(Ordering::Relaxed);
        let t_us = slot.t_us.load(Ordering::Relaxed); // relaxed: as above
        let args = [
            slot.a0.load(Ordering::Relaxed), // relaxed: as above
            slot.a1.load(Ordering::Relaxed), // relaxed: as above
            slot.a2.load(Ordering::Relaxed), // relaxed: as above
        ];
        // Re-validate: a writer that wrapped onto this slot mid-read left a
        // different (or odd) sequence — discard the torn read. Acquire
        // keeps this load from sinking above the field loads.
        if slot.seq.load(Ordering::Acquire) != expect {
            return None;
        }
        Some(FlightEvent { seq: idx, t_us, kind: EventKind::from_code(kind)?, args })
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-global ring.
static FLIGHT: FlightRecorder = FlightRecorder::new();

/// The process-global ring, for readers ([`crate::registry::flight_dump`]).
pub fn flight() -> &'static FlightRecorder {
    &FLIGHT
}

/// Records one event on the process-global ring.
#[inline]
pub fn event(kind: EventKind, a0: u64, a1: u64, a2: u64) {
    FLIGHT.record(kind, [a0, a1, a2]);
}

/// Microseconds since this process first touched the recorder. Monotonic
/// (`Instant`-backed), saturating far beyond any process lifetime.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let us = EPOCH.get_or_init(Instant::now).elapsed().as_micros();
    if us > u64::MAX as u128 { u64::MAX } else { us as u64 }
}
