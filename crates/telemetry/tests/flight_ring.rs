//! Flight-recorder ring semantics: wraparound overwrites the oldest entry,
//! reads validate the seqlock, and the global dump returns recent events
//! oldest-first.

use bugdoc_telemetry::{event, flight_dump, EventKind, FlightRecorder, FLIGHT_CAPACITY};

#[test]
fn wraparound_overwrites_oldest() {
    let ring = Box::new(FlightRecorder::new());
    let total = FLIGHT_CAPACITY as u64 + 100;
    for i in 0..total {
        ring.record(EventKind::DiagnoseEnd, [i, i * 2, i * 3]);
    }
    assert_eq!(ring.cursor(), total);
    // The first 100 global indices have been overwritten by the wrap.
    for i in 0..100 {
        assert!(ring.read_slot(i).is_none(), "index {i} should be overwritten");
    }
    // Everything still resident reads back exactly.
    for i in 100..total {
        let ev = ring.read_slot(i).unwrap_or_else(|| panic!("index {i} missing"));
        assert_eq!(ev.seq, i);
        assert_eq!(ev.kind, EventKind::DiagnoseEnd);
        assert_eq!(ev.args, [i, i * 2, i * 3]);
    }
}

#[test]
fn capacity_is_fixed() {
    // The ring is inline storage: recording far past capacity never grows
    // it — cursor advances, resident window stays at FLIGHT_CAPACITY.
    let ring = Box::new(FlightRecorder::new());
    for round in 0..3u64 {
        for i in 0..FLIGHT_CAPACITY as u64 {
            ring.record(EventKind::WalReplay, [round, i, 0]);
        }
        let cursor = ring.cursor();
        let resident = (0..cursor).filter(|&i| ring.read_slot(i).is_some()).count();
        assert_eq!(resident, FLIGHT_CAPACITY);
    }
}

#[test]
fn unwritten_slots_read_none() {
    let ring = Box::new(FlightRecorder::new());
    assert!(ring.read_slot(0).is_none());
    ring.record(EventKind::WalReplay, [7, 8, 9]);
    assert!(ring.read_slot(0).is_some());
    assert!(ring.read_slot(1).is_none());
}

#[test]
fn global_dump_returns_recent_events_oldest_first() {
    event(EventKind::SessionCreated, 41, 0, 0);
    event(EventKind::SpecBound, 41, 3, 1);
    event(EventKind::SessionClosed, 41, 0, 0);
    let dump = flight_dump(FLIGHT_CAPACITY);
    assert!(dump.len() >= 3);
    // Oldest-first ordering and our three events at the tail.
    for pair in dump.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    let tail: Vec<_> = dump.iter().rev().take(3).rev().map(|e| (e.kind, e.args[0])).collect();
    assert_eq!(
        tail,
        vec![
            (EventKind::SessionCreated, 41),
            (EventKind::SpecBound, 41),
            (EventKind::SessionClosed, 41),
        ]
    );
}

#[test]
fn kind_codes_round_trip() {
    for kind in [
        EventKind::SessionCreated,
        EventKind::SessionClosed,
        EventKind::SpecBound,
        EventKind::DiagnoseStart,
        EventKind::DiagnoseEnd,
        EventKind::WalReplay,
    ] {
        assert_eq!(EventKind::from_code(kind as u64), Some(kind));
        assert!(!kind.name().is_empty());
    }
    assert_eq!(EventKind::from_code(0), None);
    assert_eq!(
        EventKind::from_code(6),
        None,
        "retired kinds stay unassigned"
    );
    assert_eq!(EventKind::from_code(8), None);
    assert_eq!(EventKind::from_code(9), None);
    assert_eq!(EventKind::from_code(999), None);
}
