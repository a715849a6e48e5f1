//! Wait-free runtime telemetry for the BugDoc workspace.
//!
//! BugDoc's whole premise is explaining opaque computational processes
//! (Lourenço et al., SIGMOD 2020) — this crate applies the same discipline
//! to our own runtime. It provides three primitives and two global
//! facilities:
//!
//! - [`Counter`] / [`Gauge`] — single atomic words.
//! - [`Histogram`] — a log₂-bucketed latency histogram over a fixed
//!   `[AtomicU64; 64]`, recording any `u64` sample with two `fetch_add`s
//!   and one store-free bucket increment. No allocation, no locking, no
//!   branching beyond the bucket computation.
//! - A process-global **registry** ([`counter`], [`gauge`], [`histogram`],
//!   [`render`]) that names metrics once and renders them as Prometheus
//!   text exposition entirely in memory.
//! - A process-global **flight recorder** ([`event`], [`flight_dump`]) — a
//!   fixed-capacity ring of structured events (session lifecycle, diagnosis
//!   phases, WAL replays, bounds-gate decisions) that overwrites
//!   its oldest entry and never reallocates.
//!
//! # The record-path contract (lint rule W008)
//!
//! Everything reachable from a record call — `Counter::add`,
//! `Gauge::set`, `Histogram::record`, `FlightRecorder::record` — is
//! wait-free: no lock acquisition, no allocation, no blocking syscall.
//! The registration/rendering half ([`mod@registry`]) is the only module
//! allowed to lock or allocate, and it is only ever called from scrape
//! and CLI paths. `bugdoc-lint` enforces this split mechanically (W008),
//! the same way W001 pins word-granularity bit loops to the kernel homes.
//!
//! Instrumentation sites cache their metric handle in a `OnceLock` so the
//! registry's `Mutex` is touched once per site, not once per sample:
//!
//! ```
//! use std::sync::OnceLock;
//! fn appends() -> &'static bugdoc_telemetry::Counter {
//!     static C: OnceLock<&'static bugdoc_telemetry::Counter> = OnceLock::new();
//!     C.get_or_init(|| bugdoc_telemetry::counter("demo_appends_total", "demo counter"))
//! }
//! appends().inc();
//! assert!(appends().get() >= 1);
//! ```

pub mod flight;
pub mod metrics;
pub mod registry;

pub use flight::{event, EventKind, FlightEvent, FlightRecorder, FLIGHT_CAPACITY};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{counter, flight_dump, gauge, histogram, render};
