//! # bugdoc-serve
//!
//! The diagnosis service daemon behind `bugdoc serve`: a long-lived process
//! serving concurrent debugging sessions over **one shared executor per
//! pipeline spec**, so sessions debugging the same pipeline share
//! executions, provenance, and the durable store — instead of each
//! one-shot CLI run paying the full execution bill alone.
//!
//! The crate splits front-end-agnostically:
//!
//! * [`protocol`] — the line-delimited wire protocol: pure parse/render,
//!   no I/O.
//! * [`session`] — the [`SessionManager`]: session lifecycle
//!   (create/attach/detach/close), spec-keyed executor sharing, and
//!   admission control via per-session budget reservations.
//! * [`daemon`] — the Unix-domain-socket connection handlers, each
//!   accepting a connection, serving it and accepting the next, built
//!   around a caller-owned shutdown flag for clean `SIGTERM` drains.
//! * [`client`] — a small blocking client (used by `bugdoc connect` and
//!   the integration tests).
//!
//! The front end (the CLI) owns everything this crate deliberately lacks:
//! spec parsing, socket binding/unlinking, and signal handling. Handlers
//! here never touch the filesystem or spawn processes — lint rule W007
//! enforces that the only blocking a session handler does is a
//! short-timeout socket read, so one slow disk or subprocess can never
//! freeze the control plane. Pipeline execution itself happens on the
//! executor the factory built, outside any manager lock.

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod session;

pub use client::{Client, Reply};
pub use daemon::{Daemon, DaemonSummary};
pub use protocol::{parse_command, Command, DiagnoseParams};
pub use session::{render_executor_counters, ExecutorFactory, SessionManager, SpecAck};
