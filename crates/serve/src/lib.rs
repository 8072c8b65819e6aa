//! `sdbp-serve` — the long-running policy-evaluation service.
//!
//! The paper's argument is that sampling dead block prediction is cheap
//! enough to *deploy*; this crate makes it cheap to *evaluate at scale*.
//! Instead of one process per `(trace, policy)` cell, a daemon holds the
//! policy registry and the `sdbp-engine` pool resident and accepts replay
//! jobs over TCP:
//!
//! * [`protocol`] — the length-prefixed binary frame codec (varints
//!   shared with the `.sdbt` container via `sdbp-traceio`), with version
//!   negotiation and typed [`FrameError`]s for every way a peer can be
//!   wrong.
//! * [`server`] — thread-per-connection sessions multiplexed onto a
//!   bounded job queue drained by executor threads; saturation is an
//!   explicit `Busy` reply, never an unbounded backlog; shutdown is a
//!   flag plus listener wakeup, never `process::exit`.
//! * [`client`] — a blocking client library the `sdbp-repro submit`
//!   subcommand (and the integration tests) drive.
//!
//! The determinism contract: a job submitted over the wire produces miss
//! counts and IPC byte-identical to the same replay run in-process. The
//! server replays with the exact pipeline `sdbp-repro trace replay`
//! uses, and floats travel the wire as `f64::to_bits`, so nothing is
//! lost to text formatting.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod error;
pub mod protocol;
pub mod server;
mod session;

pub use client::{Client, JobOutcome, JobRequest, SubmitReply, TraceSubmission};
pub use error::{FrameError, ServeError};
pub use protocol::{Frame, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};
pub use session::MAX_LLC_LINES;

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Job closures run under the engine's panic isolation, so a poisoned
/// mutex here means the data is still structurally sound — the panic was
/// contained and reported as a `JobFailure`. Recovering keeps the
/// session layer reusable instead of cascading the poison.
pub(crate) fn lock_clean<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
