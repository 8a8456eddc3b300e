//! The transport abstraction under the FT collectives.
//!
//! [`crate::comm::Communicator`] implements the two-round fault-tolerant
//! collective protocol against this trait, so the *protocol* (gather with
//! per-rank timeouts, checksum verification, round-robin recovery,
//! rank-order folding) is written once and runs unchanged over two very
//! different fabrics:
//!
//! * [`crate::comm::CommFabric`] — the in-process channel star (ranks are
//!   threads of one process; a "kill" is a thread that stops
//!   participating);
//! * [`crate::proc::ProcFabric`] / [`crate::proc::WorkerEndpoint`] — real
//!   OS worker processes connected over Unix-domain sockets with
//!   length-prefixed, FNV-1a-checksummed frames (a "kill" is a literal
//!   `SIGKILL` delivered by the kernel).
//!
//! The trait is deliberately star-shaped, mirroring the protocol: the
//! root calls `root_recv`/`root_send` toward members, members call
//! `member_send`/`member_recv` toward the root. An implementation may
//! serve only one side (a worker process holds a single socket to the
//! root and has no business receiving member traffic); calling the other
//! side's methods returns [`TransportError::Closed`].
//!
//! Every receive takes an explicit timeout and every error is typed —
//! the collectives' no-deadlock guarantee rests on implementations never
//! blocking without a bound.

use crate::fault::{FtPolicy, FtReport, RecoverMode};
use std::fmt;
use std::time::Duration;

/// Member-to-root protocol messages.
#[derive(Clone, Debug)]
pub enum UpMsg {
    /// A collective contribution: sender's clock, checksum, payload.
    Data { t: f64, crc: u64, payload: Vec<f64> },
    /// Reply to a [`DownMsg::Recover`]: regenerated contributions, keyed
    /// by the lost rank they stand in for.
    Recovered { parts: Vec<(usize, Vec<f64>)> },
}

/// Root-to-member protocol messages.
#[derive(Clone, Debug)]
pub enum DownMsg {
    /// Recovery round: regenerate these lost ranks' contributions (may be
    /// empty — still reply, it keeps the round structure in lock-step).
    Recover { assignments: Vec<(usize, RecoverMode)> },
    /// Collective completed: synchronized exit time, this rank's reply,
    /// and what fault handling was needed.
    Final { max_entry: f64, reply: Vec<f64>, report: FtReport },
    /// Collective cannot complete; return an error instead of hanging.
    Abort { cause: String },
}

/// Why a transport operation failed. The communicator maps these onto
/// [`crate::comm::CommError`] with the collective's name attached.
#[derive(Clone, Debug, PartialEq)]
pub enum TransportError {
    /// Nothing arrived within the window.
    Timeout { waited: Duration },
    /// The peer is gone: channel disconnected, socket EOF/reset, or no
    /// connection was ever established for that rank.
    Closed { detail: String },
    /// A frame arrived but could not be decoded (truncated, oversized,
    /// checksum mismatch, non-finite float, unknown tag). The stream can
    /// no longer be trusted.
    Frame { detail: String },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Timeout { waited } => write!(f, "timed out after {waited:?}"),
            TransportError::Closed { detail } => write!(f, "connection closed: {detail}"),
            TransportError::Frame { detail } => write!(f, "bad frame: {detail}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A star-shaped message fabric connecting rank 0 (the root) to every
/// other rank, with shared peer-liveness flags.
pub trait Transport: Send + Sync {
    /// Number of ranks (including the root).
    fn size(&self) -> usize;

    /// The fault-tolerance policy every rank of this fabric follows.
    fn policy(&self) -> FtPolicy;

    /// Is `rank` known dead?
    fn is_dead(&self, rank: usize) -> bool;

    /// Mark `rank` dead so later collectives skip it instantly instead of
    /// re-paying the detection timeout.
    fn mark_dead(&self, rank: usize);

    /// Root side: wait up to `timeout` for a protocol message from `from`.
    fn root_recv(&self, from: usize, timeout: Duration) -> Result<UpMsg, TransportError>;

    /// Root side: ship `msg` to `to`. Must not block indefinitely; a full
    /// or broken link is an error (the root marks the rank dead).
    fn root_send(&self, to: usize, msg: DownMsg) -> Result<(), TransportError>;

    /// Member side: ship this rank's `msg` to the root.
    fn member_send(&self, rank: usize, msg: UpMsg) -> Result<(), TransportError>;

    /// Member side: wait up to `timeout` for the root's next message.
    fn member_recv(&self, rank: usize, timeout: Duration) -> Result<DownMsg, TransportError>;
}
