//! The multi-process transport: real OS worker processes over
//! Unix-domain sockets.
//!
//! Topology mirrors the in-process star: the **supervisor** (the process
//! that calls [`Supervisor::launch`]) plays rank 0 and owns one socket
//! per worker; each **worker** process plays one member rank over a
//! single socket back to the supervisor ([`WorkerEndpoint`]).
//!
//! Lifecycle:
//!
//! 1. `launch` binds a fresh Unix listener in a private temp directory,
//!    spawns one child per member rank (the caller builds the `Command` —
//!    typically a re-exec of the current binary with rank/socket env
//!    vars), and runs a deadline-bounded accept loop;
//! 2. each worker connects and sends [`crate::wire::Hello`] (magic +
//!    version + rank); the supervisor validates and replies
//!    [`crate::wire::Welcome`] (size + [`FtPolicy`]);
//! 3. the application layer ships a `JOB` frame per rank and waits for
//!    `READY` / `WORKER_ERR`;
//! 4. collectives run through the [`Transport`] impls on
//!    [`ProcFabric`] (root side) and [`WorkerEndpoint`] (member side);
//! 5. [`Supervisor::reap`] collects every child's OS exit status
//!    (`"killed by signal 9 (SIGKILL)"`, `"exited with code 0"`, ...).
//!
//! Failure detection semantics (vs. the in-process fabric): a timeout
//! still means "no frame within the window", but a dead *process* is
//! usually detected faster and more positively — the kernel closes the
//! socket, so reads return EOF/ECONNRESET ([`TransportError::Closed`])
//! instead of burning the full timeout. A child that dies before even
//! connecting is caught by `try_wait` polling inside the accept loop,
//! exit status in hand. All three roads lead to the same protocol-level
//! classification (rank dead → recovery), which is one leg of the
//! cross-transport bit-identity argument.
//!
//! Every blocking read and write here is deadline-bounded; nothing in
//! this module can hang past its timeout or panic on malformed frames.

use crate::fault::FtPolicy;
use crate::transport::{DownMsg, Transport, TransportError, UpMsg};
use crate::wire::{self, kind, Hello, Welcome};
use parking_lot::Mutex;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why the supervisor could not assemble or drive the worker fleet.
#[derive(Clone, Debug)]
pub enum ProcError {
    /// An OS-level operation failed (bind, spawn, accept).
    Io { context: &'static str, detail: String },
    /// A worker rejected the job (e.g. its `validate_system` failed).
    WorkerRejected { rank: usize, detail: String },
    /// A worker died or went silent before joining the run; `status` is
    /// its OS exit status when captured.
    WorkerLost { rank: usize, status: String },
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcError::Io { context, detail } => write!(f, "{context}: {detail}"),
            ProcError::WorkerRejected { rank, detail } => {
                write!(f, "worker {rank} rejected the job: {detail}")
            }
            ProcError::WorkerLost { rank, status } => {
                write!(f, "worker {rank} lost before joining ({status})")
            }
        }
    }
}

impl std::error::Error for ProcError {}

/// Human-readable OS exit status ("killed by signal 9 (SIGKILL)").
pub fn describe_status(status: ExitStatus) -> String {
    if let Some(sig) = status.signal() {
        if sig == 9 {
            "killed by signal 9 (SIGKILL)".to_string()
        } else {
            format!("killed by signal {sig}")
        }
    } else if let Some(code) = status.code() {
        format!("exited with code {code}")
    } else {
        "exited with unknown status".to_string()
    }
}

fn closed(context: &str, e: &std::io::Error) -> TransportError {
    TransportError::Closed { detail: format!("{context}: {e}") }
}

fn frame_err(e: wire::WireError) -> TransportError {
    TransportError::Frame { detail: e.to_string() }
}

const POLL_GRAIN: Duration = Duration::from_millis(2);
/// First sleep of a [`Backoff`].
const POLL_FIRST: Duration = Duration::from_micros(50);

/// Sleeps between polls of a child or a listener: the first is
/// [`POLL_FIRST`], each next one twice the last, up to [`POLL_GRAIN`]. A
/// worker that exits or connects right away is seen within tens of
/// microseconds; a slow one costs about the wake-ups of a fixed grain.
struct Backoff(Duration);

impl Backoff {
    fn new() -> Backoff {
        Backoff(POLL_FIRST)
    }

    fn sleep(&mut self) {
        std::thread::sleep(self.0);
        self.0 = (self.0 * 2).min(POLL_GRAIN);
    }
}

/// Fill `buf` from `stream`, never blocking past `deadline`. `Ok(0)`
/// from the kernel means the peer's end is gone (EOF) — for a worker
/// process that is how a `SIGKILL` announces itself.
fn read_exact_deadline(
    stream: &UnixStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<(), TransportError> {
    let mut filled = 0;
    while filled < buf.len() {
        let now = Instant::now();
        if now >= deadline {
            return Err(TransportError::Timeout { waited: Duration::ZERO });
        }
        let remaining = (deadline - now).max(POLL_GRAIN);
        stream
            .set_read_timeout(Some(remaining))
            .map_err(|e| closed("set_read_timeout", &e))?;
        match (&mut (&*stream)).read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(TransportError::Closed {
                    detail: "connection closed (EOF)".to_string(),
                })
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(closed("read", &e)),
        }
    }
    Ok(())
}

fn write_all_deadline(
    stream: &UnixStream,
    mut buf: &[u8],
    deadline: Instant,
) -> Result<(), TransportError> {
    while !buf.is_empty() {
        let now = Instant::now();
        if now >= deadline {
            return Err(TransportError::Timeout { waited: Duration::ZERO });
        }
        let remaining = (deadline - now).max(POLL_GRAIN);
        stream
            .set_write_timeout(Some(remaining))
            .map_err(|e| closed("set_write_timeout", &e))?;
        match (&mut (&*stream)).write(buf) {
            Ok(0) => {
                return Err(TransportError::Closed {
                    detail: "connection closed during write".to_string(),
                })
            }
            Ok(n) => buf = &buf[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(closed("write", &e)),
        }
    }
    Ok(())
}

/// Read one complete frame: header, body, checksum — each length-checked
/// and deadline-bounded.
pub fn read_frame(stream: &UnixStream, timeout: Duration) -> Result<(u8, Vec<u8>), TransportError> {
    let deadline = Instant::now() + timeout;
    let mut header = [0u8; wire::HEADER_LEN];
    read_exact_deadline(stream, &mut header, deadline).map_err(|e| match e {
        TransportError::Timeout { .. } => TransportError::Timeout { waited: timeout },
        other => other,
    })?;
    let (frame_kind, len) = wire::parse_header(&header).map_err(frame_err)?;
    let mut rest = vec![0u8; len + wire::TRAILER_LEN];
    read_exact_deadline(stream, &mut rest, deadline).map_err(|e| match e {
        TransportError::Timeout { .. } => TransportError::Timeout { waited: timeout },
        other => other,
    })?;
    let crc_bytes = rest.split_off(len);
    let mut crc = [0u8; 8];
    // PANIC-OK: read_exact_deadline filled exactly len + 8 bytes, so the CRC tail is 8 bytes.
    crc.copy_from_slice(&crc_bytes);
    wire::check_frame(frame_kind, &rest, u64::from_le_bytes(crc)).map_err(frame_err)?;
    Ok((frame_kind, rest))
}

/// Write one complete frame, deadline-bounded.
pub fn write_frame(
    stream: &UnixStream,
    frame_kind: u8,
    body: &[u8],
    timeout: Duration,
) -> Result<(), TransportError> {
    write_all_deadline(stream, &wire::frame(frame_kind, body), Instant::now() + timeout)
}

// ---- root side ----

/// Root-side fabric over per-worker sockets. Implements the root half of
/// [`Transport`]; member calls error out (the root is never a member of
/// a process-transport run — it runs in the supervisor).
pub struct ProcFabric {
    size: usize,
    policy: FtPolicy,
    /// `peers[r]` — the socket to worker rank r (`None` for rank 0 and
    /// for workers that never connected).
    peers: Vec<Option<Mutex<UnixStream>>>,
    dead: Vec<AtomicBool>,
    /// Captured OS exit statuses of dead workers, by rank.
    exits: Mutex<Vec<(usize, String)>>,
}

impl ProcFabric {
    fn peer(&self, r: usize) -> Result<&Mutex<UnixStream>, TransportError> {
        self.peers.get(r).and_then(|p| p.as_ref()).ok_or_else(|| TransportError::Closed {
            detail: format!("rank {r} has no connected worker"),
        })
    }

    /// Record a dead worker's exit status (first status per rank wins).
    pub fn record_exit(&self, rank: usize, status: String) {
        let mut exits = self.exits.lock();
        if !exits.iter().any(|(r, _)| *r == rank) {
            exits.push((rank, status));
        }
    }

    /// Captured exit statuses so far.
    pub fn exits(&self) -> Vec<(usize, String)> {
        self.exits.lock().clone()
    }

    /// Receive the next raw frame from `rank` (application frames like
    /// `READY`/`DONE` use this; collectives go through [`Transport`]).
    pub fn recv_raw(&self, rank: usize, timeout: Duration) -> Result<(u8, Vec<u8>), TransportError> {
        let peer = self.peer(rank)?;
        let stream = peer.lock();
        read_frame(&stream, timeout)
    }

    /// Ship a raw frame to `rank`.
    pub fn send_raw(&self, rank: usize, frame_kind: u8, body: &[u8]) -> Result<(), TransportError> {
        let peer = self.peer(rank)?;
        let stream = peer.lock();
        write_frame(&stream, frame_kind, body, self.policy.timeout)
    }

    /// Receive protocol frames from `rank`, skipping stale non-collective
    /// frames (e.g. a `DONE` from a worker that erred out early) until a
    /// frame `want` accepts arrives or the deadline passes.
    fn recv_matching<T>(
        &self,
        rank: usize,
        timeout: Duration,
        want: impl Fn(u8, &[u8]) -> Option<Result<T, TransportError>>,
    ) -> Result<T, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout { waited: timeout });
            }
            let (k, body) = self.recv_raw(rank, deadline - now)?;
            if let Some(res) = want(k, &body) {
                return res;
            }
        }
    }
}

impl Transport for ProcFabric {
    fn size(&self) -> usize {
        self.size
    }

    fn policy(&self) -> FtPolicy {
        self.policy
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::Acquire)
    }

    fn mark_dead(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::Release);
    }

    fn root_recv(&self, from: usize, timeout: Duration) -> Result<UpMsg, TransportError> {
        self.recv_matching(from, timeout, |k, body| match k {
            kind::UP_DATA | kind::UP_RECOVERED => Some(wire::decode_up(k, body).map_err(frame_err)),
            _ => None, // stale non-collective frame; keep reading
        })
    }

    fn root_send(&self, to: usize, msg: DownMsg) -> Result<(), TransportError> {
        let (k, body) = wire::encode_down(&msg);
        self.send_raw(to, k, &body)
    }

    fn member_send(&self, _rank: usize, _msg: UpMsg) -> Result<(), TransportError> {
        Err(TransportError::Closed { detail: "ProcFabric is root-side only".to_string() })
    }

    fn member_recv(&self, _rank: usize, _timeout: Duration) -> Result<DownMsg, TransportError> {
        Err(TransportError::Closed { detail: "ProcFabric is root-side only".to_string() })
    }
}

// ---- member side ----

/// A worker process's single socket back to the supervisor. Implements
/// the member half of [`Transport`]; root calls error out.
pub struct WorkerEndpoint {
    rank: usize,
    size: usize,
    policy: FtPolicy,
    stream: Mutex<UnixStream>,
}

impl WorkerEndpoint {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Ship a raw application frame (`READY`, `WORKER_ERR`, `DONE`).
    pub fn send_raw(&self, frame_kind: u8, body: &[u8]) -> Result<(), TransportError> {
        let stream = self.stream.lock();
        write_frame(&stream, frame_kind, body, self.policy.timeout)
    }
}

impl Transport for WorkerEndpoint {
    fn size(&self) -> usize {
        self.size
    }

    fn policy(&self) -> FtPolicy {
        self.policy
    }

    fn is_dead(&self, _rank: usize) -> bool {
        // Members learn about dead peers from FtReports, not liveness
        // flags; only the root tracks them.
        false
    }

    fn mark_dead(&self, _rank: usize) {}

    fn root_recv(&self, _from: usize, _timeout: Duration) -> Result<UpMsg, TransportError> {
        Err(TransportError::Closed { detail: "WorkerEndpoint is member-side only".to_string() })
    }

    fn root_send(&self, _to: usize, _msg: DownMsg) -> Result<(), TransportError> {
        Err(TransportError::Closed { detail: "WorkerEndpoint is member-side only".to_string() })
    }

    fn member_send(&self, _rank: usize, msg: UpMsg) -> Result<(), TransportError> {
        let (k, body) = wire::encode_up(&msg);
        self.send_raw(k, &body)
    }

    fn member_recv(&self, _rank: usize, timeout: Duration) -> Result<DownMsg, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout { waited: timeout });
            }
            let stream = self.stream.lock();
            let (k, body) = read_frame(&stream, deadline - now)?;
            drop(stream);
            match k {
                kind::DOWN_RECOVER | kind::DOWN_FINAL | kind::DOWN_ABORT => {
                    return wire::decode_down(k, &body).map_err(frame_err);
                }
                _ => { /* stale frame; keep reading */ }
            }
        }
    }
}

/// Connect to the supervisor, handshake, and receive the job: the worker
/// side of the launch protocol. Returns the endpoint plus the raw `JOB`
/// body (the application layer owns its encoding).
pub fn worker_connect(
    sock: &Path,
    rank: usize,
    timeout: Duration,
) -> Result<(WorkerEndpoint, Vec<u8>), ProcError> {
    let io = |context: &'static str| {
        move |e: TransportError| ProcError::Io { context, detail: e.to_string() }
    };
    let stream = UnixStream::connect(sock)
        .map_err(|e| ProcError::Io { context: "connect to supervisor", detail: e.to_string() })?;
    let hello =
        Hello { version: wire::WIRE_VERSION, rank, pid: std::process::id() };
    write_frame(&stream, kind::HELLO, &wire::encode_hello(&hello), timeout)
        .map_err(io("send hello"))?;
    let (k, body) = read_frame(&stream, timeout).map_err(io("await welcome"))?;
    if k != kind::WELCOME {
        return Err(ProcError::Io {
            context: "await welcome",
            detail: format!("unexpected frame kind {k}"),
        });
    }
    let welcome = wire::decode_welcome(&body)
        .map_err(|e| ProcError::Io { context: "decode welcome", detail: e.to_string() })?;
    let (k, job) = read_frame(&stream, timeout).map_err(io("await job"))?;
    if k != kind::JOB {
        return Err(ProcError::Io {
            context: "await job",
            detail: format!("unexpected frame kind {k}"),
        });
    }
    let Welcome { size, policy, .. } = welcome;
    Ok((WorkerEndpoint { rank, size, policy, stream: Mutex::new(stream) }, job))
}

// ---- supervisor ----

static SOCK_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Owns the worker fleet: children, their sockets, and the socket dir.
pub struct Supervisor {
    fabric: Arc<ProcFabric>,
    children: Vec<Option<Child>>,
    dir: PathBuf,
    /// Ranks (with statuses) that never made it through the handshake.
    startup_lost: Vec<(usize, String)>,
    reaped: bool,
}

impl Supervisor {
    /// Spawn `size - 1` worker processes (ranks `1..size`) and run the
    /// handshake. `make_command` builds the command for one rank given
    /// the socket path (typically a re-exec of `std::env::current_exe()`
    /// with rank/socket env vars).
    ///
    /// Workers that fail to spawn, die before connecting (their exit
    /// status is captured via `try_wait` polling), or miss the
    /// `startup_timeout` are *not* fatal: they are marked dead in the
    /// fabric with their status recorded, and surface through
    /// [`Supervisor::startup_lost`] — the caller decides whether
    /// recovery can absorb them.
    pub fn launch(
        size: usize,
        policy: FtPolicy,
        startup_timeout: Duration,
        make_command: &mut dyn FnMut(usize, &Path) -> Command,
    ) -> Result<Supervisor, ProcError> {
        // PANIC-OK: precondition; run_oct_mpi_proc_ft rejects ranks == 0 with a typed error first.
        assert!(size >= 1);
        let dir = std::env::temp_dir().join(format!(
            "polaroct-{}-{}",
            std::process::id(),
            SOCK_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| ProcError::Io { context: "create socket dir", detail: e.to_string() })?;
        let sock = dir.join("fabric.sock");
        let listener = UnixListener::bind(&sock)
            .map_err(|e| ProcError::Io { context: "bind listener", detail: e.to_string() })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ProcError::Io { context: "set_nonblocking", detail: e.to_string() })?;

        let mut children: Vec<Option<Child>> = (0..size).map(|_| None).collect();
        let mut startup_lost: Vec<(usize, String)> = Vec::new();
        for (r, child) in children.iter_mut().enumerate().skip(1) {
            match make_command(r, &sock).spawn() {
                Ok(c) => *child = Some(c),
                Err(e) => startup_lost.push((r, format!("failed to spawn: {e}"))),
            }
        }

        let mut streams: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
        let deadline = Instant::now() + startup_timeout;
        let mut pending: Vec<usize> =
            (1..size).filter(|&r| children[r].is_some()).collect();
        let mut backoff = Backoff::new();
        while !pending.is_empty() && Instant::now() < deadline {
            match listener.accept() {
                Ok((stream, _)) => {
                    backoff = Backoff::new();
                    match Self::handshake(&stream, size, policy, deadline) {
                        Ok(rank) if pending.contains(&rank) => {
                            streams[rank] = Some(stream);
                            pending.retain(|&r| r != rank);
                        }
                        Ok(_) | Err(_) => {
                            // Wrong rank, duplicate, or a bad handshake:
                            // drop the connection; the worker it belongs
                            // to (if any) will be reported lost below.
                            drop(stream);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Fail fast on children that died before connecting:
                    // try_wait hands us their exit status right now
                    // instead of burning the rest of the startup window.
                    pending.retain(|&r| {
                        let Some(child) = children[r].as_mut() else { return false };
                        match child.try_wait() {
                            Ok(Some(status)) => {
                                startup_lost.push((r, describe_status(status)));
                                false
                            }
                            Ok(None) => true,
                            Err(e) => {
                                startup_lost.push((r, format!("wait failed: {e}")));
                                false
                            }
                        }
                    });
                    backoff.sleep();
                }
                Err(e) => {
                    return Err(ProcError::Io { context: "accept", detail: e.to_string() })
                }
            }
        }
        // Whoever is still pending missed the window.
        for r in pending {
            startup_lost.push((r, "did not connect within the startup window".to_string()));
        }

        let fabric = Arc::new(ProcFabric {
            size,
            policy,
            peers: streams.into_iter().map(|s| s.map(Mutex::new)).collect(),
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
            exits: Mutex::new(Vec::new()),
        });
        for (r, status) in &startup_lost {
            fabric.mark_dead(*r);
            fabric.record_exit(*r, status.clone());
        }
        Ok(Supervisor { fabric, children, dir, startup_lost, reaped: false })
    }

    fn handshake(
        stream: &UnixStream,
        size: usize,
        policy: FtPolicy,
        deadline: Instant,
    ) -> Result<usize, TransportError> {
        let now = Instant::now();
        let budget = if deadline > now { deadline - now } else { POLL_GRAIN };
        let (k, body) = read_frame(stream, budget)?;
        if k != kind::HELLO {
            return Err(TransportError::Frame { detail: format!("expected HELLO, got kind {k}") });
        }
        let hello = wire::decode_hello(&body).map_err(frame_err)?;
        if hello.rank == 0 || hello.rank >= size {
            return Err(TransportError::Frame {
                detail: format!("worker claims invalid rank {}", hello.rank),
            });
        }
        let welcome = Welcome { version: wire::WIRE_VERSION, size, policy };
        write_frame(stream, kind::WELCOME, &wire::encode_welcome(&welcome), budget)?;
        Ok(hello.rank)
    }

    /// The root-side transport (share it with a `Communicator`).
    pub fn fabric(&self) -> Arc<ProcFabric> {
        self.fabric.clone()
    }

    /// Ranks that never completed the handshake, with statuses.
    pub fn startup_lost(&self) -> &[(usize, String)] {
        &self.startup_lost
    }

    /// Ship the serialized job to one connected worker.
    pub fn send_job(&self, rank: usize, job: &[u8]) -> Result<(), TransportError> {
        self.fabric.send_raw(rank, kind::JOB, job)
    }

    /// Wait for `READY` (job accepted) or `WORKER_ERR` (job rejected)
    /// from one worker. A closed socket is resolved into the child's
    /// exit status where possible.
    pub fn wait_ready(&mut self, rank: usize, timeout: Duration) -> Result<(), ProcError> {
        let res = self.fabric.recv_matching(rank, timeout, |k, body| match k {
            kind::READY => Some(Ok(())),
            kind::WORKER_ERR => {
                let mut d = wire::Dec::new(body);
                let msg = d
                    .get_str("worker_err")
                    .unwrap_or_else(|_| "undecodable worker error".to_string());
                Some(Err(TransportError::Frame { detail: msg }))
            }
            _ => None,
        });
        match res {
            Ok(()) => Ok(()),
            Err(TransportError::Frame { detail }) => {
                self.fabric.mark_dead(rank);
                Err(ProcError::WorkerRejected { rank, detail })
            }
            Err(e) => {
                self.fabric.mark_dead(rank);
                let status = match self.reap_one(rank, Duration::from_millis(500)) {
                    Some(status) => status,
                    None => e.to_string(),
                };
                self.fabric.record_exit(rank, status.clone());
                Err(ProcError::WorkerLost { rank, status })
            }
        }
    }

    /// Wait for one worker's `DONE` frame (its body is the application's
    /// business).
    pub fn recv_done(&self, rank: usize, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.fabric.recv_matching(rank, timeout, |k, body| match k {
            kind::DONE => Some(Ok(body.to_vec())),
            _ => None,
        })
    }

    fn reap_one(&mut self, rank: usize, grace: Duration) -> Option<String> {
        let child = self.children.get_mut(rank)?.as_mut()?;
        let deadline = Instant::now() + grace;
        let mut backoff = Backoff::new();
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return Some(describe_status(status)),
                Ok(None) => {
                    if Instant::now() >= deadline {
                        // Still running past the grace window: kill it so
                        // nothing can outlive the supervisor's run.
                        let _ = child.kill();
                        let status = child.wait().map(describe_status).unwrap_or_else(|e| {
                            format!("kill-wait failed: {e}")
                        });
                        return Some(format!("{status} (killed by supervisor)"));
                    }
                    backoff.sleep();
                }
                Err(e) => return Some(format!("wait failed: {e}")),
            }
        }
    }

    /// Collect every child's exit status, SIGKILLing any that are still
    /// running after `grace`. Returns all captured exits by rank.
    pub fn reap(&mut self, grace: Duration) -> Vec<(usize, String)> {
        for rank in 1..self.children.len() {
            if let Some(status) = self.reap_one(rank, grace) {
                self.fabric.record_exit(rank, status);
                self.children[rank] = None;
            }
        }
        self.reaped = true;
        self.fabric.exits()
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        if !self.reaped {
            // Never leave orphan workers behind.
            for child in self.children.iter_mut().flatten() {
                let _ = child.kill();
                // DEADLINE-OK: the child was just SIGKILLed; wait() only reaps the zombie and returns promptly.
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The deadline-bounded reader must report EOF as Closed, not hang.
    #[test]
    fn eof_is_closed_not_hang() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let err = read_frame(&a, Duration::from_millis(500)).unwrap_err();
        assert!(matches!(err, TransportError::Closed { .. }), "got {err:?}");
    }

    /// A silent peer must produce Timeout within the window.
    #[test]
    fn silent_peer_times_out() {
        let (a, _b) = UnixStream::pair().unwrap();
        let t0 = Instant::now();
        let err = read_frame(&a, Duration::from_millis(100)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout { .. }), "got {err:?}");
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    /// Frames written with write_frame round-trip through read_frame.
    #[test]
    fn frames_roundtrip_over_a_socketpair() {
        let (a, b) = UnixStream::pair().unwrap();
        let body = wire::encode_hello(&Hello {
            version: wire::WIRE_VERSION,
            rank: 2,
            pid: 777,
        });
        write_frame(&a, kind::HELLO, &body, Duration::from_secs(1)).unwrap();
        let (k, got) = read_frame(&b, Duration::from_secs(1)).unwrap();
        assert_eq!(k, kind::HELLO);
        assert_eq!(got, body);
        let hello = wire::decode_hello(&got).unwrap();
        assert_eq!(hello.rank, 2);
        assert_eq!(hello.pid, 777);
    }

    /// A corrupted byte on the wire surfaces as a Frame error.
    #[test]
    fn corrupt_frame_is_typed_error() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut f = wire::frame(kind::READY, b"x");
        let body_byte = wire::HEADER_LEN; // first body byte
        f[body_byte] ^= 0x40;
        write_all_deadline(&a, &f, Instant::now() + Duration::from_secs(1)).unwrap();
        let err = read_frame(&b, Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, TransportError::Frame { .. }), "got {err:?}");
    }

    /// The poll sleeps start at `POLL_FIRST`, double, and stop growing
    /// at `POLL_GRAIN`.
    #[test]
    fn backoff_doubles_up_to_the_grain() {
        let mut b = Backoff::new();
        let mut seen = vec![b.0];
        for _ in 0..7 {
            b.sleep();
            seen.push(b.0);
        }
        let micros: Vec<u128> = seen.iter().map(Duration::as_micros).collect();
        assert_eq!(micros, [50, 100, 200, 400, 800, 1600, 2000, 2000]);
    }

    #[test]
    fn describe_status_formats() {
        let ok = Command::new("true").status().unwrap();
        assert_eq!(describe_status(ok), "exited with code 0");
        let fail = Command::new("false").status().unwrap();
        assert_eq!(describe_status(fail), "exited with code 1");
    }
}
