//! Wire format for the multi-process transport.
//!
//! Every message crosses the socket as one **frame**:
//!
//! ```text
//! [ body_len: u32 LE ][ kind: u8 ][ body: body_len bytes ][ crc: u64 LE ]
//! ```
//!
//! `crc` is FNV-1a over the kind byte followed by the body, so neither
//! the payload nor the frame's type can be silently corrupted.
//! `body_len` is bounded by [`MAX_FRAME`]; an oversized header is a
//! typed error before any allocation happens.
//!
//! Connections open with a versioned handshake: the worker sends
//! [`Hello`] (magic, wire version, rank, pid), the supervisor answers
//! with [`Welcome`] (magic, version, communicator size, the
//! [`FtPolicy`] every rank must follow). A magic or version mismatch is
//! a typed [`WireError`], never a misparse.
//!
//! Decoding is hardened by construction: every getter checks remaining
//! length ([`WireError::Truncated`]), protocol floats are rejected when
//! non-finite ([`WireError::NonFinite`]), unknown tags are errors, and a
//! fully-decoded body must be fully consumed ([`WireError::Trailing`]).
//! Nothing in this module panics on malformed input.

use crate::fault::{FaultKind, FaultPlan, FtPolicy, FtReport, RecoverMode};
use crate::transport::{DownMsg, UpMsg};
use std::fmt;
use std::time::Duration;

/// Protocol magic ("PLRW"): rejects a stray connection immediately.
pub const MAGIC: u32 = 0x504C_5257;

/// Wire protocol version; bumped on any frame-layout change.
pub const WIRE_VERSION: u16 = 1;

/// Upper bound on one frame's body, far above any real payload (a
/// 6000-atom allgather is < 1 MiB). A header announcing more than this
/// is corruption, not data.
pub const MAX_FRAME: usize = 1 << 26;

/// Frame header bytes on the wire: u32 body length + u8 kind.
pub const HEADER_LEN: usize = 5;

/// Frame trailer bytes on the wire: u64 FNV-1a checksum.
pub const TRAILER_LEN: usize = 8;

/// Frame kinds.
pub mod kind {
    /// Worker → supervisor: versioned handshake open.
    pub const HELLO: u8 = 1;
    /// Supervisor → worker: handshake accept + run parameters.
    pub const WELCOME: u8 = 2;
    /// Supervisor → worker: the serialized job.
    pub const JOB: u8 = 3;
    /// Worker → supervisor: job decoded and validated, entering SPMD.
    pub const READY: u8 = 4;
    /// Worker → supervisor: job rejected (e.g. `validate_system` failed).
    pub const WORKER_ERR: u8 = 5;
    /// Member → root: collective contribution ([`crate::transport::UpMsg::Data`]).
    pub const UP_DATA: u8 = 6;
    /// Member → root: recovery reply ([`crate::transport::UpMsg::Recovered`]).
    pub const UP_RECOVERED: u8 = 7;
    /// Root → member: recovery assignments.
    pub const DOWN_RECOVER: u8 = 8;
    /// Root → member: collective result.
    pub const DOWN_FINAL: u8 = 9;
    /// Root → member: collective aborted.
    pub const DOWN_ABORT: u8 = 10;
    /// Worker → supervisor: rank body finished (ok flag + ops + clock).
    pub const DONE: u8 = 11;
}

/// Typed decode failure. All variants are recoverable by the reader in
/// the sense that they surface as errors instead of panics; none leave
/// the stream in a trustworthy state.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// Body ended before the field being read.
    Truncated { what: &'static str, wanted: usize, have: usize },
    /// Header announced a body larger than [`MAX_FRAME`].
    Oversized { len: usize },
    /// Frame checksum mismatch.
    Checksum { want: u64, got: u64 },
    /// Handshake magic mismatch.
    BadMagic { got: u32 },
    /// Handshake protocol-version mismatch.
    VersionMismatch { ours: u16, theirs: u16 },
    /// A tag byte no decoder recognizes.
    BadTag { what: &'static str, tag: u8 },
    /// A protocol float was NaN or infinite.
    NonFinite { what: &'static str },
    /// Bytes left over after a complete decode.
    Trailing { extra: usize },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 { what: &'static str },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, wanted, have } => {
                write!(f, "truncated frame: {what} needs {wanted} byte(s), {have} left")
            }
            WireError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Checksum { want, got } => {
                write!(f, "frame checksum mismatch: want {want:#018x}, got {got:#018x}")
            }
            WireError::BadMagic { got } => {
                write!(f, "bad handshake magic {got:#010x} (want {MAGIC:#010x})")
            }
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "wire version mismatch: ours {ours}, theirs {theirs}")
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::NonFinite { what } => write!(f, "non-finite float in {what}"),
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete decode")
            }
            WireError::BadUtf8 { what } => write!(f, "invalid UTF-8 in {what}"),
        }
    }
}

impl std::error::Error for WireError {}

fn frame_crc(kind: u8, body: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h ^= kind as u64;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    for &b in body {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assemble a complete frame (header + body + checksum trailer).
pub fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len() + TRAILER_LEN);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(body);
    out.extend_from_slice(&frame_crc(kind, body).to_le_bytes());
    out
}

/// Parse a frame header: returns `(kind, body_len)` with the size cap
/// enforced before the caller allocates anything.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), WireError> {
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    Ok((header[4], len))
}

/// Verify a received frame's checksum trailer.
pub fn check_frame(kind: u8, body: &[u8], got: u64) -> Result<(), WireError> {
    let want = frame_crc(kind, body);
    if want != got {
        return Err(WireError::Checksum { want, got });
    }
    Ok(())
}

/// Append-only body encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Raw bit pattern — encoding never rejects; decoding decides whether
    /// non-finite values are acceptable for the field.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    pub fn put_usizes(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor-based body decoder; every getter is length-checked.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decoding is complete only if every byte was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::Trailing { extra }),
        }
    }

    fn take(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what, wanted: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(what, 1)?[0])
    }

    pub fn get_u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(what, 2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(what, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(what, 8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| WireError::Truncated {
            what,
            wanted: usize::MAX,
            have: self.remaining(),
        })
    }

    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        Ok(self.get_u8(what)? != 0)
    }

    /// Raw bit pattern (for data payloads whose validity is the
    /// application's business, e.g. molecule coordinates headed for
    /// `validate_system`).
    pub fn get_f64_raw(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Protocol float: rejected when NaN or infinite.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        let v = self.get_f64_raw(what)?;
        if !v.is_finite() {
            return Err(WireError::NonFinite { what });
        }
        Ok(v)
    }

    /// A count prefix that is about to drive an allocation: checked
    /// against the bytes actually remaining so a corrupt length cannot
    /// trigger a huge reservation.
    fn get_count(&mut self, what: &'static str, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.get_usize(what)?;
        let need = n.saturating_mul(elem_bytes);
        if need > self.remaining() {
            return Err(WireError::Truncated { what, wanted: need, have: self.remaining() });
        }
        Ok(n)
    }

    pub fn get_f64s(&mut self, what: &'static str) -> Result<Vec<f64>, WireError> {
        let n = self.get_count(what, 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64(what)?);
        }
        Ok(out)
    }

    /// Raw-bit-pattern variant of [`Dec::get_f64s`].
    pub fn get_f64s_raw(&mut self, what: &'static str) -> Result<Vec<f64>, WireError> {
        let n = self.get_count(what, 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64_raw(what)?);
        }
        Ok(out)
    }

    pub fn get_usizes(&mut self, what: &'static str) -> Result<Vec<usize>, WireError> {
        let n = self.get_count(what, 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_usize(what)?);
        }
        Ok(out)
    }

    pub fn get_str(&mut self, what: &'static str) -> Result<String, WireError> {
        let n = self.get_count(what, 1)?;
        let bytes = self.take(what, n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { what })
    }
}

// ---- handshake messages ----

/// Worker → supervisor handshake open.
#[derive(Clone, Debug, PartialEq)]
pub struct Hello {
    pub version: u16,
    pub rank: usize,
    pub pid: u32,
}

pub fn encode_hello(h: &Hello) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u32(MAGIC);
    e.put_u16(h.version);
    e.put_usize(h.rank);
    e.put_u32(h.pid);
    e.into_bytes()
}

pub fn decode_hello(body: &[u8]) -> Result<Hello, WireError> {
    let mut d = Dec::new(body);
    let magic = d.get_u32("hello.magic")?;
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let version = d.get_u16("hello.version")?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { ours: WIRE_VERSION, theirs: version });
    }
    let rank = d.get_usize("hello.rank")?;
    let pid = d.get_u32("hello.pid")?;
    d.finish()?;
    Ok(Hello { version, rank, pid })
}

/// Supervisor → worker handshake accept: communicator size plus the
/// [`FtPolicy`] every rank of the run must follow.
#[derive(Clone, Debug, PartialEq)]
pub struct Welcome {
    pub version: u16,
    pub size: usize,
    pub policy: FtPolicy,
}

pub fn encode_welcome(w: &Welcome) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u32(MAGIC);
    e.put_u16(w.version);
    e.put_usize(w.size);
    e.put_u64(w.policy.timeout.as_millis() as u64);
    e.put_u32(w.policy.max_retries);
    e.put_bool(w.policy.allow_degraded);
    e.into_bytes()
}

pub fn decode_welcome(body: &[u8]) -> Result<Welcome, WireError> {
    let mut d = Dec::new(body);
    let magic = d.get_u32("welcome.magic")?;
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let version = d.get_u16("welcome.version")?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { ours: WIRE_VERSION, theirs: version });
    }
    let size = d.get_usize("welcome.size")?;
    let timeout = Duration::from_millis(d.get_u64("welcome.timeout_ms")?);
    let max_retries = d.get_u32("welcome.max_retries")?;
    let allow_degraded = d.get_bool("welcome.allow_degraded")?;
    d.finish()?;
    Ok(Welcome {
        version,
        size,
        policy: FtPolicy { timeout, max_retries, allow_degraded },
    })
}

// ---- FT protocol messages ----

fn put_recover_mode(e: &mut Enc, m: RecoverMode) {
    e.put_u8(match m {
        RecoverMode::Exact => 0,
        RecoverMode::Degraded => 1,
    });
}

fn get_recover_mode(d: &mut Dec<'_>) -> Result<RecoverMode, WireError> {
    match d.get_u8("recover_mode")? {
        0 => Ok(RecoverMode::Exact),
        1 => Ok(RecoverMode::Degraded),
        tag => Err(WireError::BadTag { what: "recover_mode", tag }),
    }
}

pub fn put_report(e: &mut Enc, r: &FtReport) {
    e.put_usizes(&r.dead);
    e.put_usizes(&r.recovered);
    e.put_usizes(&r.degraded);
    e.put_u32(r.retries);
    e.put_usize(r.exits.len());
    for (rank, status) in &r.exits {
        e.put_usize(*rank);
        e.put_str(status);
    }
}

pub fn get_report(d: &mut Dec<'_>) -> Result<FtReport, WireError> {
    let dead = d.get_usizes("report.dead")?;
    let recovered = d.get_usizes("report.recovered")?;
    let degraded = d.get_usizes("report.degraded")?;
    let retries = d.get_u32("report.retries")?;
    let n_exits = d.get_count("report.exits", 9)?;
    let mut exits = Vec::with_capacity(n_exits);
    for _ in 0..n_exits {
        let rank = d.get_usize("report.exits.rank")?;
        let status = d.get_str("report.exits.status")?;
        exits.push((rank, status));
    }
    Ok(FtReport { dead, recovered, degraded, retries, exits })
}

/// Encode an [`UpMsg`] as `(frame_kind, body)`.
pub fn encode_up(msg: &UpMsg) -> (u8, Vec<u8>) {
    let mut e = Enc::new();
    match msg {
        UpMsg::Data { t, crc, payload } => {
            e.put_f64(*t);
            e.put_u64(*crc);
            e.put_f64s(payload);
            (kind::UP_DATA, e.into_bytes())
        }
        UpMsg::Recovered { parts } => {
            e.put_usize(parts.len());
            for (lost, payload) in parts {
                e.put_usize(*lost);
                e.put_f64s(payload);
            }
            (kind::UP_RECOVERED, e.into_bytes())
        }
    }
}

/// Decode an [`UpMsg`] from a frame of kind `UP_DATA` / `UP_RECOVERED`.
pub fn decode_up(frame_kind: u8, body: &[u8]) -> Result<UpMsg, WireError> {
    let mut d = Dec::new(body);
    let msg = match frame_kind {
        kind::UP_DATA => {
            let t = d.get_f64("up.t")?;
            let crc = d.get_u64("up.crc")?;
            let payload = d.get_f64s("up.payload")?;
            UpMsg::Data { t, crc, payload }
        }
        kind::UP_RECOVERED => {
            let n = d.get_count("up.parts", 16)?;
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                let lost = d.get_usize("up.parts.rank")?;
                let payload = d.get_f64s("up.parts.payload")?;
                parts.push((lost, payload));
            }
            UpMsg::Recovered { parts }
        }
        tag => return Err(WireError::BadTag { what: "up message", tag }),
    };
    d.finish()?;
    Ok(msg)
}

/// Encode a [`DownMsg`] as `(frame_kind, body)`.
pub fn encode_down(msg: &DownMsg) -> (u8, Vec<u8>) {
    let mut e = Enc::new();
    match msg {
        DownMsg::Recover { assignments } => {
            e.put_usize(assignments.len());
            for (lost, mode) in assignments {
                e.put_usize(*lost);
                put_recover_mode(&mut e, *mode);
            }
            (kind::DOWN_RECOVER, e.into_bytes())
        }
        DownMsg::Final { max_entry, reply, report } => {
            e.put_f64(*max_entry);
            e.put_f64s(reply);
            put_report(&mut e, report);
            (kind::DOWN_FINAL, e.into_bytes())
        }
        DownMsg::Abort { cause } => {
            e.put_str(cause);
            (kind::DOWN_ABORT, e.into_bytes())
        }
    }
}

/// Decode a [`DownMsg`] from a frame of kind `DOWN_*`.
pub fn decode_down(frame_kind: u8, body: &[u8]) -> Result<DownMsg, WireError> {
    let mut d = Dec::new(body);
    let msg = match frame_kind {
        kind::DOWN_RECOVER => {
            let n = d.get_count("down.assignments", 9)?;
            let mut assignments = Vec::with_capacity(n);
            for _ in 0..n {
                let lost = d.get_usize("down.assignments.rank")?;
                let mode = get_recover_mode(&mut d)?;
                assignments.push((lost, mode));
            }
            DownMsg::Recover { assignments }
        }
        kind::DOWN_FINAL => {
            let max_entry = d.get_f64("down.max_entry")?;
            let reply = d.get_f64s("down.reply")?;
            let report = get_report(&mut d)?;
            DownMsg::Final { max_entry, reply, report }
        }
        kind::DOWN_ABORT => {
            let cause = d.get_str("down.cause")?;
            DownMsg::Abort { cause }
        }
        tag => return Err(WireError::BadTag { what: "down message", tag }),
    };
    d.finish()?;
    Ok(msg)
}

// ---- fault plans (shipped with the job so workers fire the same faults) ----

fn put_fault_kind(e: &mut Enc, k: FaultKind) {
    match k {
        FaultKind::Kill => e.put_u8(0),
        FaultKind::Delay { virtual_s, real_ms } => {
            e.put_u8(1);
            e.put_f64(virtual_s);
            e.put_u64(real_ms);
        }
        FaultKind::DropPayload => e.put_u8(2),
        FaultKind::CorruptPayload => e.put_u8(3),
        FaultKind::PanicRank => e.put_u8(4),
        FaultKind::PanicWorker => e.put_u8(5),
        FaultKind::KillMidSend => e.put_u8(6),
    }
}

fn get_fault_kind(d: &mut Dec<'_>) -> Result<FaultKind, WireError> {
    match d.get_u8("fault_kind")? {
        0 => Ok(FaultKind::Kill),
        1 => {
            let virtual_s = d.get_f64("fault.virtual_s")?;
            let real_ms = d.get_u64("fault.real_ms")?;
            Ok(FaultKind::Delay { virtual_s, real_ms })
        }
        2 => Ok(FaultKind::DropPayload),
        3 => Ok(FaultKind::CorruptPayload),
        4 => Ok(FaultKind::PanicRank),
        5 => Ok(FaultKind::PanicWorker),
        6 => Ok(FaultKind::KillMidSend),
        tag => Err(WireError::BadTag { what: "fault_kind", tag }),
    }
}

pub fn put_fault_plan(e: &mut Enc, plan: &FaultPlan) {
    e.put_u64(plan.seed());
    e.put_usize(plan.len());
    for (rank, phase, k) in plan.entries() {
        e.put_usize(rank);
        e.put_u32(phase);
        put_fault_kind(e, k);
    }
}

pub fn get_fault_plan(d: &mut Dec<'_>) -> Result<FaultPlan, WireError> {
    let seed = d.get_u64("plan.seed")?;
    let n = d.get_count("plan.entries", 13)?;
    let mut plan = FaultPlan::new(seed);
    for _ in 0..n {
        let rank = d.get_usize("plan.rank")?;
        let phase = d.get_u32("plan.phase")?;
        let k = get_fault_kind(d)?;
        plan = plan.with_entry(rank, phase, k);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_up(msg: &UpMsg) -> UpMsg {
        let (k, body) = encode_up(msg);
        decode_up(k, &body).unwrap()
    }

    fn roundtrip_down(msg: &DownMsg) -> DownMsg {
        let (k, body) = encode_down(msg);
        decode_down(k, &body).unwrap()
    }

    #[test]
    fn up_data_roundtrips_bit_exactly() {
        let payload = vec![1.5, -0.0, 3.25e-300, f64::MIN_POSITIVE];
        let msg = UpMsg::Data { t: 12.5, crc: 0xDEAD_BEEF, payload: payload.clone() };
        match roundtrip_up(&msg) {
            UpMsg::Data { t, crc, payload: p } => {
                assert_eq!(t.to_bits(), 12.5f64.to_bits());
                assert_eq!(crc, 0xDEAD_BEEF);
                let want: Vec<u64> = payload.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = p.iter().map(|v| v.to_bits()).collect();
                assert_eq!(want, got);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn up_recovered_roundtrips() {
        let msg = UpMsg::Recovered { parts: vec![(3, vec![1.0, 2.0]), (5, vec![])] };
        match roundtrip_up(&msg) {
            UpMsg::Recovered { parts } => {
                assert_eq!(parts.len(), 2);
                assert_eq!(parts[0].0, 3);
                assert_eq!(parts[0].1, vec![1.0, 2.0]);
                assert_eq!(parts[1], (5, vec![]));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn down_variants_roundtrip() {
        let recover = DownMsg::Recover {
            assignments: vec![(1, RecoverMode::Exact), (4, RecoverMode::Degraded)],
        };
        assert!(matches!(
            roundtrip_down(&recover),
            DownMsg::Recover { assignments } if assignments
                == vec![(1, RecoverMode::Exact), (4, RecoverMode::Degraded)]
        ));

        let report = FtReport {
            dead: vec![2],
            recovered: vec![2],
            degraded: vec![],
            retries: 1,
            exits: vec![(2, "killed by signal 9 (SIGKILL)".into())],
        };
        let fin = DownMsg::Final { max_entry: 4.5, reply: vec![9.0], report: report.clone() };
        match roundtrip_down(&fin) {
            DownMsg::Final { max_entry, reply, report: r } => {
                assert_eq!(max_entry, 4.5);
                assert_eq!(reply, vec![9.0]);
                assert_eq!(r, report);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let abort = DownMsg::Abort { cause: "retries exhausted".into() };
        assert!(matches!(
            roundtrip_down(&abort),
            DownMsg::Abort { cause } if cause == "retries exhausted"
        ));
    }

    #[test]
    fn hello_welcome_roundtrip_and_reject_mismatches() {
        let h = Hello { version: WIRE_VERSION, rank: 3, pid: 4242 };
        assert_eq!(decode_hello(&encode_hello(&h)).unwrap(), h);

        // Wrong magic.
        let mut bad = encode_hello(&h);
        bad[0] ^= 0xFF;
        assert!(matches!(decode_hello(&bad), Err(WireError::BadMagic { .. })));

        // Wrong version.
        let mut bad = encode_hello(&h);
        bad[4] ^= 0xFF;
        assert!(matches!(decode_hello(&bad), Err(WireError::VersionMismatch { .. })));

        let w = Welcome {
            version: WIRE_VERSION,
            size: 4,
            policy: FtPolicy {
                timeout: Duration::from_millis(750),
                max_retries: 3,
                allow_degraded: false,
            },
        };
        let got = decode_welcome(&encode_welcome(&w)).unwrap();
        assert_eq!(got.size, 4);
        assert_eq!(got.policy.timeout, Duration::from_millis(750));
        assert_eq!(got.policy.max_retries, 3);
        assert!(!got.policy.allow_degraded);
    }

    #[test]
    fn truncated_body_is_a_typed_error_not_a_panic() {
        let (k, body) = encode_up(&UpMsg::Data { t: 1.0, crc: 7, payload: vec![1.0, 2.0] });
        for cut in 0..body.len() {
            let err = decode_up(k, &body[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (k, mut body) = encode_up(&UpMsg::Data { t: 1.0, crc: 7, payload: vec![] });
        body.push(0);
        assert!(matches!(decode_up(k, &body), Err(WireError::Trailing { extra: 1 })));
    }

    #[test]
    fn corrupt_length_prefix_cannot_drive_a_huge_allocation() {
        let mut e = Enc::new();
        e.put_f64(1.0);
        e.put_u64(7);
        e.put_usize(usize::MAX / 2); // claims ~2^62 payload elements
        let body = e.into_bytes();
        assert!(matches!(
            decode_up(kind::UP_DATA, &body),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn non_finite_protocol_float_is_rejected() {
        let mut e = Enc::new();
        e.put_f64(f64::NAN); // up.t
        e.put_u64(7);
        e.put_f64s(&[]);
        assert!(matches!(
            decode_up(kind::UP_DATA, &e.into_bytes()),
            Err(WireError::NonFinite { what: "up.t" })
        ));

        let mut e = Enc::new();
        e.put_f64(1.0);
        e.put_u64(7);
        e.put_f64s(&[1.0, f64::INFINITY]);
        assert!(matches!(
            decode_up(kind::UP_DATA, &e.into_bytes()),
            Err(WireError::NonFinite { what: "up.payload" })
        ));
    }

    #[test]
    fn frame_checksum_catches_any_single_bit_flip() {
        let body = encode_hello(&Hello { version: WIRE_VERSION, rank: 1, pid: 1 });
        let f = frame(kind::HELLO, &body);
        let (k, len) = parse_header(&[f[0], f[1], f[2], f[3], f[4]]).unwrap();
        assert_eq!(k, kind::HELLO);
        assert_eq!(len, body.len());

        // Pristine frame verifies.
        let crc = u64::from_le_bytes(f[f.len() - 8..].try_into().unwrap());
        check_frame(k, &f[HEADER_LEN..f.len() - 8], crc).unwrap();

        // Any bit flip in kind or body fails the checksum.
        for byte in HEADER_LEN - 1..f.len() - 8 {
            let mut bad = f.clone();
            bad[byte] ^= 1;
            let res = check_frame(bad[4], &bad[HEADER_LEN..bad.len() - 8], crc);
            assert!(matches!(res, Err(WireError::Checksum { .. })), "flip at {byte}");
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let bad = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let header = [bad[0], bad[1], bad[2], bad[3], kind::JOB];
        assert!(matches!(parse_header(&header), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn fault_plan_roundtrips_with_all_kinds() {
        let plan = FaultPlan::new(99)
            .kill(1, 2)
            .delay(2, 4, 0.5)
            .drop_payload(3, 3)
            .corrupt_payload(1, 5)
            .panic_rank(2, 6)
            .panic_worker(3, 2)
            .kill_mid_send(1, 7);
        let mut e = Enc::new();
        put_fault_plan(&mut e, &plan);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let got = get_fault_plan(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(got.seed(), plan.seed());
        assert_eq!(got.len(), plan.len());
        let a: Vec<_> = plan.entries().collect();
        let b: Vec<_> = got.entries().collect();
        assert_eq!(a, b);
    }
}
