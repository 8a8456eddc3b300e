//! # polaroct-modelcheck
//!
//! A vendored, dependency-free, loom-style **bounded interleaving
//! explorer** for the workspace's concurrency protocols (the
//! work-stealing pool's termination/exactly-once protocol and the
//! cluster communicator's two-round fault-tolerant gather handshake).
//!
//! ## How it works
//!
//! A model is a closure run many times under [`model`] (or the
//! non-panicking [`explore`]). Inside the closure, code uses the shimmed
//! primitives from this crate — [`sync::atomic`], [`sync::Mutex`],
//! [`sync::channel`], [`thread::spawn`], [`cell::RaceCell`] — instead of
//! `std`'s. Every operation on a shimmed primitive is a *schedule point*:
//! the runtime parks the OS thread and a central scheduler decides which
//! model thread moves next. A depth-first search over those decisions
//! enumerates every interleaving (up to the configured bounds), so a bug
//! that needs one adversarial preemption in a million is found
//! deterministically instead of probabilistically.
//!
//! What the explorer checks, per interleaving:
//!
//! * **assertions** — any panic in model code fails the exploration and
//!   reports the schedule that produced it;
//! * **deadlocks** — a state where live threads exist but none can move
//!   (the classic lost-wakeup / blind-`recv` shape) is reported with
//!   every thread's pending operation;
//! * **data races** — [`cell::RaceCell`] accesses are checked for
//!   happens-before ordering with vector clocks (synchronization flows
//!   through the shimmed atomics, locks, channels, spawn and join);
//! * **livelock / runaway** — executions exceeding the step bound fail
//!   loudly rather than spinning CI forever.
//!
//! ## Pruning
//!
//! Exhaustive enumeration is factorial; two standard reductions keep the
//! suites tractable with **no loss of coverage**:
//!
//! * only *visible* operations (shimmed primitives) are schedule points —
//!   thread-local compute never branches the search;
//! * **sleep sets** (the classic DPOR ingredient, Godefroid '96): after a
//!   subtree rooted at choice `t` has been fully explored, `t` is put to
//!   sleep for the sibling subtrees and only woken by an operation that
//!   *depends* on `t`'s pending operation (same object, not both reads).
//!   Sleep sets prune provably-equivalent interleavings only; every
//!   Mazurkiewicz trace keeps at least one representative. Disable with
//!   [`Config::dpor`]` = false` to cross-check (the engine's own test
//!   suite does).
//!
//! ## Timeout semantics
//!
//! `recv_timeout` on a shimmed channel models the timeout as *fires only
//! when it must*: the receive is eligible to time out when the system is
//! otherwise stuck (every other thread blocked or finished), which
//! abstracts "the timeout outlives any finite amount of other work".
//! With [`Config::nondet_timeouts`]` = true` a timeout may additionally
//! fire *any* time the queue is empty — that explores spurious/early
//! expiry (a straggler whose message arrives after the deadline) at the
//! cost of a larger search space. A blocking `recv` against a sender
//! that died is the deadlock the fault-tolerant communicator exists to
//! avoid — the explorer reports exactly that if a model (re)introduces
//! it.
//!
//! ## Rules for model code
//!
//! * Models must be deterministic: no wall-clock, no OS randomness, no
//!   real I/O. Schedules are replayed; nondeterminism is detected and
//!   reported as [`Failure::Nondeterminism`].
//! * Create shimmed objects *inside* the model closure; do not smuggle
//!   them across executions through statics.
//! * Atomics are explored under **sequential consistency** (every atomic
//!   op is a full acquire+release sync). That over-synchronizes relative
//!   to `Relaxed`-heavy code: a bug that needs weak-memory reordering is
//!   out of scope of this checker (careful `Ordering` review covers
//!   that axis; see DESIGN.md §9).
//!
//! The crate is `#![forbid(unsafe_code)]`: the runtime serializes model
//! threads, so everything — including the `Mutex`/`RaceCell` interiors —
//! is expressible with safe `std` primitives.

#![forbid(unsafe_code)]

pub mod cell;
mod rt;
pub mod sync;
pub mod thread;

pub use rt::{explore, model, model_with, Config, Failure, Report};
