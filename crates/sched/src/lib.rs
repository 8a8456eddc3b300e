//! # polaroct-sched
//!
//! The shared-memory scheduling layer: a from-scratch analog of the cilk++
//! runtime the paper uses for IMPLICIT DYNAMIC LOAD BALANCING (§IV.A):
//!
//! > "each thread maintains a double ended queue (deque) to store its
//! > outstanding work/tasks and adds the newly generated work to the
//! > bottom of the queue. On the other hand, when a thread runs out of
//! > work, it chooses a random victim thread and steals work from top of
//! > the victim's queue".
//!
//! Two components:
//!
//! * [`pool::WorkStealingPool`] — a real Chase–Lev work-stealing pool
//!   (crossbeam-deque) executing index-space tasks across OS threads,
//!   with steal counters. This is the Blumofe–Leiserson scheduler the
//!   paper's cilk++ runtime implements.
//! * [`sim::StealSimulator`] — a deterministic *makespan simulator* of the
//!   same scheduler: given per-task costs, it replays randomized work
//!   stealing on `p` virtual workers and reports the parallel completion
//!   time, steal count and per-worker utilization. The cluster simulator
//!   uses it to obtain intra-node p-thread times on hosts with fewer
//!   physical cores (DESIGN.md §2's substitution for the paper's 12-core
//!   nodes), relying on the `T_p ≤ T_1/p + O(T_∞)` bound the paper quotes
//!   from Blumofe & Leiserson.

//!
//! `polaroct-sched` is the **only** workspace crate allowed to contain
//! `unsafe` code (the audited allowlist of `cargo xtask analyze`): the
//! pool's result-collection path writes disjoint slots of one output
//! buffer from many workers. Every `unsafe` site carries a `// SAFETY:`
//! comment (machine-checked by the linter), the crate root denies
//! `unsafe_code` so new sites need an explicit scoped `allow`, and the
//! disjointness argument itself is model-checked exhaustively in
//! `polaroct-modelcheck` and exercised under Miri.

// New `unsafe` must opt in via a scoped `#[allow(unsafe_code)]` next to
// its SAFETY comment; see `slice::SyncSlice` for the audited pattern.
#![deny(unsafe_code)]

pub mod chunk;
pub mod pool;
pub mod sim;
mod slice;
pub mod sync;

pub use chunk::{partition_by_cost, CoverageIndex};
pub use pool::{PoolMetrics, WorkStealingPool};
pub use sim::{SimOutcome, StealSimParams, StealSimulator};
