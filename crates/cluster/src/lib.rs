//! # polaroct-cluster
//!
//! A simulated MPI substrate: the "cluster of multicores" in the paper's
//! title, reproduced as an in-process SPMD runtime with a calibrated
//! virtual-time model.
//!
//! ## Why a simulator
//!
//! The paper ran on TACC Lonestar4 (12 nodes × 2 sockets × 6 Westmere
//! cores, QDR InfiniBand, MVAPICH2). This reproduction runs on whatever
//! host builds it — possibly a single core — so the *algorithms* execute
//! for real (every rank runs the real Rust kernels over real data, and all
//! energies are bit-exact regardless of the timing model), while *time* is
//! virtual:
//!
//! * compute time is derived from kernel operation counts × fixed per-op
//!   costs representative of the paper's Westmere cores ([`calib`]),
//! * intra-node multithreading is priced by the work-stealing makespan
//!   simulator from `polaroct-sched`,
//! * communication is priced by the per-collective cost formulas of Grama
//!   et al., *Introduction to Parallel Computing* — the very reference the
//!   paper cites for its Step 3/5/7 cost analysis ([`costmodel`]),
//! * memory-replication pressure (the §V.B 1.4 GB vs 8.2 GB story) is
//!   tracked by [`memory`] and converted into a compute slowdown once a
//!   node's per-core working set spills its L3 share.
//!
//! ## Components
//!
//! * [`machine`] — machine/cluster descriptions (Lonestar4 preset =
//!   Table I).
//! * [`comm`] — [`comm::Communicator`]: the fault-tolerant collectives
//!   Fig. 4 uses (Allreduce, Allgatherv, Reduce) over any
//!   [`transport::Transport`], carrying virtual clocks so collectives
//!   synchronize simulated time exactly like real MPI barriers do.
//! * [`runner`] — [`runner::run_spmd_ft`] launches `P` ranks as threads
//!   and returns each rank's `Result` + clock.
//! * [`simtime`] — per-rank virtual clocks and op-count accounting.
//! * [`calib`] — the Lonestar4 reference ns/op for the energy kernels,
//!   so virtual seconds are anchored to the paper's hardware.
//! * [`noise`] — run-to-run jitter model for the min/max-of-20-runs plots
//!   (Fig. 6).
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`]) and
//!   the fault-tolerance policy/report types backing the `_ft`
//!   collectives and [`runner::run_spmd_ft`].
//! * [`transport`] — the [`transport::Transport`] trait the FT
//!   collectives run over: the in-process channel fabric and the
//!   multi-process socket fabric are interchangeable behind it.
//! * [`wire`] — length-prefixed, FNV-1a-checksummed frame format and
//!   hardened encoders/decoders for the socket fabric (versioned
//!   `HELLO`/`WELCOME` handshake; truncation/corruption → typed
//!   [`wire::WireError`], never a panic).
//! * [`proc`] (unix) — real OS worker processes over Unix domain
//!   sockets: [`proc::Supervisor`] (spawn/handshake/reap, exit-status
//!   capture — a `Kill` fault is a literal SIGKILL), [`proc::ProcFabric`]
//!   (root side) and [`proc::WorkerEndpoint`] (member side).

#![forbid(unsafe_code)]

pub mod calib;
pub mod comm;
pub mod costmodel;
pub mod fault;
pub mod machine;
pub mod memory;
pub mod noise;
#[cfg(unix)]
pub mod proc;
pub mod runner;
pub mod simtime;
pub mod transport;
pub mod wire;

pub use calib::KernelCosts;
pub use comm::{CommError, CommFabric, Communicator, Recovery};
pub use costmodel::CommCostModel;
pub use fault::{die_sigkill, FaultKind, FaultPlan, FtPolicy, FtReport, KillMode, RecoverMode};
pub use machine::{ClusterSpec, MachineSpec, Placement};
pub use memory::MemoryModel;
pub use noise::NoiseModel;
#[cfg(unix)]
pub use proc::{ProcError, ProcFabric, Supervisor, WorkerEndpoint};
pub use runner::{run_spmd_ft, FtSpmdResult, RankContext, RankError};
pub use simtime::SimClock;
pub use transport::{DownMsg, Transport, TransportError, UpMsg};
pub use wire::WireError;
