//! # polaroct-octree
//!
//! The cache-efficient octree at the heart of the paper.
//!
//! §II: "An Octree is a tree data structure that recursively and adaptively
//! sub-divides the 3D space into 8 octants ... Octrees are very cache
//! friendly because of their recursive nature. ... an octree uses space
//! linear in the number of data points it holds, and its size does not
//! change with the approximation parameter."
//!
//! This implementation is a **linear octree**: input points are sorted by
//! 63-bit Morton code once, after which every node of the tree corresponds
//! to a *contiguous range* of the sorted array. Nodes are stored in a flat
//! `Vec<Node>` in depth-first order with contiguous children. Consequences:
//!
//! * **O(M) space, independent of ε** — the paper's key advantage over
//!   nonbonded lists, whose size grows cubically with the cutoff.
//! * **Cache-friendly traversal** — a leaf's points are a dense slice; a
//!   node's children are adjacent in memory.
//! * **Build once, reuse for any ε** (§IV.C step 1: octree construction is
//!   a pre-processing cost) and **rigid-body reuse**: [`Octree::transform`]
//!   re-poses the whole tree in O(M) without rebuilding, which is what
//!   makes ligand pose scans cheap.
//!
//! The same structure stores atoms (`T_A`) and surface quadrature points
//! (`T_Q`); per-point payloads (charges, radii, normals, weights) live in
//! the caller's arrays, permuted into Morton order via
//! [`Octree::point_order`].

#![forbid(unsafe_code)]

pub mod build;
pub mod node;
pub mod query;
pub mod stats;
pub mod tree;

pub use build::{build, try_build, BuildError, BuildParams};
pub use node::{Node, NodeId, NO_CHILD};
pub use stats::TreeStats;
pub use tree::Octree;
