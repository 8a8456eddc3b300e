//! `lintir` — dependency-free static-analysis engine for the project's
//! invariant gates.
//!
//! Layers, bottom to top:
//!
//! - [`lex`](mod@lex) — a total Rust lexer (every byte lands in exactly one
//!   token; raw strings, nested block comments, lifetimes vs char
//!   literals).
//! - [`ir`] — per-file item/signature/call-site IR with the *facts*
//!   the passes need (may-panic sites, blocking primitives, timeout
//!   setters, accumulations, loops, parallel-closure regions, `unsafe`
//!   sites and crate-level `unsafe_code` lint levels).
//! - [`graph`] — workspace loading and the name-resolved call graph
//!   with multi-source BFS for shortest witness paths.
//! - [`passes`] — the passes (`PA` panic reachability, `DL` deadline
//!   boundedness, `WP` wire-protocol totality, `DT` determinism
//!   dataflow, `US` unsafe hygiene) and [`Config`], the project's file
//!   lists.
//! - [`diag`] — diagnostics, JSON rendering, and the line-number-free
//!   ratchet baseline.
//!
//! The engine is the whole of `cargo xtask analyze`; DESIGN.md §13
//! documents the soundness model and per-pass caveats.

#![forbid(unsafe_code)]

pub mod diag;
pub mod graph;
pub mod ir;
pub mod lex;
pub mod passes;

pub use diag::{parse_baseline, ratchet, to_baseline, to_json, to_text, Diagnostic, Drift};
pub use graph::{CallGraph, Workspace};
pub use lex::lex;
pub use passes::{analyze, Config};
