//! Workspace automation library (see `src/main.rs` for the CLI).
//!
//! The analyzer runner lives in [`analyze`] so the integration test can
//! check the workspace against the ratchet baseline without shelling
//! out. The passes themselves, and their fixture suite, are in `lintir`.

#![forbid(unsafe_code)]

pub mod analyze;
