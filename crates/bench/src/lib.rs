//! # polaroct-bench
//!
//! Shared harness utilities for the table/figure regeneration binaries
//! (one binary per table and figure of the paper — see DESIGN.md §5 for
//! the index) and the throughput benches beside them.
//!
//! All binaries print TSV to stdout (easy to plot) and an explanatory
//! header; they honor two environment variables:
//!
//! * `POLAROCT_QUICK=1` — subsample the ZDock suite (every 6th molecule)
//!   and shrink the large capsids, for smoke runs.
//! * `POLAROCT_OUT=<dir>` — also write each table to `<dir>/<name>.tsv`.

#![forbid(unsafe_code)]

use polaroct_cluster::machine::{ClusterSpec, MachineSpec, Placement};
use polaroct_core::drivers::DriverConfig;
use polaroct_molecule::synth::{zdock_suite, ZdockEntry};
use std::io::Write;

/// True when `POLAROCT_QUICK` is set to a non-empty, non-"0" value.
pub fn quick_mode() -> bool {
    std::env::var("POLAROCT_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// The evaluation suite, honoring quick mode.
pub fn suite() -> Vec<ZdockEntry> {
    let full = zdock_suite();
    if quick_mode() {
        full.into_iter().step_by(6).collect()
    } else {
        full
    }
}

/// Atom count for the Blue Tongue Virus stand-in (§V.B: 6M atoms). The
/// default runs at 1M (same hollow-shell geometry, 6x less wall time);
/// `POLAROCT_FULL=1` restores the full 6M, `POLAROCT_QUICK=1` shrinks to
/// 50k for smoke runs.
pub fn btv_atoms() -> usize {
    if let Ok(v) = std::env::var("POLAROCT_BTV") {
        if let Ok(n) = v.parse::<usize>() {
            return n;
        }
    }
    if quick_mode() {
        50_000
    } else if std::env::var("POLAROCT_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        6_000_000
    } else {
        1_000_000
    }
}

/// Atom count for the Cucumber Mosaic Virus stand-in (509,640 atoms).
pub fn cmv_atoms() -> usize {
    if quick_mode() {
        30_000
    } else {
        509_640
    }
}

/// The standard driver configuration every figure binary uses.
pub fn std_config() -> DriverConfig {
    DriverConfig::default()
}

/// Lonestar4 cluster with P = `cores` single-threaded ranks (OCT_MPI).
pub fn mpi_cluster(cores: usize) -> ClusterSpec {
    ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(cores))
}

/// Lonestar4 cluster with 2 ranks × 6 threads per node (OCT_MPI+CILK).
pub fn hybrid_cluster(cores: usize) -> ClusterSpec {
    let m = MachineSpec::lonestar4();
    ClusterSpec::new(m, Placement::hybrid_per_socket(cores, &m))
}

/// A TSV table accumulated in memory, printed to stdout and optionally
/// mirrored to `$POLAROCT_OUT/<name>.tsv`.
pub struct Table {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(name: &str, columns: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            header: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        // PANIC-OK: precondition assert — a mis-sized row is a harness bug, fail fast.
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Convenience macro-ish helper for mixed cells.
    pub fn push(&mut self, cells: Vec<String>) {
        self.row(&cells);
    }

    /// Render as TSV.
    pub fn to_tsv(&self) -> String {
        let mut s = String::new();
        s.push_str(&self.header.join("\t"));
        s.push('\n');
        for r in &self.rows {
            s.push_str(&r.join("\t"));
            s.push('\n');
        }
        s
    }

    /// Print to stdout and mirror to `$POLAROCT_OUT` if set.
    pub fn emit(&self) {
        println!("# {}", self.name);
        print!("{}", self.to_tsv());
        if let Ok(dir) = std::env::var("POLAROCT_OUT") {
            if !dir.is_empty() {
                let _ = std::fs::create_dir_all(&dir);
                let path = std::path::Path::new(&dir).join(format!("{}.tsv", self.name));
                if let Ok(mut f) = std::fs::File::create(&path) {
                    let _ = f.write_all(self.to_tsv().as_bytes());
                }
            }
        }
    }
}

/// Format seconds compactly (µs → min range).
pub fn fmt_time(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{:.2}s", s)
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_tsv(), "a\tb\n1\t2\n");
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn fmt_time_ranges() {
        assert_eq!(fmt_time(5e-6), "5.0us");
        assert_eq!(fmt_time(0.5), "500.00ms");
        assert_eq!(fmt_time(2.0), "2.00s");
        assert_eq!(fmt_time(180.0), "3.0min");
    }

    #[test]
    fn clusters_have_expected_shape() {
        assert_eq!(mpi_cluster(144).placement.processes, 144);
        let h = hybrid_cluster(144);
        assert_eq!(h.placement.processes, 24);
        assert_eq!(h.placement.threads_per_process, 6);
    }
}
