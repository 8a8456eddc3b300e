//! Work/precision sweep of the E_pol far rule (Knepley & Bardhan's
//! work/precision diagrams, PAPERS.md).
//!
//! Sweeps far rule × MAC × traversal over the 84-molecule suite and the
//! `e2e_profile` base molecules:
//!
//! * far rule: the paper's binned monopole ([`EpolFar::Binned`], whose
//!   MAC `1 + 2/ε` is loosened by raising ε, which also coarsens the
//!   bins) and the second-order Taylor rule ([`EpolFar::Taylor2`] at
//!   ε = 0.9, where the MAC is the rule's own);
//! * MAC multiplier ∈ {3.22, 2.5, 2.25, 2.0};
//! * traversal: single tree (`run_serial`) and dual tree
//!   (`run_oct_cilk`, [6]'s `T_A × T_A` recursion).
//!
//! Each configuration reports the signed mean, std, mean |error| and max
//! |error| of the energy against the naive exact sum on the same
//! surface, the E_pol near interactions, and the measured wall time.
//! The run asserts the acceptance rule the default was chosen by: at the
//! default MAC, the default rule's suite max |error| and mean |error| are
//! no larger than the paper rule's.
//!
//! Writes `BENCH_workprec.json` to `$POLAROCT_OUT` if set, else
//! `results/`. `POLAROCT_QUICK=1` subsamples the suite, skips the base
//! molecules and writes the JSON only when `POLAROCT_OUT` is set, so a
//! smoke run never overwrites the committed full-mode file.

#![forbid(unsafe_code)]

use polaroct_bench::{quick_mode, std_config, suite, Table};
use polaroct_core::drivers::DriverConfig;
use polaroct_core::params::TAYLOR2_MAC;
use polaroct_core::{
    energy_error_pct, run_naive, run_oct_cilk, run_serial, ApproxParams, EpolFar, ErrorStats,
    GbSystem,
};
use polaroct_molecule::synth;
use std::io::Write;

/// MAC multipliers swept; the first is the paper default `1 + 2/0.9`.
const MACS: [f64; 4] = [1.0 + 2.0 / 0.9, 2.5, 2.25, 2.0];

/// The `e2e_profile` base molecules: `synth::protein(atoms, 0)`.
const BASE: [(&str, usize); 3] = [("oneshot", 12_000), ("mdtraj", 3_000), ("mutscan,ranks_proc", 4_000)];

#[derive(Clone, Copy, PartialEq)]
enum Traversal {
    Single,
    Dual,
}

impl Traversal {
    fn name(self) -> &'static str {
        match self {
            Traversal::Single => "single",
            Traversal::Dual => "dual",
        }
    }
}

/// One point of the sweep; `mac` is the MAC multiplier in effect.
#[derive(Clone, Copy)]
struct Config {
    far: EpolFar,
    mac: f64,
    traversal: Traversal,
}

impl Config {
    fn params(&self) -> ApproxParams {
        let params = ApproxParams::default().with_epol_far(self.far);
        match self.far {
            // The paper rule reaches a MAC only through ε: 1 + 2/ε = mac.
            EpolFar::Binned => params.with_eps(0.9, 2.0 / (self.mac - 1.0)),
            EpolFar::Taylor2 { .. } => params,
        }
    }

    fn rule(&self) -> &'static str {
        match self.far {
            EpolFar::Binned => "binned",
            EpolFar::Taylor2 { .. } => "taylor2",
        }
    }
}

/// One configuration's run on one molecule.
struct Sample {
    err_pct: f64,
    epol_near: u64,
    wall_s: f64,
}

fn run(sys: &GbSystem, c: &Config, cfg: &DriverConfig, naive: f64) -> Sample {
    let params = c.params();
    let r = match c.traversal {
        Traversal::Single => run_serial(sys, &params, cfg),
        Traversal::Dual => run_oct_cilk(sys, &params, cfg, 1),
    };
    // PANIC-OK: suite molecules are generated and valid; a failure is a harness bug.
    let r = r.expect("driver run on a generated molecule");
    Sample {
        err_pct: energy_error_pct(r.energy_kcal, naive),
        epol_near: r.ops.epol_near,
        wall_s: r.wall_seconds,
    }
}

struct Row {
    config: Config,
    stats: ErrorStats,
    mean_abs: f64,
    max_abs: f64,
    epol_near: u64,
    wall_s: f64,
}

fn configs() -> Vec<Config> {
    let mut out = Vec::new();
    for traversal in [Traversal::Single, Traversal::Dual] {
        for taylor in [false, true] {
            for mac in MACS {
                let far = if taylor { EpolFar::Taylor2 { mac } } else { EpolFar::Binned };
                out.push(Config { far, mac, traversal });
            }
        }
    }
    out
}

fn json_num(x: f64) -> String {
    format!("{x:.6e}")
}

fn main() {
    let quick = quick_mode();
    let cfg = std_config();
    let entries = suite();
    eprintln!("[workprec] naive references for {} molecules...", entries.len());
    let prepared: Vec<(GbSystem, f64)> = entries
        .iter()
        .map(|e| {
            let sys = GbSystem::prepare(&e.build(), &ApproxParams::default());
            // PANIC-OK: suite molecules are generated and valid.
            let naive = run_naive(&sys, &ApproxParams::default(), &cfg).expect("naive run");
            (sys, naive.energy_kcal)
        })
        .collect();

    let mut rows = Vec::new();
    for c in configs() {
        let samples: Vec<Sample> = prepared.iter().map(|(sys, n)| run(sys, &c, &cfg, *n)).collect();
        let errs: Vec<f64> = samples.iter().map(|s| s.err_pct).collect();
        let abs: Vec<f64> = errs.iter().map(|e| e.abs()).collect();
        let row = Row {
            config: c,
            stats: ErrorStats::of(&errs),
            mean_abs: abs.iter().sum::<f64>() / abs.len().max(1) as f64,
            max_abs: abs.iter().cloned().fold(0.0, f64::max),
            epol_near: samples.iter().map(|s| s.epol_near).sum(),
            wall_s: samples.iter().map(|s| s.wall_s).sum(),
        };
        eprintln!(
            "[workprec] {} {} mac={:.2}: err {} | max|err| {:.4}% | near {:.3e} | {:.2} s",
            c.traversal.name(),
            c.rule(),
            c.mac,
            row.stats,
            row.max_abs,
            row.epol_near as f64,
            row.wall_s
        );
        rows.push(row);
    }

    let mut t = Table::new(
        "workprec",
        &[
            "traversal",
            "far_rule",
            "mac",
            "err_mean_pct",
            "err_std_pct",
            "err_mean_abs_pct",
            "err_max_abs_pct",
            "epol_near",
            "wall_s",
        ],
    );
    for r in &rows {
        t.push(vec![
            r.config.traversal.name().into(),
            r.config.rule().into(),
            format!("{:.2}", r.config.mac),
            format!("{:.4}", r.stats.mean),
            format!("{:.4}", r.stats.std),
            format!("{:.4}", r.mean_abs),
            format!("{:.4}", r.max_abs),
            r.epol_near.to_string(),
            format!("{:.3}", r.wall_s),
        ]);
    }
    t.emit();

    // Per-molecule rows for the benchmark's base molecules.
    let mut base_json = Vec::new();
    if !quick {
        for (workloads, atoms) in BASE {
            let sys = GbSystem::prepare(&synth::protein("protein", atoms, 0), &ApproxParams::default());
            // PANIC-OK: generated molecule.
            let naive = run_naive(&sys, &ApproxParams::default(), &cfg).expect("naive run").energy_kcal;
            let mut cells = Vec::new();
            for c in configs() {
                let s = run(&sys, &c, &cfg, naive);
                eprintln!(
                    "[workprec] {workloads} ({atoms} atoms) {} {} mac={:.2}: err {:+.4}%, near {}",
                    c.traversal.name(),
                    c.rule(),
                    c.mac,
                    s.err_pct,
                    s.epol_near
                );
                cells.push(format!(
                    "      {{\"traversal\": \"{}\", \"far_rule\": \"{}\", \"mac\": {:.4}, \
                     \"err_pct\": {}, \"epol_near\": {}, \"wall_s\": {}}}",
                    c.traversal.name(),
                    c.rule(),
                    c.mac,
                    json_num(s.err_pct),
                    s.epol_near,
                    json_num(s.wall_s)
                ));
            }
            base_json.push(format!(
                "    {{\"workloads\": \"{workloads}\", \"atoms\": {atoms}, \"seed\": 0, \"runs\": [\n{}\n    ]}}",
                cells.join(",\n")
            ));
        }
    }

    // The acceptance rule behind the default: at the default MAC, the
    // default rule is no less accurate than the paper's over the suite.
    let find = |rule: &str, mac: f64| {
        rows.iter().find(|r| {
            r.config.traversal == Traversal::Single
                && r.config.rule() == rule
                && (r.config.mac - mac).abs() < 1e-12
        })
    };
    let paper = find("binned", MACS[0]);
    let default = find("taylor2", TAYLOR2_MAC);
    if let (Some(p), Some(d)) = (paper, default) {
        // PANIC-OK: the bench's gate; a failure is the finding it exists to report.
        assert!(
            d.max_abs <= p.max_abs && d.mean_abs <= p.mean_abs,
            "default far rule (max |err| {:.4}%, mean |err| {:.4}%) is less accurate than the \
             paper rule (max {:.4}%, mean {:.4}%)",
            d.max_abs,
            d.mean_abs,
            p.max_abs,
            p.mean_abs
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"quick\": {quick},\n  \"molecules\": {},\n", prepared.len()));
    json.push_str(&format!(
        "  \"reference\": \"naive exact sum on the same surface\",\n  \"default\": {{\"far_rule\": \"taylor2\", \"mac\": {TAYLOR2_MAC}}},\n"
    ));
    json.push_str("  \"suite\": [\n");
    let suite_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"traversal\": \"{}\", \"far_rule\": \"{}\", \"mac\": {:.4}, \"eps_epol\": {:.4}, \
                 \"err_mean_pct\": {}, \"err_std_pct\": {}, \"err_mean_abs_pct\": {}, \
                 \"err_max_abs_pct\": {}, \"epol_near\": {}, \"wall_s\": {}}}",
                r.config.traversal.name(),
                r.config.rule(),
                r.config.mac,
                r.config.params().eps_epol,
                json_num(r.stats.mean),
                json_num(r.stats.std),
                json_num(r.mean_abs),
                json_num(r.max_abs),
                r.epol_near,
                json_num(r.wall_s)
            )
        })
        .collect();
    json.push_str(&suite_rows.join(",\n"));
    json.push_str("\n  ],\n  \"base_molecules\": [\n");
    json.push_str(&base_json.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let dir = std::env::var("POLAROCT_OUT").ok().filter(|d| !d.is_empty());
    let dir = match (dir, quick) {
        (Some(d), _) => d,
        (None, false) => "results".to_string(),
        (None, true) => return,
    };
    let _ = std::fs::create_dir_all(&dir);
    let path = std::path::Path::new(&dir).join("BENCH_workprec.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[workprec] wrote {}", path.display()),
        Err(e) => eprintln!("[workprec] could not write {}: {e}", path.display()),
    }
}
