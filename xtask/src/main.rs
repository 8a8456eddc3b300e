//! Workspace automation entry point (`cargo xtask <command>`).

#![forbid(unsafe_code)]

use std::process::ExitCode;
use xtask::analyze;

const USAGE: &str = "usage: cargo xtask <analyze [--format json|text] [--bless-baseline] | bless>";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => analyze::run(&args.collect::<Vec<_>>()),
        Some("bless") => bless(),
        Some(other) => {
            eprintln!("unknown xtask command: {other}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Regenerate the golden-value fixtures (`tests/golden/*.golden`) by
/// delegating to the root crate's `bless_golden` binary. Shelling out
/// keeps xtask free of workspace dependencies (it must build even when
/// the numeric crates are broken, so `analyze` stays usable).
fn bless() -> ExitCode {
    let status = std::process::Command::new(env!("CARGO"))
        .args(["run", "--release", "-p", "polaroct", "--bin", "bless_golden"])
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => {
            eprintln!("bless_golden exited with {s}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("failed to launch bless_golden: {e}");
            ExitCode::FAILURE
        }
    }
}
