//! `polaroct` — command-line interface to the library.
//!
//! ```text
//! polaroct gen     --kind protein|capsid|ligand --atoms N [--seed S] [--out FILE]
//! polaroct energy  FILE [--driver naive|serial|cilk|mpi|hybrid] [--cores N]
//!                  [--eps-born X] [--eps-epol X] [--approx-math]
//! polaroct radii   FILE [--eps X]          # print Born radii
//! polaroct info    FILE                    # molecule statistics
//! polaroct suite                           # list the ZDock-like suite
//! ```
//!
//! Input files are `.xyzrq` or `.pqr` (extension-sniffed). Argument
//! parsing is hand-rolled (no CLI dependency) and unit-tested below.

#![forbid(unsafe_code)]

use polaroct::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  polaroct gen    --kind protein|capsid|ligand --atoms N [--seed S] [--out FILE]
  polaroct energy FILE [--driver naive|serial|cilk|mpi|hybrid] [--cores N]
                  [--eps-born X] [--eps-epol X] [--approx-math]
  polaroct radii  FILE [--eps X]
  polaroct info   FILE
  polaroct suite";

/// Minimal flag parser: `--key value` pairs plus positionals and boolean
/// flags from `bools`.
fn parse_flags<'a>(
    args: &'a [String],
    bools: &[&str],
) -> Result<(Vec<&'a str>, std::collections::HashMap<String, String>), String> {
    let mut pos = Vec::new();
    let mut map = std::collections::HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(key) = a.strip_prefix("--") {
            if bools.contains(&key) {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            } else {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                map.insert(key.to_string(), v.clone());
                i += 2;
            }
        } else {
            pos.push(a);
            i += 1;
        }
    }
    Ok((pos, map))
}

fn load(path: &str) -> Result<polaroct::molecule::Molecule, String> {
    let m = if path.ends_with(".pqr") {
        polaroct::molecule::io::pqr::read_file(path)
    } else {
        polaroct::molecule::io::xyzrq::read_file(path)
    };
    m.map_err(|e| format!("reading {path}: {e}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let cmd = args.first().map(|s| s.as_str()).ok_or("missing subcommand")?;
    let rest = &args[1..];
    match cmd {
        "gen" => cmd_gen(rest),
        "energy" => cmd_energy(rest),
        "radii" => cmd_radii(rest),
        "info" => cmd_info(rest),
        "suite" => cmd_suite(),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn cmd_gen(args: &[String]) -> Result<String, String> {
    let (_, flags) = parse_flags(args, &[])?;
    let kind = flags.get("kind").map(String::as_str).unwrap_or("protein");
    let atoms: usize = flags
        .get("atoms")
        .ok_or("--atoms required")?
        .parse()
        .map_err(|_| "bad --atoms")?;
    let seed: u64 =
        flags.get("seed").map(|s| s.parse().map_err(|_| "bad --seed")).transpose()?.unwrap_or(42);
    let mol = match kind {
        "protein" => polaroct::molecule::synth::protein("generated", atoms, seed),
        "capsid" => polaroct::molecule::synth::capsid("generated", atoms, seed),
        "ligand" => polaroct::molecule::synth::ligand("generated", atoms, seed),
        other => return Err(format!("unknown --kind {other:?}")),
    };
    match flags.get("out") {
        Some(path) => {
            polaroct::molecule::io::xyzrq::write_file(&mol, path)
                .map_err(|e| format!("writing {path}: {e}"))?;
            Ok(format!("wrote {} atoms to {path}\n", mol.len()))
        }
        None => {
            let mut buf = Vec::new();
            polaroct::molecule::io::xyzrq::write(&mol, &mut buf).map_err(|e| e.to_string())?;
            Ok(String::from_utf8(buf).unwrap())
        }
    }
}

fn cmd_energy(args: &[String]) -> Result<String, String> {
    let (pos, flags) = parse_flags(args, &["approx-math"])?;
    let path = pos.first().ok_or("energy needs an input file")?;
    let mol = load(path)?;
    let mut params = ApproxParams::default();
    if let Some(e) = flags.get("eps-born") {
        params.eps_born = e.parse().map_err(|_| "bad --eps-born")?;
    }
    if let Some(e) = flags.get("eps-epol") {
        params.eps_epol = e.parse().map_err(|_| "bad --eps-epol")?;
    }
    if flags.contains_key("approx-math") {
        params.math = MathMode::Approx;
    }
    let cores: usize = flags
        .get("cores")
        .map(|s| s.parse().map_err(|_| "bad --cores"))
        .transpose()?
        .unwrap_or(12);
    let driver = flags.get("driver").map(String::as_str).unwrap_or("serial");

    validate_params(&params).map_err(|e| e.to_string())?;
    let sys = GbSystem::prepare(&mol, &params);
    let cfg = DriverConfig::default();
    let machine = MachineSpec::lonestar4();
    let r = match driver {
        "naive" => run_naive(&sys, &params, &cfg),
        "serial" => run_serial(&sys, &params, &cfg),
        "cilk" => run_oct_cilk(&sys, &params, &cfg, cores),
        "mpi" => run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &ClusterSpec::new(machine, Placement::distributed(cores)),
            WorkDivision::NodeNode,
            &FtConfig::default(),
        ),
        "hybrid" => run_oct_hybrid_ft(
            &sys,
            &params,
            &cfg,
            &ClusterSpec::new(machine, Placement::hybrid_per_socket(cores, &machine)),
            &FtConfig::default(),
        ),
        other => return Err(format!("unknown --driver {other:?}")),
    }
    .map_err(|e| e.to_string())?;
    Ok(format!(
        "molecule: {} ({} atoms, {} q-points)\ndriver: {}\nE_pol = {:.4} kcal/mol\nsimulated time: {:.6} s on {} core(s)\n",
        mol.name,
        sys.n_atoms(),
        sys.n_qpoints(),
        r.name,
        r.energy_kcal,
        r.time,
        r.cores
    ))
}

fn cmd_radii(args: &[String]) -> Result<String, String> {
    let (pos, flags) = parse_flags(args, &[])?;
    let path = pos.first().ok_or("radii needs an input file")?;
    let mol = load(path)?;
    let mut params = ApproxParams::default();
    if let Some(e) = flags.get("eps") {
        params.eps_born = e.parse().map_err(|_| "bad --eps")?;
    }
    validate_params(&params).map_err(|e| e.to_string())?;
    let sys = GbSystem::prepare(&mol, &params);
    let (born, _) =
        polaroct::core::born::born_radii_octree(&sys, params.eps_born, params.math);
    let orig = sys.to_original_atom_order(&born);
    let mut out = String::from("# atom\tintrinsic_A\tborn_A\n");
    for (i, b) in orig.iter().enumerate() {
        out.push_str(&format!("{i}\t{:.3}\t{:.4}\n", mol.radii[i], b));
    }
    Ok(out)
}

fn cmd_info(args: &[String]) -> Result<String, String> {
    let (pos, _) = parse_flags(args, &[])?;
    let path = pos.first().ok_or("info needs an input file")?;
    let mol = load(path)?;
    let bbox = mol.bbox();
    let ext = bbox.extent();
    let sys = GbSystem::prepare(&mol, &ApproxParams::default());
    Ok(format!(
        "name: {}\natoms: {}\nnet charge: {:+.4} e\nbounding box: {:.1} x {:.1} x {:.1} A\nsurface quadrature points: {} ({:.1}/atom)\natoms octree: {}\nmemory (one replica): {:.2} MB\n",
        mol.name,
        mol.len(),
        mol.net_charge(),
        ext.x,
        ext.y,
        ext.z,
        sys.n_qpoints(),
        sys.n_qpoints() as f64 / mol.len() as f64,
        sys.atoms.stats(),
        sys.memory_bytes() as f64 / (1 << 20) as f64
    ))
}

fn cmd_suite() -> Result<String, String> {
    let mut out = String::from("# id\tatoms\tseed\n");
    for e in polaroct::molecule::synth::zdock_suite() {
        out.push_str(&format!("{}\t{}\t{}\n", e.name, e.n_atoms, e.seed));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_mixed() {
        let args = sv(&["file.xyzrq", "--driver", "mpi", "--approx-math", "--cores", "24"]);
        let (pos, flags) = parse_flags(&args, &["approx-math"]).unwrap();
        assert_eq!(pos, vec!["file.xyzrq"]);
        assert_eq!(flags.get("driver").unwrap(), "mpi");
        assert_eq!(flags.get("cores").unwrap(), "24");
        assert_eq!(flags.get("approx-math").unwrap(), "true");
    }

    #[test]
    fn parse_flags_missing_value() {
        let args = sv(&["--driver"]);
        assert!(parse_flags(&args, &[]).is_err());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&sv(&["frobnicate"])).is_err());
        assert!(run(&sv(&[])).is_err());
    }

    #[test]
    fn suite_lists_84() {
        let out = cmd_suite().unwrap();
        assert_eq!(out.lines().count(), 85); // header + 84
        assert!(out.contains("Z84"));
    }

    #[test]
    fn gen_to_stdout_and_energy_roundtrip() {
        let out = run(&sv(&["gen", "--kind", "ligand", "--atoms", "25", "--seed", "7"])).unwrap();
        assert!(out.lines().count() > 25);
        // Write to a temp file and compute its energy.
        let dir = std::env::temp_dir().join("polaroct_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lig.xyzrq");
        std::fs::write(&path, &out).unwrap();
        let e = run(&sv(&["energy", path.to_str().unwrap(), "--driver", "serial"])).unwrap();
        assert!(e.contains("E_pol ="));
        let info = run(&sv(&["info", path.to_str().unwrap()])).unwrap();
        assert!(info.contains("atoms: 25"));
        let radii = run(&sv(&["radii", path.to_str().unwrap()])).unwrap();
        assert_eq!(radii.lines().count(), 26);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_eps_is_a_config_error() {
        let gen = sv(&["gen", "--kind", "ligand", "--atoms", "12", "--seed", "3"]);
        let out = run(&gen).unwrap();
        let dir = std::env::temp_dir().join("polaroct_cli_eps_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lig.xyzrq");
        std::fs::write(&path, &out).unwrap();
        let file = path.to_str().unwrap();
        let mut cases = Vec::new();
        for driver in ["serial", "mpi"] {
            for eps in ["0", "-1", "nan"] {
                cases.push(sv(&["energy", file, "--driver", driver, "--eps-epol", eps]));
            }
        }
        cases.push(sv(&["energy", file, "--eps-born", "nan"]));
        cases.push(sv(&["radii", file, "--eps", "-5"]));
        for args in &cases {
            let err = run(args).unwrap_err();
            assert!(err.contains("invalid configuration"), "{args:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_rejects_bad_kind() {
        assert!(run(&sv(&["gen", "--kind", "spaceship", "--atoms", "10"])).is_err());
        assert!(run(&sv(&["gen", "--kind", "protein"])).is_err()); // no atoms
    }
}
