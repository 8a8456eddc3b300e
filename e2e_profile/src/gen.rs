//! Seeded input generator. Everything a workload feeds the program comes
//! from here: molecules as PQR bytes, the MD drift trajectory, the
//! mutation screen and the rigid poses. The same seed gives the same
//! inputs; the program only ever sees the generated bytes and arrays.

use polaroct_core::Perturbation;
use polaroct_geom::transform::{Rotation, Transform};
use polaroct_geom::Vec3;
use polaroct_molecule::{io::pqr, synth, Molecule};

/// Generator seed of every workload's base molecule. The base molecule
/// does not depend on the workload seed, so the accuracy metrics
/// measured on it are comparable from run to run (README.md, "Inputs").
pub const BASE_SEED: u64 = 0;

/// splitmix64: a small, fast, fully deterministic stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn vec(&mut self, amplitude: f64) -> Vec3 {
        Vec3::new(self.signed_unit(), self.signed_unit(), self.signed_unit()) * amplitude
    }
}

/// `synth::protein` with `n` atoms, written as PQR bytes.
pub fn protein_pqr(n: usize, generator_seed: u64) -> Vec<u8> {
    pqr_bytes(&synth::protein("protein", n, generator_seed))
}

pub fn pqr_bytes(mol: &Molecule) -> Vec<u8> {
    let mut out = Vec::new();
    pqr::write(mol, &mut out).expect("writing PQR into memory cannot fail");
    out
}

/// Parse PQR bytes produced by this generator.
pub fn parse(bytes: &[u8]) -> Molecule {
    pqr::read("protein", bytes).expect("generated PQR bytes parse")
}

/// Generator seed of the `i`-th one-shot molecule: the base for `i == 0`,
/// drawn from the workload seed otherwise.
pub fn oneshot_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        BASE_SEED
    } else {
        Rng::new(seed, 0x0E5 + i as u64).next_u64()
    }
}

/// The base molecule under the `i`-th seeded rigid pose (identity for
/// `i == 0`), as PQR bytes.
pub fn posed_pqr(base: &Molecule, seed: u64, i: usize) -> Vec<u8> {
    if i == 0 {
        return pqr_bytes(base);
    }
    let mut r = Rng::new(seed, 0x905E + i as u64);
    let rot = Rotation::from_euler_zyx(
        r.signed_unit() * std::f64::consts::PI,
        r.signed_unit() * std::f64::consts::FRAC_PI_2,
        r.signed_unit() * std::f64::consts::PI,
    );
    let pose = Transform::about_pivot(rot, base.centroid(), r.vec(5.0));
    pqr_bytes(&base.transformed(&pose))
}

/// Random-walk drift: every frame moves every atom by a uniform
/// displacement of at most `step` Å per component.
pub struct Drift {
    rng: Rng,
    step: f64,
    pub positions: Vec<Vec3>,
}

impl Drift {
    pub fn new(start: &[Vec3], seed: u64, step: f64) -> Drift {
        Drift {
            rng: Rng::new(seed, 0xD81F7),
            step,
            positions: start.to_vec(),
        }
    }

    pub fn next_frame(&mut self) -> &[Vec3] {
        for p in self.positions.iter_mut() {
            *p += self.rng.vec(self.step);
        }
        &self.positions
    }
}

/// A fixed (seed-independent) frame inside the Verlet skin: every atom
/// displaced by at most `max_disp` Å, so a list engine built at `start`
/// serves it without a rebuild.
pub fn probe_frame(start: &[Vec3], max_disp: f64) -> Vec<Vec3> {
    let mut r = Rng::new(BASE_SEED, 0x9B0BE);
    let per_component = max_disp / 3f64.sqrt();
    start.iter().map(|&p| p + r.vec(per_component)).collect()
}

/// Query kinds of the mutation screen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Move1,
    Move4,
    Charge,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Move1, Kind::Move4, Kind::Charge];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Move1 => "move1",
            Kind::Move4 => "move4",
            Kind::Charge => "charge",
        }
    }
}

/// Seeded mutation screen: one-atom moves, four-atom moves and one-atom
/// charge changes in a 2:1:1 mix. Every query is relative to the base
/// state (the screen reverts each one before the next).
pub struct Screen {
    rng: Rng,
}

/// Largest move per component (Å).
pub const MOVE_STEP: f64 = 0.1;

impl Screen {
    pub fn new(seed: u64) -> Screen {
        Screen {
            rng: Rng::new(seed, 0x5C2EE),
        }
    }

    pub fn next_query(&mut self, positions: &[Vec3], charges: &[f64]) -> (Kind, Perturbation) {
        let r = &mut self.rng;
        let n = positions.len();
        let kind = match r.below(4) {
            0 | 1 => Kind::Move1,
            2 => Kind::Move4,
            _ => Kind::Charge,
        };
        let mut p = Perturbation::default();
        match kind {
            Kind::Move1 | Kind::Move4 => {
                let k = if kind == Kind::Move1 { 1 } else { 4 };
                let mut atoms: Vec<usize> = Vec::with_capacity(k);
                while atoms.len() < k {
                    let a = r.below(n);
                    if !atoms.contains(&a) {
                        atoms.push(a);
                    }
                }
                for a in atoms {
                    p = p.move_atom(a, positions[a] + r.vec(MOVE_STEP));
                }
            }
            Kind::Charge => {
                let a = r.below(n);
                p = p.set_charge(a, charges[a] + 0.5 * r.signed_unit());
            }
        }
        (kind, p)
    }
}
