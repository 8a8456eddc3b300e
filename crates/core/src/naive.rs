//! Naïve exact reference implementations (Table II's "Naïve" row).
//!
//! * [`born_radii_naive`] — Eq. 4 summed over *every* quadrature point for
//!   every atom: `O(M·N)`.
//! * [`epol_naive`] — Eq. 2 over every ordered atom pair: `O(M²)`.
//!
//! These define "the naïve exact algorithm" the paper measures all errors
//! against ("less than 1% error w.r.t. the naïve exact algorithm"). They
//! share the Born-radius floor/clamp with the octree path so the two
//! differ *only* by the hierarchical approximation.

use crate::gb::inv_f_gb;
use crate::system::GbSystem;
use polaroct_cluster::simtime::OpCounts;
use polaroct_geom::fastmath::MathMode;

/// Upper clamp for Born radii: an atom whose accumulated surface integral
/// vanishes (deeply buried / cancellation) gets a large-but-finite radius
/// instead of ±∞, mirroring what production GB codes do.
pub const BORN_RADIUS_MAX: f64 = 1_000.0;

/// Convert an accumulated r⁶ surface integral `s = Σ w (n·d)/|d|⁶` into a
/// Born radius: `R = (s/4π)^(−1/3)`, floored by the intrinsic radius and
/// clamped to [`BORN_RADIUS_MAX`] (Fig. 2's PUSH step, line 1).
#[inline]
pub fn born_radius_from_integral(s: f64, intrinsic: f64, math: MathMode) -> f64 {
    let four_pi = 4.0 * std::f64::consts::PI;
    if s <= 0.0 {
        return BORN_RADIUS_MAX;
    }
    let r = math.invcbrt(s / four_pi);
    r.clamp(intrinsic, BORN_RADIUS_MAX)
}

/// Batched [`born_radius_from_integral`] over parallel slices, with the
/// `invcbrt` routed through [`MathMode::invcbrt_slice`] so the Approx arm
/// vectorizes (Fig. 2's PUSH step finalization, lane-batched).
///
/// Bit-identical per element to the scalar function: the slice op applies
/// the same `invcbrt` to the same `s/4π`, and the `s ≤ 0` clamp is a
/// per-element select. Non-positive integrals get a benign placeholder
/// argument (1.0) so the batched `invcbrt` stays inside its positive
/// domain; the select then discards that lane's result.
pub fn born_radii_from_integrals(
    integrals: &[f64],
    intrinsic: &[f64],
    math: MathMode,
    out: &mut [f64],
) {
    use crate::soa::CHUNK;
    let n = integrals.len();
    // PANIC-OK: precondition assert — integral/intrinsic/out lengths must agree per atom.
    assert!(intrinsic.len() == n && out.len() == n);
    let four_pi = 4.0 * std::f64::consts::PI;
    let mut buf = [0.0f64; CHUNK];
    let mut base = 0;
    while base < n {
        let m = CHUNK.min(n - base);
        for k in 0..m {
            let s = integrals[base + k];
            buf[k] = if s <= 0.0 { 1.0 } else { s / four_pi };
        }
        math.invcbrt_slice(&mut buf[..m]);
        for k in 0..m {
            let s = integrals[base + k];
            out[base + k] = if s <= 0.0 {
                BORN_RADIUS_MAX
            } else {
                buf[k].clamp(intrinsic[base + k], BORN_RADIUS_MAX)
            };
        }
        base += m;
    }
}

/// Exact r⁶ Born radii over the full quadrature set. Returns radii in the
/// system's Morton atom order plus op counts.
pub fn born_radii_naive(sys: &GbSystem, math: MathMode) -> (Vec<f64>, OpCounts) {
    let m = sys.n_atoms();
    let n = sys.n_qpoints();
    let mut radii = Vec::with_capacity(m);
    for a in 0..m {
        let xa = sys.atoms.points[a];
        let mut s = 0.0;
        for k in 0..n {
            let d = sys.qtree.points[k] - xa;
            let d2 = d.norm2();
            let inv2 = 1.0 / d2;
            // w_k (n_k · d) / |d|^6
            s += sys.q_weight[k] * sys.q_normal[k].dot(d) * inv2 * inv2 * inv2;
        }
        radii.push(born_radius_from_integral(s, sys.radius[a], math));
    }
    let ops = OpCounts {
        born_near: (m * n) as u64,
        ..Default::default()
    };
    (radii, ops)
}

/// Exact E_pol (Eq. 2 / Fig. 3 convention): returns the raw ordered-pair
/// sum `Σ_{i,j} q_i q_j / f_GB` (convert with
/// [`crate::gb::epol_from_raw_sum`]) and op counts.
pub fn epol_naive_raw(sys: &GbSystem, born: &[f64], math: MathMode) -> (f64, OpCounts) {
    let m = sys.n_atoms();
    // PANIC-OK: precondition assert — born must be per-atom; a mismatch is a caller bug.
    assert_eq!(born.len(), m);
    let mut raw = 0.0;
    for i in 0..m {
        let xi = sys.atoms.points[i];
        let (qi, ri) = (sys.charge[i], born[i]);
        // Self term (j == i).
        raw += qi * qi / ri;
        // Unordered pairs counted twice (the ordered-pair convention).
        let tail = (i + 1)..m;
        for ((&xj, &qj), &rj) in sys.atoms.points[tail.clone()]
            .iter()
            .zip(&sys.charge[tail.clone()])
            .zip(&born[tail])
        {
            let r2 = xi.dist2(xj);
            raw += 2.0 * qi * qj * inv_f_gb(r2, ri, rj, math);
        }
    }
    let ops = OpCounts {
        epol_near: (m * m) as u64,
        ..Default::default()
    };
    (raw, ops)
}

/// Convenience: exact E_pol in kcal/mol.
pub fn epol_naive(sys: &GbSystem, born: &[f64], math: MathMode, eps_solvent: f64) -> f64 {
    let (raw, _) = epol_naive_raw(sys, born, math);
    crate::gb::epol_from_raw_sum(raw, eps_solvent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gb::{born_ion_energy, epol_from_raw_sum};
    use crate::params::ApproxParams;
    use polaroct_geom::Vec3;
    use polaroct_molecule::{synth, Atom, Element, Molecule};
    use polaroct_surface::SurfaceParams;

    fn one_ion(r: f64, q: f64) -> GbSystem {
        let mol = Molecule::from_atoms(
            "ion",
            [Atom {
                pos: Vec3::new(1.0, -2.0, 0.5),
                radius: r,
                charge: q,
                element: Element::O,
            }],
        );
        let params = ApproxParams {
            surface: SurfaceParams {
                icosphere_level: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        GbSystem::prepare(&mol, &params)
    }

    #[test]
    fn isolated_atom_born_radius_is_its_radius() {
        // The divergence-theorem identity: over a full sphere of radius r,
        // s = (4πr²)(r/r⁶) = 4π/r³ ⇒ R = r exactly (weights normalized).
        for r in [1.2, 1.7, 2.5] {
            let sys = one_ion(r, 1.0);
            let (radii, ops) = born_radii_naive(&sys, MathMode::Exact);
            assert!((radii[0] - r).abs() < 1e-9, "r={r}: got {}", radii[0]);
            assert_eq!(ops.born_near as usize, sys.n_qpoints());
        }
    }

    #[test]
    fn single_ion_energy_matches_born_equation() {
        let (r, q) = (2.0, -0.8);
        let sys = one_ion(r, q);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let e = epol_naive(&sys, &born, MathMode::Exact, 80.0);
        let want = born_ion_energy(q, r, 80.0);
        assert!((e - want).abs() < 1e-6, "{e} vs {want}");
    }

    #[test]
    fn two_distant_ions_energy_is_additive_plus_coulomb_screening() {
        // At 100 Å separation, f_GB ≈ r, so the cross term ≈ 2 q1 q2 / r.
        let mol = Molecule::from_atoms(
            "pair",
            [
                Atom {
                    pos: Vec3::ZERO,
                    radius: 1.5,
                    charge: 1.0,
                    element: Element::N,
                },
                Atom {
                    pos: Vec3::new(100.0, 0.0, 0.0),
                    radius: 1.5,
                    charge: -1.0,
                    element: Element::O,
                },
            ],
        );
        let params = ApproxParams {
            surface: SurfaceParams {
                icosphere_level: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let sys = GbSystem::prepare(&mol, &params);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        assert!((born[0] - 1.5).abs() < 1e-6);
        assert!((born[1] - 1.5).abs() < 1e-6);
        let (raw, ops) = epol_naive_raw(&sys, &born, MathMode::Exact);
        let (q0, q1) = (1.0, -1.0);
        let want = q0 * q0 / 1.5 + q1 * q1 / 1.5 + 2.0 * q0 * q1 / 100.0;
        assert!((raw - want).abs() < 1e-4, "{raw} vs {want}");
        assert_eq!(ops.epol_near, 4);
        // And the energy is negative (solvation stabilizes).
        assert!(epol_from_raw_sum(raw, 80.0) < 0.0);
    }

    #[test]
    fn buried_atoms_get_larger_born_radii() {
        // Central atom of a protein should be "deeper" than a surface one.
        let mol = synth::protein("p", 400, 11);
        let sys = GbSystem::prepare(&mol, &ApproxParams::default());
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let centroid = {
            let mut c = Vec3::ZERO;
            for &p in &sys.atoms.points {
                c += p;
            }
            c / sys.n_atoms() as f64
        };
        // Correlate burial depth with Born radius: innermost quartile mean
        // must exceed outermost quartile mean.
        let mut by_depth: Vec<(f64, f64)> = sys
            .atoms
            .points
            .iter()
            .map(|p| p.dist(centroid))
            .zip(born.iter().copied())
            .collect();
        by_depth.sort_by(|a, b| a.0.total_cmp(&b.0));
        let q = by_depth.len() / 4;
        let inner: f64 = by_depth[..q].iter().map(|x| x.1).sum::<f64>() / q as f64;
        let outer: f64 = by_depth[by_depth.len() - q..]
            .iter()
            .map(|x| x.1)
            .sum::<f64>()
            / q as f64;
        assert!(inner > outer, "buried {inner} <= surface {outer}");
    }

    #[test]
    fn born_radius_floor_and_clamp() {
        assert_eq!(
            born_radius_from_integral(-1.0, 1.5, MathMode::Exact),
            BORN_RADIUS_MAX
        );
        assert_eq!(
            born_radius_from_integral(0.0, 1.5, MathMode::Exact),
            BORN_RADIUS_MAX
        );
        // Huge integral => tiny radius => floored at intrinsic.
        assert_eq!(born_radius_from_integral(1e12, 1.5, MathMode::Exact), 1.5);
    }

    #[test]
    fn batched_finalization_matches_scalar_bitwise() {
        // Sweep lengths across the chunk boundary plus the special lanes:
        // negative, zero, clamp-to-intrinsic, clamp-to-max.
        let specials = [-3.0, 0.0, 1e12, 1e-12, 0.7, 12.566, 4.0 * std::f64::consts::PI];
        for n in [0usize, 1, 5, 63, 64, 65, 200] {
            let integrals: Vec<f64> =
                (0..n).map(|i| specials[i % specials.len()] * (1.0 + i as f64 * 0.01)).collect();
            let intrinsic: Vec<f64> = (0..n).map(|i| 1.0 + 0.01 * i as f64).collect();
            for math in [MathMode::Exact, MathMode::Approx] {
                let mut batched = vec![0.0; n];
                born_radii_from_integrals(&integrals, &intrinsic, math, &mut batched);
                for i in 0..n {
                    let scalar = born_radius_from_integral(integrals[i], intrinsic[i], math);
                    assert_eq!(
                        batched[i].to_bits(),
                        scalar.to_bits(),
                        "i={i} n={n} {math:?}: {} vs {scalar}",
                        batched[i]
                    );
                }
            }
        }
    }

    #[test]
    fn approx_math_changes_little() {
        let mol = synth::protein("p", 150, 5);
        let sys = GbSystem::prepare(&mol, &ApproxParams::default());
        let (b_exact, _) = born_radii_naive(&sys, MathMode::Exact);
        let (b_approx, _) = born_radii_naive(&sys, MathMode::Approx);
        for (e, a) in b_exact.iter().zip(&b_approx) {
            assert!(((e - a) / e).abs() < 1e-6);
        }
        let e1 = epol_naive(&sys, &b_exact, MathMode::Exact, 80.0);
        let e2 = epol_naive(&sys, &b_exact, MathMode::Approx, 80.0);
        assert!(((e1 - e2) / e1).abs() < 1e-5);
    }
}
