//! Exact and approximate math kernels — the paper's "approximate math"
//! toggle.
//!
//! §V.C: "We used approximate math for computing square root and power
//! functions", and §V.E: "Turning approximate math 'on' shifted the error
//! by 4-5% and decreased the running times by a factor of 1.42 on average."
//!
//! The GB kernels need three scalar functions per interaction:
//! `1/sqrt(x)` (for `1/f_GB`), `exp(x)` (for the Still factor) and
//! `x^(-1/3)` (for `R = (s/4π)^(-1/3)`). The exact side is `f64::sqrt`,
//! `f64::powf` and glibc's exp algorithm, reproduced in-crate so that its
//! slice form vectorizes while every bit still matches libm's `exp`. We
//! provide fast variants:
//!
//! * [`rsqrt_fast`] — the classic bit-shift seed refined with two Newton
//!   iterations (~1e-6 relative error).
//! * [`exp_fast`] — Schraudolph-style exponent-field construction with a
//!   degree-2 polynomial correction (~1e-4 relative error on [-30, 0],
//!   the range `-r²/(4 R_i R_j)` actually takes).
//! * [`invcbrt_fast`] — bit-hack seed + Newton for `x^(-1/3)`.
//!
//! [`MathMode`] selects exact vs approximate at call sites; kernels take it
//! as a parameter so the ablation harness can flip one switch.

/// Selects exact or approximate math in the energy kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MathMode {
    /// `f64::sqrt`, `f64::powf`, and glibc's exp algorithm, reproduced
    /// in-crate (bit-identical to `f64::exp` on glibc ≥ 2.28).
    #[default]
    Exact,
    /// Fast approximations from this module.
    Approx,
}

impl MathMode {
    /// `1/sqrt(x)` under this mode.
    #[inline]
    pub fn rsqrt(self, x: f64) -> f64 {
        match self {
            MathMode::Exact => 1.0 / x.sqrt(),
            MathMode::Approx => rsqrt_fast(x),
        }
    }

    /// `exp(x)` under this mode.
    #[inline]
    pub fn exp(self, x: f64) -> f64 {
        match self {
            MathMode::Exact => exp_exact(x),
            MathMode::Approx => exp_fast(x),
        }
    }

    /// `x^(-1/3)` under this mode.
    #[inline]
    pub fn invcbrt(self, x: f64) -> f64 {
        match self {
            MathMode::Exact => x.powf(-1.0 / 3.0),
            MathMode::Approx => invcbrt_fast(x),
        }
    }

    /// In-place `x[i] ← x[i]^(-1/3)` over a slice.
    ///
    /// Identical per element to [`MathMode::invcbrt`]; same dispatch shape
    /// as [`MathMode::exp_slice`] / [`MathMode::rsqrt_slice`] — the mode
    /// branch is hoisted so each arm is a straight loop (the approximate
    /// arm is pure integer/float arithmetic and vectorizes).
    #[inline]
    pub fn invcbrt_slice(self, xs: &mut [f64]) {
        match self {
            MathMode::Exact => {
                for x in xs.iter_mut() {
                    *x = x.powf(-1.0 / 3.0);
                }
            }
            MathMode::Approx => {
                for x in xs.iter_mut() {
                    *x = invcbrt_fast(*x);
                }
            }
        }
    }

    /// In-place `x[i] ← 1/sqrt(x[i])` over a slice.
    ///
    /// Identical per element to [`MathMode::rsqrt`]; the mode dispatch is
    /// hoisted out of the loop so each arm is a branch-free loop LLVM can
    /// auto-vectorize (`vsqrtpd` + division in the exact arm, the
    /// Newton-refined bit hack in the approximate arm).
    #[inline]
    pub fn rsqrt_slice(self, xs: &mut [f64]) {
        match self {
            MathMode::Exact => {
                for x in xs.iter_mut() {
                    *x = 1.0 / x.sqrt();
                }
            }
            MathMode::Approx => {
                for x in xs.iter_mut() {
                    *x = rsqrt_fast(*x);
                }
            }
        }
    }

    /// In-place `x[i] ← exp(x[i])` over a slice.
    ///
    /// Identical per element to [`MathMode::exp`]. Both arms vectorize:
    /// the approximate arm is branch-free polynomial + bit arithmetic, and
    /// the exact arm runs glibc's fast path branch-free over 64-lane
    /// blocks and redoes only the `|x| ≥ 512`/inf/NaN lanes in scalar.
    #[inline]
    pub fn exp_slice(self, xs: &mut [f64]) {
        match self {
            MathMode::Exact => exp_exact_slice(xs),
            MathMode::Approx => {
                for x in xs.iter_mut() {
                    *x = exp_fast(*x);
                }
            }
        }
    }
}

/// Fast `1/sqrt(x)` for positive finite `x`.
///
/// 64-bit variant of the "magic constant" reciprocal square root with three
/// Newton–Raphson refinements. Relative error < 1e-10 across the positive
/// normal range.
#[inline]
pub fn rsqrt_fast(x: f64) -> f64 {
    debug_assert!(x > 0.0);
    let i = x.to_bits();
    // Magic constant for f64 (Matthew Robertson's optimized value).
    let i = 0x5FE6_EB50_C7B5_37A9u64.wrapping_sub(i >> 1);
    let mut y = f64::from_bits(i);
    let half = 0.5 * x;
    // Three Newton iterations: y <- y (1.5 - 0.5 x y^2)
    y = y * (1.5 - half * y * y);
    y = y * (1.5 - half * y * y);
    y = y * (1.5 - half * y * y);
    y
}

/// Fast `exp(x)`.
///
/// Splits `x = k ln2 + r` with `|r| <= ln2/2`, builds `2^k` through the
/// exponent field and evaluates a degree-5 Taylor polynomial for `e^r`.
/// Relative error < 2e-9 for `x` in [-700, 700]; underflows to 0 and
/// overflows to `f64::INFINITY` like `exp`. Entirely branch-free (the
/// range clamps are selects), so [`MathMode::exp_slice`] auto-vectorizes.
#[inline]
pub fn exp_fast(x: f64) -> f64 {
    const LOG2E: f64 = std::f64::consts::LOG2_E;
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    let k = (x * LOG2E).round();
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // e^r via Horner on [-ln2/2, ln2/2].
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (1.0 / 6.0
                    + r * (1.0 / 24.0
                        + r * (1.0 / 120.0
                            + r * (1.0 / 720.0 + r * (1.0 / 5040.0 + r / 40320.0)))))));
    // Scale by 2^k through the exponent bits. For any x ≥ -708 (the only
    // inputs that reach this product unclamped), k ≥ round(-708·log₂e) =
    // -1021 > -1023, so `p · 2^k` is normal and the exponent-field
    // construction is exact — no subnormal fallback is ever reachable.
    // The integer k is extracted with the shifter-constant trick instead
    // of a float→int cast: adding 1.5·2⁵² places k in the low mantissa
    // bits exactly (for |k| ≤ 2⁵¹ — every in-range x), and the 2⁵¹ offset
    // plus the shifter's exponent field both vanish under `<< 52`. A
    // `k as i64` cast here is saturating and compiles to a *scalar*
    // conversion per lane, which blocks vectorization of the slice path;
    // the shifter form is plain float-add + integer add/shift in every
    // lane. Out-of-range x leaves garbage in the low bits, but the
    // selects below discard the product for exactly those inputs, and
    // NaN propagates through `p` and both selects unchanged.
    const SHIFTER: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
    let two_k = f64::from_bits((k + SHIFTER).to_bits().wrapping_add(1023) << 52);
    let v = p * two_k;
    let v = if x < -708.0 { 0.0 } else { v };
    if x > 709.0 {
        f64::INFINITY
    } else {
        v
    }
}

// ---------------------------------------------------------------------------
// Exact exp: glibc's algorithm, reproduced in-crate
// ---------------------------------------------------------------------------
//
// A port of the double-precision `exp` in glibc ≥ 2.28
// (`sysdeps/ieee754/dbl-64/e_exp.c`), which is Szabolcs Nagy's routine from
// Arm's optimized-routines (`math/exp.c`, `math/exp_data.c`). With
// N = 128 it writes x = k·ln2/N + r, |r| ≤ ln2/2N, takes 2^(k/N) from a
// table and exp(r) − 1 from a degree-5 polynomial. The constants and the
// table below are glibc's `__exp_data`, bit for bit.
//
// Matching glibc's bits also means matching its rounding steps. glibc is
// built with GCC's default `-ffp-contract=fast`, so the FMA variant its
// ifunc picks on x86-64 fuses products into adds; every `mul_add` below
// is one such fusion in that binary and every plain `*`/`+` is one GCC
// left unfused. `f64::mul_add` is a single correctly rounded FMA on every
// target, so these bits no longer depend on which variant a host's glibc
// would have chosen (DESIGN.md §16).

/// N/ln2 with N = 128.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// −ln2/N split in a high part with trailing zero bits and a low part.
const EXP_NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
const EXP_NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
/// exp(r) − 1 ≈ r + C2·r² + C3·r³ + C4·r⁴ + C5·r⁵.
const EXP_C2: f64 = f64::from_bits(0x3fdf_ffff_ffff_fdbd);
const EXP_C3: f64 = f64::from_bits(0x3fc5_5555_5555_543c);
const EXP_C4: f64 = f64::from_bits(0x3fa5_5555_cf17_2b91);
const EXP_C5: f64 = f64::from_bits(0x3f81_1111_67a4_d017);
/// 1.5·2⁵²: adding it rounds to an integer and leaves k in the low bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// Biased exponent fields of 2⁻⁵⁴, 512 and 1024: the fast path covers
/// `EXP_TOP_TINY ≤ top(|x|) < EXP_TOP_512`.
const EXP_TOP_TINY: u64 = 0x3c9;
const EXP_TOP_512: u64 = 0x408;
const EXP_TOP_1024: u64 = 0x409;

/// 2^(k/N) for k = 0..N as `[tail, hi − (k << 45)]` bit pairs, where
/// 2^(k/N) ≈ hi·(1 + tail). Adding `ki << 45` to the second word puts the
/// integer part of k/N into the exponent field.
const EXP_TAB: [[u64; 2]; 128] = [
    [0x0000_0000_0000_0000, 0x3ff0_0000_0000_0000],
    [0x3c9b_3b4f_1a88_bf6e, 0x3fef_f63d_a9fb_3335],
    [0xbc71_6013_9cd8_dc5d, 0x3fef_ec9a_3e77_8061],
    [0xbc90_5e7a_1087_66d1, 0x3fef_e315_e86e_7f85],
    [0x3c8c_d252_3567_f613, 0x3fef_d9b0_d315_8574],
    [0xbc8b_ce80_23f9_8efa, 0x3fef_d06b_29dd_f6de],
    [0x3c60_f74e_61e6_c861, 0x3fef_c745_1875_9bc8],
    [0x3c90_a3e4_5b33_d399, 0x3fef_be3e_cac6_f383],
    [0x3c97_9aa6_5d83_7b6d, 0x3fef_b558_6cf9_890f],
    [0x3c8e_b51a_92fd_effc, 0x3fef_ac92_2b72_47f7],
    [0x3c3e_be3d_702f_9cd1, 0x3fef_a3ec_32d3_d1a2],
    [0xbc6a_0334_8990_6e0b, 0x3fef_9b66_affe_d31b],
    [0xbc95_5652_2a2f_bd0e, 0x3fef_9301_d012_5b51],
    [0xbc50_80ef_8c4e_ea55, 0x3fef_8abd_c06c_31cc],
    [0xbc91_c923_b9d5_f416, 0x3fef_829a_aea9_2de0],
    [0x3c80_d3e3_e95c_55af, 0x3fef_7a98_c8a5_8e51],
    [0xbc80_1b15_eaa5_9348, 0x3fef_72b8_3c7d_517b],
    [0xbc8f_1ff0_55de_323d, 0x3fef_6af9_388c_8dea],
    [0x3c8b_898c_3f13_53bf, 0x3fef_635b_eb6f_cb75],
    [0xbc96_d99c_7611_eb26, 0x3fef_5be0_8404_5cd4],
    [0x3c9a_ecf7_3e3a_2f60, 0x3fef_5487_3168_b9aa],
    [0xbc8f_e782_cb86_389d, 0x3fef_4d50_22fc_d91d],
    [0x3c8a_6f41_44a6_c38d, 0x3fef_463b_8862_8cd6],
    [0x3c80_7a05_b0e4_047d, 0x3fef_3f49_917d_dc96],
    [0x3c96_8efd_e3a8_a894, 0x3fef_387a_6e75_6238],
    [0x3c87_5e18_f274_487d, 0x3fef_31ce_4fb2_a63f],
    [0x3c80_472b_981f_e7f2, 0x3fef_2b45_65e2_7cdd],
    [0xbc96_b87b_3f71_085e, 0x3fef_24df_e1f5_6381],
    [0x3c82_f7e1_6d09_ab31, 0x3fef_1e9d_f51f_dee1],
    [0xbc3d_219b_1a6f_bffa, 0x3fef_187f_d0da_d990],
    [0x3c8b_3782_720c_0ab4, 0x3fef_1285_a6e4_030b],
    [0x3c6e_1492_89ce_cb8f, 0x3fef_0caf_a93e_2f56],
    [0x3c83_4d75_4db0_abb6, 0x3fef_06fe_0a31_b715],
    [0x3c86_4201_e2ac_744c, 0x3fef_0170_fc4c_d831],
    [0x3c8f_dd39_5dd3_f84a, 0x3fee_fc08_b264_16ff],
    [0xbc86_a380_3b8e_5b04, 0x3fee_f6c5_5f92_9ff1],
    [0xbc92_4aed_cc4b_5068, 0x3fee_f1a7_373a_a9cb],
    [0xbc99_07f8_1b51_2d8e, 0x3fee_ecae_6d05_d866],
    [0xbc71_d1e8_3e94_36d2, 0x3fee_e7db_34e5_9ff7],
    [0xbc99_1919_b3ce_1b15, 0x3fee_e32d_c313_a8e5],
    [0x3c85_9f48_a72a_4c6d, 0x3fee_dea6_4c12_3422],
    [0xbc93_1260_7a28_698a, 0x3fee_da45_04ac_801c],
    [0xbc58_a78f_4817_895b, 0x3fee_d60a_21f7_2e2a],
    [0xbc7c_2c9b_6749_9a1b, 0x3fee_d1f5_d950_a897],
    [0x3c43_63ed_60c2_ac11, 0x3fee_ce08_6061_892d],
    [0x3c96_6609_3b06_64ef, 0x3fee_ca41_ed1d_0057],
    [0x3c6e_cce1_daa1_0379, 0x3fee_c6a2_b5c1_3cd0],
    [0x3c93_ff8e_3f0f_1230, 0x3fee_c32a_f0d7_d3de],
    [0x3c76_90ce_bb7a_afb0, 0x3fee_bfda_d536_2a27],
    [0x3c93_1dbd_eb54_e077, 0x3fee_bcb2_99fd_dd0d],
    [0xbc8f_9434_0071_a38e, 0x3fee_b9b2_769d_2ca7],
    [0xbc87_decc_dc93_a349, 0x3fee_b6da_a2cf_6642],
    [0xbc78_dec6_bd0f_385f, 0x3fee_b42b_569d_4f82],
    [0xbc86_1246_ec7b_5cf6, 0x3fee_b1a4_ca5d_920f],
    [0x3c93_3505_18fd_d78e, 0x3fee_af47_36b5_27da],
    [0x3c7b_98b7_2f8a_9b05, 0x3fee_ad12_d497_c7fd],
    [0x3c90_63e1_e21c_5409, 0x3fee_ab07_dd48_5429],
    [0x3c34_c785_5019_c6ea, 0x3fee_a926_8a59_46b7],
    [0x3c94_32e6_2b64_c035, 0x3fee_a76f_15ad_2148],
    [0xbc8c_e44a_6199_769f, 0x3fee_a5e1_b976_dc09],
    [0xbc8c_33c5_3bef_4da8, 0x3fee_a47e_b03a_5585],
    [0xbc84_5378_892b_e9ae, 0x3fee_a346_34cc_c320],
    [0xbc93_cedd_7856_5858, 0x3fee_a238_8255_2225],
    [0x3c57_10aa_807e_1964, 0x3fee_a155_d44c_a973],
    [0xbc93_b3ef_bf5e_2228, 0x3fee_a09e_667f_3bcd],
    [0xbc6a_12ad_8734_b982, 0x3fee_a012_750b_dabf],
    [0xbc63_67ef_b86d_a9ee, 0x3fee_9fb2_3c65_1a2f],
    [0xbc80_dc3d_54e0_8851, 0x3fee_9f7d_f951_9484],
    [0xbc78_1f64_7e5a_3ecf, 0x3fee_9f75_e8ec_5f74],
    [0xbc86_ee4a_c08b_7db0, 0x3fee_9f9a_48a5_8174],
    [0xbc86_1932_1e55_e68a, 0x3fee_9feb_5642_67c9],
    [0x3c90_9ccb_5e09_d4d3, 0x3fee_a069_4fde_5d3f],
    [0xbc7b_32dc_b94d_a51d, 0x3fee_a114_73eb_0187],
    [0x3c94_ecfd_5467_c06b, 0x3fee_a1ed_0130_c132],
    [0x3c65_ebe1_abd6_6c55, 0x3fee_a2f3_36cf_4e62],
    [0xbc88_a1c5_2fb3_cf42, 0x3fee_a427_543e_1a12],
    [0xbc93_69b6_f13b_3734, 0x3fee_a589_994c_ce13],
    [0xbc80_5e84_3a19_ff1e, 0x3fee_a71a_4623_c7ad],
    [0xbc94_d450_d872_576e, 0x3fee_a8d9_9b44_92ed],
    [0x3c90_ad67_5b0e_8a00, 0x3fee_aac7_d98a_6699],
    [0x3c8d_b72f_c1f0_eab4, 0x3fee_ace5_422a_a0db],
    [0xbc65_b660_9cc5_e7ff, 0x3fee_af32_16b5_448c],
    [0x3c7b_f683_59f3_5f44, 0x3fee_b1ae_9915_7736],
    [0xbc93_091f_a71e_3d83, 0x3fee_b45b_0b91_ffc6],
    [0xbc5d_a9b8_8b6c_1e29, 0x3fee_b737_b0cd_c5e5],
    [0xbc6c_23f9_7c90_b959, 0x3fee_ba44_cbc8_520f],
    [0xbc92_4343_22f4_f9aa, 0x3fee_bd82_9fde_4e50],
    [0xbc85_ca6c_d766_8e4b, 0x3fee_c0f1_70ca_07ba],
    [0x3c71_affc_2b91_ce27, 0x3fee_c491_82a3_f090],
    [0x3c6d_d235_e10a_73bb, 0x3fee_c863_19e3_2323],
    [0xbc87_c504_2262_2263, 0x3fee_cc66_7b5d_e565],
    [0x3c8b_1c86_e3e2_31d5, 0x3fee_d09b_ec4a_2d33],
    [0xbc91_bbd1_d3bc_bb15, 0x3fee_d503_b23e_255d],
    [0x3c90_cc31_9cee_31d2, 0x3fee_d99e_1330_b358],
    [0x3c84_6984_6e73_5ab3, 0x3fee_de6b_5579_fdbf],
    [0xbc82_dfcd_978e_9db4, 0x3fee_e36b_bfd3_f37a],
    [0x3c8c_1a77_92cb_3387, 0x3fee_e89f_995a_d3ad],
    [0xbc90_7b8f_4ad1_d9fa, 0x3fee_ee07_298d_b666],
    [0xbc55_c3d9_56dc_aeba, 0x3fee_f3a2_b84f_15fb],
    [0xbc90_a40e_3da6_f640, 0x3fee_f972_8de5_593a],
    [0xbc68_d6f4_38ad_9334, 0x3fee_ff76_f2fb_5e47],
    [0xbc91_eee2_6b58_8a35, 0x3fef_05b0_30a1_064a],
    [0x3c74_ffd7_0a5f_ddcd, 0x3fef_0c1e_904b_c1d2],
    [0xbc91_bdfb_fa92_98ac, 0x3fef_12c2_5bd7_1e09],
    [0x3c73_6eae_30af_0cb3, 0x3fef_199b_dd85_529c],
    [0x3c8e_e332_5c9f_fd94, 0x3fef_20ab_5fff_d07a],
    [0x3c84_e08f_d109_59ac, 0x3fef_27f1_2e57_d14b],
    [0x3c63_cdaf_384e_1a67, 0x3fef_2f6d_9406_e7b5],
    [0x3c67_6b2c_6c92_1968, 0x3fef_3720_dcef_9069],
    [0xbc80_8a18_83cc_b5d2, 0x3fef_3f0b_555d_c3fa],
    [0xbc8f_ad5d_3fff_fa6f, 0x3fef_472d_4a07_897c],
    [0xbc90_0dae_3875_a949, 0x3fef_4f87_080d_89f2],
    [0x3c74_a385_a63d_07a7, 0x3fef_5818_dcfb_a487],
    [0xbc82_919e_2040_220f, 0x3fef_60e3_16c9_8398],
    [0x3c8e_5a50_d5c1_92ac, 0x3fef_69e6_03db_3285],
    [0x3c84_3a59_ac01_6b4b, 0x3fef_7321_f301_b460],
    [0xbc82_d521_07b4_3e1f, 0x3fef_7c97_337b_9b5f],
    [0xbc89_2ab9_3b47_0dc9, 0x3fef_8646_14f5_a129],
    [0x3c74_b604_603a_88d3, 0x3fef_902e_e78b_3ff6],
    [0x3c83_c5ec_519d_7271, 0x3fef_9a51_fbc7_4c83],
    [0xbc8f_f712_8fd3_91f0, 0x3fef_a4af_a2a4_90da],
    [0xbc8d_ae98_e223_747d, 0x3fef_af48_2d8e_67f1],
    [0x3c8e_c3bc_41aa_2008, 0x3fef_ba1b_ee61_5a27],
    [0x3c84_2b94_c3a9_eb32, 0x3fef_c52b_376b_ba97],
    [0x3c8a_64a9_31d1_85ee, 0x3fef_d076_5b6e_4540],
    [0xbc8e_37ba_e43b_e3ed, 0x3fef_dbfd_ad9c_be14],
    [0x3c77_893b_4d91_cd9d, 0x3fef_e7c1_819e_90d8],
    [0x3c53_05c1_4160_cc89, 0x3fef_f3c2_2b8f_71f1],
];

/// Biased exponent field of `|x|`.
#[inline(always)]
fn exp_top(x: f64) -> u64 {
    (x.to_bits() >> 52) & 0x7ff
}

/// The table-and-polynomial core shared by the scalar and slice paths:
/// `(tmp, sbits, ki)` with exp(x) ≈ scale·(1 + tmp), `scale` the double
/// with bits `sbits`. Branch-free, and defined for every input: lanes
/// outside the fast path just carry values the callers discard.
#[inline(always)]
fn exp_core(x: f64) -> (f64, u64, u64) {
    let kd = x.mul_add(EXP_INV_LN2_N, EXP_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = kd.mul_add(EXP_NEG_LN2_LO_N, kd.mul_add(EXP_NEG_LN2_HI_N, x));
    // The masked index is < 128 = the table length, so no bounds check.
    let [tail, hi] = EXP_TAB[(ki & 127) as usize];
    let sbits = hi.wrapping_add(ki << 45);
    let r2 = r * r;
    let tmp = (r2 * r2).mul_add(
        r.mul_add(EXP_C5, EXP_C4),
        r.mul_add(EXP_C3, EXP_C2)
            .mul_add(r2, r + f64::from_bits(tail)),
    );
    (tmp, sbits, ki)
}

/// `exp(x)`, bit-identical to glibc's: the one [`MathMode::Exact`] exp.
#[inline]
fn exp_exact(x: f64) -> f64 {
    let top = exp_top(x);
    if top < EXP_TOP_TINY {
        return 1.0 + x;
    }
    if top >= EXP_TOP_512 {
        return exp_exact_large(x, top);
    }
    let (tmp, sbits, _) = exp_core(x);
    let scale = f64::from_bits(sbits);
    scale.mul_add(tmp, scale)
}

/// [`exp_exact`] for `|x| ≥ 512`, ±inf and NaN: glibc's cold branch and
/// its `specialcase`, which rescales so `scale` cannot overflow or go
/// subnormal before the final product.
#[cold]
fn exp_exact_large(x: f64, top: u64) -> f64 {
    if top >= EXP_TOP_1024 {
        return if x == f64::NEG_INFINITY {
            0.0
        } else if top == 0x7ff {
            1.0 + x // +inf, NaN
        } else if x < 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let (tmp, sbits, ki) = exp_core(x);
    if ki & 0x8000_0000 == 0 {
        // k > 0: the exponent of `scale` may have overflowed by ≤ 460, so
        // build it 2^1009 smaller and scale back up at the end.
        let scale = f64::from_bits(sbits.wrapping_sub(1009 << 52));
        let two_p1009 = f64::from_bits(0x7f00_0000_0000_0000);
        return two_p1009 * scale.mul_add(tmp, scale);
    }
    // k < 0: compute in [2^-1022, …) and scale down by 2^-1022 at the end.
    let scale = f64::from_bits(sbits.wrapping_add(1022 << 52));
    let st = scale * tmp; // unfused: glibc reuses this product below
    let mut y = scale + st;
    if y < 1.0 {
        // Round to the subnormal result's precision before the final
        // scaling, avoiding a double rounding. (glibc's `y == 0 → +0`
        // fix-up only matters in directed rounding modes.)
        let lo = scale - y + st;
        let hi = 1.0 + y;
        let lo = 1.0 - hi + y + lo;
        y = (hi + lo) - 1.0;
    }
    f64::MIN_POSITIVE * y
}

/// In-place [`exp_exact`] over a slice. Every lane runs [`exp_core`]
/// branch-free, so the loop vectorizes (the table reads become gathers);
/// tiny lanes select `1 + x`. Lanes whose *input* has `|x| ≥ 512`, ±inf or
/// NaN keep their input and are marked in a per-block mask, and only
/// those are redone by the scalar path after the block. Keying the mask on
/// inputs matters: `exp(30) > 512` is a fast-path result, not a redo.
fn exp_exact_slice(xs: &mut [f64]) {
    for block in xs.chunks_mut(64) {
        let mut slow = 0u64;
        for (i, x) in block.iter_mut().enumerate() {
            let v = *x;
            let top = exp_top(v);
            slow |= u64::from(top >= EXP_TOP_512) << i;
            let (tmp, sbits, _) = exp_core(v);
            let scale = f64::from_bits(sbits);
            let fast = scale.mul_add(tmp, scale);
            *x = if top < EXP_TOP_TINY {
                1.0 + v
            } else if top >= EXP_TOP_512 {
                v
            } else {
                fast
            };
        }
        while slow != 0 {
            let lane = slow.trailing_zeros() as usize;
            slow &= slow - 1;
            if let Some(x) = block.get_mut(lane) {
                *x = exp_exact(*x);
            }
        }
    }
}

/// Fast `x^(-1/3)` for positive `x`.
///
/// Bit-hack initial guess (exponent division by 3) + three Newton
/// iterations on `f(y) = y^{-3} - x`. Converges to ~1 ulp (rel. err < 1e-13).
#[inline]
pub fn invcbrt_fast(x: f64) -> f64 {
    debug_assert!(x > 0.0);
    // Seed: y ≈ x^(-1/3) via exponent manipulation.
    let i = x.to_bits();
    let i = 0x553E_F0FF_289D_D796u64.wrapping_sub(i / 3);
    let mut y = f64::from_bits(i);
    // Newton for y = x^{-1/3}:  y <- y (4 - x y^3) / 3
    for _ in 0..4 {
        y = y * (4.0 - x * y * y * y) * (1.0 / 3.0);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(approx: f64, exact: f64) -> f64 {
        ((approx - exact) / exact).abs()
    }

    #[test]
    fn rsqrt_accuracy_across_scales() {
        for &x in &[1e-10, 1e-3, 0.5, 1.0, 2.0, 3.7, 1e3, 1e12] {
            let e = rel_err(rsqrt_fast(x), 1.0 / x.sqrt());
            assert!(e < 5e-7, "x={x}: err={e}");
        }
    }

    #[test]
    fn exp_accuracy_on_gb_range() {
        // The Still factor exponent -r^2/(4 R_i R_j) lives in [-inf, 0];
        // practically [-50, 0] matters.
        let mut x = -50.0;
        while x <= 0.0 {
            let e = rel_err(exp_fast(x), x.exp());
            assert!(e < 2e-9, "x={x}: err={e}");
            x += 0.37;
        }
    }

    #[test]
    fn exp_accuracy_positive_range() {
        for &x in &[0.0, 1.0, 2.5, 10.0, 100.0, 700.0] {
            let e = rel_err(exp_fast(x), x.exp());
            assert!(e < 2e-9, "x={x}: err={e}");
        }
    }

    #[test]
    fn exp_extremes() {
        assert_eq!(exp_fast(-1000.0), 0.0);
        assert_eq!(exp_fast(1000.0), f64::INFINITY);
        assert!((exp_fast(0.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn invcbrt_accuracy() {
        for &x in &[1e-9, 1e-3, 0.1, 1.0, 8.0, 27.0, 1e6, 1e15] {
            let e = rel_err(invcbrt_fast(x), x.powf(-1.0 / 3.0));
            assert!(e < 1e-13, "x={x}: err={e}");
        }
    }

    #[test]
    fn invcbrt_exact_cube() {
        assert!((invcbrt_fast(8.0) - 0.5).abs() < 1e-13);
        assert!((invcbrt_fast(1.0) - 1.0).abs() < 1e-13);
    }

    #[test]
    fn math_mode_dispatch() {
        let x = 2.0;
        assert_eq!(MathMode::Exact.rsqrt(x), 1.0 / x.sqrt());
        assert!(rel_err(MathMode::Approx.rsqrt(x), 1.0 / x.sqrt()) < 5e-7);
        assert_eq!(MathMode::Exact.exp(-1.0), (-1.0f64).exp());
        assert!(rel_err(MathMode::Approx.exp(-1.0), (-1.0f64).exp()) < 2e-9);
        assert_eq!(MathMode::Exact.invcbrt(8.0), 8.0f64.powf(-1.0 / 3.0));
        assert!(rel_err(MathMode::Approx.invcbrt(8.0), 0.5) < 1e-13);
    }

    #[test]
    fn default_mode_is_exact() {
        assert_eq!(MathMode::default(), MathMode::Exact);
    }

    #[test]
    fn slice_variants_match_scalar_bitwise() {
        let inputs: Vec<f64> = (1..40).map(|i| 0.03 * i as f64).collect();
        for mode in [MathMode::Exact, MathMode::Approx] {
            let mut rs = inputs.clone();
            mode.rsqrt_slice(&mut rs);
            let mut es: Vec<f64> = inputs.iter().map(|x| -x).collect();
            mode.exp_slice(&mut es);
            let mut cs = inputs.clone();
            mode.invcbrt_slice(&mut cs);
            for (i, &x) in inputs.iter().enumerate() {
                assert_eq!(
                    rs[i].to_bits(),
                    mode.rsqrt(x).to_bits(),
                    "rsqrt {mode:?} x={x}"
                );
                assert_eq!(
                    es[i].to_bits(),
                    mode.exp(-x).to_bits(),
                    "exp {mode:?} x={x}"
                );
                assert_eq!(
                    cs[i].to_bits(),
                    mode.invcbrt(x).to_bits(),
                    "invcbrt {mode:?} x={x}"
                );
            }
        }
    }

    #[test]
    fn exp_slice_matches_scalar_at_extremes() {
        // The branch-free select path must agree with the scalar function
        // bit-for-bit across the underflow/overflow clamps, both domain
        // boundaries, infinities and NaN.
        let inputs = [
            -1.0e9,
            -1000.0,
            -708.5,
            -708.0 - 1e-12,
            -708.0,
            -707.999,
            -30.0,
            0.0,
            30.0,
            // Positive inputs whose *outputs* pass 512: still fast-path lanes.
            7.0,
            6.25,
            700.0,
            -512.0,
            512.0,
            -1024.0,
            1024.0,
            -745.2,
            708.999,
            709.0,
            709.0 + 1e-12,
            710.0,
            1.0e9,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
        ];
        for mode in [MathMode::Exact, MathMode::Approx] {
            let mut xs = inputs.to_vec();
            mode.exp_slice(&mut xs);
            for (i, &x) in inputs.iter().enumerate() {
                assert_eq!(
                    xs[i].to_bits(),
                    mode.exp(x).to_bits(),
                    "exp {mode:?} x={x}"
                );
            }
        }
        // And the clamp values themselves stay what the GB kernels rely on.
        assert_eq!(exp_fast(-1000.0), 0.0);
        assert_eq!(exp_fast(1000.0), f64::INFINITY);
        assert!(exp_fast(f64::NAN).is_nan());
    }

    /// `exp` bits must equal libm's (`f64::exp`); NaN only needs to stay NaN.
    fn assert_exp_bits(x: f64) {
        let (got, want) = (exp_exact(x), x.exp());
        if want.is_nan() {
            assert!(got.is_nan(), "x={x:e}: got {got:e}, want NaN");
        } else {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "x={x:e} ({:#x})",
                x.to_bits(),
            );
        }
    }

    #[test]
    fn exact_exp_matches_libm_bitwise() {
        // Every table slot k (x ≈ m·ln2/128 with m ≡ k mod 128), nudged
        // across the rounding of k, at several magnitudes.
        let ln2_n = std::f64::consts::LN_2 / 128.0;
        for k in 0..128i64 {
            for turn in [-900i64, -40, -3, -1, 0, 1, 2, 5, 60, 700] {
                let m = turn * 128 + k;
                for frac in [-0.4999, -0.25, 0.0, 0.125, 0.4999] {
                    assert_exp_bits((m as f64 + frac) * ln2_n);
                }
            }
        }
        // ±0 and both sides of |x| = 2⁻⁵⁴, 512 and 1024.
        let tiny = f64::from_bits(0x3c90_0000_0000_0000);
        assert_eq!(tiny, 2f64.powi(-54));
        for edge in [0.0, tiny, 512.0, 1024.0] {
            for x in [edge, edge.next_down(), edge.next_up()] {
                assert_exp_bits(x);
                assert_exp_bits(-x);
            }
        }
        // Subnormal outputs on [-745.14, -708.4], then 0 just below.
        let mut x = -745.14;
        while x < -708.4 {
            assert_exp_bits(x);
            assert_exp_bits(x + 1e-9);
            x += 0.0137;
        }
        for x in [
            -745.1332191019412,
            -745.1332191019411,
            -745.14,
            -745.2,
            -746.0,
            -1000.0,
        ] {
            assert_exp_bits(x);
        }
        assert_eq!(exp_exact(-745.2), 0.0);
        // The overflow edge at ln(f64::MAX) ≈ 709.78.
        let ln_max = f64::MAX.ln();
        for x in [
            709.78,
            ln_max,
            ln_max.next_down(),
            ln_max.next_up(),
            709.79,
            710.0,
        ] {
            assert_exp_bits(x);
        }
        assert_eq!(exp_exact(709.79), f64::INFINITY);
        // ±inf and NaN.
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN] {
            assert_exp_bits(x);
        }
        assert_eq!(exp_exact(f64::NEG_INFINITY), 0.0);
        assert!(exp_exact(f64::NAN).is_nan());
    }

    #[test]
    fn exact_exp_slice_mixes_slow_lanes_at_every_position() {
        // Fast-path lanes (incl. tiny ones and outputs > 512) interleaved
        // with |x| ≥ 512 / inf / NaN lanes at every position mod 64, across
        // block remainders.
        let fast = [-3.7, 7.0, 30.0, 1e-20, -0.0, -36.0, 0.5, -708.9, 511.9];
        let slow = [
            600.0,
            -600.0,
            1000.0,
            -1e9,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -740.0,
        ];
        for len in [1usize, 63, 64, 65, 200] {
            for pos in 0..64usize.min(len) {
                let inputs: Vec<f64> = (0..len)
                    .map(|i| {
                        if i % 64 == pos {
                            slow[(i / 64 + pos) % slow.len()]
                        } else {
                            fast[(i + pos) % fast.len()]
                        }
                    })
                    .collect();
                let mut xs = inputs.clone();
                MathMode::Exact.exp_slice(&mut xs);
                for (i, &x) in inputs.iter().enumerate() {
                    assert_eq!(
                        xs[i].to_bits(),
                        exp_exact(x).to_bits(),
                        "len={len} pos={pos} lane {i}: x={x:e}"
                    );
                }
            }
        }
    }

    /// ≥ 1e9 arguments, scalar and slice path, against libm with no
    /// mismatch allowed. Release only:
    /// `cargo test --release -p polaroct-geom -- --ignored exact_exp_sweep`.
    #[test]
    #[ignore = "billion-sample sweep; run in release"]
    fn exact_exp_sweep_billion_samples() {
        const PER_RANGE: usize = 1 << 29; // three ranges: 1.6e9 samples
        const BLOCK: usize = 4096;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let unit = |b: u64| (b >> 11) as f64 / (1u64 << 53) as f64;
        let ranges: [(&str, &dyn Fn(u64) -> f64); 3] = [
            ("random bit patterns", &f64::from_bits),
            ("[-745.2, 0]", &|b| -745.2 * unit(b)),
            ("[-36, 0]", &|b| -36.0 * unit(b)),
        ];
        let mut xs = vec![0.0; BLOCK];
        let mut total = 0usize;
        let mut mismatches = 0usize;
        for (name, gen) in ranges {
            for _ in 0..PER_RANGE / BLOCK {
                for x in xs.iter_mut() {
                    *x = gen(next());
                }
                let mut ys = xs.clone();
                MathMode::Exact.exp_slice(&mut ys);
                for (&x, &y) in xs.iter().zip(&ys) {
                    let want = x.exp();
                    let same =
                        |v: f64| v.to_bits() == want.to_bits() || (v.is_nan() && want.is_nan());
                    if !same(y) || !same(exp_exact(x)) {
                        mismatches += 1;
                        if mismatches <= 10 {
                            eprintln!(
                                "{name}: x={x:e} ({:#x}) slice={y:e} libm={want:e}",
                                x.to_bits()
                            );
                        }
                    }
                }
                total += BLOCK;
            }
        }
        eprintln!("exact exp sweep: {total} samples, {mismatches} mismatches");
        assert!(total >= 1_000_000_000);
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn slice_variants_empty_ok() {
        MathMode::Exact.rsqrt_slice(&mut []);
        MathMode::Approx.exp_slice(&mut []);
        MathMode::Approx.invcbrt_slice(&mut []);
    }
}
