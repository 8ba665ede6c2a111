//! The workspace's one `exp`, `tanh` and `sigmoid`.
//!
//! TVM, which generates the paper's kernels, lowers these functions to its
//! own polynomials instead of calling the vendor libm; these are this
//! repository's.  Each is a branch-free `#[inline(always)] fn(f32) -> f32`
//! built from IEEE additions, multiplications, divisions, comparisons,
//! selects and bit moves, in a fixed order and with nothing fused (no
//! `mul_add` is called, and Rust never contracts a multiply and an add,
//! whatever target features are enabled).  Such a body has one result per
//! input whatever the compiler does with it, so the reference
//! interpreter's scalar loop and every vectorised instantiation of
//! [`crate::map_unary`] produce the same bits (`tests/transcendental_bits.rs`).
//!
//! Accuracy, measured over every finite `f32` against an `f64` reference
//! (`tests/transcendental_bits.rs`, exhaustive in release): [`exp`] ≤ 0.78
//! ulp, [`tanh`] ≤ 1.35 ulp, [`sigmoid`] ≤ 1.15 ulp.  Zeros, infinities and
//! saturation are exact, and a NaN input comes back as the same NaN.  The
//! bounds hold for this unfused evaluation order; a fused step would be a
//! different function, which is why `scripts/check.sh` allows fused
//! arithmetic in the matmul alone.
//!
//! The polynomial coefficients are minimax fits (Lawson's iteration on a
//! Chebyshev grid, relative error) rounded to `f32`.

/// Below this, [`exp`] is `+0`: `exp(-104) < 2⁻¹⁵⁰`, half the smallest
/// subnormal.
pub const EXP_UNDERFLOW: f32 = -104.0;
/// Above this, [`exp`]'s argument is clamped here, where the result
/// already overflows to `+inf`.
pub const EXP_OVERFLOW: f32 = 89.0;
/// Below this magnitude (2⁻²⁶), [`exp`] reduces `x` to `0`: the exact
/// result rounds to `1` anyway, and a tiny `r` would square into the
/// subnormal range, which costs a microcode assist per element on x86.
pub const EXP_TINY: f32 = f32::from_bits(0x3280_0000);
/// Below this magnitude (2⁻¹²), [`tanh`] returns its argument, to which the
/// exact result rounds (its polynomial term is dropped for the reason
/// given at [`EXP_TINY`]).
pub const TANH_TINY: f32 = f32::from_bits(0x3980_0000);
/// Below this magnitude [`tanh`] is its odd polynomial, from here on
/// `1 − 2/(exp(2|x|) + 1)`.  At `0.625` the quotient is below `0.45`, so
/// the subtraction from 1 loses less than a bit.
pub const TANH_POLY_MAX: f32 = 0.625;
/// Above this magnitude [`tanh`] is `±1`: `1 − tanh(9.1) < 2⁻²⁵` rounds
/// to 1.
pub const TANH_SATURATE: f32 = 9.1;

/// `1.5·2²³`: adding it rounds a float of magnitude below 2²² to an
/// integer, which then sits in the low mantissa bits.
const ROUND_SHIFT: f32 = 12_582_912.0;
/// `ln 2` split Cody–Waite style: `LN2_HI` has 15 significant bits, so
/// `k·LN2_HI` is exact for every `|k| ≤ 150` this reduction produces.
const LN2_HI: f32 = f32::from_bits(0x3f31_7200);
const LN2_LO: f32 = f32::from_bits(0x35bf_be8e);
/// `exp(r) ≈ 1 + r + r²·(E2 + r·(E3 + r·(E4 + r·(E5 + r·E6))))` on
/// `|r| ≤ 0.35`, relative error 3.3·10⁻⁹ before rounding.
const E2: f32 = f32::from_bits(0x3eff_fffe);
const E3: f32 = f32::from_bits(0x3e2a_aa45);
const E4: f32 = f32::from_bits(0x3d2a_ac8b);
const E5: f32 = f32::from_bits(0x3c09_1fda);
const E6: f32 = f32::from_bits(0x3ab5_0d47);
/// `tanh(a) ≈ a + a·s·(T3 + s·(T5 + s·(T7 + s·(T9 + s·T11))))`, `s = a²`,
/// on `a ≤ 0.625`, relative error 4.4·10⁻⁹ before rounding.
const T3: f32 = f32::from_bits(0xbeaa_aa99);
const T5: f32 = f32::from_bits(0x3e08_8393);
const T7: f32 = f32::from_bits(0xbd5c_1e2d);
const T9: f32 = f32::from_bits(0x3ca9_134c);
const T11: f32 = f32::from_bits(0xbbba_f0df);

/// `exp(x)` as an unevaluated sum `hi + lo`: `hi` within 0.78 ulp of the
/// exact value, `hi + lo` within ≈ 2⁻²⁸ of it relatively (the polynomial's
/// error).  A NaN `x` gives an unspecified pair.
///
/// `x = k·ln 2 + r`, `|r| ≤ ln 2 / 2`, with `k` rounded by [`ROUND_SHIFT`]
/// and `r` reduced in two steps against [`LN2_HI`] and [`LN2_LO`] (the
/// second step's rounding error is kept as `rl`).  `exp(r)` is
/// `1 + r + r²·P(r)`, with the two leading additions carried in double
/// length so the sum rounds once.  `2ᵏ` is applied as `2^⌊k/2⌋ · 2^⌈k/2⌉`:
/// both factors are normal for every `k` in `[-150, 128]`, the first
/// product is exact, and the second rounds once — into the subnormal range
/// or to `+inf` where the result lies there.
#[inline(always)]
fn exp_parts(x: f32) -> (f32, f32) {
    // A NaN clamps to EXP_OVERFLOW here; its caller restores it.
    let xc = if x < EXP_UNDERFLOW || x.abs() < EXP_TINY { 0.0 } else { x.min(EXP_OVERFLOW) };
    let shifted = xc * std::f32::consts::LOG2_E + ROUND_SHIFT;
    let kf = shifted - ROUND_SHIFT;
    let k = shifted.to_bits() as i32 - ROUND_SHIFT.to_bits() as i32;
    let rh = xc - kf * LN2_HI;
    let r = rh - kf * LN2_LO;
    let rl = (rh - r) - kf * LN2_LO;
    let p = E2 + r * (E3 + r * (E4 + r * (E5 + r * E6)));
    let s = 1.0 + r;
    let tail = (1.0 - s) + r + (rl + r * r * p);
    let hi = s + tail;
    let lo = tail - (hi - s);
    let k1 = k >> 1;
    let scale1 = f32::from_bits(((k1 + 127) as u32) << 23);
    let scale2 = f32::from_bits(((k - k1 + 127) as u32) << 23);
    let under = x < EXP_UNDERFLOW;
    let hi = if under { 0.0 } else { hi * scale1 * scale2 };
    let lo = if under { 0.0 } else { lo * scale1 * scale2 };
    (hi, lo)
}

/// `eˣ`.  `exp(-inf) = +0`, `exp(+inf) = +inf`, `exp(±0) = 1`.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let y = exp_parts(x).0;
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// Hyperbolic tangent: the odd polynomial below [`TANH_POLY_MAX`],
/// `1 − 2/(exp(2|x|) + 1)` up to [`TANH_SATURATE`], 1 beyond, with the
/// sign of `x` restored by `copysign` (so `tanh(-0) = -0`).
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let ap = if a < TANH_TINY { 0.0 } else { a };
    let s = ap * ap;
    let small = a + ap * s * (T3 + s * (T5 + s * (T7 + s * (T9 + s * T11))));
    let large = 1.0 - 2.0 / (exp(a + a) + 1.0);
    let y = if a < TANH_POLY_MAX { small } else { large };
    let y = if a > TANH_SATURATE { 1.0 } else { y };
    if x.is_nan() {
        x
    } else {
        y.copysign(x)
    }
}

/// Logistic sigmoid `1/(1 + exp(−x))`.
///
/// Evaluated as `n/(1 + e)` with `e = exp(−|x|)`, `n = 1` for `x ≥ 0` and
/// `n = e` below, so `exp` never overflows (`sigmoid(x) ≈ eˣ` keeps its
/// subnormal values down to `x ≈ −103.9`).  The rounding errors of `e` and
/// of `1 + e` are carried to a first-order correction of the quotient,
/// `y + (n_lo − y·d_lo)/d`, where `1/d` is `y` itself for `x ≥ 0` and
/// `1 − y` below.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    let (e, e_lo) = exp_parts(-x.abs());
    let nonneg = x >= 0.0;
    let n = if nonneg { 1.0 } else { e };
    let n_lo = if nonneg { 0.0 } else { e_lo };
    let d = 1.0 + e;
    let d_lo = (e - (d - 1.0)) + e_lo;
    let y = n / d;
    let inv_d = if nonneg { y } else { 1.0 - y };
    let y = y + (n_lo - y * d_lo) * inv_d;
    if x.is_nan() {
        x
    } else {
        y
    }
}
