//! Matrix multiplication: one register-blocked micro-kernel, instantiated
//! per instruction set.
//!
//! [`matmul_raw`] computes an `MR × (NV·W)` output tile at a time with the
//! tile's accumulators held in vector registers across the whole `k` sweep
//! ([`tile`]): vectorised across output *columns*, rows of `b` read in
//! place, left-operand scalars broadcast.  Each lane of each accumulator is
//! one output element receiving `aᵢₖ·bₖⱼ` for `k = 0, 1, …` by one fused
//! multiply-add, rounded once — the arithmetic of the scalar i-k-j loop
//! `out = a.mul_add(b, out)`, so AVX-512F + FMA, AVX2 + FMA and the
//! portable instantiation, every tile shape and every row/column tail
//! produce that loop's bits (`tests/matmul_bits.rs`).  This file is the
//! only place in the kernels that fuses: the transcendentals' error bounds
//! were proved for separately rounded steps (`scripts/check.sh` guards it).

use std::ops::Range;
use std::sync::OnceLock;

use super::RawInput;
use crate::{Result, Shape, TensorError};

/// Shape rule: `[m, k] × [k, n] → [m, n]`, with rank-1 operands promoted to a
/// single row on the left.
pub(crate) fn infer(lhs: &Shape, rhs: &Shape) -> Result<Shape> {
    let (m, k) = lhs.as_matrix()?;
    let (k2, n) = rhs.as_matrix()?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: lhs.clone(),
            rhs: rhs.clone(),
        });
    }
    if lhs.rank() <= 1 && rhs.rank() <= 1 {
        // vector × vector is not meaningful under this rule; reject rank-1 rhs.
        return Err(TensorError::Rank { op: "matmul", shape: rhs.clone(), expected: 2 });
    }
    if rhs.rank() != 2 {
        return Err(TensorError::Rank { op: "matmul", shape: rhs.clone(), expected: 2 });
    }
    Ok(if lhs.rank() <= 1 { Shape::new(&[n]) } else { Shape::new(&[m, n]) })
}

/// `[m, k] × [k, n]` through [`matmul_raw`], dimensions read off the shapes.
pub(crate) fn matmul(lhs: RawInput<'_>, rhs: RawInput<'_>, out: &mut [f32]) -> Result<()> {
    let (m, k) = lhs.1.as_matrix()?;
    let (_, n) = rhs.1.as_matrix()?;
    matmul_raw(lhs.0, rhs.0, out, m, k, n);
    Ok(())
}

/// `out[m × n] = a[m × k] · b[k × n]` on row-major slices with pre-resolved
/// dimensions — the one matrix multiply in the workspace.  The reference
/// interpreter reaches it one lane at a time through [`matmul`]; compiled
/// kernels call it on whole lane stacks (`m` = lanes × rows).
///
/// Every output element is `fma(a₁, b₁ⱼ, fma(a₀, b₀ⱼ, +0.0))…` in `k`
/// order, each step one fused multiply-add rounded once, whatever `m`,
/// `n`, the tile an element lands in or the instruction set the host
/// offers — so a row's bits do not depend on how many rows are multiplied
/// with it, which is what makes lane stacking and lane splitting
/// numerically invisible.  Where the host has no FMA unit the portable
/// instantiation's `f32::mul_add` is libm's correctly rounded `fmaf`: the
/// same bits, only slower.
///
/// # Panics
///
/// Panics unless `a.len() >= m * k`, `b.len() >= k * n` and
/// `out.len() == m * n`.
pub fn matmul_raw(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    static WIDEST: OnceLock<MatmulFn> = OnceLock::new();
    WIDEST.get_or_init(|| matmul_raw_instantiations()[0].1)(a, b, out, m, k, n)
}

/// The signature of [`matmul_raw`] and of each of its instantiations.
pub type MatmulFn = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Every instantiation of the micro-kernel this host can run, widest
/// first, the portable one last.  [`matmul_raw`] is the first entry; the
/// rest are listed so tests can hold all of them to the same bits.
#[doc(hidden)]
pub fn matmul_raw_instantiations() -> Vec<(&'static str, MatmulFn)> {
    let mut all: Vec<(&'static str, MatmulFn)> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("fma") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                all.push(("avx512f", x86::avx512f));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                all.push(("avx2", x86::avx2));
            }
        }
    }
    all.push(("portable", portable));
    all
}

fn portable(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let operands = checked_operands(a, b, out, m, k, n);
    // SAFETY: `checked_operands` established the lengths `gemm` requires.
    unsafe { gemm::<Quad, 2, 4, 8>(operands, (k, n), 0..m) }
}

/// Left operand, right operand, output: valid for `m·k` reads, `k·n` reads
/// and `m·n` writes respectively — obtained only from [`checked_operands`].
type Operands = (*const f32, *const f32, *mut f32);

/// The length checks every raw-pointer access below relies on, once per
/// call, and the pointers they license.
fn checked_operands(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> Operands {
    let fits =
        |len: usize, rows: usize, cols: usize| rows.checked_mul(cols).is_some_and(|v| len >= v);
    assert!(fits(a.len(), m, k), "matmul_raw: left operand holds {} < {m}×{k} elements", a.len());
    assert!(fits(b.len(), k, n), "matmul_raw: right operand holds {} < {k}×{n} elements", b.len());
    assert!(
        m.checked_mul(n) == Some(out.len()),
        "matmul_raw: output holds {} != {m}×{n} elements",
        out.len()
    );
    (a.as_ptr(), b.as_ptr(), out.as_mut_ptr())
}

/// One vector register of `f32`s as the micro-kernel uses it.  The
/// instruction sets differ only in this impl; `f32` itself is the one-lane
/// register that finishes the column tail of the wide ones.
trait Lanes: Copy {
    /// Elements per register.
    const W: usize;
    /// # Safety
    /// The instruction set of the implementing type must be available.
    unsafe fn splat(x: f32) -> Self;
    /// # Safety
    /// As [`Lanes::splat`], and `p` must be valid for reading `W` elements.
    unsafe fn load(p: *const f32) -> Self;
    /// # Safety
    /// As [`Lanes::splat`], and `p` must be valid for writing `W` elements.
    unsafe fn store(self, p: *mut f32);
    /// `a·b + acc` per lane, fused: rounded once.
    ///
    /// # Safety
    /// As [`Lanes::splat`].
    unsafe fn fused_mul_add(acc: Self, a: Self, b: Self) -> Self;
}

impl Lanes for f32 {
    const W: usize = 1;
    #[inline(always)]
    unsafe fn splat(x: f32) -> f32 {
        x
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> f32 {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        *p = self;
    }
    #[inline(always)]
    unsafe fn fused_mul_add(acc: f32, a: f32, b: f32) -> f32 {
        a.mul_add(b, acc)
    }
}

/// Four lanes the optimizer maps onto whatever 128-bit unit the target has
/// (SSE2, NEON): the portable register.
#[derive(Clone, Copy)]
struct Quad([f32; 4]);

impl Lanes for Quad {
    const W: usize = 4;
    #[inline(always)]
    unsafe fn splat(x: f32) -> Quad {
        Quad([x; 4])
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Quad {
        Quad(p.cast::<[f32; 4]>().read_unaligned())
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<[f32; 4]>().write_unaligned(self.0);
    }
    #[inline(always)]
    unsafe fn fused_mul_add(acc: Quad, a: Quad, b: Quad) -> Quad {
        Quad(std::array::from_fn(|i| a.0[i].mul_add(b.0[i], acc.0[i])))
    }
}

/// The micro-kernel: one `MR × (NV·W)` output tile whose accumulators stay
/// in registers across the whole `k` sweep.  Vectorised across output
/// *columns* — each lane of each accumulator is one output element taking
/// its products in `k` order, exactly the scalar loop's arithmetic — with
/// the row of `b` loaded once per step and shared by the `MR` rows, whose
/// left-operand scalars are broadcast.
///
/// # Safety
///
/// `a` must be valid for reading `MR` rows of `k` elements (row stride
/// `k`), `b` for `k` rows of `NV·W` elements (row stride `n`) and `out` for
/// writing `MR` rows of `NV·W` elements (row stride `n`); `V`'s instruction
/// set must be available.
#[inline(always)]
unsafe fn tile<V: Lanes, const MR: usize, const NV: usize>(
    a: *const f32,
    b: *const f32,
    out: *mut f32,
    k: usize,
    n: usize,
) {
    let mut acc = [[V::splat(0.0); NV]; MR];
    for kk in 0..k {
        let b_row: [V; NV] = std::array::from_fn(|v| V::load(b.add(kk * n + v * V::W)));
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let a_rk = V::splat(*a.add(r * k + kk));
            for (acc, &b_kj) in acc_row.iter_mut().zip(&b_row) {
                *acc = V::fused_mul_add(*acc, a_rk, b_kj);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        for (v, acc) in acc_row.iter().enumerate() {
            acc.store(out.add(r * n + v * V::W));
        }
    }
}

/// Covers columns `j..` of the rows `rows` (a multiple of `MR` of them)
/// with as many `NV·W`-wide panels as fit and returns the first column left
/// over.  Panels are the outer loop, so a `k × NV·W` slab of `b` stays
/// cached while every row tile sweeps it.
///
/// # Safety
///
/// As [`gemm`], with `rows.end <= m` and `j <= n`.
#[inline(always)]
unsafe fn panels<V: Lanes, const MR: usize, const NV: usize>(
    (a, b, out): Operands,
    (k, n): (usize, usize),
    rows: Range<usize>,
    mut j: usize,
) -> usize {
    while j + NV * V::W <= n {
        for i in rows.clone().step_by(MR) {
            tile::<V, MR, NV>(a.add(i * k), b.add(j), out.add(i * n + j), k, n);
        }
        j += NV * V::W;
    }
    j
}

/// All columns of the leading whole multiple of `MR` rows of `rows`, `MR`
/// rows at a time: `NV`-register panels, then one-register panels, then the
/// last `< W` columns on scalar registers.  Returns the `< MR` rows left
/// over.
///
/// # Safety
///
/// As [`panels`].
#[inline(always)]
unsafe fn row_tiles<V: Lanes, const MR: usize, const NV: usize>(
    operands: Operands,
    dims: (usize, usize),
    rows: Range<usize>,
) -> Range<usize> {
    let rest = rows.end - rows.len() % MR;
    let tiled = rows.start..rest;
    let j = panels::<V, MR, NV>(operands, dims, tiled.clone(), 0);
    let j = panels::<V, MR, 1>(operands, dims, tiled.clone(), j);
    let j = panels::<f32, MR, 4>(operands, dims, tiled.clone(), j);
    panels::<f32, MR, 1>(operands, dims, tiled, j);
    rest..rows.end
}

/// The rows `rows` of the product from one register type with an
/// `R`-register accumulator budget per tile, given as the three tile widths
/// `NV4 = R/4`, `NV2 = R/2`, `NV1 = R`: rows go four at a time in `4 × NV4`
/// tiles, then the two- and one-row tails in `2 × NV2` and `1 × NV1` tiles
/// — fewer rows spend the same registers on a wider panel, so a single row
/// (the reference interpreter's `[1 × k] · [k × n]`) streams whole rows of
/// `b`.
///
/// # Safety
///
/// `operands` must be valid as [`Operands`] describes for `m >= rows.end`
/// and these `k`, `n`, and `V`'s instruction set must be available.
#[inline(always)]
unsafe fn gemm<V: Lanes, const NV4: usize, const NV2: usize, const NV1: usize>(
    operands: Operands,
    dims: (usize, usize),
    rows: Range<usize>,
) {
    let rows = row_tiles::<V, 4, NV4>(operands, dims, rows);
    let rows = row_tiles::<V, 2, NV2>(operands, dims, rows);
    row_tiles::<V, 1, NV1>(operands, dims, rows);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 and AVX-512F instantiations, each compiled with `fma` so
    //! the scalar column tail's `f32::mul_add` is one instruction too.

    use std::arch::x86_64::*;

    use super::{checked_operands, gemm, row_tiles, Lanes, Operands};

    impl Lanes for __m256 {
        const W: usize = 8;
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self);
        }
        #[inline(always)]
        unsafe fn fused_mul_add(acc: __m256, a: __m256, b: __m256) -> __m256 {
            _mm256_fmadd_ps(a, b, acc)
        }
    }

    impl Lanes for __m512 {
        const W: usize = 16;
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m512 {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m512 {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self);
        }
        #[inline(always)]
        unsafe fn fused_mul_add(acc: __m512, a: __m512, b: __m512) -> __m512 {
            _mm512_fmadd_ps(a, b, acc)
        }
    }

    /// 8 of the 16 `ymm` registers accumulate: 4 × 16, 2 × 32, 1 × 64 tiles.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_avx2(operands: Operands, m: usize, k: usize, n: usize) {
        gemm::<__m256, 2, 4, 8>(operands, (k, n), 0..m);
    }

    /// Rows go eight at a time in 8 × 48 tiles — 24 of the 32 `zmm`
    /// registers accumulate, so each row of a `b` panel loaded from cache
    /// serves eight output rows — then the row tail in 4 × 64, 2 × 128 and
    /// 1 × 256 tiles (16 registers).
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn gemm_avx512f(operands: Operands, m: usize, k: usize, n: usize) {
        let rows = row_tiles::<__m512, 8, 3>(operands, (k, n), 0..m);
        gemm::<__m512, 4, 8, 16>(operands, (k, n), rows);
    }

    /// Listed by [`super::matmul_raw_instantiations`] only where AVX2 and
    /// FMA were detected.
    pub(super) fn avx2(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        let operands = checked_operands(a, b, out, m, k, n);
        // SAFETY: `checked_operands` established the lengths `gemm`
        // requires, and this function is reachable only through the
        // instantiation list, which names it after detecting AVX2 and FMA.
        unsafe { gemm_avx2(operands, m, k, n) }
    }

    /// Listed by [`super::matmul_raw_instantiations`] only where AVX-512F
    /// and FMA were detected.
    pub(super) fn avx512f(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        let operands = checked_operands(a, b, out, m, k, n);
        // SAFETY: as for `avx2`, after detecting AVX-512F and FMA.
        unsafe { gemm_avx512f(operands, m, k, n) }
    }
}

#[cfg(test)]
mod tests {
    use crate::{execute, PrimOp, Shape, Tensor};

    #[test]
    fn infer_shapes() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[3, 4]);
        assert_eq!(super::infer(&a, &b).unwrap(), Shape::new(&[2, 4]));
        let v = Shape::new(&[3]);
        assert_eq!(super::infer(&v, &b).unwrap(), Shape::new(&[4]));
        assert!(super::infer(&a, &Shape::new(&[4, 3])).is_err());
        assert!(super::infer(&a, &v).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let out = execute(&PrimOp::MatMul, &[&a, &eye]).unwrap();
        assert_eq!(out.data(), a.data());
    }

    #[test]
    fn matmul_known_values() {
        // [1 2; 3 4] x [5 6; 7 8] = [19 22; 43 50]
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let out = execute(&PrimOp::MatMul, &[&a, &b]).unwrap();
        assert_eq!(out.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_fn(&[1, 3], |i| (i + 1) as f32); // [1 2 3]
        let b = Tensor::from_fn(&[3, 2], |i| i as f32); // [0 1; 2 3; 4 5]
        let out = execute(&PrimOp::MatMul, &[&a, &b]).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2]);
        assert_eq!(out.data(), &[16.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "left operand holds 5 < 2×3")]
    fn short_left_operand_panics() {
        super::matmul_raw(&[0.0; 5], &[0.0; 12], &mut [0.0; 8], 2, 3, 4);
    }

    #[test]
    #[should_panic(expected = "right operand holds 11 < 3×4")]
    fn short_right_operand_panics() {
        super::matmul_raw(&[0.0; 6], &[0.0; 11], &mut [0.0; 8], 2, 3, 4);
    }

    #[test]
    #[should_panic(expected = "output holds 7 != 2×4")]
    fn wrong_output_length_panics() {
        super::matmul_raw(&[0.0; 6], &[0.0; 12], &mut [0.0; 7], 2, 3, 4);
    }

    #[test]
    #[should_panic(expected = "left operand holds")]
    fn overflowing_dimensions_panic() {
        super::matmul_raw(&[0.0; 6], &[], &mut [], usize::MAX, 2, 0);
    }

    #[test]
    fn zero_dimensions_give_zero_or_empty_output() {
        // k = 0: an empty sum, so every output element is +0.0.
        let mut out = [f32::NAN; 6];
        super::matmul_raw(&[], &[], &mut out, 2, 0, 3);
        assert!(out.iter().all(|v| v.to_bits() == 0));
        // m = 0 and n = 0: nothing to write, operands may be anything.
        super::matmul_raw(&[], &[1.0; 6], &mut [], 0, 2, 3);
        super::matmul_raw(&[1.0; 4], &[], &mut [], 2, 2, 0);
    }

    #[test]
    fn matmul_vector_lhs() {
        let v = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let out = execute(&PrimOp::MatMul, &[&v, &b]).unwrap();
        assert_eq!(out.shape().dims(), &[2]);
        assert_eq!(out.data(), &[4.0, 6.0]);
    }
}
