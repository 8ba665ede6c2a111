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
//! produce that loop's bits (`tests/matmul_bits.rs`).  [`matmul_packed`]
//! is the same arithmetic over a right operand repacked once into
//! contiguous column panels ([`PackedRhs`] — how a resident weight is
//! multiplied), so it produces those bits too.  The last `< W` columns
//! of either go through the same tile on a zero-padded copy of those
//! columns of `b` ([`narrow`]): each lane is still one output element.
//! This file is the only place in the kernels that fuses: the
//! transcendentals' error bounds were proved for separately rounded steps
//! (`scripts/check.sh` guards it).

use std::fmt;
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

/// A right operand `b[k × n]` repacked into contiguous column panels for
/// [`matmul_packed`]: panel `p` holds columns `p·width .. (p+1)·width` (the
/// last panel the `n mod width` columns left over) as `k` consecutive rows,
/// so a tile streams its `k × width` slab of `b` from one contiguous run
/// instead of `k` rows `n` elements apart.  Pure data movement: the panels
/// hold exactly `b`'s elements.
#[derive(Clone, PartialEq)]
pub struct PackedRhs {
    data: Vec<f32>,
    k: usize,
    n: usize,
    width: usize,
}

impl fmt::Debug for PackedRhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedRhs")
            .field("k", &self.k)
            .field("n", &self.n)
            .field("width", &self.width)
            .finish()
    }
}

impl PackedRhs {
    /// Packs the row-major `b[k × n]` into panels of `width` columns.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `b.len() < k * n`.
    pub fn new(b: &[f32], k: usize, n: usize, width: usize) -> PackedRhs {
        assert!(width > 0, "PackedRhs: zero panel width");
        assert!(
            k.checked_mul(n).is_some_and(|len| b.len() >= len),
            "PackedRhs: operand holds {} < {k}×{n} elements",
            b.len()
        );
        let mut data = Vec::with_capacity(k * n);
        for j in (0..n).step_by(width) {
            let w = width.min(n - j);
            for row in b.chunks_exact(n.max(1)).take(k) {
                data.extend_from_slice(&row[j..j + w]);
            }
        }
        PackedRhs { data, k, n, width }
    }

    /// `(k, n)`: the rows and columns of the packed operand.
    pub fn dims(&self) -> (usize, usize) {
        (self.k, self.n)
    }
}

/// The signature of [`matmul_packed`] and of each of its instantiations:
/// left operand, packed right operand, output, rows of the left operand.
pub type PackedMatmulFn = fn(&[f32], &PackedRhs, &mut [f32], usize);

/// `out[m × n] = a[m × k] · b` for a [`PackedRhs`] packed at
/// [`packed_width`] — [`matmul_raw`]'s bits, element for element, from the
/// widest instantiation's packed variant.  The compiled kernels call it for
/// a lane stack whose right operand is a resident weight, packed once per
/// weight and reused by every launch.
///
/// # Panics
///
/// Panics unless `b` was packed at [`packed_width`], `a.len() >= m * k`
/// and `out.len() == m * n`.
pub fn matmul_packed(a: &[f32], b: &PackedRhs, out: &mut [f32], m: usize) {
    widest_packed().2(a, b, out, m)
}

/// The panel width [`matmul_packed`] expects: the widest instantiation's
/// tile width (48 columns on AVX-512F, 16 on AVX2, 8 portable).
pub fn packed_width() -> usize {
    widest_packed().1
}

fn widest_packed() -> (&'static str, usize, PackedMatmulFn) {
    static WIDEST: OnceLock<(&'static str, usize, PackedMatmulFn)> = OnceLock::new();
    *WIDEST.get_or_init(|| matmul_packed_instantiations()[0])
}

/// The packed variant of every instantiation [`matmul_raw_instantiations`]
/// lists, in the same order, each with the panel width it expects.
#[doc(hidden)]
pub fn matmul_packed_instantiations() -> Vec<(&'static str, usize, PackedMatmulFn)> {
    let mut all: Vec<(&'static str, usize, PackedMatmulFn)> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("fma") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                all.push(("avx512f", x86::AVX512F_PANEL, x86::avx512f_packed));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                all.push(("avx2", x86::AVX2_PANEL, x86::avx2_packed));
            }
        }
    }
    all.push(("portable", PORTABLE_PANEL, portable_packed));
    all
}

/// Columns per panel of the portable packed variant (2 × [`Quad`]).
const PORTABLE_PANEL: usize = 8;

fn portable_packed(a: &[f32], b: &PackedRhs, out: &mut [f32], m: usize) {
    let (operands, dims) = checked_packed(a, b, out, m, PORTABLE_PANEL);
    // SAFETY: `checked_packed` established the lengths `gemm_packed` requires.
    unsafe { gemm_packed::<Quad, 2, false>(operands, dims, m) }
}

/// The length and panel-width checks of a packed multiply, and the
/// pointers and `(k, n)` they license.
fn checked_packed(
    a: &[f32],
    b: &PackedRhs,
    out: &mut [f32],
    m: usize,
    width: usize,
) -> (Operands, (usize, usize)) {
    assert_eq!(b.width, width, "matmul_packed: operand packed for another instantiation");
    let (k, n) = (b.k, b.n);
    let fits = m.checked_mul(k).is_some_and(|v| a.len() >= v);
    assert!(fits, "matmul_packed: left operand holds {} < {m}×{k} elements", a.len());
    assert!(
        m.checked_mul(n) == Some(out.len()),
        "matmul_packed: output holds {} != {m}×{n} elements",
        out.len()
    );
    ((a.as_ptr(), b.data.as_ptr(), out.as_mut_ptr()), (k, n))
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
/// instruction sets differ only in this impl.
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
    /// [`narrow`] on this register, compiled out of line: inlined, its
    /// 8 KiB stack block deepened the frame of every multiply by that much,
    /// and a fresh thread's first multiply faulted the pages in.
    ///
    /// # Safety
    /// As [`narrow`].
    unsafe fn narrow_tiles<const MR: usize>(
        operands: Operands,
        ldb: usize,
        dims: (usize, usize),
        w: usize,
        rows: Range<usize>,
    ) -> Range<usize>;
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
    #[inline(never)]
    unsafe fn narrow_tiles<const MR: usize>(
        operands: Operands,
        ldb: usize,
        dims: (usize, usize),
        w: usize,
        rows: Range<usize>,
    ) -> Range<usize> {
        narrow::<Quad, MR>(operands, ldb, dims, w, rows)
    }
}

/// The micro-kernel: one `MR × (NV·W)` output tile whose accumulators stay
/// in registers across a sweep of `depth` steps of `k` (all of them, for
/// [`matmul_raw`]; [`KC`] at a time, for [`matmul_packed`]).  Vectorised across output
/// *columns* — each lane of each accumulator is one output element taking
/// its products in `k` order, exactly the scalar loop's arithmetic — with
/// the row of `b` loaded once per step and shared by the `MR` rows, whose
/// left-operand scalars are broadcast.
///
/// # Safety
///
/// `a` must be valid for reading `MR` rows of `k` elements (row stride
/// `k`), `b` for `k` rows of `NV·W` elements (row stride `ldb`: `n` for a
/// row-major right operand, the panel width for a [`PackedRhs`] panel) and
/// `out` for writing `MR` rows of `NV·W` elements (row stride `n`), `a`
/// for `depth` steps at row stride `lda`, and — when `resume` — `out` for
/// reading the accumulators the previous steps stored; `V`'s instruction
/// set must be available.
#[inline(always)]
unsafe fn tile<V: Lanes, const MR: usize, const NV: usize>(
    (a, lda): (*const f32, usize),
    (b, ldb): (*const f32, usize),
    out: *mut f32,
    (depth, resume): (usize, bool),
    n: usize,
) {
    let mut acc = [[V::splat(0.0); NV]; MR];
    if resume {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            for (v, acc) in acc_row.iter_mut().enumerate() {
                *acc = V::load(out.add(r * n + v * V::W));
            }
        }
    }
    for kk in 0..depth {
        let b_row: [V; NV] = std::array::from_fn(|v| V::load(b.add(kk * ldb + v * V::W)));
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let a_rk = V::splat(*a.add(r * lda + kk));
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
            tile::<V, MR, NV>((a.add(i * k), k), (b.add(j), n), out.add(i * n + j), (k, false), n);
        }
        j += NV * V::W;
    }
    j
}

/// All columns of the leading whole multiple of `MR` rows of `rows`, `MR`
/// rows at a time: `NV`-register panels, then one-register panels, then the
/// last `< W` columns through [`narrow`].  Returns the `< MR` rows left
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
    if j < dims.1 {
        let (a, b, out) = operands;
        V::narrow_tiles::<MR>((a, b.add(j), out.add(j)), dims.1, dims, dims.1 - j, tiled);
    }
    rest..rows.end
}

/// The widest register, in `f32`s: the row length of [`narrow`]'s padded
/// copy of `b`.
const MAX_W: usize = 16;

/// The `w < W` columns at `b` (row stride `ldb`) and `out` (row stride
/// `n`) of the leading whole multiple of `MR` rows of `rows`, in `MR × W`
/// [`tile`]s over a copy of those columns of `b` zero-padded to `W` —
/// [`KC`] steps of `k` at a time, the tile resuming from a stack copy of
/// its accumulators — whose first `w` lanes are then copied out.  Each
/// lane is one output element taking `fma(aᵢₖ, bₖⱼ, acc)` in `k` order, so
/// the bits are the scalar loop's; the padding lanes are discarded.  One
/// vector fused multiply-add per row and step replaces `w` scalar ones,
/// and no operand is transposed.  Returns the `< MR` rows left over.
///
/// # Safety
///
/// `a` valid for reading the rows `rows` of `k` elements, `b` for `k`
/// rows of `w` elements at stride `ldb`, `out` for writing the rows
/// `rows` of `w` elements at stride `n`; `MR <= 8`; `V`'s instruction set
/// available.
#[inline(always)]
unsafe fn narrow<V: Lanes, const MR: usize>(
    (a, b, out): Operands,
    ldb: usize,
    (k, n): (usize, usize),
    w: usize,
    rows: Range<usize>,
) -> Range<usize> {
    debug_assert!(w < V::W && V::W <= MAX_W && MR <= 8);
    let rest = rows.end - rows.len() % MR;
    if rows.start == rest {
        return rows;
    }
    let mut padded = std::mem::MaybeUninit::<[[f32; MAX_W]; KC]>::uninit();
    let padded = padded.as_mut_ptr().cast::<[f32; MAX_W]>();
    let once = k <= KC;
    if once {
        pad(padded, (b, ldb), (0, k), w);
    }
    let mut sums = [0.0f32; 8 * MAX_W];
    for i in (rows.start..rest).step_by(MR) {
        // One pass even for `k == 0`: the tile stores the empty sums.
        let mut kc = 0;
        loop {
            let depth = KC.min(k - kc);
            if !once {
                pad(padded, (b, ldb), (kc, depth), w);
            }
            let a = (a.add(i * k + kc), k);
            tile::<V, MR, 1>(a, (padded.cast(), MAX_W), sums.as_mut_ptr(), (depth, kc > 0), V::W);
            kc += depth;
            if kc >= k {
                break;
            }
        }
        for r in 0..MR {
            let row = out.add((i + r) * n);
            // A fixed trip count: a `..w` copy becomes a `memcpy` call.
            for c in 0..MAX_W {
                if c < w {
                    *row.add(c) = sums[r * V::W + c];
                }
            }
        }
    }
    rest..rows.end
}

/// Writes steps `kc..kc + depth` of the `w` columns at `b` (row stride
/// `ldb`) into the first `depth` rows of `padded`, zeros right of them.
/// The zeros go in as one fill and the columns one at a time: a per-row
/// `..w` copy becomes a `memcpy` call per row, a per-element select a
/// store per padding lane.
///
/// # Safety
///
/// `padded` valid for writing `depth` rows, `b` for reading `kc + depth`
/// rows of `w` elements at stride `ldb`.
#[inline(always)]
unsafe fn pad(
    padded: *mut [f32; MAX_W],
    (b, ldb): (*const f32, usize),
    (kc, depth): (usize, usize),
    w: usize,
) {
    padded.write_bytes(0, depth);
    for c in 0..w {
        for kk in 0..depth {
            (*padded.add(kk))[c] = *b.add((kc + kk) * ldb + c);
        }
    }
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

/// Steps of `k` a packed panel is swept in: every row tile of the panel
/// takes steps `kc..kc + KC` before any takes the next ones, so that slab
/// of the panel (`KC × 48` floats, 24 KiB, on AVX-512F) is read from L1 by
/// every row tile after the first.  A tile resuming at `kc > 0` reloads its
/// accumulators from the output it stored — an exact round trip — so the
/// steps still accumulate one by one in `k` order.
const KC: usize = 128;

/// The rows `rows` of one packed panel (row stride `ldb`) in `MR × NV·W`
/// tiles over the steps `kc..kc + depth`; returns the `< MR` rows left
/// over.
///
/// # Safety
///
/// `a` and `out` as [`Operands`] describes for `m >= rows.end` and these
/// `k`, `n`, already advanced to the panel's first column; `b` valid for
/// `k` rows of `NV·W` elements at stride `ldb`; `V`'s instruction set
/// available.
#[inline(always)]
unsafe fn strip<V: Lanes, const MR: usize, const NV: usize>(
    (a, b, out): Operands,
    ldb: usize,
    (k, n): (usize, usize),
    (kc, depth): (usize, usize),
    rows: Range<usize>,
) -> Range<usize> {
    let rest = rows.end - rows.len() % MR;
    let (b, steps) = ((b.add(kc * ldb), ldb), (depth, kc > 0));
    for i in (rows.start..rest).step_by(MR) {
        tile::<V, MR, NV>((a.add(i * k + kc), k), b, out.add(i * n), steps, n);
    }
    rest..rows.end
}

/// Every row of one packed panel of `NV·W` columns, [`KC`] steps at a
/// time: eight rows at a time where `EIGHT`, then four, two and one.
///
/// # Safety
///
/// As [`strip`], for the rows `0..m`.
#[inline(always)]
unsafe fn panel_rows<V: Lanes, const NV: usize, const EIGHT: bool>(
    operands: Operands,
    ldb: usize,
    dims: (usize, usize),
    m: usize,
) {
    // One pass even for `k == 0`: its tiles store the empty sums.
    let mut kc = 0;
    loop {
        let chunk = (kc, KC.min(dims.0 - kc));
        let mut rows = 0..m;
        if EIGHT {
            rows = strip::<V, 8, NV>(operands, ldb, dims, chunk, rows);
        }
        let rows = strip::<V, 4, NV>(operands, ldb, dims, chunk, rows);
        let rows = strip::<V, 2, NV>(operands, ldb, dims, chunk, rows);
        strip::<V, 1, NV>(operands, ldb, dims, chunk, rows);
        kc += chunk.1;
        if kc >= dims.0 {
            break;
        }
    }
}

/// The packed multiply: each full `NV·W`-column panel in whole-panel
/// tiles, then the last `< NV·W` columns — one panel of that width — in
/// one-register tiles and, for its last `< W` columns, [`narrow`] tiles.
/// Same per-element arithmetic as [`gemm`]: only where `b`'s elements are
/// loaded from differs.
///
/// # Safety
///
/// `operands` must be valid for `m` rows of `a`, the `k·n` packed elements
/// of a [`PackedRhs`] of width `NV·W` and `m·n` output elements, and `V`'s
/// instruction set must be available.
#[inline(always)]
unsafe fn gemm_packed<V: Lanes, const NV: usize, const EIGHT: bool>(
    (a, b, out): Operands,
    (k, n): (usize, usize),
    m: usize,
) {
    let width = NV * V::W;
    let mut j = 0;
    while j + width <= n {
        panel_rows::<V, NV, EIGHT>((a, b.add(j * k), out.add(j)), width, (k, n), m);
        j += width;
    }
    let (tail, w) = (b.add(j * k), n - j);
    let mut c = 0;
    while c + V::W <= w {
        panel_rows::<V, 1, EIGHT>((a, tail.add(c), out.add(j + c)), w, (k, n), m);
        c += V::W;
    }
    if c < w {
        let operands = (a, tail.add(c), out.add(j + c));
        let mut rows = 0..m;
        if EIGHT {
            rows = V::narrow_tiles::<8>(operands, w, (k, n), w - c, rows);
        }
        let rows = V::narrow_tiles::<4>(operands, w, (k, n), w - c, rows);
        let rows = V::narrow_tiles::<2>(operands, w, (k, n), w - c, rows);
        V::narrow_tiles::<1>(operands, w, (k, n), w - c, rows);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 and AVX-512F instantiations, each compiled with `fma`.

    use std::arch::x86_64::*;

    use std::ops::Range;

    use super::{
        checked_operands, checked_packed, gemm, gemm_packed, narrow, row_tiles, Lanes, Operands,
        PackedRhs,
    };

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
        #[inline(always)]
        unsafe fn narrow_tiles<const MR: usize>(
            operands: Operands,
            ldb: usize,
            dims: (usize, usize),
            w: usize,
            rows: Range<usize>,
        ) -> Range<usize> {
            narrow_avx2::<MR>(operands, ldb, dims, w, rows)
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline(never)]
    unsafe fn narrow_avx2<const MR: usize>(
        operands: Operands,
        ldb: usize,
        dims: (usize, usize),
        w: usize,
        rows: Range<usize>,
    ) -> Range<usize> {
        narrow::<__m256, MR>(operands, ldb, dims, w, rows)
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
        #[inline(always)]
        unsafe fn narrow_tiles<const MR: usize>(
            operands: Operands,
            ldb: usize,
            dims: (usize, usize),
            w: usize,
            rows: Range<usize>,
        ) -> Range<usize> {
            narrow_avx512f::<MR>(operands, ldb, dims, w, rows)
        }
    }

    #[target_feature(enable = "avx512f,fma")]
    #[inline(never)]
    unsafe fn narrow_avx512f<const MR: usize>(
        operands: Operands,
        ldb: usize,
        dims: (usize, usize),
        w: usize,
        rows: Range<usize>,
    ) -> Range<usize> {
        narrow::<__m512, MR>(operands, ldb, dims, w, rows)
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

    /// Panel width of the AVX2 packed variant: the 4 × 16 tile's columns.
    pub(super) const AVX2_PANEL: usize = 16;
    /// Panel width of the AVX-512F packed variant: the 8 × 48 tile's
    /// columns.
    pub(super) const AVX512F_PANEL: usize = 48;

    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_packed_avx2(operands: Operands, dims: (usize, usize), m: usize) {
        gemm_packed::<__m256, 2, false>(operands, dims, m);
    }

    /// 8 × 48 tiles, then 4-, 2- and 1-row tiles, all over 48-column panels.
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn gemm_packed_avx512f(operands: Operands, dims: (usize, usize), m: usize) {
        gemm_packed::<__m512, 3, true>(operands, dims, m);
    }

    /// Listed by [`super::matmul_packed_instantiations`] only where AVX2
    /// and FMA were detected.
    pub(super) fn avx2_packed(a: &[f32], b: &PackedRhs, out: &mut [f32], m: usize) {
        let (operands, dims) = checked_packed(a, b, out, m, AVX2_PANEL);
        // SAFETY: as for `avx2`.
        unsafe { gemm_packed_avx2(operands, dims, m) }
    }

    /// Listed by [`super::matmul_packed_instantiations`] only where
    /// AVX-512F and FMA were detected.
    pub(super) fn avx512f_packed(a: &[f32], b: &PackedRhs, out: &mut [f32], m: usize) {
        let (operands, dims) = checked_packed(a, b, out, m, AVX512F_PANEL);
        // SAFETY: as for `avx512f`.
        unsafe { gemm_packed_avx512f(operands, dims, m) }
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
