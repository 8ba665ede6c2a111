//! `matmul_raw` bit identity: every instantiation of the micro-kernel this
//! host can run — AVX-512F and AVX2 where detected, and always the portable
//! one — produces exactly the bits of the plain scalar i-k-j loop kept
//! below, over shapes that exercise every row tile (4, 2, 1), every column
//! panel width and both column tails, and over operands that include signed
//! zeros, infinities, NaNs, subnormals and products that overflow.

use acrobat_tensor::matmul_raw_instantiations;
use proptest::prelude::*;

/// The reference: each output element is `((0 + a₀·b₀ⱼ) + a₁·b₁ⱼ) + …` in
/// `k` order, one rounded multiply and one rounded add per step.
fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            for j in 0..n {
                out[i * n + j] += a[i * k + kk] * b[kk * n + j];
            }
        }
    }
    out
}

/// The NaN this machine's arithmetic produces (`inf − inf`), computed where
/// the optimizer cannot fold it.
fn hardware_nan() -> f32 {
    std::hint::black_box(f32::INFINITY) - std::hint::black_box(f32::INFINITY)
}

/// Mostly ordinary magnitudes, with every special class mixed in.  Two NaN
/// payloads are in play — the hardware's own and `f32::NAN` (they differ in
/// sign on x86) — so a sum that meets both also checks that every
/// instantiation keeps the operand order `acc + a·b`: the hardware
/// propagates the first NaN operand's payload.
fn operand(code: u64) -> f32 {
    let x = (code >> 8) as u32 as f32 / u32::MAX as f32 * 2.0 - 1.0;
    match code % 64 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => hardware_nan(),
        5 => f32::MIN_POSITIVE * x, // subnormal
        6 => f32::from_bits(1),     // smallest subnormal
        7 => 3.0e38 * x,            // sums and products overflow
        8 => 2.0e19 * x,            // products of two overflow
        9 => 1.0e-30 * x,           // products of two underflow
        _ => x * 4.0,
    }
}

fn operands(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            operand(state)
        })
        .collect()
}

/// Asserts every instantiation against the reference on one shape.
fn check(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let a = operands(m * k, seed);
    let b = operands(k * n, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    let want = reference(&a, &b, m, k, n);
    let all = matmul_raw_instantiations();
    assert_eq!(all.last().map(|(name, _)| *name), Some("portable"));
    for (name, matmul) in all {
        // Stale contents must be overwritten, not accumulated into.
        let mut got = vec![f32::NAN; m * n];
        matmul(&a, &b, &mut got, m, k, n);
        for (at, (w, g)) in want.iter().zip(&got).enumerate() {
            if w.to_bits() != g.to_bits() {
                return Err(format!(
                    "{name} ({m},{k},{n}) seed {seed}: element ({}, {}) is {g:?} ({:#010x}), \
                     reference {w:?} ({:#010x})",
                    at / n,
                    at % n,
                    g.to_bits(),
                    w.to_bits()
                ));
            }
        }
    }
    Ok(())
}

/// The shapes the models multiply: one lane of a TreeLSTM gate, a stacked
/// block, and sizes with every kind of tail.
#[test]
fn fixed_shapes_match_reference_bits() {
    for (m, k, n) in [(1, 256, 256), (1, 512, 256), (64, 256, 1024), (7, 33, 100), (9, 9, 137)] {
        for seed in 1..=3 {
            check(m, k, n, seed).unwrap();
        }
    }
}

/// `matmul_raw` itself is the widest instantiation listed.
#[test]
fn matmul_raw_is_the_first_instantiation() {
    let (m, k, n) = (5, 19, 83);
    let a = operands(m * k, 11);
    let b = operands(k * n, 12);
    let mut first = vec![0.0; m * n];
    let mut raw = vec![0.0; m * n];
    matmul_raw_instantiations()[0].1(&a, &b, &mut first, m, k, n);
    acrobat_tensor::matmul_raw(&a, &b, &mut raw, m, k, n);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&first), bits(&raw));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_instantiation_matches_reference_bits(
        m in 1usize..=70,
        k in 0usize..=96,
        n in 1usize..=150,
        seed in 1u64..u64::MAX,
    ) {
        let outcome = check(m, k, n, seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
