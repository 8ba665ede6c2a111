//! The workspace's `exp`, `tanh` and `sigmoid` (`acrobat_tensor::ops::
//! transcendental`).
//!
//! * Bits: every `map_unary` instantiation this host can run — AVX-512F
//!   and AVX2 where detected, and always the portable one — produces the
//!   scalar `UnaryKind::apply`'s bits for every unary kind, over lengths
//!   0–33 and inputs that include ±0, ±inf, two NaN payloads, subnormals
//!   and both sides of every branch threshold.
//! * Accuracy: within 2 ulp of an `f64` reference over every finite `f32`,
//!   with zeros, infinities, NaNs and saturation exact.  The sweep is
//!   exhaustive in release (`cargo test --release -p acrobat-tensor --test
//!   transcendental_bits`, about two core-minutes per function) and a
//!   strided subset in debug.

use acrobat_tensor::ops::transcendental::{
    exp, sigmoid, tanh, EXP_OVERFLOW, EXP_TINY, EXP_UNDERFLOW, TANH_POLY_MAX, TANH_SATURATE,
    TANH_TINY,
};
use acrobat_tensor::{map_unary, map_unary_instantiations, UnaryKind};

const KINDS: [UnaryKind; 8] = [
    UnaryKind::Relu,
    UnaryKind::Sigmoid,
    UnaryKind::Tanh,
    UnaryKind::Exp,
    UnaryKind::Log,
    UnaryKind::Neg,
    UnaryKind::Sqrt,
    UnaryKind::Gelu,
];

/// The NaN this machine's arithmetic produces (`inf − inf`), computed where
/// the optimizer cannot fold it.  On x86 it differs from `f32::NAN` in
/// sign.
fn hardware_nan() -> f32 {
    std::hint::black_box(f32::INFINITY) - std::hint::black_box(f32::INFINITY)
}

/// `|got − want|` in units of the last place of `want`'s binade, with the
/// subnormal ulp (2⁻¹⁴⁹) as the floor.  An infinite `want` (or `got`) must
/// be matched exactly.
fn ulp_error(got: f32, want: f64) -> f64 {
    let rounded = want as f32;
    if rounded.is_infinite() || got.is_infinite() {
        return if got == rounded { 0.0 } else { f64::INFINITY };
    }
    let binade = (((want.to_bits() >> 52) & 0x7ff) as i64 - 1023).max(-126);
    let ulp = f64::from_bits(((binade - 23 + 1023) as u64) << 52);
    (got as f64 - want).abs() / ulp
}

/// A function's name, the function, and its `f64` reference.
type Function = (&'static str, fn(f32) -> f32, fn(f64) -> f64);

fn functions() -> [Function; 3] {
    [
        ("exp", exp, f64::exp),
        ("tanh", tanh, f64::tanh),
        ("sigmoid", sigmoid, |x| 1.0 / (1.0 + (-x).exp())),
    ]
}

/// The largest error of `f` over the finite `f32`s whose bit patterns are
/// `start, start + step, …`, and the input it occurs at.
fn worst(f: fn(f32) -> f32, reference: fn(f64) -> f64, start: u32, step: u32) -> (f64, f32) {
    let mut worst = (0.0, 0.0);
    let mut bits = start;
    loop {
        let x = f32::from_bits(bits);
        if x.is_finite() {
            let err = ulp_error(f(x), reference(x as f64));
            if err > worst.0 {
                worst = (err, x);
            }
        }
        match bits.checked_add(step) {
            Some(next) => bits = next,
            None => return worst,
        }
    }
}

#[test]
fn within_two_ulp_of_f64_over_every_finite_f32() {
    // Every pattern in release; a strided subset (still every sign and
    // binade) in debug.
    let stride = if cfg!(debug_assertions) { 4099 } else { 1 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    for (name, f, reference) in functions() {
        let (err, at) = std::thread::scope(|scope| {
            let parts: Vec<_> = (0..threads)
                .map(|t| scope.spawn(move || worst(f, reference, t * stride, threads * stride)))
                .collect();
            let worsts = parts.into_iter().map(|part| part.join().unwrap());
            worsts.max_by(|a, b| a.0.total_cmp(&b.0)).unwrap()
        });
        assert!(err <= 2.0, "{name}: {err:.3} ulp at {at:e} ({:#010x})", at.to_bits());
    }
}

#[test]
fn specials_and_saturation_are_exact() {
    let bits = |x: f32| x.to_bits();
    for nan in [f32::NAN, -f32::NAN, hardware_nan(), f32::from_bits(0x7fc0_1234)] {
        for (name, f, _) in functions() {
            assert_eq!(bits(f(nan)), bits(nan), "{name} keeps the NaN");
        }
    }
    assert_eq!(bits(exp(0.0)), bits(1.0));
    assert_eq!(bits(exp(-0.0)), bits(1.0));
    assert_eq!(bits(exp(f32::INFINITY)), bits(f32::INFINITY));
    assert_eq!(bits(exp(f32::NEG_INFINITY)), bits(0.0));
    assert_eq!(bits(exp(EXP_OVERFLOW)), bits(f32::INFINITY));
    assert_eq!(bits(exp(f32::MAX)), bits(f32::INFINITY));
    assert_eq!(bits(exp(EXP_UNDERFLOW)), bits(0.0));
    assert_eq!(bits(exp(f32::MIN)), bits(0.0));
    assert_eq!(bits(exp(EXP_TINY)), bits(1.0));
    assert_eq!(bits(exp(-EXP_TINY)), bits(1.0));
    for (x, y) in [(0.0f32, 0.0f32), (-0.0, -0.0), (f32::INFINITY, 1.0), (f32::NEG_INFINITY, -1.0)]
    {
        assert_eq!(bits(tanh(x)), bits(y), "tanh({x})");
    }
    for a in [TANH_SATURATE, 9.02, 50.0, f32::MAX] {
        assert_eq!(bits(tanh(a)), bits(1.0), "tanh({a})");
        assert_eq!(bits(tanh(-a)), bits(-1.0), "tanh(-{a})");
    }
    for a in [TANH_TINY, f32::MIN_POSITIVE, f32::from_bits(1)] {
        assert_eq!(bits(tanh(a)), bits(a), "tanh({a:e}) rounds to its argument");
        assert_eq!(bits(tanh(-a)), bits(-a));
    }
    for (x, y) in [(0.0f32, 0.5f32), (-0.0, 0.5), (f32::INFINITY, 1.0), (f32::NEG_INFINITY, 0.0)] {
        assert_eq!(bits(sigmoid(x)), bits(y), "sigmoid({x})");
    }
    for x in [18.0f32, 40.0, 100.0, f32::MAX] {
        assert_eq!(bits(sigmoid(x)), bits(1.0), "sigmoid({x})");
    }
    for x in [40.0f32, 100.0, f32::MAX] {
        assert_eq!(bits(sigmoid(-x)), bits(exp(-x)), "sigmoid(-{x}) is exp(-{x})");
    }
    assert!(sigmoid(-100.0) > 0.0, "sigmoid keeps its subnormal tail");
}

/// `UnaryKind::apply` is these functions, so the reference interpreter, the
/// compiled kernels and every baseline evaluate the same bits.
#[test]
fn unary_kinds_are_these_functions() {
    for bits in (0..=u32::MAX).step_by(65_537) {
        let x = f32::from_bits(bits);
        assert_eq!(UnaryKind::Exp.apply(x).to_bits(), exp(x).to_bits());
        assert_eq!(UnaryKind::Tanh.apply(x).to_bits(), tanh(x).to_bits());
        assert_eq!(UnaryKind::Sigmoid.apply(x).to_bits(), sigmoid(x).to_bits());
    }
}

/// Every special class, and each branch threshold with its neighbours on
/// both sides and both signs, then ordinary values.
fn inputs() -> Vec<f32> {
    let mut xs = vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        hardware_nan(),
        f32::from_bits(1),
        f32::MIN_POSITIVE * 0.375,
        f32::MIN_POSITIVE,
        f32::MAX,
    ];
    let thresholds = [
        EXP_UNDERFLOW,
        EXP_OVERFLOW,
        EXP_TINY,
        TANH_TINY,
        TANH_POLY_MAX,
        TANH_SATURATE,
        // exp's result leaves the normal range, overflows, rounds to 0.
        -87.336_54,
        88.722_84,
        -103.972_08,
        // tanh's exp(2|x|) crosses the same points; sigmoid saturates.
        44.361_42,
        17.328_68,
    ];
    for t in thresholds {
        for x in [t.next_down(), t, t.next_up()] {
            xs.extend([x, -x]);
        }
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    xs.extend((0..64).map(|i| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let unit = (state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
        unit * if i % 2 == 0 { 12.0 } else { 120.0 }
    }));
    xs
}

#[test]
fn every_instantiation_matches_the_scalar_bits() {
    let all = map_unary_instantiations();
    assert_eq!(all.last().map(|(name, _)| *name), Some("portable"));
    let pool = inputs();
    for (name, map) in all {
        for kind in KINDS {
            for len in 0..=33 {
                // Slide the window so every input lands in every lane
                // position of the vector body and of the tail.
                for start in 0..pool.len() - len {
                    let xs = &pool[start..start + len];
                    // Stale contents must be overwritten.
                    let mut got = vec![f32::NAN; len];
                    map(kind, xs, &mut got);
                    for (&x, g) in xs.iter().zip(&got) {
                        let want = kind.apply(x);
                        assert_eq!(
                            g.to_bits(),
                            want.to_bits(),
                            "{name} {kind:?} at {x:e} ({:#010x}), len {len}: {g:e} vs {want:e}",
                            x.to_bits()
                        );
                    }
                }
            }
        }
    }
}

/// `map_unary` itself is the widest instantiation listed.
#[test]
fn map_unary_is_the_first_instantiation() {
    let xs = inputs();
    for kind in KINDS {
        let mut first = vec![0.0; xs.len()];
        let mut shipped = vec![0.0; xs.len()];
        map_unary_instantiations()[0].1(kind, &xs, &mut first);
        map_unary(kind, &xs, &mut shipped);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&shipped), "{kind:?}");
    }
}
