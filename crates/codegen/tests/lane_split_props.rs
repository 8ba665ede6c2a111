//! Property test for the lane-split execute mechanism
//! ([`CompiledKernel::execute_lanes`]): over random fused kernels, lane
//! counts 1..=9 and both executors (a compiled kernel in checked mode, which
//! also cross-executes every range through the interpreter, and the
//! interpreter alone, [`execute_prepared`], range by range), splitting a
//! launch into `parts ∈ 1..=4` lane ranges — including more parts than
//! lanes, and ranges that cut the compiled path's lane blocks — leaves
//! bit-identical outputs.

use acrobat_analysis::{analyze, AnalysisOptions, ArgClass};
use acrobat_codegen::{
    execute_prepared, finish_prepared, prepare_batched_kernel_with, BatchMode, CompiledKernel,
    KernelId, KernelLibrary, KernelProgram, LaneExecutor, SpecializedBackend,
};
use acrobat_ir::{parse_module, typeck};
use acrobat_tensor::{DeviceMem, DeviceTensor, Shape, Tensor};
use proptest::prelude::*;

/// A random straight-line program over `%x`: each op code wraps the
/// expression so far.  Width 33 crosses the compiled path's 32-wide tile.
fn random_library(width: usize, ops: &[u8]) -> KernelLibrary {
    let d = [2, 5, 33][width];
    let mut expr = String::from("%x");
    for op in ops {
        expr = match op {
            0 => format!("relu({expr})"),
            1 => format!("sigmoid({expr})"),
            2 => format!("tanh({expr})"),
            3 => format!("add($b, {expr})"),
            4 => format!("mul({expr}, %y)"),
            _ => format!("matmul({expr}, $w)"),
        };
    }
    let src = format!(
        "def @main($w: Tensor[({d}, {d})], $b: Tensor[(1, {d})], %x: Tensor[(1, {d})], \
         %y: Tensor[(1, {d})]) -> Tensor[(1, {d})] {{ {expr} }}"
    );
    let module = typeck::check_module(parse_module(&src).expect("parses")).expect("typechecks");
    KernelLibrary::build(&analyze(module, AnalysisOptions::default()).expect("analyzes"))
}

/// One launch of `program` over `lanes` scattered lanes, executed as
/// `parts` lane ranges by `kernel`, or by the interpreter when `None`;
/// returns the output bits in `[slot][lane]` order.
fn launch_bits(
    program: &KernelProgram,
    kernel: Option<&CompiledKernel>,
    lanes: usize,
    parts: usize,
    seed: u64,
    exec: &mut LaneExecutor,
) -> Vec<u32> {
    let mut mem = DeviceMem::new(1 << 20);
    let value = |slot: usize, lane: usize, i: usize| {
        ((seed as usize + slot * 31 + lane * 17 + i * 7) % 23) as f32 / 11.0 - 1.0
    };
    let shared: Vec<DeviceTensor> = program
        .inputs
        .iter()
        .enumerate()
        .map(|(s, input)| {
            mem.upload(&Tensor::from_fn(input.shape.dims(), |i| value(s, 0, i))).unwrap()
        })
        .collect();
    let args: Vec<Vec<DeviceTensor>> = (0..lanes)
        .map(|lane| {
            mem.alloc(&Shape::new(&[1 + lane % 3])).unwrap(); // scatter the lanes
            program
                .inputs
                .iter()
                .enumerate()
                .map(|(s, input)| match input.class {
                    ArgClass::Shared => shared[s].clone(),
                    ArgClass::Batched => mem
                        .upload(&Tensor::from_fn(input.shape.dims(), |i| value(s, lane + 1, i)))
                        .unwrap(),
                })
                .collect()
        })
        .collect();
    let prep =
        prepare_batched_kernel_with(&mut mem, program, lanes, BatchMode::GatherFused, |l, s| {
            &args[l][s]
        })
        .unwrap();
    let view = mem.exec_view();
    match kernel {
        Some(kernel) => kernel.execute_lanes(&view, program, &prep, parts, exec, true).unwrap(),
        None => {
            // The even split `execute_lanes` makes, one range after another.
            let parts = parts.clamp(1, lanes);
            for p in 0..parts {
                let range = p * lanes / parts..(p + 1) * lanes / parts;
                execute_prepared(&view, program, &prep, range, &mut exec.scratch.interp).unwrap();
            }
        }
    }
    let outs = finish_prepared(&mem, &prep).unwrap();
    outs.iter().flatten().flat_map(|t| mem.read(t).unwrap().iter().map(|v| v.to_bits())).collect()
}

/// Every kernel of a random program, on both executors: `parts` lane
/// ranges leave the bits one range leaves.
fn assert_splits_match_one_range(
    width: usize,
    ops: &[u8],
    lanes: usize,
    seed: u64,
) -> Result<(), String> {
    let lib = random_library(width, ops);
    for k in 0..lib.len() {
        let program = lib.kernel(KernelId(k as u32));
        let backend = SpecializedBackend::new(lib.len());
        let (compiled, fresh) = backend.select(program);
        assert!(fresh, "the first launch compiles");
        for (executor, kernel) in [("interpreter", None), ("compiled", Some(compiled))] {
            // One executor across all splits: ranges reuse the helpers
            // and whatever an earlier, differently shaped split left in
            // their scratch.
            let mut exec = LaneExecutor::default();
            let whole = launch_bits(program, kernel, lanes, 1, seed, &mut exec);
            assert!(!whole.is_empty());
            for parts in 2..=4 {
                let split = launch_bits(program, kernel, lanes, parts, seed, &mut exec);
                if split != whole {
                    return Err(format!(
                        "kernel {} lanes {lanes} parts {parts} ({executor})",
                        program.name
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_lane_split_is_bit_identical_to_one_range(
        width in 0usize..3,
        ops in proptest::collection::vec(0u8..6, 1..7),
        lanes in 1usize..=9,
        seed in 0u64..1000,
    ) {
        let outcome = assert_splits_match_one_range(width, &ops, lanes, seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Launches wider than the compiled path's 32-lane block: an even
    /// split into 2..=4 ranges starts and ends ranges mid-block, so block
    /// boundaries fall on different lanes than in the one-range run.
    #[test]
    fn splits_unaligned_to_lane_blocks_are_bit_identical(
        width in 0usize..3,
        ops in proptest::collection::vec(0u8..6, 1..7),
        lanes in 33usize..=75,
        seed in 0u64..1000,
    ) {
        let outcome = assert_splits_match_one_range(width, &ops, lanes, seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// Two executors splitting launches of the same compiled kernel at the
/// same time — two contexts, each with its own parked helpers — leave the
/// bits one range leaves, launch after launch.
#[test]
fn concurrent_executors_same_bits() {
    const LANES: usize = 40;
    let lib = random_library(2, &[5, 1, 4, 5, 2]);
    let backend = SpecializedBackend::new(lib.len());
    for k in 0..lib.len() {
        let program = lib.kernel(KernelId(k as u32));
        let (compiled, _) = backend.select(program);
        let want = launch_bits(program, Some(compiled), LANES, 1, 7, &mut LaneExecutor::default());
        std::thread::scope(|s| {
            let contexts: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut exec = LaneExecutor::default();
                        (0..12)
                            .map(|round| {
                                launch_bits(
                                    program,
                                    Some(compiled),
                                    LANES,
                                    2 + round % 3,
                                    7,
                                    &mut exec,
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for context in contexts {
                for (round, bits) in context.join().unwrap().into_iter().enumerate() {
                    assert_eq!(bits, want, "kernel {} round {round}", program.name);
                }
            }
        });
    }
}
