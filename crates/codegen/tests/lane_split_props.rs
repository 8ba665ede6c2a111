//! Property test for the lane-split execute mechanism
//! ([`Selection::execute_lanes`]): over random fused kernels, lane counts
//! 1..=9 and both execution strategies (the interpreter, and a compiled
//! kernel in checked mode, which also cross-executes every range through
//! the interpreter), splitting a launch into `parts ∈ 1..=4` lane ranges —
//! including more parts than lanes, and ranges that cut the compiled path's
//! lane blocks — leaves bit-identical outputs.

use acrobat_analysis::{analyze, AnalysisOptions, ArgClass};
use acrobat_codegen::{
    finish_prepared, prepare_batched_kernel_with, BackendScratch, BatchMode, KernelId,
    KernelLibrary, KernelProgram, Selection, SpecializedBackend,
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
/// `parts` lane ranges; returns the output bits in `[slot][lane]` order.
fn launch_bits(
    program: &KernelProgram,
    selection: &Selection<'_>,
    lanes: usize,
    parts: usize,
    seed: u64,
    scratch: &mut Vec<BackendScratch>,
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
    selection.execute_lanes(&mem.exec_view(), program, &prep, parts, scratch, true).unwrap();
    let outs = finish_prepared(&mem, &prep).unwrap();
    outs.iter().flatten().flat_map(|t| mem.read(t).unwrap().iter().map(|v| v.to_bits())).collect()
}

/// Every kernel of a random program, on both execution strategies: `parts`
/// lane ranges leave the bits one range leaves.
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
        let compiled = backend.select(program);
        assert!(compiled.is_compiled(), "the first launch compiles");
        for selection in [Selection::Interp, compiled] {
            // One scratch set across all splits: ranges reuse whatever
            // an earlier, differently shaped split left behind.
            let mut scratch = Vec::new();
            let whole = launch_bits(program, &selection, lanes, 1, seed, &mut scratch);
            assert!(!whole.is_empty());
            for parts in 2..=4 {
                let split = launch_bits(program, &selection, lanes, parts, seed, &mut scratch);
                if split != whole {
                    return Err(format!(
                        "kernel {} lanes {lanes} parts {parts} ({selection:?})",
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
