//! The execute phase of a warm launch does not touch the allocator, on
//! either executor: a counting `#[global_allocator]` sees zero heap
//! allocations during the second `CompiledKernel::execute` — or the second
//! `execute_prepared`, the interpreter checked mode holds it to — of a
//! kernel that has a stacked matmul, a fused elementwise chain and a
//! `Single` segment (softmax, routed through the reference operator per
//! lane).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acrobat_analysis::{analyze, AnalysisOptions, ArgClass};
use acrobat_codegen::{
    execute_prepared, prepare_batched_kernel_with, BackendScratch, BatchMode, KernelId,
    KernelLibrary, SpecializedBackend,
};
use acrobat_ir::{parse_module, typeck};
use acrobat_tensor::{DeviceMem, Tensor};

thread_local! {
    /// Allocations made by this thread (the harness's other threads are
    /// not this test's business).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System` for every operation; the counter is a
// const-initialized thread-local `Cell` with no destructor, so touching it
// never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_execute_allocates_nothing_on_either_executor() {
    const D: usize = 40; // > one 32-wide tile: main chunk + remainder
    const LANES: usize = 37; // > one lane block: a full block + a partial one
    let src = format!(
        "def @main($w: Tensor[({D}, {D})], $b: Tensor[(1, {D})], %x: Tensor[(1, {D})]) \
         -> Tensor[(1, {D})] {{ softmax_rows(tanh(add($b, sigmoid(matmul(%x, $w))))) }}"
    );
    let module = typeck::check_module(parse_module(&src).expect("parses")).expect("typechecks");
    let lib = KernelLibrary::build(&analyze(module, AnalysisOptions::default()).expect("analyzes"));
    let ops: Vec<&str> = (0..lib.len())
        .flat_map(|k| lib.kernel(KernelId(k as u32)).instrs.iter().map(|i| i.op.name()))
        .collect();
    for op in ["matmul", "sigmoid", "add", "tanh", "softmax_rows"] {
        assert!(ops.contains(&op), "the library lost `{op}`: {ops:?}");
    }

    let backend = SpecializedBackend::new(lib.len());
    let mut mem = DeviceMem::new(1 << 20);
    let shared: Vec<_> = [[D, D], [1, D]]
        .iter()
        .map(|dims| mem.upload(&Tensor::from_fn(dims, |i| (i as f32 * 0.37).sin())).unwrap())
        .collect();
    let lanes: Vec<_> = (0..LANES)
        .map(|l| mem.upload(&Tensor::from_fn(&[1, D], |i| (i + l) as f32 * 0.05 - 1.0)).unwrap())
        .collect();

    for k in 0..lib.len() {
        let program = lib.kernel(KernelId(k as u32));
        let (kernel, _) = backend.select(program);
        for (executor, compiled) in [("interpreter", false), ("compiled", true)] {
            let mut scratch = BackendScratch::default();
            let mut counts = Vec::new();
            for _launch in 0..2 {
                let prep = prepare_batched_kernel_with(
                    &mut mem,
                    program,
                    LANES,
                    BatchMode::GatherFused,
                    |lane, slot| match program.inputs[slot].class {
                        ArgClass::Batched => &lanes[lane],
                        ArgClass::Shared if program.inputs[slot].shape.dims() == [D, D] => {
                            &shared[0]
                        }
                        ArgClass::Shared => &shared[1],
                    },
                )
                .unwrap();
                let view = mem.exec_view();
                let before = ALLOCS.with(Cell::get);
                let run = if compiled {
                    kernel.execute(&view, program, &prep, 0..LANES, &mut scratch, false)
                } else {
                    execute_prepared(&view, program, &prep, 0..LANES, &mut scratch.interp)
                };
                run.unwrap();
                counts.push(ALLOCS.with(Cell::get) - before);
            }
            assert!(counts[0] > 0, "the cold launch sizes its scratch ({executor})");
            assert_eq!(counts[1], 0, "kernel `{}`, warm launch under {executor}", program.name);
        }
    }
}
