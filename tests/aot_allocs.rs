//! Steady-state heap allocations per DFG node of one whole `Model::run` —
//! the machine-independent gate on the host path: the box this repo is
//! measured on drifts 1.2–1.75× in wall time from day to day, allocation
//! counts do not move at all.
//!
//! Both program shapes the repo benchmark drives are gated: `tree_host`'s
//! TreeLSTM (recursion, `match`, `parallel`, tuples) and `birnn_serve2`'s
//! BiRNN (lists and `map`).  Measured with this file, instances of seed 1
//! (`parent` rows at commit 7521cc2, whose AOT backend walked a boxed
//! `Code` tree of refcounted `Value`s on a thread spawned per request;
//! `fresh Dfg` rows at commit 5011c36, whose pooled context started every
//! request on `Dfg::new()`; `named cells` rows at commit 23f0137, which
//! walked the inputs three times and named every output cell with a heap
//! `String`):
//!
//! | model, batch | nodes | allocations / request | per node |
//! |---|---|---|---|
//! | TreeLSTM(16), 8 — parent | 934 | 22 715 | 24.32 |
//! | TreeLSTM(16), 8 — fresh `Dfg` | 934 | 666 | 0.71 |
//! | TreeLSTM(16), 8 — named cells | 934 | 453 | 0.49 |
//! | TreeLSTM(16), 8 | 934 | 447 | 0.48 |
//! | BiRNN(64), 16 — parent | 1 384 | 31 527 | 22.78 |
//! | BiRNN(64), 16 — fresh `Dfg` | 1 384 | 2 098 | 1.52 |
//! | BiRNN(64), 16 — named cells | 1 384 | 1 793 | 1.30 |
//! | BiRNN(64), 16 | 1 384 | 1 424 | 1.03 |
//!
//! The execute loop allocates nothing once its buffers have grown, and
//! neither does the DFG: `Dfg::clear` keeps every vector, map and bucket
//! id list of the previous request (the 212 and 304 allocations between
//! the `fresh Dfg` and `named cells` rows of each model).  What is left is
//! the drain flush's per-launch buffers (≈ 0.35 per node; a rank ≤ 2
//! `Shape` is inline, so the one device handle per node output is no
//! allocation) and the request boundary: the upload's lists, and on the
//! way out two allocations per output tensor — its data, and for a list
//! element the `OutputValue::Adt`'s fields (its name is the interned
//! constructor, no allocation) — which is why BiRNN, whose result is a
//! 346-element list, carries the larger bound.  Each bound is the measured
//! value rounded up to 0.05 (EXPERIMENTS.md, "Allocations per DFG node").

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use acrobat_core::CompileOptions;
use acrobat_models::testkit::build;
use acrobat_models::{birnn, treelstm, ModelSpec};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, per the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` obligations are `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: usize = 64;
const MEASURED: u64 = 8;

/// `(nodes, allocations)` of one steady-state request.
fn steady_state(spec: &ModelSpec, batch: usize) -> (u64, u64) {
    let model = build(spec, &CompileOptions::default());
    let instances = (spec.make_instances)(1, batch);
    let mut nodes = 0;
    for _ in 0..WARM_UP {
        nodes = model.run(&spec.params, &instances).expect("warm-up request").stats.nodes;
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        let run = model.run(&spec.params, &instances).expect("measured request");
        assert_eq!(run.stats.nodes, nodes, "a repeated request builds the same DFG");
    }
    (nodes, (ALLOCATIONS.load(Ordering::Relaxed) - before) / MEASURED)
}

/// One test, so nothing else in this process allocates while it counts.
#[test]
fn a_steady_state_request_allocates_a_few_times_per_dfg_node() {
    let cases = [(treelstm::spec_with(16, 5), 8, 0.5), (birnn::spec_with(64, 3), 16, 1.05)];
    for (spec, batch, bound) in cases {
        let (nodes, allocations) = steady_state(&spec, batch);
        let per_node = allocations as f64 / nodes as f64;
        println!(
            "{}/{batch}: {allocations} allocations, {nodes} nodes, {per_node:.2} per node",
            spec.name
        );
        assert!(
            per_node <= bound,
            "{}: {allocations} allocations for {nodes} nodes is over {bound} per node",
            spec.name
        );
    }
}
