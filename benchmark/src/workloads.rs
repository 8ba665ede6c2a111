//! The benchmark's workloads.  All are closed loop: each client thread
//! submits its next mini-batch only after `Model::run` returned the last.

use acrobat_models::{birnn, drnn, treelstm, ModelSpec};

use crate::profiles::Profile;

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; goes into `BENCHMARK.json`).
    pub why: &'static str,
    pub model: fn() -> ModelSpec,
    /// Hidden size: shapes the `tensor.matmul_gflops` probe.
    pub hidden: usize,
    /// Instances per mini-batch.
    pub batch: usize,
    /// Concurrent client threads sharing one `Model`.
    pub clients: usize,
    pub profile: Profile,
    /// Distinct seeded mini-batches, cycled round-robin, so plan-cache and
    /// size-class working sets are real.
    pub pool: usize,
    /// Untimed requests before the window opens (count based, so set-up
    /// does the same work on every machine).
    pub warmup: usize,
    /// Give every instance of the pool its own pseudo-random-stream key
    /// (`Model::run_keyed`).  For tensor-dependent control flow, whose
    /// decisions are drawn from `(seed, key)` and not from the inputs:
    /// without it every request would replay the same `batch` draws, and
    /// the work per request would hinge on those few draws of one seed.
    pub keyed_streams: bool,
    /// Pool entries checked against the DyNet-style baseline; chosen so the
    /// reference costs at most ~3 s.
    pub reference_k: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tree_host",
        why: "TreeLSTM hidden 16, batch 8: host-bound, vm program drive + runtime DFG construction dominate and kernels are tiny, so a kernel win should barely move it",
        model: || treelstm::spec_with(16, 5),
        hidden: 16,
        batch: 8,
        clients: 1,
        profile: Profile::Paper,
        pool: 256,
        warmup: 64,
        keyed_streams: false,
        reference_k: 8,
    },
    Workload {
        name: "tree_kernel",
        why: "TreeLSTM hidden 256 (paper Small), batch 64: same program but kernel-bound, codegen execute + tensor ops dominate, so a host-path win should barely move it",
        model: || treelstm::spec_with(256, 5),
        hidden: 256,
        batch: 64,
        clients: 1,
        profile: Profile::Paper,
        pool: 16,
        warmup: 8,
        keyed_streams: false,
        reference_k: 2,
    },
    Workload {
        name: "drnn_fiber",
        why: "DRNN hidden 64, batch 16: tensor-dependent control flow runs one OS thread per instance with FiberHub suspensions and many small flushes, unlike the sequential executor",
        model: || drnn::spec_with(64, 4),
        hidden: 64,
        batch: 16,
        clients: 1,
        profile: Profile::Paper,
        pool: 128,
        warmup: 64,
        keyed_streams: true,
        reference_k: 8,
    },
    Workload {
        name: "birnn_serve2",
        why: "BiRNN hidden 64, batch 16, two clients on one Model under the serving profile: the only workload on plan-cache thaw, the specialized backend and BatchBroker merge/demux",
        model: || birnn::spec_with(64, 3),
        hidden: 64,
        batch: 16,
        clients: 2,
        profile: Profile::Serving,
        pool: 256,
        warmup: 64,
        keyed_streams: false,
        reference_k: 8,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
