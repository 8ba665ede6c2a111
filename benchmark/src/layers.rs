//! Direct calls into single layers: the staged compile pipeline and the
//! micro-probes behind the per-layer ledger.  Everything here goes through
//! public functions of the product crates; nothing in them is instrumented.

use std::sync::Arc;
use std::time::Instant;

use acrobat_analysis::{analyze, AnalysisResult};
use acrobat_codegen::{autoschedule, KernelId, KernelLibrary};
use acrobat_core::{CompileOptions, Engine, RuntimeOptions, SchedulerKind, Tensor};
use acrobat_ir::{parse_module, typeck};
use acrobat_runtime::plan_cache::{plan_cached, CacheConfig, CacheOutcome, PlanCache, PlanL1};
use acrobat_runtime::scheduler::{self, Plan, SchedulerScratch};
use acrobat_runtime::Dfg;
use acrobat_tensor::{matmul_raw, DeviceMem};
use acrobat_vm::Executable;

use crate::metrics::median;

/// Span names of the compile stages, in pipeline order.
pub const STAGES: [&str; 7] = [
    "ir.parse",
    "ir.typeck",
    "analysis.analyze",
    "codegen.library_build",
    "codegen.autoschedule",
    "runtime.engine_new",
    "vm.executable_new",
];

/// A model compiled stage by stage through the public pipeline — the same
/// calls, in the same order, as `acrobat_core::compile`.
pub struct Staged {
    pub exe: Executable,
    pub analysis: Arc<AnalysisResult>,
    /// When the first stage started.
    pub started: Instant,
    /// Wall time of each stage of [`STAGES`], µs.
    pub stage_us: [f64; 7],
    /// Functions in the type-checked module (before code duplication).
    pub functions: usize,
    pub kernels: usize,
}

pub fn staged_compile(source: &str, options: &CompileOptions) -> Result<Staged, String> {
    let started = Instant::now();
    let mut marks = Vec::with_capacity(STAGES.len());
    let module = parse_module(source).map_err(|e| e.to_string())?;
    marks.push(Instant::now());
    let module = typeck::check_module(module).map_err(|e| e.to_string())?;
    marks.push(Instant::now());
    let functions = module.functions.len();
    let analysis = Arc::new(analyze(module, options.analysis).map_err(|e| e.to_string())?);
    marks.push(Instant::now());
    let mut library = KernelLibrary::build(&analysis);
    marks.push(Instant::now());
    autoschedule(&mut library, options.schedule, None);
    marks.push(Instant::now());
    let kernels = library.len();
    let runtime_options = RuntimeOptions { coarsen: options.analysis.coarsen, ..options.runtime };
    let engine = Engine::new(analysis.clone(), library, options.device, runtime_options);
    marks.push(Instant::now());
    let exe = Executable::new(engine, options.backend, options.seed).map_err(|e| e.to_string())?;
    marks.push(Instant::now());

    let mut stage_us = [0.0; 7];
    let mut previous = started;
    for (slot, mark) in stage_us.iter_mut().zip(marks) {
        *slot = (mark - previous).as_secs_f64() * 1e6;
        previous = mark;
    }
    Ok(Staged { exe, analysis, started, stage_us, functions, kernels })
}

/// Median of `reps` timings of `f`, in µs.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `matmul_raw` on `[batch×h]·[h×4h]` (the gate projection of the
/// workload's cell), median of 200: the kernel ceiling, and the canary that
/// says the machine itself moved between two runs of one commit.
pub fn matmul_gflops(batch: usize, hidden: usize) -> f64 {
    let (m, k, n) = (batch, hidden, 4 * hidden);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.02).collect();
    let mut out = vec![0.0f32; m * n];
    let flops = 2 * m * k * n;
    // Small shapes repeat inside one sample so a sample outlasts the clock.
    let inner = (1_000_000 / flops).max(1);
    let us = median_us(200, || {
        for _ in 0..inner {
            matmul_raw(std::hint::black_box(&a), std::hint::black_box(&b), &mut out, m, k, n);
        }
        std::hint::black_box(&out);
    });
    (flops * inner) as f64 / us / 1e3
}

pub struct DfgProbe {
    pub add_node_ns: f64,
    pub schedule_us_per_knode: f64,
    pub plan_thaw_us_per_knode: f64,
}

/// `instances` chains of `depth` nodes rotating over four kernels and two
/// shared-operand signatures — the shape a batched recurrent flush sees.
fn chain_dfg(instances: usize, depth: usize, signature_tracking: bool) -> Dfg {
    let mut mem = DeviceMem::new(1 << 16);
    let x = mem.upload(&Tensor::ones(&[4])).expect("upload one tiny tensor");
    let mut dfg = Dfg::new();
    dfg.set_signature_tracking(signature_tracking);
    for i in 0..instances {
        let mut v = dfg.ready_value(x.clone());
        for d in 0..depth {
            let (_, outs) =
                dfg.add_node(KernelId((d % 4) as u32), i, d as u64, 0, (i % 2) as u64, vec![v], 1);
            v = outs[0];
        }
    }
    dfg
}

/// Times DFG construction, scheduling and plan-cache thaw on a synthetic
/// chain DFG of `batch` instances and about `nodes_per_flush` nodes.
/// `signature_tracking` is what the workload's profile runs with (the plan
/// cache needs it; the paper profile's sequential executor has it off).
pub fn dfg_probe(
    kind: SchedulerKind,
    batch: usize,
    nodes_per_flush: f64,
    signature_tracking: bool,
) -> DfgProbe {
    const REPS: usize = 101;
    let instances = batch.max(1);
    let depth = ((nodes_per_flush / instances as f64).round() as usize).max(1);
    let knodes = (instances * depth) as f64 / 1e3;

    let build_us = median_us(REPS, || {
        std::hint::black_box(chain_dfg(instances, depth, signature_tracking));
    });

    let dfg = chain_dfg(instances, depth, signature_tracking);
    let mut scratch = SchedulerScratch::new();
    let mut plan = Plan::default();
    let schedule_us = median_us(REPS, || {
        scheduler::plan_into(kind, &dfg, &mut scratch, &mut plan);
        std::hint::black_box(plan.num_batches());
    });

    let mut dfg = chain_dfg(instances, depth, true);
    let cfg = CacheConfig { kind, gather_fusion: true, coarsen: true, lane_cap: 0, share: true };
    let shared = PlanCache::new();
    let mut l1 = PlanL1::new();
    plan_cached(&cfg, &mut dfg, &mut scratch, &mut l1, &shared, &mut plan);
    let thaw_us = median_us(REPS, || {
        let outcome = plan_cached(&cfg, &mut dfg, &mut scratch, &mut l1, &shared, &mut plan);
        assert_eq!(outcome, CacheOutcome::Hit, "a warmed cache must hit");
        std::hint::black_box(plan.num_batches());
    });

    DfgProbe {
        add_node_ns: build_us * 1e3 / (instances * depth) as f64,
        schedule_us_per_knode: schedule_us / knodes,
        plan_thaw_us_per_knode: thaw_us / knodes,
    }
}
