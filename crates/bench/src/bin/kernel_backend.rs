//! `kernel_backend`: real wall-clock of the compiled kernel executor
//! (`acrobat_codegen::backend`).
//!
//! For every quick-suite model and batch size, the identical request is
//! served at steady state by a default model: every kernel compiles on its
//! first launch, so every launch after warmup runs a monomorphized,
//! allocation-free compiled kernel (fused elementwise chains, lane-stacked
//! matmuls, flat register scratch).
//!
//! Times are **real wall-clock** (`std::time::Instant`), not modeled
//! virtual time: the executor only changes how the execute phase runs on
//! the host.  Before any timing, each model serves one request in checked
//! mode, which re-executes every compiled launch through the reference
//! interpreter and panics on any output-bit divergence.  The artifact
//! header names the host it was recorded on (CPUs available, widest matmul
//! instantiation).  Each number is the median of many steady-state repeats
//! after warmup (warmup absorbs the one-time compiles).  Three wall-clock
//! views per configuration:
//!
//! * `kexec_ms` — the kernel *execute* phase (`RuntimeStats::
//!   exec_wall_us`), excluding prepare/gather, scheduling and finish;
//! * `flush_ms` — the flush host wall (`RuntimeStats::host_wall_us`:
//!   scheduling + prepare + execute);
//! * `e2e_ms` — a whole `Model::run` (adds per-instance program
//!   interpretation and DFG construction on top).
//!
//! Gate (asserted on full runs, after the files are written): every row's
//! `kexec_ms` stays under its bound in [`SPEC_KEXEC_BOUND_MS`].  The flush
//! and e2e columns stay in the artifact so the amortized effect is never
//! overstated — Amdahl applies, and the table shows by how much.
//!
//! Writes `bench_results/kernel_backend.txt` and
//! `bench_results/BENCH_kernel_backend.json`.  `--smoke` runs each model
//! once in checked mode and stops there: no timing, no files, no bounds
//! (used by `scripts/check.sh`).

use std::fmt::Write as _;
use std::time::Instant;

use acrobat_bench::{suite, write_bench_json, JsonRecord};
use acrobat_core::{compile, CompileOptions, Model};
use acrobat_models::{ModelSize, ModelSpec};

/// Instance batch sizes per request (the steady-state sweep).
const BATCH_SIZES: [usize; 2] = [8, 64];

/// Unmeasured runs before timing (they absorb the first-launch compiles),
/// then measured runs per row.
const WARMUP: usize = 4;
const REPEATS: usize = 31;

/// [`host`] as it reads on the machine [`SPEC_KEXEC_BOUND_MS`] was
/// recorded on.
const RECORDED_HOST: &str = "2 CPUs, x86_64, matmul avx512f";

/// Upper bound on each row's compiled kernel-execute median, in ms, on
/// [`RECORDED_HOST`]: 2× the largest median that row read over four full
/// runs on that shared machine.  Why the largest and why 2×: one row's
/// median moves by up to 1.96× between runs (BiRNN/8: 0.075 vs 0.147 ms
/// on a busy minute), so a bound from a single run fails on a busy
/// minute, while a row past twice its worst observed time means the
/// compiled executor got slower, not the machine busier.
const SPEC_KEXEC_BOUND_MS: [(&str, usize, f64); 14] = [
    ("TreeLSTM", 8, 0.336),
    ("TreeLSTM", 64, 3.098),
    ("MV-RNN", 8, 0.208),
    ("MV-RNN", 64, 2.316),
    ("BiRNN", 8, 0.162),
    ("BiRNN", 64, 1.738),
    ("NestedRNN", 8, 0.138),
    ("NestedRNN", 64, 0.586),
    ("DRNN", 8, 0.080),
    ("DRNN", 64, 0.480),
    ("Berxit", 8, 1.412),
    ("Berxit", 64, 11.646),
    ("StackRNN", 8, 0.450),
    ("StackRNN", 64, 2.382),
];

struct Row {
    model: &'static str,
    batch: usize,
    kexec_ms: f64,
    flush_ms: f64,
    e2e_ms: f64,
    /// Compiled kernels resident after warmup.
    compiled: usize,
}

fn build(spec: &ModelSpec, checked: bool) -> Model {
    let options = CompileOptions::default().with_checked(checked);
    compile(&spec.source, &options).unwrap_or_else(|e| panic!("{} compiles: {e}", spec.name))
}

/// Median (kernel-execute wall ms, flush host wall ms, end-to-end wall ms)
/// over [`REPEATS`] steady-state runs (after [`WARMUP`] unmeasured runs).
fn measure(
    model: &Model,
    spec: &ModelSpec,
    instances: &[Vec<acrobat_vm::InputValue>],
) -> (f64, f64, f64) {
    for _ in 0..WARMUP {
        model.run(&spec.params, instances).expect("warmup run");
    }
    let mut kexec = Vec::with_capacity(REPEATS);
    let mut flush = Vec::with_capacity(REPEATS);
    let mut e2e = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let r = model.run(&spec.params, instances).expect("measured run");
        e2e.push(t0.elapsed().as_secs_f64() * 1e3);
        kexec.push(r.stats.exec_wall_us / 1e3);
        flush.push(r.stats.host_wall_us / 1e3);
    }
    (median(&mut kexec), median(&mut flush), median(&mut e2e))
}

/// The host a run measures: CPUs available and the widest matmul
/// micro-kernel instantiation it dispatches to.
fn host() -> String {
    let cpus = acrobat_runtime::cores();
    let isa = acrobat_tensor::matmul_raw_instantiations()[0].0;
    format!("{cpus} CPUs, {}, matmul {isa}", std::env::consts::ARCH)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let mut rows: Vec<Row> = Vec::new();
    for spec in suite(ModelSize::Small, true) {
        // Identity gate before any timing is trusted: checked mode holds
        // every compiled launch to the interpreter's bits.
        let widest = BATCH_SIZES[BATCH_SIZES.len() - 1];
        let instances = (spec.make_instances)(0xBE2C ^ widest as u64, widest);
        build(&spec, true).run(&spec.params, &instances).expect("checked run");
        if smoke {
            continue;
        }
        for &batch in &BATCH_SIZES {
            let instances = (spec.make_instances)(0xBE2C ^ batch as u64, batch);
            let model = build(&spec, false);
            let (kexec_ms, flush_ms, e2e_ms) = measure(&model, &spec, &instances);
            let compiled = model.executable().session.engine().backend().compiled_count();
            assert!(compiled > 0, "{}: nothing compiled", spec.name);
            rows.push(Row { model: spec.name, batch, kexec_ms, flush_ms, e2e_ms, compiled });
        }
    }
    if smoke {
        println!("kernel executor smoke passed: every model's checked run matched the interpreter");
        return;
    }

    let mut out = String::new();
    writeln!(out, "# kernel_backend — compiled kernel executor, real wall-clock").unwrap();
    writeln!(out, "#").unwrap();
    writeln!(out, "# Quick-suite models; per-request instance batch swept over {BATCH_SIZES:?}.")
        .unwrap();
    writeln!(
        out,
        "# Host: {}; median of {REPEATS} steady-state runs after {WARMUP} warmups \
         (warmup absorbs the first-launch compiles).",
        host()
    )
    .unwrap();
    writeln!(
        out,
        "# kexec = kernel execute phase; flush = flush host wall (scheduling + prepare + \
         execute); e2e = whole Model::run.  Each model's checked run matched the \
         interpreter bit for bit before timing."
    )
    .unwrap();
    writeln!(out, "#").unwrap();
    writeln!(
        out,
        "{:>10}  {:>5}  {:>11}  {:>11}  {:>11}  {:>8}",
        "model", "batch", "kexec", "flush", "e2e", "compiled"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:>10}  {:>5}  {:>8.3} ms  {:>8.3} ms  {:>8.3} ms  {:>8}",
            r.model, r.batch, r.kexec_ms, r.flush_ms, r.e2e_ms, r.compiled
        )
        .unwrap();
    }
    print!("{out}");

    std::fs::create_dir_all("bench_results").expect("bench_results dir");
    std::fs::write("bench_results/kernel_backend.txt", &out)
        .expect("write bench_results/kernel_backend.txt");
    eprintln!("wrote bench_results/kernel_backend.txt");

    let mut records = Vec::new();
    for r in &rows {
        let config = format!("{}/batch={}", r.model, r.batch);
        records.push(JsonRecord::new(&config, "kexec_ms", r.kexec_ms));
        records.push(JsonRecord::new(&config, "flush_ms", r.flush_ms));
        records.push(JsonRecord::new(&config, "e2e_ms", r.e2e_ms));
        records.push(JsonRecord::new(&config, "compiled_kernels", r.compiled as f64));
    }
    write_bench_json("kernel_backend", &records);

    // Checked after the files are written, so a run over a bound still
    // records what it measured.
    let over: Vec<String> = rows
        .iter()
        .filter_map(|r| {
            let bound = SPEC_KEXEC_BOUND_MS
                .iter()
                .find(|&&(model, batch, _)| model == r.model && batch == r.batch)
                .unwrap_or_else(|| panic!("{}/{}: no kexec bound", r.model, r.batch))
                .2;
            (r.kexec_ms > bound)
                .then(|| format!("{}/{}: {:.3} ms > {bound} ms", r.model, r.batch, r.kexec_ms))
        })
        .collect();
    assert!(
        over.is_empty(),
        "compiled kexec over its bound on {} (bounds recorded on {RECORDED_HOST}; on another \
         host this is a host mismatch, not a regression): {over:?}",
        host()
    );
    println!("\nkernel backend gate passed: every row's compiled kexec is within its bound");
}
