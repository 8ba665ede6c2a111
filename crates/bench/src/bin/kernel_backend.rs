//! `kernel_backend`: wall-clock comparison of the reference interpreter
//! and the specialized kernel backend (`acrobat_codegen::backend`).
//!
//! For every quick-suite model and batch size, the identical request is
//! served at steady state by two otherwise-identical models:
//!
//! * **interp** — the reference interpreter (`execute_prepared`), the
//!   oracle, selected explicitly as the baseline column;
//! * **spec** — the specialized backend, the default: every kernel
//!   compiles on its first launch, so every launch after warmup runs a
//!   monomorphized, allocation-free compiled kernel (fused elementwise
//!   chains, lane-stacked matmuls, flat register scratch).  Both call
//!   the same `matmul_raw` micro-kernel — the interpreter one lane at a
//!   time, the compiled kernel on a block of stacked lanes.
//!
//! Times are **real wall-clock** (`std::time::Instant`), not modeled
//! virtual time: the backend only changes how the execute phase runs on
//! the host, so modeled statistics are backend-invariant by construction
//! (asserted — along with bit-for-bit output identity — before any
//! measurement is reported).  The artifact header names the host it was
//! recorded on (CPUs available, widest matmul instantiation; a launch big
//! enough to split across cores splits alike under both backends).  Each
//! number is the median of many steady-state repeats after warmup (warmup
//! absorbs the one-time compiles).  Three wall-clock views per
//! configuration:
//!
//! * `kexec_ms` — the kernel *execute* phase (`RuntimeStats::
//!   exec_wall_us`): exactly the work the backend replaces — interpreter
//!   dispatch vs compiled execution — excluding prepare/gather,
//!   scheduling and finish, which are shared verbatim by both backends;
//! * `flush_ms` — the flush host wall (`RuntimeStats::host_wall_us`:
//!   scheduling + prepare + execute);
//! * `e2e_ms` — a whole `Model::run` (adds per-instance program
//!   interpretation and DFG construction on top).
//!
//! Gate (asserted on full runs, after the files are written): every row's
//! compiled `kexec_ms` stays under its bound in [`SPEC_KEXEC_BOUND_MS`].
//! The interp column and the ratios are context, not a gate: both
//! backends call the same micro-kernel, so the ratio is only the
//! non-matmul remainder.  The flush and e2e columns stay in the artifact
//! so the amortized effect is never overstated — Amdahl applies, and the
//! table shows by how much.
//!
//! Writes `bench_results/kernel_backend.txt` and
//! `bench_results/BENCH_kernel_backend.json`.  `--smoke` runs fewer
//! repeats, skips the files and the bounds (used by `scripts/check.sh`).

use std::fmt::Write as _;
use std::time::Instant;

use acrobat_bench::{suite, write_bench_json, JsonRecord};
use acrobat_codegen::KernelBackendKind;
use acrobat_core::{compile, CompileOptions, Model};
use acrobat_models::{ModelSize, ModelSpec};

/// Instance batch sizes per request (the steady-state sweep).
const BATCH_SIZES: [usize; 2] = [8, 64];

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
    interp_kexec_ms: f64,
    spec_kexec_ms: f64,
    interp_flush_ms: f64,
    spec_flush_ms: f64,
    interp_e2e_ms: f64,
    spec_e2e_ms: f64,
    /// Compiled kernels resident after warmup.
    compiled: usize,
}

impl Row {
    fn kexec_speedup(&self) -> f64 {
        self.interp_kexec_ms / self.spec_kexec_ms
    }

    fn flush_speedup(&self) -> f64 {
        self.interp_flush_ms / self.spec_flush_ms
    }

    fn e2e_speedup(&self) -> f64 {
        self.interp_e2e_ms / self.spec_e2e_ms
    }
}

fn build(spec: &ModelSpec, backend: KernelBackendKind) -> Model {
    let options = CompileOptions::default().with_kernel_backend(backend);
    compile(&spec.source, &options).unwrap_or_else(|e| panic!("{} compiles: {e}", spec.name))
}

/// Median (kernel-execute wall ms, flush host wall ms, end-to-end wall ms)
/// over `repeats` steady-state runs (after `warmup` unmeasured runs).
fn measure(
    model: &Model,
    spec: &ModelSpec,
    instances: &[Vec<acrobat_vm::InputValue>],
    warmup: usize,
    repeats: usize,
) -> (f64, f64, f64) {
    for _ in 0..warmup {
        model.run(&spec.params, instances).expect("warmup run");
    }
    let mut kexec = Vec::with_capacity(repeats);
    let mut flush = Vec::with_capacity(repeats);
    let mut e2e = Vec::with_capacity(repeats);
    for _ in 0..repeats {
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
    let (warmup, repeats) = if smoke { (2, 9) } else { (4, 31) };

    let mut rows: Vec<Row> = Vec::new();
    for spec in suite(ModelSize::Small, true) {
        for &batch in &BATCH_SIZES {
            let instances = (spec.make_instances)(0xBE2C ^ batch as u64, batch);

            let interp = build(&spec, KernelBackendKind::Interp);
            let specialized = build(&spec, KernelBackendKind::Spec);

            // Identity + invariance gates before any timing is trusted:
            // same bits, same modeled statistics.
            let want = interp.run(&spec.params, &instances).expect("interp run");
            let got = specialized.run(&spec.params, &instances).expect("spec run");
            let (wt, gt): (Vec<_>, Vec<_>) = (
                want.outputs.iter().flat_map(|o| (spec.flatten_output)(o)).collect(),
                got.outputs.iter().flat_map(|o| (spec.flatten_output)(o)).collect(),
            );
            assert_eq!(wt.len(), gt.len(), "{}: output tensor count", spec.name);
            for (a, b) in wt.iter().zip(&gt) {
                assert_eq!(a.data(), b.data(), "{}: backends diverged", spec.name);
            }
            assert_eq!(
                want.stats.kernel_launches, got.stats.kernel_launches,
                "{}: modeled launches are backend-invariant",
                spec.name
            );

            let (interp_kexec_ms, interp_flush_ms, interp_e2e_ms) =
                measure(&interp, &spec, &instances, warmup, repeats);
            let (spec_kexec_ms, spec_flush_ms, spec_e2e_ms) =
                measure(&specialized, &spec, &instances, warmup, repeats);
            let engine = specialized.executable().session.engine();
            let compiled = engine.backend().map_or(0, |b| b.compiled_count());
            assert!(compiled > 0, "{}: nothing compiled", spec.name);

            rows.push(Row {
                model: spec.name,
                batch,
                interp_kexec_ms,
                spec_kexec_ms,
                interp_flush_ms,
                spec_flush_ms,
                interp_e2e_ms,
                spec_e2e_ms,
                compiled,
            });
        }
    }

    let mut out = String::new();
    writeln!(out, "# kernel_backend — interpreter vs specialized backend, real wall-clock")
        .unwrap();
    writeln!(out, "#").unwrap();
    writeln!(out, "# Quick-suite models; per-request instance batch swept over {BATCH_SIZES:?}.")
        .unwrap();
    writeln!(
        out,
        "# Host: {}; median of {repeats} steady-state runs after {warmup} warmups \
         (warmup absorbs the first-launch compiles).",
        host()
    )
    .unwrap();
    writeln!(
        out,
        "# kexec = kernel execute phase (what the backend replaces); flush = flush \
         host wall (scheduling + prepare + execute); e2e = whole Model::run.  \
         Outputs bit-identical and modeled stats backend-invariant (asserted \
         before timing)."
    )
    .unwrap();
    writeln!(out, "#").unwrap();
    writeln!(
        out,
        "{:>10}  {:>5}  {:>13}  {:>13}  {:>7}  {:>7}  {:>7}  {:>8}",
        "model", "batch", "interp_kexec", "spec_kexec", "kexec_x", "flush_x", "e2e_x", "compiled"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:>10}  {:>5}  {:>10.3} ms  {:>10.3} ms  {:>6.2}x  {:>6.2}x  {:>6.2}x  {:>8}",
            r.model,
            r.batch,
            r.interp_kexec_ms,
            r.spec_kexec_ms,
            r.kexec_speedup(),
            r.flush_speedup(),
            r.e2e_speedup(),
            r.compiled
        )
        .unwrap();
    }
    print!("{out}");

    if smoke {
        println!("\nbackend identity smoke passed (kexec bounds run on full runs)");
        return;
    }
    std::fs::create_dir_all("bench_results").expect("bench_results dir");
    std::fs::write("bench_results/kernel_backend.txt", &out)
        .expect("write bench_results/kernel_backend.txt");
    eprintln!("wrote bench_results/kernel_backend.txt");

    let mut records = Vec::new();
    for r in &rows {
        let config = format!("{}/batch={}", r.model, r.batch);
        records.push(JsonRecord::new(&config, "interp_kexec_ms", r.interp_kexec_ms));
        records.push(JsonRecord::new(&config, "spec_kexec_ms", r.spec_kexec_ms));
        records.push(JsonRecord::new(&config, "kexec_speedup", r.kexec_speedup()));
        records.push(JsonRecord::new(&config, "interp_flush_ms", r.interp_flush_ms));
        records.push(JsonRecord::new(&config, "spec_flush_ms", r.spec_flush_ms));
        records.push(JsonRecord::new(&config, "flush_speedup", r.flush_speedup()));
        records.push(JsonRecord::new(&config, "interp_e2e_ms", r.interp_e2e_ms));
        records.push(JsonRecord::new(&config, "spec_e2e_ms", r.spec_e2e_ms));
        records.push(JsonRecord::new(&config, "e2e_speedup", r.e2e_speedup()));
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
            (r.spec_kexec_ms > bound)
                .then(|| format!("{}/{}: {:.3} ms > {bound} ms", r.model, r.batch, r.spec_kexec_ms))
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
