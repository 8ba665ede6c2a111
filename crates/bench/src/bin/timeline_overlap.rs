//! `timeline_overlap`: the overlap-ablation bench for the simulated device
//! timeline (DESIGN.md "Simulated device timeline").
//!
//! Part A — **modeled** overlap ablation: every model of the large-batch
//! suite runs under a sweep of timeline configurations (multi-stream ×
//! copy engine × host overlap) and reports modeled latency, overlap
//! savings, and speedup versus the serialized baseline.  The serialized
//! configuration (`streams=1`, no copy engine, no host overlap) is the
//! legacy scalar accumulation bit-for-bit, so its column is exactly the
//! numbers every other bench records.  Outputs are asserted bit-for-bit
//! identical across configurations first — overlap changes *when* modeled
//! work happens, never *what* is computed.
//!
//! Real multi-core kernel execution is a wall-clock matter and is measured
//! by the `tree_kernel` workload of `benchmark/`, not here.
//!
//! Writes `bench_results/timeline_overlap.txt`; with `--json` the records
//! additionally land in `bench_results/BENCH_timeline_overlap.json`.
//! `--quick` runs the reduced-dimension suite (the smoke configuration
//! `scripts/check.sh` uses).

use std::fmt::Write as _;

use acrobat_bench::{
    json_flag, print_table, quick_flag, run_acrobat, suite, write_bench_json, JsonRecord,
};
use acrobat_core::{compile, CompileOptions};
use acrobat_models::{ModelSize, ModelSpec};
use acrobat_runtime::TimelineOptions;

/// The ablation sweep: each step enables one more overlap source.
/// Asynchronous launches (`host_overlap`) come first — without them the
/// host blocks on every event (synchronous launch semantics) and neither
/// extra streams nor the copy engine can overlap anything.
const CONFIGS: [(&str, TimelineOptions); 6] = [
    ("serial", TimelineOptions { streams: 1, copy_engine: false, host_overlap: false }),
    ("async", TimelineOptions { streams: 1, copy_engine: false, host_overlap: true }),
    ("async+copy", TimelineOptions { streams: 1, copy_engine: true, host_overlap: true }),
    ("+s2", TimelineOptions { streams: 2, copy_engine: true, host_overlap: true }),
    ("+s4", TimelineOptions { streams: 4, copy_engine: true, host_overlap: true }),
    ("+s8", TimelineOptions { streams: 8, copy_engine: true, host_overlap: true }),
];

fn options_with(timeline: TimelineOptions) -> CompileOptions {
    let mut options = CompileOptions::default();
    options.runtime.device_memory = 256 << 20;
    options.runtime.timeline = timeline;
    options
}

/// Asserts outputs are bit-for-bit identical between the serialized
/// timeline and a heavily-overlapped one (`streams=4`, copy engine, host
/// overlap) — the smoke property `scripts/check.sh` gates on.
fn assert_outputs_invariant(spec: &ModelSpec, batch: usize, seed: u64) {
    let instances = (spec.make_instances)(seed, batch);
    let run = |timeline: TimelineOptions| {
        let model = compile(&spec.source, &options_with(timeline))
            .unwrap_or_else(|e| panic!("{} compiles: {e}", spec.name));
        model.run(&spec.params, &instances).unwrap_or_else(|e| panic!("{}: {e}", spec.name)).outputs
    };
    let serial = run(CONFIGS[0].1);
    let overlapped = run(TimelineOptions { streams: 4, copy_engine: true, host_overlap: true });
    assert_eq!(serial.len(), overlapped.len(), "{}: instance count", spec.name);
    for (i, (a, b)) in serial.iter().zip(&overlapped).enumerate() {
        let (ta, tb) = ((spec.flatten_output)(a), (spec.flatten_output)(b));
        assert_eq!(ta.len(), tb.len(), "{}: instance {i} tensor count", spec.name);
        for (j, (x, y)) in ta.iter().zip(&tb).enumerate() {
            assert_eq!(
                x.data(),
                y.data(),
                "{}: streams=1 vs streams=4 diverged at instance {i} tensor {j}",
                spec.name
            );
        }
    }
}

fn main() {
    let quick = quick_flag();
    let batch = if quick { 8 } else { 64 };
    let seed = 0x71AE;
    let specs = suite(ModelSize::Large, quick);
    let mut records: Vec<JsonRecord> = Vec::new();
    let mut out = String::new();
    writeln!(out, "# timeline_overlap — modeled overlap ablation").unwrap();
    writeln!(out, "#").unwrap();
    writeln!(out, "# Part A: modeled latency (ms) under the timeline sweep; speedup is").unwrap();
    writeln!(out, "# vs the serialized baseline (streams=1, no copy engine, no host").unwrap();
    writeln!(out, "# overlap), which reproduces the legacy accumulation bit-for-bit.").unwrap();
    writeln!(out, "# Outputs are asserted bit-identical across configurations.").unwrap();

    // Part A: modeled ablation sweep.
    let mut rows: Vec<Vec<String>> = Vec::new();
    for spec in &specs {
        assert_outputs_invariant(spec, batch.min(8), seed);
        let mut row = vec![spec.name.to_string()];
        let mut base_ms = None;
        for (config, timeline) in CONFIGS {
            match run_acrobat(spec, &options_with(timeline), batch, seed) {
                Ok(m) => {
                    let base = *base_ms.get_or_insert(m.ms);
                    row.push(format!("{:.2} ({:.2}x)", m.ms, base / m.ms));
                    let label = format!("{}/{config}", spec.name);
                    records.push(JsonRecord::new(&label, "modeled_ms", m.ms));
                    records.push(JsonRecord::new(&label, "speedup_vs_serial", base / m.ms));
                    records.push(JsonRecord::new(
                        &label,
                        "overlap_saved_ms",
                        m.stats.overlap_saved_us / 1e3,
                    ));
                }
                Err(e) if e.contains("out of memory") => row.push("OOM".into()),
                Err(e) => panic!("{} {config}: {e}", spec.name),
            }
        }
        eprintln!("done: {}", spec.name);
        rows.push(row);
    }
    let headers: Vec<&str> =
        std::iter::once("Model").chain(CONFIGS.iter().map(|(n, _)| *n)).collect();
    let title =
        format!("Part A: modeled ms (speedup vs serial) — large suite, batch {batch}, seed {seed}");
    print_table(&title, &headers, &rows);
    writeln!(out, "#\n## {title}").unwrap();
    for row in &rows {
        writeln!(out, "{}", row.join("  ")).unwrap();
    }

    if quick {
        // Smoke mode (scripts/check.sh): the assertions above are the
        // point; don't overwrite the checked-in full-dimension artifacts.
        eprintln!("quick mode: skipping bench_results artifacts");
        return;
    }
    std::fs::create_dir_all("bench_results").expect("bench_results dir");
    std::fs::write("bench_results/timeline_overlap.txt", out)
        .expect("write bench_results/timeline_overlap.txt");
    eprintln!("wrote bench_results/timeline_overlap.txt");
    if json_flag() {
        write_bench_json("timeline_overlap", &records);
    }
}
