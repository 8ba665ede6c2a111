//! `serving_throughput`: aggregate throughput scaling with worker threads.
//!
//! One compiled model serves `R` mini-batch requests from `W` worker
//! threads (`W` ∈ {1, 2, 4, 8}), exercising the Engine / ExecutionContext
//! split for real: the engine is `Arc`-shared, each request runs in its own
//! pooled context, and no shared lock is taken on the flush hot path.
//! Every configuration is served twice — plan cache off (the paper
//! configuration, rescheduling every flush) and plan cache on (structural
//! window signatures resolve repeated shapes to a frozen plan + remap) —
//! so the memoization win shows up directly in the p50 modeled latency.
//!
//! Throughput is computed in **modeled virtual time**, consistent with the
//! repo-wide convention that reported latencies are modeled milliseconds
//! (DESIGN.md §1): host-side work — DFG construction, scheduling, fiber
//! switches, CUDA-API calls — parallelizes across the `W` workers, while
//! device-side work — kernels and memcpy — serializes on the single
//! simulated accelerator.  The makespan of a configuration is therefore
//!
//! ```text
//! makespan = max(Σ device time over all requests,
//!                max over workers of Σ host time of that worker's requests)
//! ```
//!
//! Host overheads dominate these workloads (the paper's Table 5), so
//! throughput scales with `W` until the simulated device saturates.
//! Wall-clock time is also recorded for reference only: the wall-clock
//! story of this profile is `benchmark/` (`birnn_serve2`, `benchmark/README.md`).
//!
//! A full run writes `bench_results/serving_throughput.txt`; with `--json`
//! the same rows additionally land in
//! `bench_results/BENCH_serving_throughput.json`.  `--quick` (the
//! `scripts/check.sh` smoke) prints the table, checks the scaling gate and
//! leaves the recorded artifacts alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use acrobat_bench::{json_flag, quick_flag, suite, write_bench_json, JsonRecord};
use acrobat_core::{compile, CompileOptions, Model, RuntimeStats, Tensor};
use acrobat_models::{ModelSize, ModelSpec};
use acrobat_vm::InputValue;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Modeled host-side microseconds of one request (parallel across workers).
fn host_us(s: &RuntimeStats) -> f64 {
    s.dfg_construction_us + s.scheduling_us + s.fiber_us + s.cuda_api_us
}

/// Modeled device-side microseconds of one request (serialized on the one
/// simulated accelerator).
fn device_us(s: &RuntimeStats) -> f64 {
    s.kernel_time_us + s.memcpy_us
}

/// Continuous-batching counters for one broker-on configuration: queue
/// dispatch totals plus the flush-level sharing classification.
struct BrokerCounters {
    dispatches: u64,
    merged_requests: u64,
    shared_flushes: u64,
    solo_flushes: u64,
    cohort_sizes: BTreeMap<usize, u64>,
}

struct Row {
    mode: &'static str,
    workers: usize,
    requests: usize,
    makespan_ms: f64,
    throughput: f64,
    p50_ms: f64,
    hit_rate: f64,
    wall_ms: f64,
    broker: Option<BrokerCounters>,
}

fn serve(
    model: &Model,
    params: &BTreeMap<String, Tensor>,
    instances: &[Vec<InputValue>],
    workers: usize,
    requests: usize,
    mode: &'static str,
) -> Row {
    let per_worker = requests / workers;
    let start = std::time::Instant::now();
    let worker_stats: Vec<Vec<RuntimeStats>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    (0..per_worker)
                        .map(|_| model.run(params, instances).expect("serving run").stats)
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let total_device: f64 = worker_stats.iter().flatten().map(device_us).sum();
    let busiest_host: f64 =
        worker_stats.iter().map(|runs| runs.iter().map(host_us).sum::<f64>()).fold(0.0, f64::max);
    let makespan_us = total_device.max(busiest_host);

    // Per-request modeled latency (host + device of that request alone);
    // the plan cache shows up here as reduced scheduling_us on hits.
    let mut latencies: Vec<f64> =
        worker_stats.iter().flatten().map(|s| host_us(s) + device_us(s)).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let p50_ms = latencies[latencies.len() / 2] / 1e3;

    let hits: u64 = worker_stats.iter().flatten().map(|s| s.plan_cache_hits).sum();
    let misses: u64 = worker_stats.iter().flatten().map(|s| s.plan_cache_misses).sum();
    let hit_rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };

    // Broker rows serve a per-configuration model, so the cumulative
    // queue/flush counters are exactly this configuration's traffic.
    let broker = model.broker_stats().map(|b| {
        let agg = model.stats();
        BrokerCounters {
            dispatches: b.dispatches,
            merged_requests: b.merged_requests,
            shared_flushes: agg.shared_flushes,
            solo_flushes: agg.solo_flushes,
            cohort_sizes: b.cohort_sizes,
        }
    });

    Row {
        mode,
        workers,
        requests,
        makespan_ms: makespan_us / 1e3,
        throughput: requests as f64 / (makespan_us / 1e6),
        p50_ms,
        hit_rate,
        wall_ms,
        broker,
    }
}

fn main() {
    let quick = quick_flag();
    let requests = if quick { 16 } else { 64 };
    let batch = 8;
    // TreeLSTM: recursive, instance-parallel, host-overhead-bound — the
    // representative serving workload.
    let spec: ModelSpec = suite(ModelSize::Small, true).remove(0);
    let model = compile(&spec.source, &CompileOptions::default()).expect("model compiles");
    let model_cached = compile(&spec.source, &CompileOptions::default().with_plan_cache(true))
        .expect("cached model compiles");
    let instances = (spec.make_instances)(0x5E57E, batch);

    // Cache-off rows first (the paper configuration), then cache-on.  The
    // cache-on model is shared across worker counts, so its engine-level
    // cache warms on the first configuration's first flushes and stays warm
    // — exactly what a long-lived serving process sees.
    let mut rows: Vec<Row> = WORKER_COUNTS
        .iter()
        .map(|&w| serve(&model, &spec.params, &instances, w, requests, "off"))
        .collect();
    rows.extend(
        WORKER_COUNTS
            .iter()
            .map(|&w| serve(&model_cached, &spec.params, &instances, w, requests, "cache")),
    );
    // Broker rows: concurrent requests queue at the BatchBroker and merge
    // into shared flush plans.  Each worker count gets a fresh model so the
    // dispatch counters and shared/solo flush split are per-configuration.
    rows.extend(WORKER_COUNTS.iter().map(|&w| {
        let broker_model = compile(&spec.source, &CompileOptions::default().with_broker(true))
            .expect("broker model compiles");
        serve(&broker_model, &spec.params, &instances, w, requests, "broker")
    }));

    let base = rows[0].throughput;
    let mut out = String::new();
    writeln!(out, "# serving_throughput — aggregate throughput vs worker threads").unwrap();
    writeln!(out, "#").unwrap();
    writeln!(
        out,
        "# Model: {} (quick dims), batch {batch} per request, {requests} requests per config.",
        spec.name
    )
    .unwrap();
    writeln!(out, "# One shared compiled model; each request acquires its own pooled").unwrap();
    writeln!(out, "# ExecutionContext (zero shared-lock acquisitions on the flush path).").unwrap();
    writeln!(out, "# mode=cache rows serve from a second compiled model with flush-plan").unwrap();
    writeln!(out, "# memoization enabled: repeated window shapes hit the shared PlanCache")
        .unwrap();
    writeln!(out, "# and skip scheduling (p50_ms is per-request modeled latency).").unwrap();
    writeln!(out, "# mode=broker rows route concurrent requests through the BatchBroker:").unwrap();
    writeln!(out, "# co-queued requests merge into shared flush plans (cross-request").unwrap();
    writeln!(out, "# continuous batching); dispatch counters follow the table.").unwrap();
    writeln!(out, "#").unwrap();
    writeln!(out, "# Throughput is modeled virtual time (repo convention, DESIGN.md §1):").unwrap();
    writeln!(out, "#   host work (DFG construction, scheduling, fibers, CUDA API calls)").unwrap();
    writeln!(out, "#   runs in parallel across workers; device work (kernels, memcpy)").unwrap();
    writeln!(out, "#   serializes on the single simulated accelerator.").unwrap();
    writeln!(out, "#   makespan = max(total device time, busiest worker's host time)").unwrap();
    writeln!(out, "# wall_ms is real wall-clock on the bench host, recorded for reference")
        .unwrap();
    writeln!(out, "# only — wall-clock is measured by benchmark/ (benchmark/README.md).").unwrap();
    writeln!(out, "#").unwrap();
    writeln!(
        out,
        "{:>6}  {:>7}  {:>8}  {:>12}  {:>12}  {:>12}  {:>8}  {:>8}  {:>9}",
        "mode",
        "workers",
        "requests",
        "makespan_ms",
        "req_per_s",
        "speedup_vs_1",
        "p50_ms",
        "hit_rate",
        "wall_ms"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:>6}  {:>7}  {:>8}  {:>12.3}  {:>12.1}  {:>12.2}  {:>8.3}  {:>8.2}  {:>9.1}",
            r.mode,
            r.workers,
            r.requests,
            r.makespan_ms,
            r.throughput,
            r.throughput / base,
            r.p50_ms,
            r.hit_rate,
            r.wall_ms
        )
        .unwrap();
    }
    print!("{out}");

    let four =
        rows.iter().find(|r| r.workers == 4 && r.mode == "off").expect("4-worker cache-off row");
    let scaling = four.throughput / base;
    println!("\n4-worker speedup on the simulated device: {scaling:.2}x");
    assert!(
        scaling > 2.0,
        "serving must scale >2x at 4 workers on the simulated device, got {scaling:.2}x"
    );

    let off_p50 = rows.iter().find(|r| r.workers == 1 && r.mode == "off").unwrap().p50_ms;
    let on = rows.iter().find(|r| r.workers == 1 && r.mode == "cache").unwrap();
    println!(
        "plan cache @1 worker: p50 {off_p50:.3} ms -> {:.3} ms, steady hit rate {:.0}%",
        on.p50_ms,
        on.hit_rate * 100.0
    );
    assert!(
        on.p50_ms <= off_p50,
        "plan cache must not regress p50 modeled latency ({:.3} ms vs {off_p50:.3} ms)",
        on.p50_ms
    );

    writeln!(out, "#").unwrap();
    writeln!(out, "# broker counters (per configuration):").unwrap();
    writeln!(
        out,
        "# {:>7}  {:>10}  {:>14}  {:>14}  {:>12}  histogram",
        "workers", "dispatches", "merged_reqs", "shared_flushes", "solo_flushes"
    )
    .unwrap();
    for r in rows.iter().filter(|r| r.broker.is_some()) {
        let b = r.broker.as_ref().unwrap();
        let histogram: Vec<String> =
            b.cohort_sizes.iter().map(|(size, n)| format!("{size}x{n}")).collect();
        writeln!(
            out,
            "# {:>7}  {:>10}  {:>14}  {:>14}  {:>12}  {}",
            r.workers,
            b.dispatches,
            b.merged_requests,
            b.shared_flushes,
            b.solo_flushes,
            histogram.join(" ")
        )
        .unwrap();
    }

    if quick {
        return;
    }
    std::fs::create_dir_all("bench_results").expect("bench_results dir");
    std::fs::write("bench_results/serving_throughput.txt", out)
        .expect("write bench_results/serving_throughput.txt");
    eprintln!("wrote bench_results/serving_throughput.txt");

    if json_flag() {
        let mut records = Vec::new();
        for r in &rows {
            let config = match r.mode {
                "off" => format!("cache=off/workers={}", r.workers),
                "cache" => format!("cache=on/workers={}", r.workers),
                _ => format!("broker=on/workers={}", r.workers),
            };
            records.push(JsonRecord::new(&config, "makespan_ms", r.makespan_ms));
            records.push(JsonRecord::new(&config, "req_per_s", r.throughput));
            records.push(JsonRecord::new(&config, "speedup_vs_1", r.throughput / base));
            records.push(JsonRecord::new(&config, "p50_ms", r.p50_ms));
            records.push(JsonRecord::new(&config, "plan_cache_hit_rate", r.hit_rate));
            records.push(JsonRecord::new(&config, "wall_ms", r.wall_ms));
            if let Some(b) = &r.broker {
                records.push(JsonRecord::new(&config, "dispatches", b.dispatches as f64));
                records.push(JsonRecord::new(&config, "merged_requests", b.merged_requests as f64));
                records.push(JsonRecord::new(&config, "shared_flushes", b.shared_flushes as f64));
                records.push(JsonRecord::new(&config, "solo_flushes", b.solo_flushes as f64));
                for (size, n) in &b.cohort_sizes {
                    records.push(JsonRecord::new(
                        &config,
                        format!("cohort_size_{size}"),
                        *n as f64,
                    ));
                }
            }
        }
        write_bench_json("serving_throughput", &records);
    }
}
