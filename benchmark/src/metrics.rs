//! Metric definitions (names, units, bounds), percentile selection and the
//! bound comparison `aa.sh` uses.  This table is the single source of the
//! benchmark's contract: `--print-benchmark-json` renders `BENCHMARK.json`
//! from it and a unit test checks the committed file still matches.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one run measures — a constant of the benchmark, the same on
/// every commit that is compared.  As long as the driver's time cap allows
/// with a margin when the machine runs 1.5× slow (README, "Bounds").
pub const RUN_SECONDS: u64 = 18;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a caller of `Model::run` sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which a run may be worse before it
    /// counts as a regression.
    pub bound: f64,
    /// Absolute floor under the bound, in the metric's unit ("10 % or
    /// 50 ms"): a difference below it is never a regression.
    pub floor: f64,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in report order.  `failed_share` is last: it is
/// legitimately 0 on every run, so the driver-facing result line carries it
/// as `failed`/`attempted` instead of as a metric (see `in_contract`).
///
/// Each bound is about three times the widest quartile spread seen over
/// ten differently seeded runs of any workload on the 2-vCPU box this was
/// written on (see README, "Bounds"); the wall-clock metrics sit at the
/// 0.25 cap because that box runs up to 1.75× slower for minutes at a time
/// and the machine-speed probe takes out most of that, not all.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Lower, bound: 0.25, floor: 0.0 },
    EndToEnd { name: "latency_p90_ms", unit: "ms", better: Lower, bound: 0.25, floor: 0.0 },
    EndToEnd {
        name: "throughput_inst_per_s",
        unit: "inst/s",
        better: Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd { name: "modeled_us_per_inst", unit: "us", better: Lower, bound: 0.05, floor: 0.0 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.10, floor: 0.0 },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, floor: 0.05 },
    EndToEnd { name: "failed_share", unit: "ratio", better: Lower, bound: 0.0, floor: 0.0 },
];

impl EndToEnd {
    /// Whether the metric appears in `BENCHMARK.json` and the result line.
    pub fn in_contract(&self) -> bool {
        self.name != "failed_share"
    }
}

/// One per-layer metric: `(name, unit, better)`; the name's prefix is the
/// crate the number belongs to.
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer ledger, in report order.
pub const PER_LAYER: &[PerLayer] = &[
    ("ir.parse_us", "us", Lower),
    ("ir.typeck_us", "us", Lower),
    ("ir.source_bytes", "bytes", Lower),
    ("ir.functions", "count", Lower),
    ("analysis.analyze_us", "us", Lower),
    ("analysis.hoisted_sites", "count", Higher),
    ("analysis.ghost_sites", "count", Higher),
    ("analysis.phase_boundaries", "count", Higher),
    ("analysis.blocks", "count", Lower),
    ("codegen.library_build_us", "us", Lower),
    ("codegen.autoschedule_us", "us", Lower),
    ("codegen.kernels", "count", Lower),
    ("codegen.kexec_ms_p50", "ms", Lower),
    ("codegen.kexec_share", "ratio", Lower),
    ("codegen.kexec_gflops", "GFLOP/s", Higher),
    ("codegen.backend_hit_rate", "ratio", Higher),
    ("codegen.backend_compiles_timed", "count", Lower),
    ("codegen.backend_interp_falls_per_req", "count", Lower),
    ("tensor.flops_per_req", "count", Lower),
    ("tensor.gather_bytes_per_req", "bytes", Lower),
    ("tensor.gather_copies_per_req", "count", Lower),
    ("tensor.contiguous_hits_per_req", "count", Higher),
    ("tensor.memcpy_bytes_per_req", "bytes", Lower),
    ("tensor.memcpy_ops_per_req", "count", Lower),
    ("tensor.device_peak_mb", "MB", Lower),
    ("tensor.matmul_gflops", "GFLOP/s", Higher),
    ("runtime.flush_ms_p50", "ms", Lower),
    ("runtime.flush_share", "ratio", Lower),
    ("runtime.flush_nonexec_ms_p50", "ms", Lower),
    ("runtime.nodes_per_req", "count", Lower),
    ("runtime.flushes_per_req", "count", Lower),
    ("runtime.launches_per_req", "count", Lower),
    ("runtime.nodes_per_launch", "ratio", Higher),
    ("runtime.plan_cache_hit_rate", "ratio", Higher),
    ("runtime.plan_cache_evictions", "count", Lower),
    ("runtime.fiber_switches_per_req", "count", Lower),
    ("runtime.aborted_flushes", "count", Lower),
    ("runtime.retries", "count", Lower),
    ("runtime.modeled_dfg_us", "us", Lower),
    ("runtime.modeled_sched_us", "us", Lower),
    ("runtime.modeled_kernel_us", "us", Lower),
    ("runtime.modeled_memcpy_us", "us", Lower),
    ("runtime.modeled_api_us", "us", Lower),
    ("runtime.modeled_fiber_us", "us", Lower),
    ("runtime.dfg_add_node_ns", "ns", Lower),
    ("runtime.schedule_us_per_knode", "us", Lower),
    ("runtime.plan_thaw_us_per_knode", "us", Lower),
    ("vm.program_ms_p50", "ms", Lower),
    ("vm.program_share", "ratio", Lower),
    ("vm.program_us_per_node", "us", Lower),
    ("vm.io_other_ms_p50", "ms", Lower),
    ("vm.io_other_share", "ratio", Lower),
    ("vm.empty_run_us", "us", Lower),
    ("vm.single_instance_ms", "ms", Lower),
    ("vm.executable_new_us", "us", Lower),
    ("vm.broker_dispatches", "count", Lower),
    ("vm.broker_merged_share", "ratio", Higher),
    ("vm.broker_mean_cohort", "ratio", Higher),
    ("vm.outcomes_failed", "count", Lower),
    ("vm.quarantined", "count", Lower),
    ("core.compile_ms", "ms", Lower),
    ("core.first_request_ms", "ms", Lower),
    ("core.requests", "count", Higher),
    ("core.latency_mean_ms", "ms", Lower),
    ("core.latency_tail_ms", "ms", Lower),
    ("core.latency_tail_pct", "%", Higher),
    ("core.trace_overhead_pct", "%", Lower),
    ("models.datagen_s", "s", Lower),
    ("models.pool_size", "count", Higher),
    ("models.instances_per_req", "count", Higher),
    ("baselines.reference_s", "s", Lower),
    ("baselines.reference_checked", "count", Higher),
    ("baselines.max_abs_diff", "abs", Lower),
    ("baselines.speedup_vs_dynet_modeled", "ratio", Higher),
    ("bench.generator_lag_us_p50", "us", Lower),
    ("bench.nproc", "count", Higher),
    ("bench.machine_slowdown", "ratio", Lower),
];

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Sorts samples ascending (NaN-free inputs).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank index of the `pct`-th percentile in `n` sorted samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9990, not 9991.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of ascending `sorted` samples; 0 when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct)]
}

/// Median of unsorted samples (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Per pool entry, the lower quartile of the latencies of its visits: what
/// the entry costs when nothing disturbs the call.  A pool entry is the same
/// work on every visit, so what its visits differ by is the machine, and
/// that only ever adds.  Entries never visited are left out; ascending.
pub fn entry_quartiles(visits: &[Vec<f64>]) -> Vec<f64> {
    sorted(
        visits
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| percentile(&sorted(v.clone()), 25.0))
            .collect(),
    )
}

/// The highest of p90/p95/p99/p99.9 that still has at least ten samples
/// beyond it, as `(pct, value)`; falls back to the median (`pct` 50) when
/// even p90 has fewer.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    for pct in [99.9, 99.0, 95.0, 90.0] {
        if n > 0 && n - 1 - rank(n, pct) >= 10 {
            return (pct, sorted[rank(n, pct)]);
        }
    }
    (50.0, percentile(sorted, 50.0))
}

/// Outcome of comparing two sets of runs on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The runs of one side (or two sets of the same code) differ by more
    /// than the bound, so the comparison resolves nothing.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares the runs of baseline `a` against `b` for metric `m`.
/// `same_code` says both sides ran the same tree (an A/A check), where a
/// gain beyond the bound is noise rather than an improvement.
pub fn verdict(m: &EndToEnd, a: &[f64], b: &[f64], same_code: bool) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let allowed = (m.bound * med_a.abs()).max(m.floor);
    let range = |xs: &[f64]| {
        let s = sorted(xs.to_vec());
        s.last().copied().unwrap_or(0.0) - s.first().copied().unwrap_or(0.0)
    };
    let worse_by = match m.better {
        Lower => med_b - med_a,
        Higher => med_a - med_b,
    };
    if range(a).max(range(b)) > allowed {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regressed
    } else if same_code && -worse_by > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> Json {
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.0));
    let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.1));
    assert!(
        names.into_iter().all(valid_name) && units.into_iter().all(valid_unit),
        "illegal metric name or unit"
    );
    let s = |v: &str| Json::Str(v.to_string());
    let command = "cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --";
    Json::Obj(vec![
        ("command".into(), Json::Arr(command.split(' ').map(s).collect())),
        ("paths".into(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.in_contract())
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Json::Obj(vec![
                            ("name".into(), s(name)),
                            ("unit".into(), s(unit)),
                            ("better".into(), s(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e2e(name: &str) -> EndToEnd {
        *END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn entry_quartiles_take_each_entry_at_its_quiet_visits() {
        let visits = vec![
            vec![9.0, 3.0, 4.0, 50.0, 3.5, 3.2, 7.0, 3.1],
            vec![],
            vec![2.0],
            vec![6.0, 5.0, 5.5, 80.0],
        ];
        // Nearest rank: the 2nd of 8, the only one, the 1st of 4.
        assert_eq!(entry_quartiles(&visits), [2.0, 3.1, 5.0]);
        assert!(entry_quartiles(&[]).is_empty());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: p90 sits at rank 90, nine beyond it — not enough.
        assert_eq!(tail(&ramp(99)), (50.0, 50.0));
        // 100 samples: exactly ten beyond p90.
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        assert_eq!(tail(&ramp(199)), (90.0, 180.0));
        assert_eq!(tail(&ramp(200)), (95.0, 190.0));
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        assert_eq!(tail(&ramp(10_000)), (99.9, 9990.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn verdict_applies_bound_direction_and_floor() {
        let lower = EndToEnd { name: "t_ms", unit: "ms", better: Lower, bound: 0.05, floor: 0.0 };
        assert_eq!(verdict(&lower, &[10.0], &[10.4], false), Verdict::Ok);
        assert_eq!(verdict(&lower, &[10.0], &[10.6], false), Verdict::Regressed);
        assert_eq!(verdict(&lower, &[10.0], &[9.0], false), Verdict::Ok);
        // The same code "improving" beyond the bound is noise.
        assert_eq!(verdict(&lower, &[10.0], &[9.0], true), Verdict::Unresolved);
        // Runs of one side further apart than the bound resolve nothing.
        assert_eq!(verdict(&lower, &[10.0, 11.0], &[10.5, 10.5], false), Verdict::Unresolved);
        // Medians, not means, are compared.
        assert_eq!(verdict(&lower, &[10.0, 10.1, 10.2], &[10.1, 10.2, 10.6], false), Verdict::Ok);

        let higher = EndToEnd { better: Higher, ..lower };
        assert_eq!(verdict(&higher, &[1000.0], &[940.0], false), Verdict::Regressed);
        assert_eq!(verdict(&higher, &[1000.0], &[1100.0], false), Verdict::Ok);

        // "10 % or 50 ms": 10 % of 0.1 s is 10 ms, but the floor allows 50.
        let floored = EndToEnd { bound: 0.10, floor: 0.05, ..lower };
        assert_eq!(verdict(&floored, &[0.100], &[0.145], false), Verdict::Ok);
        assert_eq!(verdict(&floored, &[0.100], &[0.155], false), Verdict::Regressed);
        assert_eq!(verdict(&floored, &[2.0], &[2.15], false), Verdict::Ok);
        assert_eq!(verdict(&floored, &[2.0], &[2.25], false), Verdict::Regressed);

        // failed_share has no slack at all.
        let failed = e2e("failed_share");
        assert_eq!(verdict(&failed, &[0.0], &[0.0], true), Verdict::Ok);
        assert_eq!(verdict(&failed, &[0.0], &[0.001], true), Verdict::Regressed);
    }

    #[test]
    fn every_name_and_unit_is_in_the_charset() {
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit, _) in PER_LAYER {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(
                valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        assert!(
            valid_name("a.b_c-9") && !valid_name(".x") && !valid_name("a b") && !valid_name("")
        );
        assert!(!valid_name(&"x".repeat(65)) && !valid_name("µs"));
        assert!(valid_unit("inst/s") && valid_unit("%") && !valid_unit("µs") && !valid_unit(""));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = e2e("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&committed).expect("valid JSON"), benchmark_json());
    }
}
