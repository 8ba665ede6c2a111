//! The benchmark harness: shared machinery for regenerating every table and
//! figure of the ACROBAT paper's evaluation (§7, §E).
//!
//! Each table/figure has a binary in `src/bin/` (`table4`, `table5`, …,
//! `fig5`, `fig9`); run them with `cargo run --release -p acrobat-bench
//! --bin <name>`.  All binaries accept `--quick` to run at reduced
//! dimensions/batch sizes (for smoke testing; EXPERIMENTS.md records
//! full-dimension outputs).
//!
//! Reported latencies are **modeled milliseconds** from the shared
//! accelerator cost model (see DESIGN.md §1 for the substitution rationale);
//! Table 7 additionally uses measured host-execution time, because the
//! VM-vs-AOT gap is real interpretation overhead.

#![deny(missing_docs)]

pub mod fuzz;

use acrobat_baselines::dynet::{DynetConfig, DynetScheduler, Improvements};
use acrobat_core::{compile, CompileOptions, RuntimeStats};
use acrobat_models::{
    berxit, birnn, drnn, mvrnn, nestedrnn, stackrnn, treelstm, ModelSize, ModelSpec,
};
use acrobat_vm::InputValue;

/// A measured configuration result.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Modeled latency in milliseconds.
    pub ms: f64,
    /// Full statistics.
    pub stats: RuntimeStats,
}

/// Batch sizes of the paper's Table 4/6/8.
pub const BATCH_SIZES: [usize; 2] = [8, 64];

/// Runs ACROBAT on a spec and returns the modeled latency.
///
/// # Errors
///
/// Returns a message on compile or runtime failure (e.g. simulated OOM).
pub fn run_acrobat(
    spec: &ModelSpec,
    options: &CompileOptions,
    batch: usize,
    seed: u64,
) -> Result<Measurement, String> {
    let instances = (spec.make_instances)(seed, batch);
    let mut options = options.clone();
    options.seed = seed;
    let model = compile(&spec.source, &options).map_err(|e| e.to_string())?;
    let r = model.run(&spec.params, &instances).map_err(|e| e.to_string())?;
    Ok(Measurement { ms: r.stats.total_ms(), stats: r.stats })
}

/// Runs the DyNet baseline, taking the better of its two schedulers per
/// configuration (the paper's footnote 7).
///
/// # Errors
///
/// Returns a message on failure; a simulated device OOM is reported as
/// `"OOM"` (rendered as `-` in Table 4, matching the paper's Berxit cells).
pub fn run_dynet(
    spec: &ModelSpec,
    improvements: Improvements,
    device_memory: usize,
    batch: usize,
    seed: u64,
) -> Result<Measurement, String> {
    let run = spec.dynet_run.as_ref().ok_or_else(|| "no DyNet implementation".to_string())?;
    let instances = (spec.make_instances)(seed, batch);
    let mut best: Option<Measurement> = None;
    for scheduler in [DynetScheduler::Agenda, DynetScheduler::Depth] {
        let cfg = DynetConfig { scheduler, improvements, device_memory, ..Default::default() };
        match run(&cfg, &instances, seed) {
            Ok((_, stats)) => {
                let m = Measurement { ms: stats.total_ms(), stats };
                if best.map(|b| m.ms < b.ms).unwrap_or(true) {
                    best = Some(m);
                }
            }
            Err(acrobat_tensor::TensorError::DeviceOom { .. }) => {
                return Err("OOM".into());
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    best.ok_or_else(|| "no scheduler succeeded".to_string())
}

/// Builds the model suite, optionally at reduced scale for smoke runs.
pub fn suite(size: ModelSize, quick: bool) -> Vec<ModelSpec> {
    if !quick {
        return acrobat_models::suite(size);
    }
    // Quick mode: small hidden sizes and loop bounds, same structures.
    let d = 16;
    vec![
        treelstm::spec_with(d, 5),
        mvrnn::spec_with(d, 5),
        birnn::spec_with(d, 3),
        nestedrnn::spec_with(d, nestedrnn::Bounds { inner: (3, 6), outer: (3, 5) }),
        drnn::spec_with(d, 4),
        berxit::spec_with(d, 4 * d, 8, 6),
        stackrnn::spec_with(d),
    ]
}

/// Whether `--quick` was passed on the command line.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// One machine-readable benchmark datum for `bench_results/BENCH_<name>.json`.
#[derive(Debug, Clone)]
pub struct JsonRecord {
    /// Configuration label, e.g. `"TreeLSTM/batch=64"`.
    pub config: String,
    /// Metric name, e.g. `"spec_kexec_ms"`.
    pub metric: String,
    /// Metric value.
    pub value: f64,
}

impl JsonRecord {
    /// Convenience constructor.
    pub fn new(config: impl Into<String>, metric: impl Into<String>, value: f64) -> JsonRecord {
        JsonRecord { config: config.into(), metric: metric.into(), value }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes `bench_results/BENCH_<bench>.json`: a JSON array of
/// `{bench, config, metric, value}` objects, the machine-readable twin of
/// the bench's text table.  The workspace has no JSON dependency, so the document is emitted by
/// hand (non-finite values become `null`).
pub fn write_bench_json(bench: &str, records: &[JsonRecord]) {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let value = if r.value.is_finite() { format!("{}", r.value) } else { "null".into() };
        out.push_str(&format!(
            "  {{\"bench\": \"{}\", \"config\": \"{}\", \"metric\": \"{}\", \"value\": {}}}{}\n",
            json_escape(bench),
            json_escape(&r.config),
            json_escape(&r.metric),
            value,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    std::fs::create_dir_all(&dir).expect("bench_results dir");
    let path = dir.join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote bench_results/BENCH_{bench}.json");
}

/// Renders an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("| ");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:>w$} | ", c, w = widths[i]));
        }
        line
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a millisecond value compactly.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Convenience: shared instances for a spec.
pub fn instances_for(spec: &ModelSpec, seed: u64, batch: usize) -> Vec<Vec<InputValue>> {
    (spec.make_instances)(seed, batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_runs_end_to_end() {
        for spec in suite(ModelSize::Small, true) {
            let m = run_acrobat(&spec, &CompileOptions::default(), 4, 0x1234)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(m.ms > 0.0, "{}", spec.name);
            if spec.dynet_run.is_some() {
                let d = run_dynet(&spec, Improvements::default(), 64 << 20, 4, 0x1234)
                    .unwrap_or_else(|e| panic!("{} dynet: {e}", spec.name));
                assert!(d.ms > 0.0);
            }
        }
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_escape("plain/config=1"), "plain/config=1");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn table_formatting_does_not_panic() {
        print_table(
            "T",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(ms(123.4), "123");
        assert_eq!(ms(12.34), "12.3");
        assert_eq!(ms(1.234), "1.23");
    }
}
