//! The one command: every workload, each in its own child process (so
//! `peak_rss_mb` is per workload), untraced then traced; and the comparison
//! of two sets of results that `aa.sh` ends with.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{self, Verdict, END_TO_END};
use crate::run::{spawn_self, write_file};
use crate::workloads::WORKLOADS;

/// Length of the traced pass when the suite runs it after the timed pass.
pub const TRACE_SECONDS: f64 = 5.0;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    /// 0 skips the traced passes (what `aa.sh` does).
    pub trace_seconds: f64,
    pub reverse: bool,
    pub out: PathBuf,
}

/// Runs one workload in a child process, echoes its readable rows and
/// returns its result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<Json, String> {
    let (seed, seconds, out) = (seed.to_string(), seconds.to_string(), out.to_string_lossy());
    let trace = if trace { "1" } else { "0" };
    let (rows, result) = spawn_self(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
        "--out",
        &out,
    ])?;
    for row in rows.lines() {
        println!("  {row}");
    }
    Ok(result)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(crate::benchmark_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// `{name: value}` from a result line's `{name: {value, unit}}`.
fn values(result: &Json) -> Vec<(String, Json)> {
    let metrics = result.get("metrics").map(Json::fields).unwrap_or_default();
    metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.get("value").cloned().unwrap_or(Json::Null)))
        .collect()
}

pub fn run_all(args: &SuiteArgs) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let commit = git_commit();
    println!("acrobat benchmark: seed {} | {nproc} CPU(s) | commit {commit} | {} s timed + {} s traced per workload", args.seed, args.seconds, args.trace_seconds);
    let mut order: Vec<_> = WORKLOADS.iter().collect();
    if args.reverse {
        order.reverse();
    }
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in order {
        println!(
            "\n== {} ({} profile, batch {} x {} client(s), pool {}) ==",
            w.name,
            w.profile.name(),
            w.batch,
            w.clients,
            w.pool
        );
        let timed = run_child(w.name, args.seed, args.seconds, false, &args.out)?;
        let num = |key: &str| timed.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let mut correct = timed.get("correct") == Some(&Json::Bool(true));
        let mut end_to_end = values(&timed);
        end_to_end
            .push(("failed_share".into(), Json::Num(num("failed") / num("attempted").max(1.0))));
        let mut entry = vec![
            ("samples".to_string(), Json::Num(num("attempted"))),
            ("failed".to_string(), Json::Num(num("failed"))),
            ("end_to_end".to_string(), Json::Obj(end_to_end)),
        ];
        if args.trace_seconds > 0.0 {
            let traced = run_child(w.name, args.seed, args.trace_seconds, true, &args.out)?;
            correct &= traced.get("correct") == Some(&Json::Bool(true));
            entry.push(("per_layer".to_string(), Json::Obj(values(&traced))));
        }
        entry.insert(0, ("correct".to_string(), Json::Bool(correct)));
        println!(
            "  -> {}",
            if correct { "outputs verified" } else { "FAILED: wrong or missing outputs" }
        );
        all_correct &= correct;
        workloads.push((w.name.to_string(), Json::Obj(entry)));
    }
    let env = Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("git_commit".into(), Json::Str(commit)),
        ("run_seconds".into(), Json::Num(args.seconds)),
        ("trace_seconds".into(), Json::Num(args.trace_seconds)),
    ]);
    let doc = Json::Obj(vec![("env".into(), env), ("workloads".into(), Json::Obj(workloads))]);
    write_file(&args.out, &doc.pretty())?;
    println!("\nresults written to {}", args.out.display());
    Ok(all_correct)
}

/// Per workload × end-to-end metric, the values found in a comma-separated
/// list of results files.
fn load(files: &str) -> Result<Vec<Json>, String> {
    files
        .split(',')
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("read {f}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{f}: {e}"))
        })
        .collect()
}

fn metric_values(docs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?.as_f64())
        .collect()
}

/// Judges results `b` against baseline `a`; true when every workload ×
/// metric is `ok`.
pub fn compare(a: &str, b: &str, same_code: bool) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    let mut all_ok = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (metric_values(&a, w.name, m.name), metric_values(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} / {}: missing from a results file", w.name, m.name));
            }
            let verdict = metrics::verdict(m, &va, &vb, same_code);
            let (ma, mb) = (metrics::median(&va), metrics::median(&vb));
            let change = if ma != 0.0 { (mb - ma) / ma * 100.0 } else { 0.0 };
            println!(
                "{:<14} {:<24} {ma:>14.4} {mb:>14.4} {change:>+8.2}% {:>6.1}%  {}",
                w.name,
                m.name,
                m.bound * 100.0,
                verdict.as_str()
            );
            all_ok &= verdict == Verdict::Ok;
        }
    }
    println!("{}", if all_ok { "all ok" } else { "NOT all ok" });
    Ok(all_ok)
}
