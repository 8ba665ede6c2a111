//! The repo benchmark.  See `benchmark/README.md`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload and
//!   prints one JSON result line last (the form a driver calls);
//! * without `--workload`, runs every workload, each in its own child
//!   process, untraced and then traced, and writes `out/results.json`;
//! * `--compare A.json[,..] B.json[,..] [--same-code]` judges two sets of
//!   results against the bounds (what `aa.sh` ends with);
//! * `--print-benchmark-json` renders `BENCHMARK.json` from the tables.

mod json;
mod layers;
mod metrics;
mod probe;
mod profiles;
mod run;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  acrobat-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
  acrobat-benchmark [--seed <u64>] [--seconds <s>] [--trace-seconds <s>] [--reverse] [--out <file>]
  acrobat-benchmark --compare <a.json[,a2.json..]> <b.json[,..]> [--same-code]
  acrobat-benchmark --print-benchmark-json";

/// The benchmark's own directory: where `cargo run` says the manifest is,
/// else where it was when this binary was built.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: be one measuring process of an untraced run.
    rep: bool,
    trace_seconds: f64,
    reverse: bool,
    out: PathBuf,
    compare: Option<(String, String)>,
    same_code: bool,
    print_benchmark_json: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        rep: false,
        trace_seconds: suite::TRACE_SECONDS,
        reverse: false,
        out: benchmark_dir().join("out").join("results.json"),
        compare: None,
        same_code: false,
        print_benchmark_json: false,
    };
    let mut it = args.iter();
    // Unknown flags are errors: a typo must not silently run something else.
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let seconds = |v: &String| {
            v.parse::<f64>().ok().filter(|s| *s >= 0.0).ok_or(format!("{flag}: bad seconds `{v}`"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|_| format!("{flag}: not a u64"))?,
            "--seconds" => cli.seconds = seconds(value()?)?,
            "--trace-seconds" => cli.trace_seconds = seconds(value()?)?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--rep" => cli.rep = true,
            "--reverse" => cli.reverse = true,
            "--out" => cli.out = PathBuf::from(value()?),
            "--compare" => cli.compare = Some((value()?.clone(), value()?.clone())),
            "--same-code" => cli.same_code = true,
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let process_start = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let passed = if cli.print_benchmark_json {
        print!("{}", metrics::benchmark_json().pretty());
        Ok(true)
    } else if let Some((a, b)) = &cli.compare {
        suite::compare(a, b, cli.same_code)
    } else if let Some(name) = &cli.workload {
        run_one(&cli, name, process_start)
    } else {
        suite::run_all(&suite::SuiteArgs {
            seed: cli.seed,
            seconds: cli.seconds,
            trace_seconds: cli.trace_seconds,
            reverse: cli.reverse,
            out: cli.out.clone(),
        })
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn run_one(cli: &Cli, name: &str, process_start: std::time::Instant) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    if cli.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let args = run::RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out_dir: cli.out.parent().map_or_else(|| PathBuf::from("."), PathBuf::from),
    };
    if cli.rep {
        return run::run_rep(&args, process_start).map(|()| true);
    }
    let outcome = run::run(&args)?;
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}
