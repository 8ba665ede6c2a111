//! One run of one workload: set-up, the timed closed loop, the correctness
//! gate, and — in a traced run — the per-layer ledger and the trace file.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use acrobat_baselines::dynet::DynetConfig;
use acrobat_core::{compile, CompileError, Model, OutputValue, RunResult, RuntimeStats};
use acrobat_models::ModelSpec;
use acrobat_vm::{InputValue, RunOptions};

use crate::json::Json;
use crate::layers::{self, Staged, STAGES};
use crate::metrics::{entry_quartiles, median, percentile, sorted, tail, END_TO_END, PER_LAYER};
use crate::probe::Rounds;
use crate::profiles::Profile;
use crate::trace::{Span, Trace};
use crate::workloads::Workload;

/// Measuring processes per untraced run.
const REPS: usize = 5;
/// Repetitions behind the "median of 50" compile-side metrics.
const COMPILE_REPS: usize = 50;

pub type MiniBatch = Vec<Vec<InputValue>>;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes `trace_<workload>.json`.
    pub out_dir: std::path::PathBuf,
}

/// What one run reports: the driver's result line plus readable rows.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// The pool of distinct seeded mini-batches a workload cycles through.
pub struct Pool {
    pub batches: Vec<MiniBatch>,
    /// Per mini-batch, the pseudo-random-stream key of each instance
    /// (workloads with `keyed_streams` only).
    pub keys: Option<Vec<Vec<u64>>>,
}

pub fn make_pool(spec: &ModelSpec, w: &Workload, seed: u64) -> Pool {
    let batches =
        (0..w.pool).map(|i| (spec.make_instances)(seed.wrapping_add(i as u64), w.batch)).collect();
    let keys = w.keyed_streams.then(|| {
        (0..w.pool).map(|i| (0..w.batch).map(|j| (i * w.batch + j) as u64).collect()).collect()
    });
    Pool { batches, keys }
}

impl Pool {
    /// Submits mini-batch `index` and blocks for the response.
    fn submit(
        &self,
        model: &Model,
        spec: &ModelSpec,
        index: usize,
    ) -> Result<RunResult, CompileError> {
        match &self.keys {
            Some(keys) => model.run_keyed(&spec.params, &self.batches[index], &keys[index]),
            None => model.run(&spec.params, &self.batches[index]),
        }
    }
}

/// Bit-level digest of one response (FNV-1a over structure and payload).
pub fn digest(outputs: &[OutputValue]) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn walk(h: &mut u64, v: &OutputValue) {
        match v {
            OutputValue::Tensor(t) => {
                eat(h, b"T");
                for &d in t.shape().dims() {
                    eat(h, &(d as u64).to_le_bytes());
                }
                for x in t.data() {
                    eat(h, &x.to_bits().to_le_bytes());
                }
            }
            OutputValue::Int(x) => {
                eat(h, b"I");
                eat(h, &x.to_le_bytes());
            }
            OutputValue::Float(x) => {
                eat(h, b"F");
                eat(h, &x.to_bits().to_le_bytes());
            }
            OutputValue::Bool(x) => eat(h, &[b'B', u8::from(*x)]),
            OutputValue::Tuple(parts) => {
                eat(h, b"(");
                eat(h, &(parts.len() as u64).to_le_bytes());
                parts.iter().for_each(|p| walk(h, p));
            }
            OutputValue::Adt { ctor, fields } => {
                eat(h, b"A");
                eat(h, ctor.as_bytes());
                eat(h, b"\0");
                eat(h, &(fields.len() as u64).to_le_bytes());
                fields.iter().for_each(|f| walk(h, f));
            }
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    for o in outputs {
        walk(&mut h, o);
        eat(&mut h, b";");
    }
    h
}

/// A compiled, warmed-up model with its input pool.
struct Ready {
    spec: ModelSpec,
    model: Model,
    pool: Pool,
    datagen_s: f64,
    first_request_ms: f64,
    /// Process start → first timed request, at the speed of a quiet machine
    /// and without the probe rounds that measured that speed.
    setup_s: f64,
}

/// What happens between process start and the first timed request: spec
/// and parameter build, `compile()`, pool generation, warm-up requests.
fn set_up(w: &Workload, seed: u64, process_start: Instant) -> Result<Ready, String> {
    let mut rounds = Rounds::new(process_start);
    let spec = (w.model)();
    let model =
        compile(&spec.source, &w.profile.options(seed)).map_err(|e| format!("compile: {e}"))?;
    let t_data = Instant::now();
    let pool = make_pool(&spec, w, seed);
    let datagen_s = t_data.elapsed().as_secs_f64();
    // The stretches of set-up, a probe round between them when one is due.
    let mut stretches = vec![(process_start, Instant::now())];
    rounds.tick();
    for i in 0..w.warmup {
        let t = Instant::now();
        pool.submit(&model, &spec, i % w.pool).map_err(|e| format!("warm-up request {i}: {e}"))?;
        stretches.push((t, Instant::now()));
        rounds.tick();
    }
    let first_request_ms = stretches.get(1).map_or(0.0, |(a, b)| (*b - *a).as_secs_f64() * 1e3);
    let setup_s =
        stretches.iter().map(|&(a, b)| (b - a).as_secs_f64() / rounds.slowdown_over(a, b)).sum();
    Ok(Ready { spec, model, pool, datagen_s, first_request_ms, setup_s })
}

/// One request of the closed loop.
struct Sample {
    pool_index: usize,
    /// Wall time of the `Model::run` call, clock stopped before hashing.
    e2e_us: f64,
    /// When the call was made and when it returned.
    called: (Instant, Instant),
    /// How much slower than a quiet machine the probe rounds around the
    /// call ran (known once the loop has ended).
    slowdown: f64,
    /// Time between the previous response and this submit.
    lag_us: Option<f64>,
    /// Response digest and statistics, or the error text.
    result: Result<(u64, RuntimeStats), String>,
}

impl Sample {
    /// The call's wall time at the speed of a quiet machine.
    fn quiet_ms(&self) -> f64 {
        self.e2e_us / self.slowdown / 1e3
    }
}

/// How a request's wall time splits into the three top-level layers.  Laid
/// out from the returned statistics; the parts sum to `e2e_us` exactly.
#[derive(Clone, Copy)]
struct Split {
    program_us: f64,
    flush_us: f64,
    kexec_us: f64,
    io_other_us: f64,
}

fn split(e2e_us: f64, stats: &RuntimeStats) -> Split {
    let (mut program_us, mut flush_us) = (stats.program_host_us, stats.host_wall_us);
    let mut kexec_us = stats.exec_wall_us.min(flush_us);
    // A broker member's statistics are its share of the cohort's, which can
    // exceed its own wall time; scale so nothing spills out of the request.
    let inside = program_us + flush_us;
    if inside > e2e_us {
        let scale = e2e_us / inside;
        program_us *= scale;
        flush_us *= scale;
        kexec_us *= scale;
    }
    Split { program_us, flush_us, kexec_us, io_other_us: e2e_us - program_us - flush_us }
}

/// What [`drive`] saw.
struct Driven {
    samples: Vec<Sample>,
    /// Slow-down of every probe round, all clients.
    slowdowns: Vec<f64>,
}

/// Runs the closed loop for `seconds`: `w.clients` threads, each cycling
/// through the pool from its own offset and running a probe round between
/// requests when one is due ([`Rounds::tick`]).  With `trace`, every request also
/// records its spans on the spot.
fn drive(
    ready: &Ready,
    w: &Workload,
    seconds: f64,
    origin: Instant,
    mut trace: Option<&mut Trace>,
) -> Driven {
    let barrier = Barrier::new(w.clients);
    let next_seq = AtomicU64::new(1);
    let tracing = trace.is_some();
    let per_client: Vec<(Vec<Sample>, Trace, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients)
            .map(|client| {
                let (barrier, next_seq) = (&barrier, &next_seq);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut spans = Trace::default();
                    let mut index = client * w.pool / w.clients;
                    let mut last_response: Option<Instant> = None;
                    let mut rounds = Rounds::new(origin);
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    loop {
                        let t0 = Instant::now();
                        if t0 >= deadline {
                            break;
                        }
                        let response = ready.pool.submit(&ready.model, &ready.spec, index);
                        let t1 = Instant::now();
                        let e2e_us = (t1 - t0).as_secs_f64() * 1e6;
                        let result = match response {
                            Ok(r) => Ok((digest(&r.outputs), r.stats)),
                            Err(e) => Err(e.to_string()),
                        };
                        if let (true, Ok((_, stats))) = (tracing, &result) {
                            let seq = next_seq.fetch_add(1, Ordering::Relaxed);
                            let start_us = (t0 - origin).as_secs_f64() * 1e6;
                            let handled_us = t1.elapsed().as_secs_f64() * 1e6;
                            record_request(
                                &mut spans,
                                seq,
                                client as u32,
                                start_us,
                                e2e_us,
                                handled_us,
                                stats,
                            );
                        }
                        samples.push(Sample {
                            pool_index: index,
                            e2e_us,
                            called: (t0, t1),
                            slowdown: 1.0,
                            lag_us: last_response.map(|p| (t0 - p).as_secs_f64() * 1e6),
                            result,
                        });
                        // A round is not generator lag.
                        last_response = Some(if rounds.tick() { Instant::now() } else { t1 });
                        index = (index + 1) % w.pool;
                    }
                    for s in &mut samples {
                        s.slowdown = rounds.slowdown_over(s.called.0, s.called.1);
                    }
                    (samples, spans, rounds.slowdowns().collect())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let mut driven = Driven { samples: Vec::new(), slowdowns: Vec::new() };
    for (client_samples, client_spans, slowdowns) in per_client {
        driven.samples.extend(client_samples);
        driven.slowdowns.extend(slowdowns);
        if let Some(trace) = trace.as_deref_mut() {
            // Parents are indices local to the client's trace; rebase them.
            let base = trace.spans.len();
            trace.spans.extend(
                client_spans
                    .spans
                    .into_iter()
                    .map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
            );
        }
    }
    driven
}

/// Records the span tree of one request: `request` → `core.model_run` →
/// `vm.program`, `runtime.flush` (→ `codegen.kexec`,
/// `runtime.flush_nonexec`), `vm.io_other`.
fn record_request(
    trace: &mut Trace,
    seq: u64,
    tid: u32,
    start_us: f64,
    e2e_us: f64,
    handled_us: f64,
    stats: &RuntimeStats,
) {
    let s = split(e2e_us, stats);
    let span = |name, parent, start_us, dur_us, derived| Span {
        name,
        parent,
        seq,
        tid,
        start_us,
        dur_us,
        derived,
    };
    // `request` outlasts the clocked call by the benchmark's own digesting.
    let request = trace.push(span("request", None, start_us, e2e_us + handled_us, false));
    let run = trace.push(span("core.model_run", Some(request), start_us, e2e_us, false));
    trace.push(span("vm.program", Some(run), start_us, s.program_us, true));
    let flush_start = start_us + s.program_us;
    let flush = trace.push(span("runtime.flush", Some(run), flush_start, s.flush_us, true));
    trace.push(span("codegen.kexec", Some(flush), flush_start, s.kexec_us, true));
    trace.push(span(
        "runtime.flush_nonexec",
        Some(flush),
        flush_start + s.kexec_us,
        s.flush_us - s.kexec_us,
        true,
    ));
    trace.push(span("vm.io_other", Some(run), flush_start + s.flush_us, s.io_other_us, true));
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The correctness gate's findings.
struct Reference {
    /// Verified digest of every pool entry.
    digests: Vec<u64>,
    /// Whether every checked output tensor was `allclose(1e-4)`.
    agrees: bool,
    checked: usize,
    max_abs_diff: f64,
    reference_s: f64,
    /// Modeled DyNet time ÷ modeled ACROBAT time on the checked entries.
    speedup_vs_dynet: f64,
}

/// Runs every pool entry once through a freshly compiled `paper` model to
/// fix its digest, and the first `reference_k` entries through the
/// independent DyNet-style baseline, requiring `allclose(1e-4)` per tensor.
/// (The baseline keys pseudo-random streams by batch position, so for
/// `keyed_streams` workloads it is compared with a position-keyed run.)
fn verify(w: &Workload, spec: &ModelSpec, pool: &Pool, seed: u64) -> Result<Reference, String> {
    let model = compile(&spec.source, &Profile::Paper.options(seed))
        .map_err(|e| format!("compile: {e}"))?;
    let dynet_run = spec.dynet_run.as_ref().ok_or("workload model has no DyNet baseline")?;
    let mut reference = Reference {
        digests: Vec::with_capacity(w.pool),
        agrees: true,
        checked: 0,
        max_abs_diff: 0.0,
        reference_s: 0.0,
        speedup_vs_dynet: 0.0,
    };
    let (mut dynet_us, mut acrobat_us) = (0.0, 0.0);
    for (i, batch) in pool.batches.iter().enumerate() {
        let mut ours =
            pool.submit(&model, spec, i).map_err(|e| format!("verification run {i}: {e}"))?;
        reference.digests.push(digest(&ours.outputs));
        if i >= w.reference_k {
            continue;
        }
        if pool.keys.is_some() {
            ours = model
                .run(&spec.params, batch)
                .map_err(|e| format!("position-keyed run {i}: {e}"))?;
        }
        let t = Instant::now();
        let (theirs, dynet_stats) = dynet_run(&DynetConfig::default(), batch, seed)
            .map_err(|e| format!("DyNet baseline {i}: {e}"))?;
        reference.reference_s += t.elapsed().as_secs_f64();
        dynet_us += dynet_stats.total_us();
        acrobat_us += ours.stats.total_us();
        reference.checked += 1;
        reference.agrees &= ours.outputs.len() == theirs.len();
        for (out, expected) in ours.outputs.iter().zip(&theirs) {
            let got = (spec.flatten_output)(out);
            reference.agrees &= got.len() == expected.len();
            for (x, y) in got.iter().zip(expected) {
                reference.agrees &= x.allclose(y, 1e-4);
                reference.max_abs_diff = reference
                    .max_abs_diff
                    .max(f64::from(x.max_abs_diff(y).unwrap_or(f32::INFINITY)));
            }
        }
    }
    reference.speedup_vs_dynet = dynet_us / acrobat_us;
    Ok(reference)
}

/// Requests of an in-process pass that errored or whose digest differs from
/// the verified one.
fn count_failed(samples: &[Sample], reference: &Reference) -> u64 {
    samples
        .iter()
        .filter(|s| !matches!(&s.result, Ok((d, _)) if *d == reference.digests[s.pool_index]))
        .count() as u64
}

fn ok_samples(samples: &[Sample]) -> impl Iterator<Item = (&Sample, &RuntimeStats)> {
    samples.iter().filter_map(|s| s.result.as_ref().ok().map(|(_, stats)| (s, stats)))
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    sorted(ok_samples(samples).map(|(s, _)| s.e2e_us / 1e3).collect())
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < w.clients {
        return Err(format!(
            "workload {} needs {} client threads but only {nproc} CPU(s) are available; refusing to oversubscribe",
            w.name, w.clients
        ));
    }
    if args.trace {
        run_traced(args, nproc)
    } else {
        run_untraced(args)
    }
}

/// One measuring process: a single set-up from process start, then the
/// closed loop for `args.seconds`.  Prints its report as one JSON line,
/// which [`run_untraced`] reads back by key.
pub fn run_rep(args: &RunArgs, process_start: Instant) -> Result<(), String> {
    let w = args.workload;
    let ready = set_up(w, args.seed, process_start)?;
    let Driven { samples, slowdowns } = drive(&ready, w, args.seconds, process_start, None);
    let lat = latencies_ms(&samples);

    // Per pool entry: the first digest seen and how many responses carried
    // it; a response that differs from an earlier one is inconsistent.
    let mut entries = vec![(0u64, 0u64); w.pool];
    let mut inconsistent = 0u64;
    for s in &samples {
        if let Ok((digest, _)) = s.result {
            let entry = &mut entries[s.pool_index];
            if entry.0 == 0 || entry.1 == digest {
                *entry = (entry.0 + 1, digest);
            } else {
                inconsistent += 1;
            }
        }
    }
    let numbers = [
        ("setup_s", ready.setup_s),
        ("raw_p50_ms", percentile(&lat, 50.0)),
        ("slowdown", median(&slowdowns)),
        ("modeled_us", ok_samples(&samples).map(|(_, st)| st.total_us()).sum()),
        ("peak_rss_mb", peak_rss_mb()),
        ("errors", (samples.len() - lat.len()) as f64),
        ("inconsistent", inconsistent as f64),
    ];
    let mut report: Vec<(String, Json)> =
        numbers.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect();
    // Digests are 64-bit, a JSON number holds 53: "count:hex" strings.
    let entries = entries.iter().map(|(n, d)| Json::Str(format!("{n}:{d:016x}"))).collect();
    report.push(("entries".into(), Json::Arr(entries)));
    // Every answered request: its pool entry and its quiet-machine latency.
    let answered = || ok_samples(&samples).map(|(s, _)| s);
    let index = answered().map(|s| Json::Num(s.pool_index as f64)).collect();
    report.push(("index".into(), Json::Arr(index)));
    report.push((
        "quiet_ms".into(),
        Json::Arr(answered().map(|s| Json::Num(s.quiet_ms())).collect()),
    ));
    println!("{}", Json::Obj(report));
    Ok(())
}

/// Runs this executable again with `args` and returns what it printed
/// before its last line, and the last line parsed.
pub fn spawn_self(args: &[&str]) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (rows, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    let last = Json::parse(line)
        .map_err(|e| format!("{args:?}: no JSON last line ({e}); {}", output.status))?;
    Ok((rows.to_string(), last))
}

/// The untraced run.  The window is split over [`REPS`] fresh measuring
/// processes: every one pays a genuine set-up from process start (what
/// `setup_s` reports) and has a high-water mark of its own.  The latency
/// metrics come from all their requests together, each at the speed of a
/// quiet machine (see [`crate::probe`]) and each pool entry at the lower
/// quartile of its visits (see [`entry_quartiles`]).
fn run_untraced(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let (seed, seconds) = (args.seed.to_string(), (args.seconds / REPS as f64).to_string());
    let rep_args = ["--rep", "--workload", w.name, "--seed", &seed, "--seconds", &seconds];
    let reps = (0..REPS)
        .map(|_| spawn_self(&rep_args).map(|(_, report)| report))
        .collect::<Result<Vec<_>, _>>()?;

    let spec = (w.model)();
    let reference = verify(w, &spec, &make_pool(&spec, w, args.seed), args.seed)?;
    let num = |rep: &Json, key: &str| {
        rep.get(key).and_then(Json::as_f64).ok_or(format!("measuring process left out `{key}`"))
    };
    // `answered` counts responses (right or wrong), `attempted` adds errors.
    let (mut attempted, mut failed, mut answered) = (0, 0, 0);
    let mut visits = vec![Vec::new(); w.pool];
    for rep in &reps {
        let (errors, inconsistent) = (num(rep, "errors")? as u64, num(rep, "inconsistent")? as u64);
        attempted += errors + inconsistent;
        failed += errors + inconsistent;
        answered += inconsistent;
        let entries = match rep.get("entries") {
            Some(Json::Arr(entries)) if entries.len() == w.pool => entries,
            _ => return Err("measuring process left out `entries`".into()),
        };
        for (entry, want) in entries.iter().zip(&reference.digests) {
            let (count, digest) = match entry {
                Json::Str(s) => s.split_once(':').and_then(|(n, d)| {
                    Some((n.parse::<u64>().ok()?, u64::from_str_radix(d, 16).ok()?))
                }),
                _ => None,
            }
            .ok_or("malformed entry from a measuring process")?;
            attempted += count;
            answered += count;
            if digest != *want {
                failed += count;
            }
        }
        match (rep.get("index"), rep.get("quiet_ms")) {
            (Some(Json::Arr(index)), Some(Json::Arr(ms))) if index.len() == ms.len() => {
                for (i, ms) in index.iter().zip(ms) {
                    let slot = i.as_f64().and_then(|i| visits.get_mut(i as usize));
                    let (slot, ms) =
                        slot.zip(ms.as_f64()).ok_or("malformed sample from a measuring process")?;
                    slot.push(ms);
                }
            }
            _ => return Err("measuring process left out its samples".into()),
        }
    }
    let column = |key: &str| reps.iter().map(|r| num(r, key)).collect::<Result<Vec<_>, _>>();
    let quiet = entry_quartiles(&visits);
    let mean_ms = quiet.iter().sum::<f64>() / quiet.len().max(1) as f64;
    let values = [
        percentile(&quiet, 50.0),
        percentile(&quiet, 90.0),
        // Closed loop: each client completes `batch` instances per latency.
        (w.clients * w.batch) as f64 * 1e3 / mean_ms,
        column("modeled_us")?.iter().sum::<f64>() / (answered * w.batch as u64) as f64,
        median(&column("peak_rss_mb")?),
        // The same work in every process, so the same rule as for an entry.
        percentile(&sorted(column("setup_s")?), 25.0),
    ];
    let metrics = END_TO_END
        .iter()
        .filter(|m| m.in_contract())
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    println!("# {} --trace 0: {attempted} requests over {REPS} processes of {seconds} s; {failed} failed", w.name);
    println!(
        "# as measured: latency p50 {:.4} ms on a machine running x{:.3} slower than quiet",
        median(&column("raw_p50_ms")?),
        median(&column("slowdown")?)
    );
    Ok(Outcome {
        correct: failed == 0 && reference.agrees && attempted > 0,
        attempted,
        failed,
        metrics,
    })
}

fn run_traced(args: &RunArgs, nproc: usize) -> Result<Outcome, String> {
    let w = args.workload;
    let origin = Instant::now();
    let options = w.profile.options(args.seed);
    let mut trace = Trace::default();
    let mut put = std::collections::BTreeMap::<&'static str, f64>::new();

    // Compile through the staged public pipeline, one span per stage.
    let source = (w.model)().source;
    let staged = layers::staged_compile(&source, &options)?;
    record_setup(&mut trace, &staged, origin);
    let mut stage_samples: [Vec<f64>; 7] = Default::default();
    for _ in 0..COMPILE_REPS {
        let again = layers::staged_compile(&source, &options)?;
        stage_samples.iter_mut().zip(again.stage_us).for_each(|(v, us)| v.push(us));
    }
    let stage = |name: &str| {
        median(&stage_samples[STAGES.iter().position(|s| *s == name).expect("known stage")])
    };
    put.insert("ir.parse_us", stage("ir.parse"));
    put.insert("ir.typeck_us", stage("ir.typeck"));
    put.insert("ir.source_bytes", source.len() as f64);
    put.insert("ir.functions", staged.functions as f64);
    put.insert("analysis.analyze_us", stage("analysis.analyze"));
    put.insert("analysis.hoisted_sites", staged.analysis.hoisted.len() as f64);
    put.insert("analysis.ghost_sites", staged.analysis.ghosts.len() as f64);
    put.insert("analysis.phase_boundaries", staged.analysis.phase_boundaries.len() as f64);
    put.insert("analysis.blocks", staged.analysis.blocks.blocks.len() as f64);
    put.insert("codegen.library_build_us", stage("codegen.library_build"));
    put.insert("codegen.autoschedule_us", stage("codegen.autoschedule"));
    put.insert("codegen.kernels", staged.kernels as f64);
    put.insert("vm.executable_new_us", stage("vm.executable_new"));
    put.insert(
        "core.compile_ms",
        layers::median_us(COMPILE_REPS, || {
            std::hint::black_box(compile(&source, &options).expect("compiled above"));
        }) / 1e3,
    );

    let ready = set_up(w, args.seed, origin)?;
    put.insert("core.first_request_ms", ready.first_request_ms);
    put.insert("models.datagen_s", ready.datagen_s);
    put.insert("models.pool_size", w.pool as f64);
    put.insert("models.instances_per_req", w.batch as f64);

    // A quarter of the window untraced, the rest traced: the difference in
    // median latency is what recording spans costs.
    let plain = drive(&ready, w, args.seconds * 0.25, origin, None).samples;
    let broker_mid = ready.model.broker_stats().unwrap_or_default();
    let Driven { samples, slowdowns } =
        drive(&ready, w, args.seconds * 0.75, origin, Some(&mut trace));
    let broker_after = ready.model.broker_stats().unwrap_or_default();

    let lat = latencies_ms(&samples);
    let plain_p50 = percentile(&latencies_ms(&plain), 50.0);
    put.insert("core.trace_overhead_pct", (percentile(&lat, 50.0) - plain_p50) / plain_p50 * 100.0);
    put.insert("core.requests", samples.len() as f64);
    put.insert("core.latency_mean_ms", lat.iter().sum::<f64>() / lat.len().max(1) as f64);
    let (tail_pct, tail_ms) = tail(&lat);
    put.insert("core.latency_tail_ms", tail_ms);
    put.insert("core.latency_tail_pct", tail_pct);
    let lags: Vec<f64> = samples.iter().filter_map(|s| s.lag_us).collect();
    put.insert("bench.generator_lag_us_p50", median(&lags));
    put.insert("bench.nproc", nproc as f64);
    put.insert("bench.machine_slowdown", median(&slowdowns));

    ledger_from_samples(&mut put, &samples);

    let requests = samples.len().max(1) as f64;
    let dispatches = (broker_after.dispatches - broker_mid.dispatches) as f64;
    let merged = (broker_after.merged_requests - broker_mid.merged_requests) as f64;
    put.insert("vm.broker_dispatches", dispatches);
    put.insert("vm.broker_merged_share", merged / requests);
    put.insert("vm.broker_mean_cohort", if dispatches > 0.0 { requests / dispatches } else { 0.0 });
    let outcomes = ready.model.outcomes();
    put.insert("vm.outcomes_failed", (outcomes.total() - outcomes.completed) as f64);
    put.insert("vm.quarantined", ready.model.quarantined_count() as f64);

    // Fixed per-request cost vs per-instance cost.
    put.insert(
        "vm.empty_run_us",
        layers::median_us(50, || {
            std::hint::black_box(ready.model.run(&ready.spec.params, &[]).expect("empty request"));
        }),
    );
    let one = &ready.pool.batches[0][..1];
    put.insert(
        "vm.single_instance_ms",
        layers::median_us(30, || {
            std::hint::black_box(
                ready.model.run(&ready.spec.params, one).expect("batch-1 request"),
            );
        }) / 1e3,
    );

    put.insert("tensor.matmul_gflops", layers::matmul_gflops(w.batch, w.hidden));
    let nodes_per_flush = put["runtime.nodes_per_req"] / put["runtime.flushes_per_req"].max(1.0);
    let probe = layers::dfg_probe(
        options.runtime.scheduler,
        w.batch,
        nodes_per_flush,
        options.runtime.plan_cache,
    );
    put.insert("runtime.dfg_add_node_ns", probe.add_node_ns);
    put.insert("runtime.schedule_us_per_knode", probe.schedule_us_per_knode);
    put.insert("runtime.plan_thaw_us_per_knode", probe.plan_thaw_us_per_knode);

    let reference = verify(w, &ready.spec, &ready.pool, args.seed)?;
    put.insert("baselines.reference_s", reference.reference_s);
    put.insert("baselines.reference_checked", reference.checked as f64);
    put.insert("baselines.max_abs_diff", reference.max_abs_diff);
    put.insert("baselines.speedup_vs_dynet_modeled", reference.speedup_vs_dynet);

    // The staged model must answer exactly as the `compile()` model does.
    let mut staged_agrees = true;
    for (i, want) in reference.digests.iter().enumerate().take(w.reference_k) {
        let opts = RunOptions {
            keys: ready.pool.keys.as_ref().map(|k| k[i].clone()),
            ..RunOptions::default()
        };
        let got = staged
            .exe
            .run_with(&ready.spec.params, &ready.pool.batches[i], &opts)
            .map_err(|e| format!("staged model: {e}"))?;
        staged_agrees &= digest(&got.outputs) == *want;
    }

    let path = args.out_dir.join(format!("trace_{}.json", w.name));
    write_file(&path, &trace.to_chrome_json().to_string())?;
    let self_times = trace.self_times_by_name();
    let total: f64 = ["vm.program", "codegen.kexec", "runtime.flush_nonexec", "vm.io_other"]
        .iter()
        .map(|n| self_times[n])
        .sum();
    println!("# {} --trace 1: {} spans -> {}", w.name, trace.spans.len(), path.display());
    for name in [
        "request",
        "core.model_run",
        "vm.program",
        "runtime.flush",
        "codegen.kexec",
        "runtime.flush_nonexec",
        "vm.io_other",
    ] {
        println!(
            "#   self time {name:<24} {:>12.1} us  {:>5.1} %",
            self_times[name],
            self_times[name] / total * 100.0
        );
    }

    let attempted = (plain.len() + samples.len()) as u64;
    let failed = count_failed(&plain, &reference) + count_failed(&samples, &reference);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            (
                name,
                *put.get(name).unwrap_or_else(|| panic!("metric {name} was never measured")),
                unit,
            )
        })
        .collect();
    Ok(Outcome {
        correct: failed == 0 && reference.agrees && staged_agrees && attempted > 0,
        attempted,
        failed,
        metrics,
    })
}

/// One `setup` root with a child span per compile stage.
fn record_setup(trace: &mut Trace, staged: &Staged, origin: Instant) {
    let start_us = (staged.started - origin).as_secs_f64() * 1e6;
    let span = |name, parent, start_us, dur_us| Span {
        name,
        parent,
        seq: 0,
        tid: 0,
        start_us,
        dur_us,
        derived: false,
    };
    let root = trace.push(span("setup", None, start_us, staged.stage_us.iter().sum()));
    let mut at = start_us;
    for (name, us) in STAGES.into_iter().zip(staged.stage_us) {
        trace.push(span(name, Some(root), at, us));
        at += us;
    }
}

/// The ledger entries that come from the statistics each traced request
/// returned: medians of the layer times, time-weighted shares, and counts.
fn ledger_from_samples(
    put: &mut std::collections::BTreeMap<&'static str, f64>,
    samples: &[Sample],
) {
    let n = ok_samples(samples).count().max(1) as f64;
    let splits: Vec<Split> = ok_samples(samples).map(|(s, st)| split(s.e2e_us, st)).collect();
    for (s, sp) in ok_samples(samples).map(|(s, _)| s).zip(&splits) {
        let parts = sp.program_us + sp.flush_us + sp.io_other_us;
        assert!(
            (parts - s.e2e_us).abs() <= 1e-6 * s.e2e_us.max(1.0),
            "layers must sum to the request: {parts} vs {}",
            s.e2e_us
        );
    }
    let e2e_total: f64 =
        ok_samples(samples).map(|(s, _)| s.e2e_us).sum::<f64>().max(f64::MIN_POSITIVE);
    let p50_ms =
        |f: fn(&Split) -> f64| median(&splits.iter().map(|s| f(s) / 1e3).collect::<Vec<_>>());
    let share = |f: fn(&Split) -> f64| splits.iter().map(f).sum::<f64>() / e2e_total;
    put.insert("vm.program_ms_p50", p50_ms(|s| s.program_us));
    put.insert("vm.program_share", share(|s| s.program_us));
    put.insert("runtime.flush_ms_p50", p50_ms(|s| s.flush_us));
    put.insert("runtime.flush_share", share(|s| s.flush_us));
    put.insert("runtime.flush_nonexec_ms_p50", p50_ms(|s| s.flush_us - s.kexec_us));
    put.insert("codegen.kexec_ms_p50", p50_ms(|s| s.kexec_us));
    put.insert("codegen.kexec_share", share(|s| s.kexec_us));
    put.insert("vm.io_other_ms_p50", p50_ms(|s| s.io_other_us));
    put.insert("vm.io_other_share", share(|s| s.io_other_us));

    let mut sum = RuntimeStats::default();
    ok_samples(samples).for_each(|(_, st)| sum.merge(st));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    put.insert("vm.program_us_per_node", ratio(sum.program_host_us, sum.nodes as f64));
    put.insert("codegen.kexec_gflops", ratio(sum.flops as f64, sum.exec_wall_us) / 1e3);
    let launches = (sum.backend_hits + sum.backend_compiles + sum.backend_interp_falls) as f64;
    put.insert("codegen.backend_hit_rate", ratio(sum.backend_hits as f64, launches));
    put.insert("codegen.backend_compiles_timed", sum.backend_compiles as f64);
    put.insert("codegen.backend_interp_falls_per_req", sum.backend_interp_falls as f64 / n);
    put.insert("tensor.flops_per_req", sum.flops as f64 / n);
    put.insert("tensor.gather_bytes_per_req", sum.gather_bytes as f64 / n);
    put.insert("tensor.gather_copies_per_req", sum.gather_copies as f64 / n);
    put.insert("tensor.contiguous_hits_per_req", sum.contiguous_hits as f64 / n);
    put.insert("tensor.memcpy_bytes_per_req", sum.memcpy_bytes as f64 / n);
    put.insert("tensor.memcpy_ops_per_req", sum.memcpy_ops as f64 / n);
    // Computed from the element count: 4 bytes per simulated f32.
    put.insert("tensor.device_peak_mb", sum.device_peak_elements as f64 * 4.0 / (1 << 20) as f64);
    put.insert("runtime.nodes_per_req", sum.nodes as f64 / n);
    put.insert("runtime.flushes_per_req", sum.flushes as f64 / n);
    put.insert("runtime.launches_per_req", sum.kernel_launches as f64 / n);
    put.insert("runtime.nodes_per_launch", ratio(sum.nodes as f64, sum.kernel_launches as f64));
    let probes = (sum.plan_cache_hits + sum.plan_cache_misses) as f64;
    put.insert("runtime.plan_cache_hit_rate", ratio(sum.plan_cache_hits as f64, probes));
    put.insert("runtime.plan_cache_evictions", sum.plan_cache_evictions as f64);
    put.insert("runtime.fiber_switches_per_req", sum.fiber_switches as f64 / n);
    put.insert("runtime.aborted_flushes", sum.aborted_flushes as f64);
    put.insert("runtime.retries", sum.retries as f64);
    put.insert("runtime.modeled_dfg_us", sum.dfg_construction_us / n);
    put.insert("runtime.modeled_sched_us", sum.scheduling_us / n);
    put.insert("runtime.modeled_kernel_us", sum.kernel_time_us / n);
    put.insert("runtime.modeled_memcpy_us", sum.memcpy_us / n);
    put.insert("runtime.modeled_api_us", sum.cuda_api_us / n);
    put.insert("runtime.modeled_fiber_us", sum.fiber_us / n);
}

pub fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn one_seed_gives_bit_identical_pools() {
        for w in &WORKLOADS {
            let small = Workload { pool: 3, ..*w };
            let (a, b) = (make_pool(&(w.model)(), &small, 42), make_pool(&(w.model)(), &small, 42));
            assert_eq!(a.batches, b.batches, "{}: same seed, different pool", w.name);
            assert_eq!(a.keys, b.keys);
            let bits = |pool: &Pool| -> Vec<u32> {
                let mut tensors = Vec::new();
                pool.batches.iter().flatten().flatten().for_each(|v| v.tensors(&mut tensors));
                tensors.iter().flat_map(|t| t.data().iter().map(|x| x.to_bits())).collect()
            };
            assert_eq!(bits(&a), bits(&b), "{}: pools differ at the bit level", w.name);
            assert_ne!(
                bits(&a),
                bits(&make_pool(&(w.model)(), &small, 43)),
                "{}: the seed must matter",
                w.name
            );
            assert_eq!(a.batches.len(), 3);
            assert!(a.batches.iter().all(|batch| batch.len() == w.batch));
            if let Some(keys) = &a.keys {
                let distinct: std::collections::BTreeSet<u64> =
                    keys.iter().flatten().copied().collect();
                assert_eq!(
                    distinct.len(),
                    3 * w.batch,
                    "{}: every instance draws its own stream",
                    w.name
                );
            }
        }
    }

    #[test]
    fn digest_sees_structure_and_every_bit() {
        use acrobat_core::Tensor;
        let t = |v: f32| OutputValue::Tensor(Tensor::fill(&[1, 2], v));
        let base = digest(&[t(1.0), t(2.0)]);
        assert_eq!(base, digest(&[t(1.0), t(2.0)]));
        assert_ne!(base, digest(&[t(2.0), t(1.0)]));
        assert_ne!(base, digest(&[t(1.0), t(f32::from_bits(2.0f32.to_bits() + 1))]));
        assert_ne!(digest(&[OutputValue::Tuple(vec![t(1.0)])]), digest(&[t(1.0)]));
        assert_ne!(digest(&[OutputValue::Int(1)]), digest(&[OutputValue::Bool(true)]));
    }

    #[test]
    fn split_sums_to_the_request_even_when_stats_overshoot() {
        let stats = RuntimeStats {
            program_host_us: 60.0,
            host_wall_us: 30.0,
            exec_wall_us: 20.0,
            ..Default::default()
        };
        let s = split(100.0, &stats);
        assert_eq!((s.program_us, s.flush_us, s.kexec_us, s.io_other_us), (60.0, 30.0, 20.0, 10.0));
        // A broker member's apportioned statistics can exceed its own wall.
        let s = split(45.0, &stats);
        assert!((s.program_us + s.flush_us + s.io_other_us - 45.0).abs() < 1e-9);
        assert!(s.io_other_us.abs() < 1e-9 && s.kexec_us <= s.flush_us);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("latency_p50_ms", 1.25, "ms")],
        };
        let line = outcome.result_line();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(
            metrics.get("latency_p50_ms").and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(Json::parse(&line.to_string()).unwrap(), line);
    }
}
