//! The compiled model: pipeline orchestration and the run API.

use std::collections::BTreeMap;
use std::sync::Arc;

use acrobat_analysis::{analyze, AnalysisResult};
use acrobat_codegen::{autoschedule, KernelLibrary};
use acrobat_ir::{parse_module, typeck};
use acrobat_runtime::{Engine, RuntimeOptions, RuntimeStats};
use acrobat_vm::{Executable, InputValue, Params, RunOptions, RunResult};

use crate::{CompileError, CompileOptions};

/// A compiled, ready-to-run ACROBAT model.
#[derive(Debug)]
pub struct Model {
    exe: Executable,
    analysis: Arc<AnalysisResult>,
    options: CompileOptions,
    kernel_count: usize,
}

/// Compiles a frontend program through the full static pipeline.
///
/// # Errors
///
/// Returns [`CompileError::Frontend`] for parse/type errors and
/// [`CompileError::Execution`] for lowering failures.
pub fn compile(source: &str, options: &CompileOptions) -> Result<Model, CompileError> {
    let module = typeck::check_module(parse_module(source)?)?;
    let analysis = Arc::new(analyze(module, options.analysis)?);
    acrobat_vm::aot::check_lambdas(&analysis.module)?;
    let mut library = KernelLibrary::build(&analysis);
    autoschedule(&mut library, options.schedule, None);
    let kernel_count = library.len();
    // Keep the runtime's coarsening flag in sync with the analysis flag.
    let runtime_options = RuntimeOptions { coarsen: options.analysis.coarsen, ..options.runtime };
    let engine = Engine::new(analysis.clone(), library, options.device, runtime_options);
    let exe = Executable::new(engine, options.backend, options.seed)?;
    Ok(Model { exe, analysis, options: options.clone(), kernel_count })
}

impl Model {
    /// Runs one mini-batch.
    ///
    /// `params` is bound once and kept resident: a pooled execution
    /// context uploads a [`Params`]' weights on the first request that
    /// brings it and reuses them for every later request bringing a clone
    /// of it — build one `Params` per weight set and pass it to every run.
    ///
    /// # Errors
    ///
    /// Propagates input and runtime errors.
    pub fn run(
        &self,
        params: &Params,
        instances: &[Vec<InputValue>],
    ) -> Result<RunResult, CompileError> {
        Ok(self.exe.run(params, instances)?)
    }

    /// Runs one mini-batch with explicit per-run options (pseudo-random
    /// stream keys, fault injection).
    ///
    /// # Errors
    ///
    /// Propagates input and runtime errors.
    pub fn run_with(
        &self,
        params: &Params,
        instances: &[Vec<InputValue>],
        opts: &RunOptions,
    ) -> Result<RunResult, CompileError> {
        Ok(self.exe.run_with(params, instances, opts)?)
    }

    /// Runs one mini-batch with explicit per-instance pseudo-random-stream
    /// keys (§E.1), making each instance's stream independent of its slot
    /// in the batch.
    ///
    /// # Errors
    ///
    /// Propagates input and runtime errors.
    pub fn run_keyed(
        &self,
        params: &Params,
        instances: &[Vec<InputValue>],
        keys: &[u64],
    ) -> Result<RunResult, CompileError> {
        let opts = RunOptions { keys: Some(keys.to_vec()), ..RunOptions::default() };
        self.run_with(params, instances, &opts)
    }

    /// Statistics merged across every completed run of this model — serial
    /// or concurrent, one counter total (launches, gathers, bytes, …).
    pub fn stats(&self) -> RuntimeStats {
        self.exe.session.aggregate_stats()
    }

    /// Number of completed runs merged into [`Model::stats`].
    pub fn runs_completed(&self) -> u64 {
        self.exe.session.runs_completed()
    }

    /// Terminal-outcome counters for every request submitted to this model
    /// (completed, failed, cancelled, deadline-exceeded, timed out).
    pub fn outcomes(&self) -> acrobat_vm::ServeOutcomes {
        self.exe.session.outcomes()
    }

    /// Execution contexts quarantined (dropped instead of recycled) because
    /// a run observed a fault, cancellation, or deadline miss.
    pub fn quarantined_count(&self) -> u64 {
        self.exe.session.quarantined_count()
    }

    /// Always `None`: there is no request queue.  Kept only for the frozen
    /// benchmark harness (`benchmark/src/run.rs`), its last caller.
    pub fn broker_stats(&self) -> Option<acrobat_vm::BrokerStats> {
        None
    }

    /// Profile-guided re-scheduling (§D.1, Table 9): runs one profiling
    /// mini-batch, aggregates the per-kernel invocation frequencies across
    /// completed runs, and installs a re-tuned engine.  A step between runs
    /// (`&mut self`): every later run takes the new schedule, on a fresh
    /// context, and computes the same bits; [`Model::stats`],
    /// [`Model::outcomes`] and [`Model::runs_completed`] keep counting.
    ///
    /// # Errors
    ///
    /// Propagates errors from the profiling run.
    pub fn apply_pgo(
        &mut self,
        params: &Params,
        instances: &[Vec<InputValue>],
    ) -> Result<(), CompileError> {
        let _ = self.exe.run(params, instances)?;
        let session = &mut self.exe.session;
        let profile = session.take_profile();
        let schedule = self.options.schedule;
        session.retune(|lib| autoschedule(lib, schedule, Some(&profile)));
        Ok(())
    }

    /// Static-frequency-prioritized re-scheduling (§D.1): when PGO is not
    /// possible, ACROBAT estimates per-operator invocation frequencies from
    /// recursion nesting depth and prioritizes the auto-scheduler budget
    /// accordingly — no profiling run needed.
    pub fn apply_static_priorities(&mut self) {
        let freqs = acrobat_analysis::freq::estimate_frequencies(&self.analysis.module);
        let library = self.exe.session.engine().library();
        let mut prio: BTreeMap<acrobat_codegen::KernelId, u64> = BTreeMap::new();
        for block in &self.analysis.blocks.blocks {
            for group in &block.groups {
                let w = group
                    .sites
                    .iter()
                    .map(|s| freqs.get(s).copied().unwrap_or(1))
                    .max()
                    .unwrap_or(1);
                let kid = library.kernel_id_for_group(group.id);
                let e = prio.entry(kid).or_insert(0);
                *e = (*e).max(w);
            }
        }
        let schedule = self.options.schedule;
        self.exe.session.retune(|lib| autoschedule(lib, schedule, Some(&prio)));
    }

    /// The underlying executable (session access for serving-layer tests
    /// and tooling: outcome counters, the engine and its caches).
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// The AOT backend's register code for this model, disassembled: one
    /// instruction per line, every DFG `emit` with its pre-resolved kernel,
    /// input and output registers and depth rule.  `None` under
    /// [`acrobat_vm::BackendKind::Vm`], which interprets the syntax tree.
    pub fn disassemble(&self) -> Option<String> {
        self.exe.disassemble()
    }

    /// The static-analysis results behind this model.
    pub fn analysis(&self) -> &AnalysisResult {
        &self.analysis
    }

    /// Number of distinct generated kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernel_count
    }

    /// The options the model was compiled with.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OptLevel, Tensor};

    const RNN: &str = r#"
        def @rnn(%inps: List[Tensor[(1, 8)]], %state: Tensor[(1, 8)],
                 $bias: Tensor[(1, 8)], $i_wt: Tensor[(8, 8)], $h_wt: Tensor[(8, 8)])
            -> List[Tensor[(1, 8)]] {
            match %inps {
                Nil => Nil,
                Cons(%inp, %tail) => {
                    let %inp_linear = add($bias, matmul(%inp, $i_wt));
                    let %new_state = sigmoid(add(%inp_linear, matmul(%state, $h_wt)));
                    Cons(%new_state, @rnn(%tail, %new_state, $bias, $i_wt, $h_wt))
                }
            }
        }
        def @main($bias: Tensor[(1, 8)], $i_wt: Tensor[(8, 8)], $h_wt: Tensor[(8, 8)],
                  $init: Tensor[(1, 8)], $c_wt: Tensor[(8, 4)],
                  %inps: List[Tensor[(1, 8)]]) -> List[Tensor[(1, 4)]] {
            let %states = @rnn(%inps, $init, $bias, $i_wt, $h_wt);
            map(fn(%p) { relu(matmul(%p, $c_wt)) }, %states)
        }
    "#;

    fn rnn_setup() -> (Params, Vec<Vec<InputValue>>) {
        let params = Params::from([
            ("bias".into(), Tensor::from_fn(&[1, 8], |i| 0.01 * i as f32)),
            ("i_wt".into(), Tensor::from_fn(&[8, 8], |i| ((i % 5) as f32 - 2.0) * 0.1)),
            ("h_wt".into(), Tensor::from_fn(&[8, 8], |i| ((i % 7) as f32 - 3.0) * 0.08)),
            ("init".into(), Tensor::zeros(&[1, 8])),
            ("c_wt".into(), Tensor::from_fn(&[8, 4], |i| (i as f32 - 16.0) * 0.02)),
        ]);
        let instances = (0..8)
            .map(|inst| {
                let len = 2 + inst % 4;
                let items = (0..len)
                    .map(|t| {
                        InputValue::Tensor(Tensor::from_fn(&[1, 8], |i| {
                            ((inst * 13 + t * 5 + i) % 11) as f32 * 0.1 - 0.5
                        }))
                    })
                    .collect();
                vec![InputValue::list(items)]
            })
            .collect();
        (params, instances)
    }

    /// The AOT lowering's typed error, returned before kernels are built:
    /// the kernel library would find no operand classes for `relu(%y)`.
    #[test]
    fn operator_in_a_lambda_outside_map_is_a_compile_error() {
        let src = "def @main(%x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
            let %f = fn(%y: Tensor[(1, 4)]) { relu(%y) };
            %f(%x)
        }";
        let err = compile(src, &CompileOptions::default()).unwrap_err();
        assert!(err.to_string().contains("AOT lowering: a lambda outside `map`"), "{err}");
    }

    #[test]
    fn compile_and_run() {
        let model = compile(RNN, &CompileOptions::default()).unwrap();
        assert!(model.kernel_count() >= 2);
        let (params, instances) = rnn_setup();
        let result = model.run(&params, &instances).unwrap();
        assert_eq!(result.outputs.len(), 8);
        assert!(result.stats.kernel_launches > 0);
    }

    #[test]
    fn ablation_ladder_monotone_launches() {
        // Kernel launches must not increase as optimizations accumulate.
        let (params, instances) = rnn_setup();
        let mut last = u64::MAX;
        for level in OptLevel::ALL {
            let model = compile(RNN, &CompileOptions::at_level(level)).unwrap();
            let r = model.run(&params, &instances).unwrap();
            // Gather fusion does not change launch counts, only bytes.
            assert!(
                r.stats.kernel_launches <= last,
                "{level:?}: {} launches, previous {last}",
                r.stats.kernel_launches
            );
            last = r.stats.kernel_launches;
        }
    }

    #[test]
    fn ablation_preserves_results() {
        let (params, instances) = rnn_setup();
        let reference = compile(RNN, &CompileOptions::at_level(OptLevel::None))
            .unwrap()
            .run(&params, &instances)
            .unwrap();
        for level in OptLevel::ALL {
            let r = compile(RNN, &CompileOptions::at_level(level))
                .unwrap()
                .run(&params, &instances)
                .unwrap();
            for (a, b) in reference.outputs.iter().zip(&r.outputs) {
                let (la, lb) = (a.clone().into_list().unwrap(), b.clone().into_list().unwrap());
                assert_eq!(la.len(), lb.len());
                for (x, y) in la.iter().zip(&lb) {
                    let (tx, ty) = match (x, y) {
                        (
                            acrobat_vm::OutputValue::Tensor(tx),
                            acrobat_vm::OutputValue::Tensor(ty),
                        ) => (tx, ty),
                        _ => panic!("tensor outputs"),
                    };
                    assert!(tx.allclose(ty, 1e-5), "{level:?} changed results");
                }
            }
        }
    }

    #[test]
    fn rand_range_span_is_checked_at_compile_and_total_at_run() {
        use acrobat_vm::{BackendKind, OutputValue};
        let program = |lo: i64, hi: i64| {
            format!("def @main(%x: Int) -> Int {{ rand_range[lo={lo}, hi={hi}]() }}")
        };
        // `hi - lo + 1` does not fit an i64: a diagnostic, not an overflow at run time.
        let wide = program(-5_000_000_000_000_000_000, 5_000_000_000_000_000_000);
        let err = compile(&wide, &CompileOptions::default()).unwrap_err();
        assert!(err.to_string().contains("rand_range"), "{err}");

        let (lo, hi) = (-4_000_000_000_000_000_000, 4_000_000_000_000_000_000);
        let instances: Vec<Vec<InputValue>> = (0..8).map(|i| vec![InputValue::Int(i)]).collect();
        let run = |backend| {
            let options = CompileOptions { backend, ..Default::default() };
            compile(&program(lo, hi), &options)
                .unwrap()
                .run(&Params::default(), &instances)
                .unwrap()
        };
        let (aot, vm) = (run(BackendKind::Aot), run(BackendKind::Vm));
        assert_eq!(aot.outputs, vm.outputs, "same draws on both backends");
        for a in &aot.outputs {
            let OutputValue::Int(a) = *a else { panic!("an Int @main returns an Int: {a:?}") };
            assert!((lo..=hi).contains(&a), "{a} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn pgo_improves_or_matches_quality() {
        let mut options = CompileOptions { ..Default::default() };
        options.schedule.iterations = 30;
        let mut model = compile(RNN, &options).unwrap();
        let (params, instances) = rnn_setup();
        let before = model.run(&params, &instances).unwrap().stats.kernel_time_us;
        model.apply_pgo(&params, &instances).unwrap();
        let after = model.run(&params, &instances).unwrap().stats.kernel_time_us;
        // The hot recurrent kernel gets more of the budget; total device
        // time should not get worse by more than noise (it is deterministic
        // here, so: not worse at all).
        assert!(after <= before * 1.2 + 1e-9, "PGO: {after} vs {before}");
    }

    /// PGO is a step between runs: the run after it computes the bits the
    /// run before it did, on a context built against the re-tuned engine,
    /// and the model's counters carry over.
    #[test]
    fn apply_pgo_keeps_bits_and_counters() {
        let bits = |r: &RunResult| -> Vec<u32> {
            let tensors = r.outputs.iter().flat_map(|o| o.tensors().into_iter().cloned());
            tensors.flat_map(|t| t.data().to_vec()).map(f32::to_bits).collect()
        };
        let mut model = compile(RNN, &CompileOptions::default()).unwrap();
        let (params, instances) = rnn_setup();
        let before = model.run(&params, &instances).unwrap();
        model.apply_pgo(&params, &instances).unwrap();
        let session = &model.executable().session;
        assert_eq!(session.idle_count(), 0, "no pooled context predates the re-tune");
        assert_eq!((model.runs_completed(), model.outcomes().completed), (2, 2));
        let launches = model.stats().kernel_launches;

        let after = model.run(&params, &instances).unwrap();
        assert_eq!(bits(&after), bits(&before), "the re-tune changed output bits");
        assert_eq!((model.runs_completed(), model.outcomes().total()), (3, 3));
        assert_eq!(model.stats().kernel_launches, launches + after.stats.kernel_launches);
    }

    #[test]
    fn stats_merge_across_sequential_runs() {
        let model = compile(RNN, &CompileOptions::default()).unwrap();
        let (params, instances) = rnn_setup();
        assert_eq!(model.runs_completed(), 0);
        let r1 = model.run(&params, &instances).unwrap().stats;
        let r2 = model.run(&params, &instances).unwrap().stats;
        let agg = model.stats();
        assert_eq!(model.runs_completed(), 2);
        assert_eq!(agg.nodes, r1.nodes + r2.nodes);
        assert_eq!(agg.kernel_launches, r1.kernel_launches + r2.kernel_launches);
        assert_eq!(agg.gather_copies, r1.gather_copies + r2.gather_copies);
        assert_eq!(agg.gather_bytes, r1.gather_bytes + r2.gather_bytes);
        assert_eq!(agg.memcpy_bytes, r1.memcpy_bytes + r2.memcpy_bytes);
        assert_eq!(agg.flushes, r1.flushes + r2.flushes);
        assert_eq!(
            agg.device_peak_elements,
            r1.device_peak_elements.max(r2.device_peak_elements),
            "peak merges by max, not sum"
        );
    }

    #[test]
    fn keyed_runs_reproduce_unkeyed_identity_order() {
        let model = compile(RNN, &CompileOptions::default()).unwrap();
        let (params, instances) = rnn_setup();
        let keys: Vec<u64> = (0..instances.len() as u64).collect();
        let a = model.run(&params, &instances).unwrap();
        let b = model.run_keyed(&params, &instances, &keys).unwrap();
        assert_eq!(a.outputs.len(), b.outputs.len());
        // Wrong arity is rejected.
        assert!(model.run_keyed(&params, &instances, &[1, 2]).is_err());
    }

    #[test]
    fn parse_error_surfaces() {
        assert!(matches!(
            compile("def @main(", &CompileOptions::default()),
            Err(CompileError::Frontend(_))
        ));
    }
}
