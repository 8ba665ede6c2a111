//! Request cohorts: cohort-vs-solo bit-identity and fault isolation
//! (`acrobat_vm::cohort`).
//!
//! A cohort's contract is that co-batching requests is *invisible* except
//! in the statistics: every cohort member's outputs are bit-for-bit the
//! outputs of its solo run, even when a co-batched peer is cancelled,
//! misses its deadline, or fault-storms — the failing member is peeled out
//! through the quarantine + solo-rerun path and observes its genuine
//! outcome, while every surviving peer's outputs stay identical to a run
//! that never shared anything.  The ledger balances throughout: each
//! request lands in exactly one outcome bucket, and completed runs are the
//! only ones contributing statistics.

use std::collections::BTreeMap;

use acrobat_bench::suite;
use acrobat_core::{CompileOptions, FaultPlan, Model, Params, RunOptions, RuntimeStats, VmError};
use acrobat_models::testkit::{assert_outputs_equal, build};
use acrobat_models::{ModelSize, ModelSpec};
use acrobat_runtime::CancelToken;
use acrobat_tensor::{FaultKind, FaultSite, TensorError};
use acrobat_vm::{CohortRequest, InputValue, OutputValue, ServeOutcomes};

/// Distinct per-member mini-batches (different instance seeds, so member
/// outputs are distinguishable and any demux slip is caught).
fn member_batches(
    spec: &ModelSpec,
    members: usize,
    per_member: usize,
) -> Vec<Vec<Vec<InputValue>>> {
    (0..members).map(|m| (spec.make_instances)(0xB0B0 + m as u64, per_member)).collect()
}

/// One default-option cohort request per member batch.
fn requests<'a>(
    spec: &'a ModelSpec,
    members: &'a [Vec<Vec<InputValue>>],
) -> Vec<CohortRequest<'a>> {
    let request =
        |inst| CohortRequest { params: &spec.params, instances: inst, opts: RunOptions::default() };
    members.iter().map(|inst| request(inst.as_slice())).collect()
}

fn solo_references(
    model: &Model,
    params: &Params,
    members: &[Vec<Vec<InputValue>>],
) -> Vec<Vec<OutputValue>> {
    members.iter().map(|inst| model.run(params, inst).expect("solo reference").outputs).collect()
}

/// Every quick-suite model: a 3-member cohort's per-member outputs equal
/// the members' solo runs bit for bit, and (since all members share one
/// context) at least one flush plan actually co-batched nodes across
/// requests.  The cohort runs in checked mode, so every compiled launch of
/// its merged lane layouts — which differ from the solo layouts — is also
/// held to the reference interpreter.
#[test]
fn cohort_outputs_match_solo_across_suite() {
    for spec in suite(ModelSize::Small, true) {
        let model = build(&spec, &CompileOptions::default());
        let members = member_batches(&spec, 3, 2);
        let solo = solo_references(&model, &spec.params, &members);

        let cohort_model = build(&spec, &CompileOptions::default().with_checked(true));
        let results = cohort_model.run_cohort(&requests(&spec, &members));
        assert_eq!(results.len(), 3, "{}: one result per member", spec.name);
        let mut shared = 0;
        for (m, result) in results.into_iter().enumerate() {
            let result = result.unwrap_or_else(|e| panic!("{}: member {m} failed: {e}", spec.name));
            assert_outputs_equal(&spec, &solo[m], &result.outputs, "cohort member");
            shared += result.stats.shared_flushes;
        }
        assert!(shared > 0, "{}: cohort never co-batched across requests", spec.name);
        let agg = cohort_model.stats();
        assert!(
            agg.shared_flushes > 0,
            "{}: aggregate lost the shared-flush classification",
            spec.name
        );
        assert_eq!(cohort_model.runs_completed(), 3, "{}: one ledger run per member", spec.name);
        assert_eq!(cohort_model.outcomes().completed, 3, "{}: outcome per member", spec.name);

        // A cohort of one *is* a solo run: same bits, same modeled and
        // counted statistics (wall-clock fields and the classification only
        // a cohort arms excepted), same ledger.
        let (solo_model, one_model) =
            (build(&spec, &Default::default()), build(&spec, &Default::default()));
        let alone = solo_model.run(&spec.params, &members[0]).expect("solo run");
        let one = one_model.run_cohort(&requests(&spec, &members[..1])).pop().expect("one result");
        let one = one.unwrap_or_else(|e| panic!("{}: cohort of one failed: {e}", spec.name));
        assert_outputs_equal(&spec, &alone.outputs, &one.outputs, "cohort of one");
        let modeled = |s: RuntimeStats| RuntimeStats {
            host_wall_us: 0.0,
            exec_wall_us: 0.0,
            program_host_us: 0.0,
            shared_flushes: 0,
            solo_flushes: 0,
            ..s
        };
        assert_eq!(modeled(alone.stats), modeled(one.stats), "{}: cohort of one stats", spec.name);
        for model in [&solo_model, &one_model] {
            assert_eq!(
                (model.runs_completed(), model.outcomes().completed),
                (1, 1),
                "{}",
                spec.name
            );
        }
    }
}

/// One call, every way a member can leave the cohort: a wrong key arity, a
/// peel for differing parameters, and two that merge.  Each lands in
/// exactly one outcome bucket and only completions count as runs.
#[test]
fn mixed_cohort_lands_each_member_in_one_bucket() {
    let spec = suite(ModelSize::Small, true).remove(0);
    let members = member_batches(&spec, 4, 2);
    let solo = solo_references(&build(&spec, &Default::default()), &spec.params, &members);
    let mut other_params: BTreeMap<_, _> =
        spec.params.iter().map(|(n, t)| (n.clone(), t.clone())).collect();
    other_params.values_mut().next().expect("a parameter").data_mut()[0] += 1.0;
    let other_params = Params::new(other_params);

    let model = build(&spec, &CompileOptions::default());
    let mut requests = requests(&spec, &members);
    requests[0].opts.keys = Some(vec![7]);
    requests[3].params = &other_params;
    let results = model.run_cohort(&requests);
    assert!(matches!(results[0], Err(VmError::Input(_))), "wrong arity: {:?}", results[0]);
    let mut classified = 0;
    for m in [1, 2] {
        let merged = results[m].as_ref().unwrap_or_else(|e| panic!("member {m} failed: {e}"));
        assert_outputs_equal(&spec, &solo[m], &merged.outputs, "merged member");
        classified += merged.stats.shared_flushes + merged.stats.solo_flushes;
    }
    assert!(classified > 0, "the merged pair ran partitioned");
    assert_eq!(results[3].as_ref().expect("peeled member runs solo").stats.solo_flushes, 0);
    let expected = ServeOutcomes { completed: 3, failed: 1, ..Default::default() };
    assert_eq!(model.outcomes(), expected, "one bucket per member");
    assert_eq!(model.runs_completed(), 3, "only completions are runs");
    assert_eq!(model.quarantined_count(), 0, "nothing failed on a context");
}

/// Cohort compatibility is `Params` identity: members bound to one `Params`
/// co-batch, a member bound to an equal-content copy is peeled to a solo
/// run (it would need its own resident weights), and every member's outputs
/// are its solo bits either way.
#[test]
fn cohort_merges_by_params_identity() {
    let spec = suite(ModelSize::Small, true).remove(0);
    let members = member_batches(&spec, 4, 2);
    let solo = solo_references(&build(&spec, &Default::default()), &spec.params, &members);
    let copy: Params = spec.params.iter().map(|(n, t)| (n.clone(), t.clone())).collect();
    let clone = spec.params.clone();

    let model = build(&spec, &CompileOptions::default());
    let mut requests = requests(&spec, &members);
    requests[1].params = &clone;
    requests[2].params = &copy;
    let results = model.run_cohort(&requests);
    let mut shared = 0;
    for (m, result) in results.iter().enumerate() {
        let result = result.as_ref().unwrap_or_else(|e| panic!("member {m} failed: {e}"));
        assert_outputs_equal(&spec, &solo[m], &result.outputs, "cohort member");
        if m == 2 {
            // Peeled: a solo run, statistics and all (a merged member's are
            // an apportioned share of the cohort's), wall clocks and the
            // compile-once cache's history excepted.
            let alone = build(&spec, &Default::default()).run(&copy, &members[2]).unwrap().stats;
            let solo_ledger = |s: RuntimeStats| RuntimeStats {
                host_wall_us: 0.0,
                exec_wall_us: 0.0,
                program_host_us: 0.0,
                backend_compiles: 0,
                backend_hits: 0,
                ..s
            };
            assert_eq!(solo_ledger(result.stats), solo_ledger(alone), "the copy ran solo");
        } else {
            shared += result.stats.shared_flushes;
        }
    }
    assert!(shared > 0, "the members sharing one Params co-batched");
    assert_eq!(model.outcomes(), ServeOutcomes { completed: 4, ..Default::default() });
}

/// A solo run is a request group of one, and one that fails has no peer to
/// isolate: its error is the request's genuine outcome, executed (and
/// quarantined) once.
#[test]
fn failing_cohort_of_one_runs_once() {
    let spec = suite(ModelSize::Small, true).remove(0);
    let model = build(&spec, &CompileOptions::default());
    let fault = FaultPlan::nth(FaultSite::Launch, 0, FaultKind::Kernel);
    let opts = RunOptions { fault: Some(fault), ..Default::default() };
    let err = model.run_with(&spec.params, &member_batches(&spec, 1, 2)[0], &opts).unwrap_err();
    assert!(matches!(err.as_vm(), Some(VmError::Tensor(TensorError::Injected { .. }))), "{err}");
    assert_eq!(model.quarantined_count(), 1, "one execution, one quarantined context");
    assert_eq!(model.outcomes(), ServeOutcomes { failed: 1, ..Default::default() });
    assert_eq!(model.runs_completed(), 0, "a failed run merges nothing");
}

/// Checked mode (every flush validated against the scheduler/DFG
/// invariants and the reference schedulers) on a tensor-dependent model:
/// the merged multi-request plans pass the full invariant suite and still
/// demux to bit-identical member outputs.
#[test]
fn cohort_matches_solo_under_checked_mode() {
    let spec = suite(ModelSize::Small, true)
        .into_iter()
        .find(|s| s.properties.tensor_dependent)
        .expect("a tensor-dependent quick model");
    let options = CompileOptions::default().with_checked(true);
    let model = build(&spec, &options);
    let members = member_batches(&spec, 2, 2);
    let solo = solo_references(&model, &spec.params, &members);

    let cohort_model = build(&spec, &options);
    let results = cohort_model.run_cohort(&requests(&spec, &members));
    for (m, result) in results.into_iter().enumerate() {
        let result = result.unwrap_or_else(|e| panic!("checked member {m} failed: {e}"));
        assert_outputs_equal(&spec, &solo[m], &result.outputs, "checked cohort member");
    }
}

/// Chaos rounds on a fiber model: one co-batched member is pre-cancelled /
/// deadline-expired / fault-stormed; the disrupted member observes its
/// genuine error and every surviving peer's outputs are bit-for-bit its
/// solo run.  The ledger balances: every request lands in exactly one
/// outcome bucket, and each cohort abort quarantines the shared context.
#[test]
fn chaos_member_never_poisons_peers() {
    let spec = suite(ModelSize::Small, true)
        .into_iter()
        .find(|s| s.properties.tensor_dependent)
        .expect("a tensor-dependent quick model");
    let reference_model = build(&spec, &CompileOptions::default());
    let members = member_batches(&spec, 3, 2);
    let solo = solo_references(&reference_model, &spec.params, &members);

    let model = build(&spec, &CompileOptions::default());
    let mut submitted = 0u64;
    let mut expect_completed = 0u64;

    // Round 1: pre-cancelled member.  Peeled out of the cohort before it
    // can abort anything; peers still merge with each other.
    {
        let token = CancelToken::new();
        token.cancel();
        let mut requests: Vec<CohortRequest<'_>> = members
            .iter()
            .map(|inst| CohortRequest {
                params: &spec.params,
                instances: inst,
                opts: RunOptions::default(),
            })
            .collect();
        requests[1].opts.cancel = Some(token);
        let mut results = model.run_cohort(&requests);
        submitted += 3;
        expect_completed += 2;
        let disrupted = results.remove(1);
        assert!(
            matches!(disrupted, Err(VmError::Cancelled)),
            "pre-cancelled member must cancel, got {disrupted:?}"
        );
        for (m, result) in [0usize, 2].into_iter().zip(results) {
            let result = result.unwrap_or_else(|e| panic!("cancel round peer {m} failed: {e}"));
            assert_outputs_equal(&spec, &solo[m], &result.outputs, "cancel-round survivor");
        }
    }

    // Round 2: zero deadline on one member, the peers without a budget and
    // then with a generous one.  The strictest member budget gates the
    // cohort, so the merged run aborts and every member re-runs solo: the
    // deadline member misses deterministically, the peers complete
    // bit-identically.
    for peer_budget in [None, Some(1e12)] {
        let mut requests: Vec<CohortRequest<'_>> = members
            .iter()
            .map(|inst| CohortRequest {
                params: &spec.params,
                instances: inst,
                opts: RunOptions { deadline_us: peer_budget, ..RunOptions::default() },
            })
            .collect();
        requests[1].opts.deadline_us = Some(0.0);
        let mut results = model.run_cohort(&requests);
        submitted += 3;
        expect_completed += 2;
        let disrupted = results.remove(1);
        assert!(
            matches!(disrupted, Err(VmError::DeadlineExceeded { .. })),
            "zero-deadline member must miss (peer budget {peer_budget:?}), got {disrupted:?}"
        );
        for (m, result) in [0usize, 2].into_iter().zip(results) {
            let result = result.unwrap_or_else(|e| {
                panic!("deadline round peer {m} (budget {peer_budget:?}) failed: {e}")
            });
            assert_outputs_equal(&spec, &solo[m], &result.outputs, "deadline-round survivor");
        }
    }

    // Round 3: deterministic kernel fault on one member (first launch).
    // The fault fires inside the merged run, aborts the whole cohort, and
    // reproduces in the member's solo re-run; peers re-run clean.
    {
        let mut requests: Vec<CohortRequest<'_>> = members
            .iter()
            .map(|inst| CohortRequest {
                params: &spec.params,
                instances: inst,
                opts: RunOptions::default(),
            })
            .collect();
        requests[1].opts.fault = Some(FaultPlan::nth(FaultSite::Launch, 0, FaultKind::Kernel));
        let mut results = model.run_cohort(&requests);
        submitted += 3;
        expect_completed += 2;
        let disrupted = results.remove(1);
        assert!(
            matches!(disrupted, Err(VmError::Tensor(TensorError::Injected { .. }))),
            "faulted member must surface its injected fault, got {disrupted:?}"
        );
        for (m, result) in [0usize, 2].into_iter().zip(results) {
            let result = result.unwrap_or_else(|e| panic!("fault round peer {m} failed: {e}"));
            assert_outputs_equal(&spec, &solo[m], &result.outputs, "fault-round survivor");
        }
    }

    // Ledger balance: every submitted request in exactly one bucket, only
    // completions merged, and the two deadline + one fault cohort aborts
    // (plus the disrupted solo re-runs) quarantined their contexts.
    let outcomes = model.outcomes();
    assert_eq!(outcomes.total(), submitted, "every request lands in one outcome bucket");
    assert_eq!(outcomes.completed, expect_completed, "survivor completions");
    assert_eq!(outcomes.cancelled, 1, "one cancellation");
    assert_eq!(outcomes.deadline_exceeded, 2, "one deadline miss per round-2 cohort");
    assert_eq!(outcomes.failed, 1, "one injected fault");
    assert_eq!(model.runs_completed(), expect_completed, "stats merged once per completion");
    assert!(
        model.quarantined_count() >= 3,
        "cohort aborts must quarantine the shared context, saw {}",
        model.quarantined_count()
    );
}

/// The compiled kernels under cross-request batching: a 3-member cohort
/// running unchecked (every launch runs compiled, nothing re-executed)
/// demuxes to outputs bit-identical to solo runs of the checked oracle,
/// whose outputs are the interpreter's bits.  Cohort lane layouts differ
/// from solo layouts, so this crosses the compiled ≡ interpreter contract
/// with the co-batching-invisibility contract in one shot.
#[test]
fn cohort_spec_backend_matches_interp_solo() {
    let spec = suite(ModelSize::Small, true)
        .into_iter()
        .find(|s| s.properties.tensor_dependent)
        .expect("a tensor-dependent quick model");
    let reference_model = build(&spec, &CompileOptions::default().with_checked(true));
    let members = member_batches(&spec, 3, 2);
    let solo = solo_references(&reference_model, &spec.params, &members);

    let cohort_model = build(&spec, &CompileOptions::default());
    let results = cohort_model.run_cohort(&requests(&spec, &members));
    for (m, result) in results.into_iter().enumerate() {
        let result = result.unwrap_or_else(|e| panic!("cohort member {m} failed: {e}"));
        assert_outputs_equal(&spec, &solo[m], &result.outputs, "unchecked cohort member");
    }
    let agg = cohort_model.stats();
    assert!(agg.shared_flushes > 0, "cohort co-batched across requests");
    assert!(agg.backend_compiles > 0, "cohort ran compiled kernels");
    assert_eq!(
        agg.backend_compiles + agg.backend_hits,
        agg.kernel_launches,
        "every launch compiled"
    );
}
