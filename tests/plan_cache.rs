//! Integration tests for flush-plan memoization over the real model suite:
//! cache-on serving is bit-for-bit identical to cache-off, steady-state
//! requests are served almost entirely from the cache, and checked mode
//! gates every hit with the cached ≡ freshly-scheduled invariant.

use acrobat_bench::suite;
use acrobat_core::CompileOptions;
use acrobat_models::testkit::{assert_outputs_equal as assert_bit_identical, build};
use acrobat_models::ModelSize;

/// Cache-on ≡ cache-off over the whole suite, on both the warm-up request
/// (miss path: schedule + freeze + publish) and steady-state requests
/// (hit path: signature probe + remap).
#[test]
fn cache_on_matches_cache_off_bit_for_bit() {
    for spec in suite(ModelSize::Small, true) {
        let instances = (spec.make_instances)(0x9CAC, 4);
        let off = build(&spec, &CompileOptions::default());
        let on = build(&spec, &CompileOptions::default().with_plan_cache(true));
        let want = off.run(&spec.params, &instances).expect("cache-off run").outputs;
        for round in 0..3 {
            let got = on.run(&spec.params, &instances).expect("cache-on run").outputs;
            assert_bit_identical(&spec, &want, &got, &format!("round {round}"));
        }
        // The off model never touches the cache machinery.
        let off_stats = off.stats();
        assert_eq!(off_stats.plan_cache_hits, 0, "{}: cache-off hits", spec.name);
        assert_eq!(off_stats.plan_cache_misses, 0, "{}: cache-off misses", spec.name);
        assert_eq!(off_stats.plan_sig_us, 0.0, "{}: cache-off signature time", spec.name);
    }
}

/// After one warm-up request per model, steady-state requests must resolve
/// their flush windows from the cache at ≥ 90% (the check.sh smoke gate —
/// in practice it is 100%: identical requests replay identical windows).
///
/// Fiber-mode models (`tensor_dependent`) are held to the same gate as
/// sequential ones: lane-canonical signing makes the window signature a
/// function of the fork-path lane multiset, not of the OS thread
/// interleave, and the join handoff pins window boundaries, so a repeated
/// request replays the same signature stream no matter how its fibers are
/// scheduled.
#[test]
fn steady_state_hit_rate_is_at_least_90_percent() {
    for spec in suite(ModelSize::Small, true) {
        let instances = (spec.make_instances)(0x57EA, 4);
        let model = build(&spec, &CompileOptions::default().with_plan_cache(true));

        let warm = model.run(&spec.params, &instances).expect("warm-up").stats;
        assert!(warm.plan_cache_misses > 0, "{}: first request must miss", spec.name);

        let (mut hits, mut misses) = (0u64, 0u64);
        let mut sig_us = 0.0;
        for _ in 0..5 {
            let s = model.run(&spec.params, &instances).expect("steady request").stats;
            hits += s.plan_cache_hits;
            misses += s.plan_cache_misses;
            sig_us += s.plan_sig_us;
        }
        let rate = hits as f64 / (hits + misses).max(1) as f64;
        assert!(
            rate >= 0.9,
            "{}: steady-state hit rate {rate:.2} ({hits} hits / {misses} misses)",
            spec.name
        );
        assert!(sig_us > 0.0, "{}: flushes must charge signature time", spec.name);
    }
}

/// Run-to-run signature determinism for the fiber-mode DRNN: two freshly
/// built models (independent caches) serve the identical request sequence
/// and must produce bit-identical per-request window-signature digests
/// ([`acrobat_runtime::RuntimeStats::plan_sig_chain`]) and hit/miss
/// streams.  This is the regression test for interleave-dependent
/// signatures: before lane-canonical signing, each OS-level fiber
/// interleave hashed differently and the streams diverged run to run.
#[test]
fn drnn_signature_stream_is_identical_across_runs() {
    let spec = suite(ModelSize::Small, true)
        .into_iter()
        .find(|s| s.name == "DRNN")
        .expect("suite contains DRNN");
    let instances = (spec.make_instances)(0xD2DD, 4);
    let run_stream = || {
        let model = build(&spec, &CompileOptions::default().with_plan_cache(true));
        let mut stream = Vec::new();
        for _ in 0..4 {
            let s = model.run(&spec.params, &instances).expect("request").stats;
            stream.push((s.plan_sig_chain, s.plan_cache_hits, s.plan_cache_misses));
        }
        stream
    };
    let first = run_stream();
    let second = run_stream();
    assert_eq!(
        first, second,
        "DRNN signature/hit streams must be identical across runs at any interleave"
    );
    assert!(first.iter().all(|&(chain, _, _)| chain != 0), "every request must sign windows");
    let hits: u64 = first.iter().skip(1).map(|&(_, h, _)| h).sum();
    let misses: u64 = first.iter().skip(1).map(|&(_, _, m)| m).sum();
    let rate = hits as f64 / (hits + misses).max(1) as f64;
    assert!(rate >= 0.9, "DRNN steady-state hit rate {rate:.2} ({hits}/{misses})");
}

/// Steady-state scheduling is cheaper with the cache than without: a hit
/// charges only the signature + remap model costs, never per-decision cost.
#[test]
fn steady_state_scheduling_is_cheaper_than_cache_off() {
    let spec = suite(ModelSize::Small, true).remove(0);
    let instances = (spec.make_instances)(0x5CED, 6);
    let off = build(&spec, &CompileOptions::default());
    let on = build(&spec, &CompileOptions::default().with_plan_cache(true));
    let off_sched = off.run(&spec.params, &instances).expect("off").stats.scheduling_us;
    on.run(&spec.params, &instances).expect("warm-up");
    let on_sched = on.run(&spec.params, &instances).expect("steady").stats.scheduling_us;
    assert!(
        on_sched < off_sched,
        "{}: steady-state scheduling {on_sched:.3}us must beat cache-off {off_sched:.3}us",
        spec.name
    );
}

/// Checked mode replans every hit from scratch and asserts the cached plan
/// is bit-identical (decisions, partition, launch order) before use — the
/// run must complete, actually exercise hits, and stay correct.
#[test]
fn checked_mode_gates_every_hit() {
    for spec in suite(ModelSize::Small, true) {
        let instances = (spec.make_instances)(0xC4EC, 4);
        let reference = build(&spec, &CompileOptions::default());
        let want = reference.run(&spec.params, &instances).expect("reference").outputs;
        let checked =
            build(&spec, &CompileOptions::default().with_plan_cache(true).with_checked(true));
        checked.run(&spec.params, &instances).expect("checked warm-up");
        let steady = checked.run(&spec.params, &instances).expect("checked steady");
        assert!(steady.stats.plan_cache_hits > 0, "{}: checked steady run must hit", spec.name);
        assert_bit_identical(&spec, &want, &steady.outputs, "checked steady");
    }
}
