//! Property tests for flush-plan memoization: plans served from a warmed
//! cache are bit-identical to freshly scheduled ones, across random DAGs,
//! both schedulers, shifted id bases, and pathologically small cache
//! geometries (forced evictions).

use acrobat_codegen::KernelId;
use acrobat_runtime::plan_cache::{
    plan_cached, CacheConfig, CacheOutcome, CachedPlan, PlanCache, PlanL1,
};
use acrobat_runtime::scheduler::{self, Plan, SchedulerScratch};
use acrobat_runtime::{Dfg, SchedulerKind};
use acrobat_tensor::{DeviceMem, Tensor};
use proptest::prelude::*;

fn cache_cfg(kind: SchedulerKind) -> CacheConfig {
    CacheConfig { kind, gather_fusion: true, coarsen: true, lane_cap: 0, share: true }
}

/// Builds a random DAG with signature tracking on, preceded by `prefix`
/// already-executed junk nodes so the structured window starts at a
/// shifted `NodeId` base.  The window's *structure* depends only on
/// `(n, kernels, edges, sigs)` — two calls with the same parameters and
/// different prefixes produce windows that must hash identically.
fn random_dfg(n: usize, kernels: u32, edges: &[usize], sigs: &[u64], prefix: usize) -> Dfg {
    let mut mem = DeviceMem::new(1 << 18);
    let mut dfg = Dfg::new();
    dfg.set_signature_tracking(true);
    for i in 0..prefix {
        let (id, _) = dfg.add_node(KernelId(0), i, 0, 0, 0, vec![], 1);
        let t = mem.upload(&Tensor::ones(&[1])).unwrap();
        dfg.complete_node(id, vec![t]);
    }
    let mut outputs = Vec::new();
    let mut depths: Vec<u64> = Vec::new();
    for i in 0..n {
        let mut args = Vec::new();
        let mut dep_depth = 0u64;
        if i > 0 {
            for k in 0..2 {
                let pick = edges[(i * 2 + k) % edges.len()] % (i + 1);
                if pick < i {
                    args.push(outputs[pick]);
                    dep_depth = dep_depth.max(depths[pick] + 1);
                } else {
                    args.push(dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap()));
                }
            }
        } else {
            args.push(dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap()));
        }
        let kernel = KernelId((i as u32 * 7 + 3) % kernels);
        let sig = sigs[i % sigs.len()] % 3;
        let depth = dep_depth.max((i / 3) as u64);
        let (_, outs) = dfg.add_node(kernel, i % 4, depth, 0, sig, args, 1);
        depths.push(depth);
        outputs.push(outs[0]);
    }
    dfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Warm the cache on one window, then schedule the *same structure* at
    /// a shifted id base through the cache: the probe must hit, and the
    /// remapped plan must be bit-identical (partition, launch order,
    /// decisions) to scheduling that window fresh.
    #[test]
    fn warmed_cache_plans_are_bit_identical(
        n in 1usize..60,
        kernels in 1u32..6,
        edges in proptest::collection::vec(0usize..64, 8..128),
        sigs in proptest::collection::vec(0u64..8, 1..8),
        prefix in 1usize..6,
    ) {
        for kind in SchedulerKind::ALL {
            let cache = PlanCache::new();
            let mut l1 = PlanL1::new();
            let mut scratch = SchedulerScratch::new();
            let mut plan = Plan::default();
            let cfg = cache_cfg(kind);

            let mut warm = random_dfg(n, kernels, &edges, &sigs, 0);
            let first = plan_cached(&cfg, &mut warm, &mut scratch, &mut l1, &cache, &mut plan);
            prop_assert!(matches!(first, CacheOutcome::Miss { .. }), "{:?}: cold probe must miss", kind);
            let fresh = scheduler::plan(kind, &warm);
            prop_assert_eq!(plan.to_batches(), fresh.to_batches(), "{:?}: miss path diverged", kind);

            let mut shifted = random_dfg(n, kernels, &edges, &sigs, prefix);
            let second = plan_cached(&cfg, &mut shifted, &mut scratch, &mut l1, &cache, &mut plan);
            prop_assert_eq!(second, CacheOutcome::Hit, "{:?}: same structure must hit", kind);
            let fresh_shifted = scheduler::plan(kind, &shifted);
            prop_assert_eq!(
                plan.to_batches(),
                fresh_shifted.to_batches(),
                "{:?}: remapped plan diverged from fresh schedule", kind
            );
            prop_assert_eq!(plan.decisions, fresh_shifted.decisions, "{:?}: decisions diverged", kind);
        }
    }

    /// The shared-cache probe must also hit with a cold L1 (a different
    /// context warming from another context's publish).
    #[test]
    fn shared_cache_hits_across_contexts(
        n in 1usize..40,
        kernels in 1u32..5,
        edges in proptest::collection::vec(0usize..64, 8..64),
        sigs in proptest::collection::vec(0u64..8, 1..8),
    ) {
        let kind = SchedulerKind::InlineDepth;
        let cache = PlanCache::new();
        let mut scratch = SchedulerScratch::new();
        let mut plan = Plan::default();
        let cfg = cache_cfg(kind);

        let mut warm = random_dfg(n, kernels, &edges, &sigs, 0);
        let mut publisher_l1 = PlanL1::new();
        plan_cached(&cfg, &mut warm, &mut scratch, &mut publisher_l1, &cache, &mut plan);

        let mut probe = random_dfg(n, kernels, &edges, &sigs, 2);
        let mut cold_l1 = PlanL1::new();
        let out = plan_cached(&cfg, &mut probe, &mut scratch, &mut cold_l1, &cache, &mut plan);
        prop_assert_eq!(out, CacheOutcome::Hit, "cold L1 must fall through to the shared cache");
        prop_assert_eq!(plan.to_batches(), scheduler::plan(kind, &probe).to_batches());
    }

    /// Collision/eviction stress: a one-shard, tiny-capacity cache churns
    /// through several distinct structures; whatever mix of hits, misses
    /// and evictions results, every served plan must equal a fresh
    /// schedule bit for bit.
    #[test]
    fn tiny_cache_stays_correct_under_eviction(
        base_n in 2usize..12,
        shapes in 2usize..5,
        rounds in 2usize..5,
        edges in proptest::collection::vec(0usize..64, 8..64),
        sigs in proptest::collection::vec(0u64..8, 1..8),
    ) {
        let kind = SchedulerKind::InlineDepth;
        let cache = PlanCache::with_capacity(1, 1);
        let mut l1 = PlanL1::new();
        let mut scratch = SchedulerScratch::new();
        let mut plan = Plan::default();
        let cfg = cache_cfg(kind);

        // Distinct structures (different window lengths), probed round-robin.
        let mut dfgs: Vec<Dfg> =
            (0..shapes).map(|s| random_dfg(base_n + s, 3, &edges, &sigs, s)).collect();
        for _ in 0..rounds {
            for dfg in &mut dfgs {
                let out = plan_cached(&cfg, dfg, &mut scratch, &mut l1, &cache, &mut plan);
                prop_assert!(!matches!(out, CacheOutcome::Bypass), "clean windows never bypass");
                let fresh = scheduler::plan(kind, dfg);
                prop_assert_eq!(plan.to_batches(), fresh.to_batches(), "eviction churn corrupted a plan");
                prop_assert_eq!(plan.decisions, fresh.decisions);
            }
        }
        prop_assert!(cache.entry_count() <= 1, "capacity must bound residency");
    }

    /// Probe keys truncate `lane_cap` to 48 bits, so two distinct
    /// `(scheduler, lane_cap)` configurations can alias to one key (the
    /// routing key is lossy by design).  An aliased entry must fail the
    /// full-field verify and re-schedule — a plan frozen under one lane cap
    /// must never be served under another.
    #[test]
    fn lane_cap_probe_key_aliasing_is_rejected(
        n in 1usize..30,
        kernels in 1u32..5,
        edges in proptest::collection::vec(0usize..64, 8..64),
        sigs in proptest::collection::vec(0u64..8, 1..8),
        cap in 1usize..16,
    ) {
        let kind = SchedulerKind::InlineDepth;
        let cache = PlanCache::new();
        let mut scratch = SchedulerScratch::new();
        let mut plan = Plan::default();
        let cfg_a = CacheConfig { lane_cap: cap, ..cache_cfg(kind) };
        // Identical key bits: `bits()` packs `lane_cap << 16` into a 64-bit
        // word, so everything at or above 2^48 is dropped.
        let cfg_b = CacheConfig { lane_cap: cap + (1usize << 48), ..cache_cfg(kind) };

        let mut l1 = PlanL1::new();
        let mut warm = random_dfg(n, kernels, &edges, &sigs, 0);
        let first = plan_cached(&cfg_a, &mut warm, &mut scratch, &mut l1, &cache, &mut plan);
        prop_assert!(matches!(first, CacheOutcome::Miss { .. }), "cold probe must miss");
        let fresh_warm = scheduler::plan(kind, &warm);

        // Same window structure under the aliasing configuration: both the
        // L1 slot and the shared-cache shard route to the colliding key,
        // but the entry's exact lane_cap differs — must miss, not serve
        // the stale full-size plan.
        let mut probe = random_dfg(n, kernels, &edges, &sigs, 1);
        let out = plan_cached(&cfg_b, &mut probe, &mut scratch, &mut l1, &cache, &mut plan);
        prop_assert!(
            matches!(out, CacheOutcome::Miss { .. }),
            "aliased lane_cap served a stale plan: {:?}", out
        );
        let fresh_probe = scheduler::plan(kind, &probe);
        prop_assert_eq!(plan.to_batches(), fresh_probe.to_batches());
        prop_assert_eq!(plan.decisions, fresh_probe.decisions);

        // Direct slot check: an entry frozen under `cfg_a` verify-fails for
        // `cfg_b` even when probed with the very key it was inserted at,
        // while the exact configuration still verifies.
        let win = warm.window_signature().expect("clean window signs");
        let frozen = std::sync::Arc::new(CachedPlan::freeze(&warm, &fresh_warm, &win, &cfg_a));
        let mut slot = PlanL1::new();
        slot.insert(0x5EED, std::sync::Arc::clone(&frozen));
        prop_assert!(slot.get(0x5EED, &win, &cfg_a).is_some(), "exact config must verify");
        prop_assert!(
            slot.get(0x5EED, &win, &cfg_b).is_none(),
            "aliased config must be rejected by the full-field verify"
        );
    }
}
