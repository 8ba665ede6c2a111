//! Flush-plan memoization: structural window signatures → frozen plans.
//!
//! ACROBAT pushes batching work to compile time because re-deriving it per
//! invocation is wasted; this module applies the same logic to the *flush*:
//! production traffic draws from a small family of DFG shapes (the paper's
//! tree/sentence suites, any serving workload with repeated request
//! structure), so in steady state every scheduling run recomputes a plan
//! the runtime has already produced.  The cache turns those flushes into a
//! hash probe plus an O(n) remap.
//!
//! # Signature
//!
//! [`crate::dfg::WindowSig`] is folded incrementally during DFG
//! construction (amortizing the hash over `add_node`, where the metadata is
//! already in registers): per node it commits the kernel id, phase, depth,
//! shared-operand signature, arity, and each argument's *window-relative*
//! producer distance — the same packed keys the schedulers group on.  The
//! signature is therefore order-independent over lane identity: two windows
//! with identical structure hash equal no matter which request, instance
//! numbering or absolute id offsets produced them.  A clean window is by
//! construction a contiguous id range `base..base + n`, so a frozen plan
//! stores dense window positions and remapping onto a new window is a
//! single offset add per node.
//!
//! # Keying and invalidation
//!
//! The probe key mixes the signature with every configuration bit the plan
//! depends on — `(SchedulerKind, gather_fusion, coarsen, lane_cap)` — so an
//! ablation sweep can never be served another configuration's plan.  The
//! shared cache lives on the [`crate::Engine`]; [`crate::Engine::retuned`]
//! builds a *new* engine (and with it a fresh cache), which is wholesale
//! invalidation for free.  Contexts that observed a fault
//! ([`crate::ExecutionContext::tainted`]) keep read access but never
//! publish ([`CacheConfig::share`]), so a quarantined context cannot poison
//! the shared cache.
//!
//! # Concurrency
//!
//! The flush hot path stays zero-shared-lock in steady state: each context
//! probes its private direct-mapped [`PlanL1`] first and only falls through
//! to the sharded, read-locked [`PlanCache`] on an L1 miss.  Probes verify
//! both signature accumulators plus the window length, so a false hit
//! requires a simultaneous 2×64-bit collision; checked mode additionally
//! re-schedules every hit from scratch and asserts bit-for-bit equality
//! ([`crate::check::validate_cached_plan`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::dfg::{Dfg, WindowSig};
use crate::hash::FoldBuildHasher;
use crate::scheduler::{self, Plan, SchedulerKind, SchedulerScratch};

/// splitmix64 finalizer (the workspace-standard mixer).
#[inline]
fn mix64(v: u64) -> u64 {
    let mut x = v.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The configuration bits a frozen plan depends on, mixed into every probe
/// key so stale plans can never cross configurations.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Scheduling algorithm the plan was produced by.
    pub kind: SchedulerKind,
    /// Gather-fusion setting (execution layout baked into the launch
    /// template).
    pub gather_fusion: bool,
    /// Grain-size coarsening setting.
    pub coarsen: bool,
    /// Lane cap the plan was made under (0 = none).  The runtime launches
    /// every planned batch whole and always keys 0; a nonzero cap keys a
    /// separate set of entries.
    pub lane_cap: usize,
    /// Whether misses may publish into the shared cache.  `false` for
    /// tainted (quarantined) contexts.
    pub share: bool,
}

impl CacheConfig {
    /// Derives the config from resolved runtime options plus whether the
    /// context is tainted.
    pub fn from_options(options: &crate::RuntimeOptions, tainted: bool) -> Self {
        CacheConfig {
            kind: options.scheduler,
            gather_fusion: options.gather_fusion,
            coarsen: options.coarsen,
            lane_cap: 0,
            share: !tainted,
        }
    }

    /// Packs the configuration into the key-mixing bits.
    fn bits(&self) -> u64 {
        let kind = match self.kind {
            SchedulerKind::InlineDepth => 1u64,
            SchedulerKind::Agenda => 3,
        };
        kind | (self.gather_fusion as u64) << 8
            | (self.coarsen as u64) << 9
            | (self.lane_cap as u64) << 16
    }
}

/// The probe key: window signature mixed with the configuration bits.
///
/// The key only *routes* the probe; it is not trusted for identity.  In
/// particular `bits()` truncates `lane_cap` to 48 bits, so two distinct
/// configurations can alias to one key — entries therefore store their
/// exact configuration and [`CachedPlan::matches`] verifies it field by
/// field before a hit is served.
fn probe_key(cfg: &CacheConfig, win: &WindowSig) -> u64 {
    mix64(win.sig ^ mix64(cfg.bits()))
}

/// Outcome of one [`plan_cached`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The plan was served by remapping a frozen entry (L1 or shared).
    Hit,
    /// The window was scheduled fresh and (where allowed) published;
    /// `evicted` counts shared-cache entries displaced by the insert.
    Miss {
        /// Entries evicted from the shared cache by this insert.
        evicted: u64,
    },
    /// No clean window signature was available (a partial completion —
    /// eager drain or aborted-flush retry — dirtied it); scheduled fresh,
    /// nothing published.
    Bypass,
}

/// A plan frozen in window-relative coordinates.
#[derive(Debug)]
pub struct CachedPlan {
    /// Signature of the origin window (`base` is not used for matching —
    /// the whole point is that the structure recurs at new offsets).
    sig: WindowSig,
    /// Scheduler the plan was produced by (exact-match verified on probe:
    /// the probe key is lossy, entries are not).
    kind: SchedulerKind,
    /// Gather-fusion setting the plan was produced under.
    gather_fusion: bool,
    /// Coarsening setting the plan was produced under.
    coarsen: bool,
    /// Full-width lane cap the plan was produced under.  `bits()` packs
    /// this into 48 key bits, so two different caps can alias to one probe
    /// key — this field is what actually rejects the stale entry.
    lane_cap: usize,
    /// *Canonical window positions* of [`Plan::nodes`]: entry `i` is
    /// `canon_pos(plan.nodes[i])` — the window offset for sequential
    /// windows, the lane-sorted rank in lane-canonical mode.
    nodes: Box<[u32]>,
    /// Flat-CSR batch boundaries, copied verbatim.
    offsets: Box<[u32]>,
    /// Modeled elementary decisions of the frozen plan (the decisions
    /// contract survives memoization unchanged).
    decisions: u64,
}

impl CachedPlan {
    /// Freezes a freshly scheduled plan for the window `win`, produced
    /// under configuration `cfg`.  Node references are stored in canonical
    /// window coordinates ([`Dfg::canon_pos`]), which for lane-canonical
    /// windows are interleave-invariant — the property that lets a plan
    /// frozen under one fiber interleaving be replayed under any other.
    pub fn freeze(dfg: &Dfg, plan: &Plan, win: &WindowSig, cfg: &CacheConfig) -> CachedPlan {
        debug_assert_eq!(plan.num_nodes(), win.n as usize, "plan must cover the window");
        CachedPlan {
            sig: *win,
            kind: cfg.kind,
            gather_fusion: cfg.gather_fusion,
            coarsen: cfg.coarsen,
            lane_cap: cfg.lane_cap,
            nodes: plan.nodes.iter().map(|id| dfg.canon_pos(*id)).collect(),
            offsets: plan.offsets.clone().into_boxed_slice(),
            decisions: plan.decisions,
        }
    }

    /// Whether this entry is the plan for window `win` under configuration
    /// `cfg`: both signature accumulators, the window length *and* every
    /// configuration field must agree exactly — probe-key aliasing (e.g.
    /// two lane caps colliding in `bits()`'s 48-bit pack) is rejected
    /// here, never served.
    pub fn matches(&self, win: &WindowSig, cfg: &CacheConfig) -> bool {
        self.sig.sig == win.sig
            && self.sig.check == win.check
            && self.sig.n == win.n
            && self.kind == cfg.kind
            && self.gather_fusion == cfg.gather_fusion
            && self.coarsen == cfg.coarsen
            && self.lane_cap == cfg.lane_cap
    }

    /// Rebinds the frozen plan onto the current window of `dfg`: one
    /// canonical-position → id lookup per node ([`Dfg::id_at_canon`] — an
    /// offset add for sequential windows), no allocation when `out` has
    /// capacity.
    pub fn remap_into(&self, dfg: &Dfg, out: &mut Plan) {
        out.clear();
        out.nodes.extend(self.nodes.iter().map(|&p| dfg.id_at_canon(p)));
        out.offsets.extend_from_slice(&self.offsets);
        out.decisions = self.decisions;
    }
}

/// L1 slot count (power of two).
const L1_SLOTS: usize = 64;

/// Per-context direct-mapped front cache: absorbs steady-state probes so
/// the flush path touches no shared state at all on a warm shape.
/// Retained across [`crate::ExecutionContext`] resets (a pooled context's
/// warm set *is* the steady state).
#[derive(Debug)]
pub struct PlanL1 {
    slots: Vec<Option<(u64, Arc<CachedPlan>)>>,
}

impl Default for PlanL1 {
    fn default() -> Self {
        PlanL1::new()
    }
}

impl PlanL1 {
    /// An empty L1.
    pub fn new() -> PlanL1 {
        PlanL1 { slots: vec![None; L1_SLOTS] }
    }

    /// The resident entry for `key`, iff it verifies against `win` *and*
    /// `cfg` (full-field match — see [`CachedPlan::matches`]).  Public so
    /// property tests can exercise the aliasing-rejection path directly.
    pub fn get(&self, key: u64, win: &WindowSig, cfg: &CacheConfig) -> Option<Arc<CachedPlan>> {
        match &self.slots[key as usize & (L1_SLOTS - 1)] {
            Some((k, e)) if *k == key && e.matches(win, cfg) => Some(Arc::clone(e)),
            _ => None,
        }
    }

    /// Installs `entry` in `key`'s direct-mapped slot.
    pub fn insert(&mut self, key: u64, entry: Arc<CachedPlan>) {
        self.slots[key as usize & (L1_SLOTS - 1)] = Some((key, entry));
    }
}

/// One shard of the shared cache.  The FIFO mirrors the map's key set so
/// eviction order is deterministic (hash-map iteration order is not).
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Arc<CachedPlan>, FoldBuildHasher>,
    fifo: VecDeque<u64>,
}

/// Default shard count (power of two).
const DEFAULT_SHARDS: usize = 16;
/// Default per-shard entry capacity.
const DEFAULT_SHARD_CAPACITY: usize = 128;

/// The engine-resident shared plan cache: sharded `RwLock`s so concurrent
/// flush paths take only a read lock, and only on an L1 miss.
#[derive(Debug)]
pub struct PlanCache {
    shards: Box<[RwLock<Shard>]>,
    shard_capacity: usize,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// A cache with the default geometry (16 shards × 128 entries).
    pub fn new() -> PlanCache {
        PlanCache::with_capacity(DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY)
    }

    /// A cache with explicit geometry — tests force tiny capacities to
    /// stress collision/eviction behavior.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not a power of two or `shard_capacity` is 0.
    pub fn with_capacity(shards: usize, shard_capacity: usize) -> PlanCache {
        assert!(shards.is_power_of_two(), "shard count must be a power of two");
        assert!(shard_capacity > 0, "shard capacity must be positive");
        PlanCache {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            shard_capacity,
            evictions: AtomicU64::new(0),
        }
    }

    /// The shard for `key`; high bits select so the choice does not
    /// correlate with L1 slots or the in-shard hash.
    fn shard(&self, key: u64) -> &RwLock<Shard> {
        &self.shards[(key >> 48) as usize & (self.shards.len() - 1)]
    }

    fn get(&self, key: u64, win: &WindowSig, cfg: &CacheConfig) -> Option<Arc<CachedPlan>> {
        let shard = self.shard(key).read();
        match shard.map.get(&key) {
            Some(e) if e.matches(win, cfg) => Some(Arc::clone(e)),
            _ => None,
        }
    }

    /// Inserts (or refreshes) an entry; returns how many entries FIFO
    /// eviction displaced.
    fn insert(&self, key: u64, entry: Arc<CachedPlan>) -> u64 {
        let mut shard = self.shard(key).write();
        let mut evicted = 0u64;
        if shard.map.insert(key, entry).is_none() {
            shard.fifo.push_back(key);
            while shard.map.len() > self.shard_capacity {
                let old = shard.fifo.pop_front().expect("fifo mirrors map keys");
                debug_assert_ne!(old, key, "capacity >= 1 keeps the new key resident");
                if shard.map.remove(&old).is_some() {
                    evicted += 1;
                }
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        evicted
    }

    /// Total entries currently resident (diagnostics).
    pub fn entry_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// Total entries ever evicted (diagnostics).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// The cache-assisted scheduling entry point, shared by the flush path,
/// the benchmarks and the tests: probes L1 then the shared cache, remaps
/// on a hit, and falls back to [`scheduler::plan_into`] (freezing and
/// publishing the result) on a miss.
pub fn plan_cached(
    cfg: &CacheConfig,
    dfg: &mut Dfg,
    scratch: &mut SchedulerScratch,
    l1: &mut PlanL1,
    shared: &PlanCache,
    out: &mut Plan,
) -> CacheOutcome {
    // `&mut` because lane-canonical windows derive (and memoize) their
    // canonical order on first signature access; repeat calls are O(1).
    let Some(win) = dfg.window_signature() else {
        scheduler::plan_into(cfg.kind, dfg, scratch, out);
        return CacheOutcome::Bypass;
    };
    let key = probe_key(cfg, &win);
    if let Some(entry) = l1.get(key, &win, cfg) {
        entry.remap_into(dfg, out);
        return CacheOutcome::Hit;
    }
    if let Some(entry) = shared.get(key, &win, cfg) {
        entry.remap_into(dfg, out);
        l1.insert(key, entry);
        return CacheOutcome::Hit;
    }
    scheduler::plan_into(cfg.kind, dfg, scratch, out);
    let entry = Arc::new(CachedPlan::freeze(dfg, out, &win, cfg));
    let evicted = if cfg.share { shared.insert(key, Arc::clone(&entry)) } else { 0 };
    l1.insert(key, entry);
    CacheOutcome::Miss { evicted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_codegen::KernelId;

    fn cfg(kind: SchedulerKind) -> CacheConfig {
        CacheConfig { kind, gather_fusion: true, coarsen: true, lane_cap: 0, share: true }
    }

    /// A two-level chain window: `n` roots feeding `n` dependents.
    fn build_window(dfg: &mut Dfg, n: usize) {
        for i in 0..n {
            let (_, o) = dfg.add_node(KernelId(0), i, 0, 0, 7, vec![], 1);
            dfg.add_node(KernelId(1), i, 1, 0, 7, vec![o[0]], 1);
        }
    }

    #[test]
    fn second_identical_window_hits_and_remaps() {
        let mut mem = acrobat_tensor::DeviceMem::new(1 << 16);
        let mut dfg = Dfg::new();
        dfg.set_signature_tracking(true);
        build_window(&mut dfg, 4);

        let cache = PlanCache::new();
        let mut l1 = PlanL1::new();
        let mut scratch = SchedulerScratch::new();
        let mut plan = Plan::default();
        let c = cfg(SchedulerKind::InlineDepth);

        let first = plan_cached(&c, &mut dfg, &mut scratch, &mut l1, &cache, &mut plan);
        assert!(matches!(first, CacheOutcome::Miss { .. }));
        let first_batches = plan.to_batches();

        // Drain the window, then rebuild the same structure at new ids.
        let pending: Vec<_> = plan.batches().map(|b| b.to_vec()).collect();
        for batch in pending {
            let outs = vec![(0..batch.len())
                .map(|_| mem.upload(&acrobat_tensor::Tensor::ones(&[1])).unwrap())
                .collect()];
            dfg.complete_batch(&batch, outs);
        }
        build_window(&mut dfg, 4);
        let hit = plan_cached(&c, &mut dfg, &mut scratch, &mut l1, &cache, &mut plan);
        assert_eq!(hit, CacheOutcome::Hit);

        // The remapped plan must be the fresh plan shifted by the window
        // base delta (8 nodes per window).
        let shifted: Vec<Vec<crate::NodeId>> = first_batches
            .iter()
            .map(|b| b.iter().map(|id| crate::NodeId(id.0 + 8)).collect())
            .collect();
        assert_eq!(plan.to_batches(), shifted);
    }

    #[test]
    fn partial_completion_bypasses() {
        let mut mem = acrobat_tensor::DeviceMem::new(1 << 16);
        let mut dfg = Dfg::new();
        dfg.set_signature_tracking(true);
        build_window(&mut dfg, 2);
        let roots: Vec<_> =
            dfg.pending().iter().copied().filter(|&id| dfg.node(id).depth == 0).collect();
        let t = mem.upload(&acrobat_tensor::Tensor::ones(&[1])).unwrap();
        dfg.complete_node(roots[0], vec![t]);

        let cache = PlanCache::new();
        let mut l1 = PlanL1::new();
        let mut scratch = SchedulerScratch::new();
        let mut plan = Plan::default();
        let out = plan_cached(
            &cfg(SchedulerKind::InlineDepth),
            &mut dfg,
            &mut scratch,
            &mut l1,
            &cache,
            &mut plan,
        );
        assert_eq!(out, CacheOutcome::Bypass);
        assert_eq!(cache.entry_count(), 0, "bypass must not publish");
    }

    #[test]
    fn configs_do_not_share_entries() {
        let mut dfg = Dfg::new();
        dfg.set_signature_tracking(true);
        build_window(&mut dfg, 3);
        let cache = PlanCache::new();
        let mut scratch = SchedulerScratch::new();
        let mut plan = Plan::default();
        for kind in SchedulerKind::ALL {
            // Fresh L1 per config: the probe must miss in the *shared*
            // cache, not be saved by L1 slot separation.
            let mut l1 = PlanL1::new();
            let out = plan_cached(&cfg(kind), &mut dfg, &mut scratch, &mut l1, &cache, &mut plan);
            assert!(matches!(out, CacheOutcome::Miss { .. }), "{kind:?} must miss");
        }
        // A nonzero lane cap probes a different key; a no-share config must
        // not publish.
        let mut l1 = PlanL1::new();
        let down = CacheConfig { lane_cap: 2, share: false, ..cfg(SchedulerKind::InlineDepth) };
        let out = plan_cached(&down, &mut dfg, &mut scratch, &mut l1, &cache, &mut plan);
        assert!(matches!(out, CacheOutcome::Miss { .. }));
        assert_eq!(cache.entry_count(), SchedulerKind::ALL.len(), "no-share miss must not publish");
    }

    #[test]
    fn tiny_capacity_evicts_fifo() {
        let cache = PlanCache::with_capacity(1, 1);
        let mut scratch = SchedulerScratch::new();
        let mut plan = Plan::default();
        let c = cfg(SchedulerKind::InlineDepth);
        let mut mem = acrobat_tensor::DeviceMem::new(1 << 16);

        // Two structurally different windows, alternating: capacity 1
        // forces an eviction on every publish after the first.
        let mut dfg = Dfg::new();
        dfg.set_signature_tracking(true);
        for round in 0..4u64 {
            let shape = 2 + (round % 2) as usize;
            build_window(&mut dfg, shape);
            let mut l1 = PlanL1::new();
            let out = plan_cached(&c, &mut dfg, &mut scratch, &mut l1, &cache, &mut plan);
            match out {
                CacheOutcome::Miss { evicted } => assert_eq!(evicted, u64::from(round > 0)),
                other => panic!("round {round}: expected miss, got {other:?}"),
            }
            let batches: Vec<_> = plan.batches().map(|b| b.to_vec()).collect();
            for batch in batches {
                let outs = vec![(0..batch.len())
                    .map(|_| mem.upload(&acrobat_tensor::Tensor::ones(&[1])).unwrap())
                    .collect()];
                dfg.complete_batch(&batch, outs);
            }
        }
        assert_eq!(cache.evictions(), 3);
        assert_eq!(cache.entry_count(), 1);
    }
}
