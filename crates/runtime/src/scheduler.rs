//! Dynamic-batching schedulers.
//!
//! Given the pending nodes of a [`Dfg`], a scheduler produces an ordered
//! list of *batches* — sets of nodes that launch as one batched kernel.
//! Both schedulers respect dependences (G.1) and try to maximize batch
//! sizes (G.2); they differ in how much work they do and how well they
//! exploit the statically-provided metadata:
//!
//! * [`SchedulerKind::InlineDepth`] — ACROBAT (§4.1): depths and phases were
//!   computed during DFG construction by AOT-generated code, so scheduling
//!   degenerates to a sort-based grouping by `(phase, depth, kernel,
//!   shared_sig)`.
//! * [`SchedulerKind::Agenda`] — DyNet's agenda scheme: iteratively pick the
//!   available kernel class with the smallest average depth and batch
//!   everything available of that class.  Topological depths are recomputed
//!   from the graph at flush time and there are no phases.
//!
//! DyNet's other flush-time scheme, depth-based batching, is modeled once,
//! by the DyNet baseline simulator (`acrobat_baselines::dynet`).
//!
//! # The flush hot path
//!
//! Scheduling runs on every flush, so it is written to be allocation-free
//! in steady state: all working storage lives in a [`SchedulerScratch`] and
//! the emitted [`Plan`] uses flat storage, both reused across flushes via
//! [`plan_into`].  The implementations avoid keyed `BTreeMap`s entirely —
//! grouping is a single unstable sort over packed integer keys, and the
//! agenda loop maintains per-class ready sets and depth sums incrementally
//! instead of rescanning every remaining node each round.
//!
//! # The decisions contract
//!
//! [`Plan::decisions`] counts the *elementary decisions of the modeled
//! algorithm* (bucket inserts, per-arg dependence probes, per-round
//! agenda scans), not the operations this implementation happens to
//! execute.  The optimized schedulers charge exactly what the straight
//! transcriptions in [`reference`] charge — equality is enforced by tests —
//! so the Table 4/5/8 host-overhead accounts are unaffected by this
//! module's own speed.  See DESIGN.md ("Runtime flush hot path").

use serde::{Deserialize, Serialize};

use crate::dfg::{Dfg, NodeId};

/// Which scheduling algorithm the runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// ACROBAT's inline depth computation (§4.1).
    InlineDepth,
    /// DyNet-style agenda-based batching.
    Agenda,
}

impl SchedulerKind {
    /// Every scheduler, for sweeps and differential tests.
    pub const ALL: [SchedulerKind; 2] = [SchedulerKind::InlineDepth, SchedulerKind::Agenda];
}

/// A scheduling plan: ordered batches plus the number of elementary
/// scheduling decisions taken (for the host-overhead account).
///
/// Batches are stored flat — one `Vec<NodeId>` of concatenated batches plus
/// an offsets table — so planning performs O(1) allocations regardless of
/// how many batches it emits, and none at all when the plan is reused
/// through [`plan_into`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plan {
    /// Concatenated batch contents, in launch order.  Crate-visible so
    /// [`crate::plan_cache`] can freeze plans into window-relative
    /// coordinates and remap them back without copying through batches.
    pub(crate) nodes: Vec<NodeId>,
    /// Batch `b` is `nodes[offsets[b] as usize..offsets[b + 1] as usize]`.
    pub(crate) offsets: Vec<u32>,
    /// Elementary decisions performed (bucket inserts, heap ops, scans).
    pub decisions: u64,
}

impl Plan {
    /// Empties the plan, retaining capacity for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.offsets.clear();
        self.decisions = 0;
    }

    /// Number of batches.
    pub fn num_batches(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total nodes across all batches.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes of batch `b`, in launch order.
    ///
    /// # Panics
    ///
    /// Panics if `b >= self.num_batches()`.
    pub fn batch(&self, b: usize) -> &[NodeId] {
        &self.nodes[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// Iterates over batches in launch order.
    pub fn batches(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.offsets.windows(2).map(|w| &self.nodes[w[0] as usize..w[1] as usize])
    }

    /// Builds a plan from per-batch vectors (reference implementations and
    /// tests; the hot path uses [`Plan::begin`]/[`Plan::push_batch`]).
    pub fn from_batches(batches: Vec<Vec<NodeId>>, decisions: u64) -> Plan {
        let mut plan = Plan::default();
        plan.begin();
        for b in &batches {
            plan.push_batch(b.iter().copied());
        }
        plan.decisions = decisions;
        plan
    }

    /// Batch partitions as owned vectors (test/diagnostic convenience).
    pub fn to_batches(&self) -> Vec<Vec<NodeId>> {
        self.batches().map(|b| b.to_vec()).collect()
    }

    /// Clears and opens the plan for batch emission.
    fn begin(&mut self) {
        self.clear();
        self.offsets.push(0);
    }

    /// Appends one batch.
    fn push_batch(&mut self, ids: impl IntoIterator<Item = NodeId>) {
        self.nodes.extend(ids);
        debug_assert!(self.nodes.len() < u32::MAX as usize, "plan overflow");
        debug_assert!(
            self.offsets.last().is_some_and(|&o| (o as usize) < self.nodes.len()),
            "empty batch emitted"
        );
        self.offsets.push(self.nodes.len() as u32);
    }
}

/// Reusable scheduler working memory.  Keeping one of these alive across
/// flushes (as [`crate::ExecutionContext`] does) makes steady-state planning
/// allocation-free: every vector is cleared, never dropped.
#[derive(Debug, Default)]
pub struct SchedulerScratch {
    /// Per dense position, the packed `(key, shared_sig)` grouping key.
    keys: Vec<(u128, u64)>,
    /// Per dense position, its discovered group index.
    node_group: Vec<u32>,
    /// Per discovered group, its grouping key.
    group_keys: Vec<(u128, u64)>,
    /// Group indices sorted by key (inline: bucket launch order).
    group_order: Vec<u32>,
    /// Per discovered group, its rank in key order (agenda class index).
    group_rank: Vec<u32>,
    /// Open-addressing key→group table; valid iff the stamp matches.
    table: Vec<u32>,
    /// Epoch stamps for `table`.
    table_stamp: Vec<u32>,
    /// Current `table` epoch.
    table_epoch: u32,
    /// Pending ids, sorted ascending (== creation/topological order).
    ids: Vec<NodeId>,
    /// Node id → dense position in `ids`; valid iff `stamp[id] == epoch`.
    pos: Vec<u32>,
    /// Epoch stamps validating `pos` without O(nodes) clearing per flush.
    stamp: Vec<u32>,
    /// Current epoch.
    epoch: u32,
    /// Topological depth per dense position.
    depths: Vec<u64>,
    /// Unmet pending-dependence count per dense position (agenda).
    indegree: Vec<u32>,
    /// Kernel-class index per dense position (agenda).
    class_of: Vec<u32>,
    /// Sum of depths of currently-ready nodes per class (agenda).
    class_sum: Vec<u128>,
    /// Ready dense positions per class (agenda); pooled across flushes.
    class_ready: Vec<Vec<u32>>,
    /// CSR offsets of the pending-consumer adjacency (agenda).
    cons_start: Vec<u32>,
    /// CSR edge targets, as dense positions (agenda).
    consumers: Vec<u32>,
    /// Batch under construction (agenda).
    batch_tmp: Vec<u32>,
}

impl SchedulerScratch {
    /// Creates empty scratch.
    pub fn new() -> SchedulerScratch {
        SchedulerScratch::default()
    }

    /// Starts a new epoch covering node ids `0..universe`.
    fn begin_epoch(&mut self, universe: usize) {
        if self.pos.len() < universe {
            self.pos.resize(universe, 0);
            self.stamp.resize(universe, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could collide; reset once per 2³² flushes.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Collects pending ids in creation (topological) order and stamps
    /// their dense positions.  Returns the pending count.
    fn index_pending(&mut self, dfg: &Dfg) -> usize {
        self.ids.clear();
        self.ids.extend_from_slice(dfg.pending());
        // Pending ids are append-ordered between flushes, so this sort is
        // near-O(n) on the adaptive fast path; it restores topological
        // order unconditionally (completion swap-removes may shuffle).
        self.ids.sort_unstable();
        self.begin_epoch(dfg.node_count() as usize);
        for (i, &id) in self.ids.iter().enumerate() {
            self.pos[id.0 as usize] = i as u32;
            self.stamp[id.0 as usize] = self.epoch;
        }
        self.ids.len()
    }

    /// Dense position of `id` if it is pending in the current epoch.
    #[inline]
    fn pending_pos(&self, id: NodeId) -> Option<u32> {
        (self.stamp[id.0 as usize] == self.epoch).then(|| self.pos[id.0 as usize])
    }

    /// Computes topological depths over the pending subgraph into
    /// `self.depths`, charging one decision per argument probe, and returns
    /// the charge.
    fn pending_depths(&mut self, dfg: &Dfg) -> u64 {
        let n = self.ids.len();
        self.depths.clear();
        self.depths.resize(n, 0);
        let mut decisions = 0u64;
        for i in 0..n {
            let mut d = 0u64;
            for a in dfg.args(self.ids[i]) {
                decisions += 1;
                if let Some(p) = dfg.producer(*a) {
                    if let Some(pp) = self.pending_pos(p) {
                        d = d.max(self.depths[pp as usize] + 1);
                    }
                }
            }
            self.depths[i] = d;
        }
        decisions
    }

    /// Groups `self.keys` by equality with an epoch-stamped open-addressing
    /// table: fills `node_group` and `group_keys`.  O(n)
    /// with no per-call allocation in steady state — unlike both a keyed
    /// map (per-node tree probes) and a full comparison sort (n·log n over
    /// all nodes), this costs one hash probe per node regardless of how
    /// few distinct keys there are.
    fn assign_groups(&mut self) {
        let n = self.keys.len();
        let cap = (2 * n.max(8)).next_power_of_two();
        if self.table.len() < cap {
            self.table = vec![0; cap];
            self.table_stamp = vec![0; cap];
        }
        let mask = self.table.len() - 1;
        self.table_epoch = self.table_epoch.wrapping_add(1);
        if self.table_epoch == 0 {
            self.table_stamp.iter_mut().for_each(|s| *s = 0);
            self.table_epoch = 1;
        }
        self.group_keys.clear();
        self.node_group.clear();
        for i in 0..n {
            let (k, s) = self.keys[i];
            let mut slot = hash_key(k, s) as usize & mask;
            let g = loop {
                if self.table_stamp[slot] != self.table_epoch {
                    self.table_stamp[slot] = self.table_epoch;
                    let g = self.group_keys.len() as u32;
                    self.table[slot] = g;
                    self.group_keys.push((k, s));
                    break g;
                }
                let g = self.table[slot];
                if self.group_keys[g as usize] == (k, s) {
                    break g;
                }
                slot = (slot + 1) & mask;
            };
            self.node_group.push(g);
        }
    }

    /// Ranks the discovered groups by key into `group_rank`.
    fn rank_groups(&mut self) {
        let g = self.group_keys.len();
        self.group_order.clear();
        self.group_order.extend(0..g as u32);
        let keys = &self.group_keys;
        self.group_order.sort_unstable_by_key(|&i| keys[i as usize]);
        self.group_rank.clear();
        self.group_rank.resize(g, 0);
        for (rank, &gi) in self.group_order.iter().enumerate() {
            self.group_rank[gi as usize] = rank as u32;
        }
    }
}

/// Mixes a grouping key into a table hash (splitmix64 finalizer).
#[inline]
fn hash_key(k: u128, s: u64) -> u64 {
    let mut x =
        (k as u64) ^ ((k >> 64) as u64).rotate_left(29) ^ s.wrapping_mul(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Plans the execution of all currently pending nodes.
///
/// Convenience wrapper over [`plan_into`] that allocates fresh working
/// storage; hot paths should hold a [`SchedulerScratch`] and a [`Plan`] and
/// call [`plan_into`] to reuse them.
pub fn plan(kind: SchedulerKind, dfg: &Dfg) -> Plan {
    let mut scratch = SchedulerScratch::new();
    let mut out = Plan::default();
    plan_into(kind, dfg, &mut scratch, &mut out);
    out
}

/// Plans the execution of all currently pending nodes into `out`, reusing
/// `scratch` (zero steady-state allocations once capacities warm up).
pub fn plan_into(kind: SchedulerKind, dfg: &Dfg, scratch: &mut SchedulerScratch, out: &mut Plan) {
    out.begin();
    match kind {
        SchedulerKind::InlineDepth => plan_inline(dfg, scratch, out),
        SchedulerKind::Agenda => plan_agenda(dfg, scratch, out),
    }
    canonicalize(dfg, out);
}

/// Re-orders every batch's members into the DFG's canonical window order
/// ([`Dfg::canon_pos`]), making the emitted plan invariant to the order in
/// which fiber lanes reached the DFG.
///
/// Batch-level structure is already interleave-invariant in both
/// schedulers (bucket/group key sorts, deterministic agenda rounds with
/// exact tie-breaks); only *within-batch* member order followed arrival
/// order via `NodeId`s.  Members of one batch are mutually independent
/// (enforced by the checked mode's plan validation), so permuting them
/// never violates a dependence.  Outside lane-canonical mode
/// `canon_pos` is the identity over the window and the sort is a no-op,
/// keeping sequential plans byte-identical.
pub(crate) fn canonicalize(dfg: &Dfg, out: &mut Plan) {
    if !dfg.has_canonical_order() {
        return;
    }
    for b in 0..out.num_batches() {
        let (s, e) = (out.offsets[b] as usize, out.offsets[b + 1] as usize);
        out.nodes[s..e].sort_unstable_by_key(|&id| dfg.canon_pos(id));
    }
}

fn plan_inline(dfg: &Dfg, scratch: &mut SchedulerScratch, out: &mut Plan) {
    // The grouping by (phase, depth, kernel, shared operands) already
    // happened incrementally during DFG construction (the inline key is
    // static metadata — §4.1), so planning is: sort the non-empty buckets
    // by key, then emit each bucket's pending members in creation order.
    // The modeled algorithm still pays one bucket insert per node, so one
    // decision per emitted node.
    let buckets = dfg.inline_buckets();
    scratch.group_order.clear();
    for (bi, b) in buckets.iter().enumerate() {
        if b.pending > 0 {
            scratch.group_order.push(bi as u32);
        }
    }
    scratch.group_order.sort_unstable_by_key(|&bi| buckets[bi as usize].key);
    let mut decisions = 0u64;
    for &bi in &scratch.group_order {
        let b = &buckets[bi as usize];
        if b.pending as usize == b.ids.len() {
            out.nodes.extend_from_slice(&b.ids);
        } else {
            out.nodes.extend(b.ids.iter().copied().filter(|&id| dfg.is_pending(id)));
        }
        decisions += b.pending as u64;
        out.offsets.push(out.nodes.len() as u32);
    }
    out.decisions = decisions;
}

fn plan_agenda(dfg: &Dfg, scratch: &mut SchedulerScratch, out: &mut Plan) {
    let n = scratch.index_pending(dfg);
    // Topological depths (used by the average-depth heuristic); the modeled
    // algorithm charges one decision per argument probe.
    let mut decisions = scratch.pending_depths(dfg);

    // Assign kernel classes by (kernel, shared_sig) via the hash grouper,
    // then rank the classes by key (`rank_groups`) so class indices are
    // ascending in (kernel, shared_sig) — the deterministic tie-break below
    // is then "smallest class index wins".
    scratch.keys.clear();
    for i in 0..n {
        let node = dfg.node(scratch.ids[i]);
        scratch.keys.push((node.kernel.0 as u128, node.shared_sig));
    }
    scratch.assign_groups();
    scratch.rank_groups();
    scratch.class_of.clear();
    for i in 0..n {
        scratch.class_of.push(scratch.group_rank[scratch.node_group[i] as usize]);
    }
    let num_classes = scratch.group_keys.len() as u32;

    // Build the pending-consumer adjacency (CSR) and unmet-dependence
    // counts: one edge per (pending producer → consumer) argument.
    scratch.indegree.clear();
    scratch.indegree.resize(n, 0);
    scratch.cons_start.clear();
    scratch.cons_start.resize(n + 1, 0);
    for i in 0..n {
        for a in dfg.args(scratch.ids[i]) {
            if let Some(p) = dfg.producer(*a) {
                if let Some(pp) = scratch.pending_pos(p) {
                    scratch.cons_start[pp as usize + 1] += 1;
                    scratch.indegree[i] += 1;
                }
            }
        }
    }
    for i in 0..n {
        scratch.cons_start[i + 1] += scratch.cons_start[i];
    }
    scratch.consumers.clear();
    scratch.consumers.resize(scratch.cons_start[n] as usize, 0);
    // Fill edges using the offsets as cursors; a reverse pass restores them.
    for i in 0..n {
        for a in dfg.args(scratch.ids[i]) {
            if let Some(p) = dfg.producer(*a) {
                if let Some(pp) = scratch.pending_pos(p) {
                    let cursor = &mut scratch.cons_start[pp as usize];
                    scratch.consumers[*cursor as usize] = i as u32;
                    *cursor += 1;
                }
            }
        }
    }
    for i in (1..=n).rev() {
        scratch.cons_start[i] = scratch.cons_start[i - 1];
    }
    scratch.cons_start[0] = 0;

    // Per-class ready sets and depth sums, maintained incrementally.
    for ready in &mut scratch.class_ready {
        ready.clear();
    }
    scratch.class_ready.resize_with(num_classes as usize, Vec::new);
    scratch.class_sum.clear();
    scratch.class_sum.resize(num_classes as usize, 0);
    for i in 0..n {
        if scratch.indegree[i] == 0 {
            let c = scratch.class_of[i] as usize;
            scratch.class_ready[c].push(i as u32);
            scratch.class_sum[c] += scratch.depths[i] as u128;
        }
    }

    let mut remaining = n;
    while remaining > 0 {
        // The modeled algorithm scans every remaining node per round to
        // rebuild availability; charge that scan without performing it.
        decisions += remaining as u64;

        // Pick the ready class with the smallest average depth (DyNet's
        // agenda heuristic: prefer shallow work to unlock parallelism).
        // Exact integer comparison (sum_a/len_a < sum_b/len_b ⇔
        // sum_a·len_b < sum_b·len_a) with ties broken by the smallest
        // (kernel, shared_sig) — i.e. smallest class index — makes the
        // choice deterministic and float-free.
        let mut best: Option<usize> = None;
        for c in 0..num_classes as usize {
            let len = scratch.class_ready[c].len() as u128;
            if len == 0 {
                continue;
            }
            best = match best {
                None => Some(c),
                Some(b) => {
                    let blen = scratch.class_ready[b].len() as u128;
                    if scratch.class_sum[c] * blen < scratch.class_sum[b] * len {
                        Some(c)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let best = best.expect("pending nodes imply an available class");

        scratch.batch_tmp.clear();
        std::mem::swap(&mut scratch.batch_tmp, &mut scratch.class_ready[best]);
        scratch.class_sum[best] = 0;
        decisions += scratch.batch_tmp.len() as u64;
        // Emit in creation order (dense positions are id-ordered).
        scratch.batch_tmp.sort_unstable();
        out.push_batch(scratch.batch_tmp.iter().map(|&p| scratch.ids[p as usize]));
        remaining -= scratch.batch_tmp.len();

        // Retire the batch: newly dependence-free consumers enter their
        // class's ready set.
        for bi in 0..scratch.batch_tmp.len() {
            let p = scratch.batch_tmp[bi] as usize;
            for e in scratch.cons_start[p]..scratch.cons_start[p + 1] {
                let consumer = scratch.consumers[e as usize] as usize;
                scratch.indegree[consumer] -= 1;
                if scratch.indegree[consumer] == 0 {
                    let c = scratch.class_of[consumer] as usize;
                    scratch.class_ready[c].push(consumer as u32);
                    scratch.class_sum[c] += scratch.depths[consumer] as u128;
                }
            }
        }
    }
    out.decisions = decisions;
}

/// Straight transcriptions of the original (seed) scheduler algorithms,
/// retained as the behavioral reference: the optimized implementations must
/// produce the same batch partitions and charge the same decision counts.
/// Used by equivalence tests and checked mode; not on any hot path.
pub mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use super::{Plan, SchedulerKind};
    use crate::dfg::{Dfg, NodeId};

    /// Plans with the reference implementation of `kind`.  The canonical
    /// within-batch reorder is part of the scheduling contract, so the
    /// reference applies the same post-pass as [`super::plan_into`].
    pub fn plan(kind: SchedulerKind, dfg: &Dfg) -> Plan {
        let mut p = match kind {
            SchedulerKind::InlineDepth => plan_inline(dfg),
            SchedulerKind::Agenda => plan_agenda(dfg),
        };
        super::canonicalize(dfg, &mut p);
        p
    }

    fn sorted_pending(dfg: &Dfg) -> Vec<NodeId> {
        let mut pending = dfg.pending().to_vec();
        // The seed implementation relied on `Dfg::pending()` being in
        // creation order, which held because completions were order-stable;
        // the swap-remove pending set only guarantees it between flushes,
        // so restore creation order explicitly.
        pending.sort_unstable();
        pending
    }

    /// Seed bucket sort by `(phase, depth, kernel, shared_sig)`.
    pub fn plan_inline(dfg: &Dfg) -> Plan {
        let mut buckets: BTreeMap<(u32, u64, u32, u64), Vec<NodeId>> = BTreeMap::new();
        let mut decisions = 0u64;
        for id in sorted_pending(dfg) {
            let n = dfg.node(id);
            buckets.entry((n.phase, n.depth, n.kernel.0, n.shared_sig)).or_default().push(id);
            decisions += 1;
        }
        Plan::from_batches(buckets.into_values().collect(), decisions)
    }

    /// Seed agenda scheduler (per-round rescans), with the deterministic
    /// exact-arithmetic tie-break: smallest average depth, ties to the
    /// smallest `(kernel, shared_sig)`.  The original `min_by` over
    /// recomputed `f64` averages resolved ties by map-iteration accident
    /// and repeated the averaging per comparison.
    pub fn plan_agenda(dfg: &Dfg) -> Plan {
        let pending = sorted_pending(dfg);
        let pending_set: BTreeSet<NodeId> = pending.iter().copied().collect();
        let mut decisions = 0u64;

        let mut depth: BTreeMap<NodeId, u64> = BTreeMap::new();
        for &id in &pending {
            let mut d = 0u64;
            for a in dfg.args(id) {
                if let Some(p) = dfg.producer(*a) {
                    if pending_set.contains(&p) {
                        d = d.max(depth.get(&p).copied().unwrap_or(0) + 1);
                    }
                }
                decisions += 1;
            }
            depth.insert(id, d);
        }

        let mut done: BTreeSet<NodeId> = BTreeSet::new();
        let mut batches = Vec::new();
        let mut remaining: Vec<NodeId> = pending.clone();
        while !remaining.is_empty() {
            let mut available: BTreeMap<(u32, u64), Vec<NodeId>> = BTreeMap::new();
            for &id in &remaining {
                decisions += 1;
                let n = dfg.node(id);
                let ready = dfg.args(id).iter().all(|a| match dfg.producer(*a) {
                    Some(p) => !pending_set.contains(&p) || done.contains(&p),
                    None => true,
                });
                if ready {
                    available.entry((n.kernel.0, n.shared_sig)).or_default().push(id);
                }
            }
            // Smallest average depth; BTreeMap iteration is (kernel, sig)
            // ascending, and strict-less keeps the first minimum, so ties
            // resolve to the smallest (kernel, shared_sig).
            let mut best: Option<((u32, u64), u128, u128)> = None;
            for (&class, nodes) in &available {
                let sum: u128 = nodes.iter().map(|id| depth[id] as u128).sum();
                let len = nodes.len() as u128;
                best = match best {
                    None => Some((class, sum, len)),
                    Some((bc, bsum, blen)) => {
                        if sum * blen < bsum * len {
                            Some((class, sum, len))
                        } else {
                            Some((bc, bsum, blen))
                        }
                    }
                };
            }
            let (class, _, _) = best.expect("pending nodes imply availability");
            let batch = available.remove(&class).expect("chosen class exists");
            decisions += batch.len() as u64;
            for &id in &batch {
                done.insert(id);
            }
            remaining.retain(|id| !done.contains(id));
            batches.push(batch);
        }
        Plan::from_batches(batches, decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_codegen::KernelId;

    /// Builds a DFG of `instances` chains: in0 → k0 → k1 (same kernels
    /// across instances), with inline depths/phases set as ACROBAT would.
    fn chain_dfg(instances: usize) -> Dfg {
        let mut mem = acrobat_tensor::DeviceMem::new(1 << 12);
        let mut dfg = Dfg::new();
        for i in 0..instances {
            let x = dfg.ready_value(mem.upload(&acrobat_tensor::Tensor::ones(&[2])).unwrap());
            let (_, o1) = dfg.add_node(KernelId(0), i, 0, 0, 0, vec![x], 1);
            dfg.add_node(KernelId(1), i, 1, 0, 0, vec![o1[0]], 1);
        }
        dfg
    }

    fn batch_respects_deps(dfg: &Dfg, plan: &Plan) {
        let mut done = std::collections::BTreeSet::new();
        for batch in plan.batches() {
            for &id in batch {
                for a in dfg.args(id) {
                    if let Some(p) = dfg.producer(*a) {
                        assert!(done.contains(&p), "dependency violated");
                    }
                }
            }
            for &id in batch {
                done.insert(id);
            }
        }
        assert_eq!(done.len(), dfg.pending().len(), "all nodes scheduled");
    }

    #[test]
    fn inline_batches_across_instances() {
        let dfg = chain_dfg(8);
        let p = plan(SchedulerKind::InlineDepth, &dfg);
        assert_eq!(p.num_batches(), 2, "two depth levels → two launches");
        assert_eq!(p.batch(0).len(), 8);
        batch_respects_deps(&dfg, &p);
    }

    #[test]
    fn agenda_matches_on_chains_with_more_decisions() {
        let dfg = chain_dfg(8);
        let p = plan(SchedulerKind::Agenda, &dfg);
        assert_eq!(p.num_batches(), 2);
        batch_respects_deps(&dfg, &p);
        let pi = plan(SchedulerKind::InlineDepth, &dfg);
        assert!(p.decisions > pi.decisions);
    }

    #[test]
    fn scratch_reuse_matches_fresh_plans() {
        let mut scratch = SchedulerScratch::new();
        let mut out = Plan::default();
        for instances in [1, 3, 8, 17] {
            let dfg = chain_dfg(instances);
            for kind in SchedulerKind::ALL {
                plan_into(kind, &dfg, &mut scratch, &mut out);
                let fresh = plan(kind, &dfg);
                assert_eq!(out.to_batches(), fresh.to_batches(), "{kind:?} x{instances}");
                assert_eq!(out.decisions, fresh.decisions, "{kind:?} x{instances}");
            }
        }
    }

    #[test]
    fn phases_keep_output_ops_together() {
        // Two instances with different-length chains feeding a common
        // output kernel.  With phases, the output ops batch together even
        // though their inline depths differ only by phase.
        let mut mem = acrobat_tensor::DeviceMem::new(1 << 12);
        let mut dfg = Dfg::new();
        for (i, len) in [1u64, 3].iter().enumerate() {
            let mut v = dfg.ready_value(mem.upload(&acrobat_tensor::Tensor::ones(&[2])).unwrap());
            for d in 0..*len {
                let (_, o) = dfg.add_node(KernelId(0), i, d, 0, 0, vec![v], 1);
                v = o[0];
            }
            // Phase-2 output op: depth restarts per phase semantics are
            // emulated by the AOT code assigning phase-local depths.
            dfg.add_node(KernelId(1), i, 0, 1, 0, vec![v], 1);
        }
        let p = plan(SchedulerKind::InlineDepth, &dfg);
        // Output ops form ONE batch (same phase, same depth, same kernel).
        let out_batches: Vec<_> = p
            .batches()
            .filter(|b| b.iter().any(|id| dfg.node(*id).kernel == KernelId(1)))
            .collect();
        assert_eq!(out_batches.len(), 1);
        assert_eq!(out_batches[0].len(), 2);
        batch_respects_deps(&dfg, &p);
    }

    #[test]
    fn inline_and_agenda_keep_fig4_opb_in_one_launch() {
        // Fig. 4: two instances run opA (kernel 0) then opB (kernel 1); two
        // others run opB directly.  Depth batching splits opB; agenda
        // scheduling and ghost ops under inline keep it together.
        let mut mem = acrobat_tensor::DeviceMem::new(1 << 12);
        let mut dfg = Dfg::new();
        for i in 0..2 {
            let x = dfg.ready_value(mem.upload(&acrobat_tensor::Tensor::ones(&[2])).unwrap());
            let (_, o) = dfg.add_node(KernelId(0), i, 0, 0, 0, vec![x], 1);
            dfg.add_node(KernelId(1), i, 1, 0, 0, vec![o[0]], 1);
        }
        for i in 2..4 {
            let x = dfg.ready_value(mem.upload(&acrobat_tensor::Tensor::ones(&[2])).unwrap());
            // Ghost bump applied by ACROBAT: depth 1 instead of 0.
            dfg.add_node(KernelId(1), i, 1, 0, 0, vec![x], 1);
        }
        // Inline depth with the ghost bump puts every opB at depth 1; the
        // agenda retires both opAs first (tie on average depth, smaller
        // kernel wins), after which all four opBs are ready together.
        for kind in SchedulerKind::ALL {
            let p = plan(kind, &dfg);
            let opb: Vec<_> = p
                .batches()
                .filter(|b| b.iter().any(|id| dfg.node(*id).kernel == KernelId(1)))
                .collect();
            assert_eq!(opb.len(), 1, "{kind:?}");
            assert_eq!(opb[0].len(), 4, "{kind:?}");
            batch_respects_deps(&dfg, &p);
        }
    }

    #[test]
    fn agenda_tie_break_is_deterministic() {
        // Four independent nodes, two classes, identical depths: the
        // average-depth heuristic ties, and the batch order must resolve by
        // (kernel, shared_sig) ascending — not map-iteration accident.
        let mut mem = acrobat_tensor::DeviceMem::new(1 << 12);
        let mut dfg = Dfg::new();
        // Interleave creation order so it cannot mask the tie-break.
        for (kernel, sig) in [(3u32, 5u64), (1, 9), (3, 5), (1, 9)] {
            let x = dfg.ready_value(mem.upload(&acrobat_tensor::Tensor::ones(&[2])).unwrap());
            dfg.add_node(KernelId(kernel), 0, 0, 0, sig, vec![x], 1);
        }
        for _ in 0..4 {
            let p = plan(SchedulerKind::Agenda, &dfg);
            assert_eq!(p.num_batches(), 2);
            // Kernel 1 first (smaller class key), then kernel 3.
            assert!(p.batch(0).iter().all(|id| dfg.node(*id).kernel == KernelId(1)));
            assert!(p.batch(1).iter().all(|id| dfg.node(*id).kernel == KernelId(3)));
            // Within a batch: creation order.
            assert!(p.batch(0).windows(2).all(|w| w[0] < w[1]));
            let r = reference::plan(SchedulerKind::Agenda, &dfg);
            assert_eq!(p.to_batches(), r.to_batches());
        }
    }

    #[test]
    fn lane_mode_batches_emit_in_canonical_order() {
        // The same four independent single-node lanes appended in different
        // arrival orders must emit the batch in the same (canonical)
        // instance sequence — and the optimized and reference schedulers
        // must agree on it.
        let build = |order: &[usize]| -> Vec<usize> {
            let mut mem = acrobat_tensor::DeviceMem::new(1 << 12);
            let mut dfg = Dfg::new();
            dfg.set_signature_tracking(true);
            dfg.set_lane_canonical(true);
            let x = dfg.ready_value(mem.upload(&acrobat_tensor::Tensor::ones(&[2])).unwrap());
            for &i in order {
                dfg.add_node(KernelId(0), i, 0, 0, 0, vec![x], 1);
            }
            dfg.window_signature().expect("clean window");
            for kind in SchedulerKind::ALL {
                let p = plan(kind, &dfg);
                let r = reference::plan(kind, &dfg);
                assert_eq!(p.to_batches(), r.to_batches(), "{kind:?}");
            }
            let p = plan(SchedulerKind::InlineDepth, &dfg);
            assert_eq!(p.num_batches(), 1);
            p.batch(0).iter().map(|&id| dfg.node(id).instance).collect()
        };
        let canonical = build(&[0, 1, 2, 3]);
        assert_eq!(canonical, build(&[3, 1, 2, 0]));
        assert_eq!(canonical, build(&[2, 3, 0, 1]));
    }

    #[test]
    fn optimized_matches_reference_on_fixtures() {
        for instances in [1, 2, 8, 13] {
            let dfg = chain_dfg(instances);
            for kind in SchedulerKind::ALL {
                let opt = plan(kind, &dfg);
                let refp = reference::plan(kind, &dfg);
                assert_eq!(opt.to_batches(), refp.to_batches(), "{kind:?} x{instances}");
                assert_eq!(opt.decisions, refp.decisions, "{kind:?} x{instances}");
            }
        }
    }
}
