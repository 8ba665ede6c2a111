//! The lazily-built dataflow graph.
//!
//! Every scheduling unit the AOT program emits — one fusion group, or one
//! coarsened static block — becomes a [`DfgNode`].  Node inputs are
//! [`ValueId`]s that are either already materialized device tensors or
//! pending outputs of earlier nodes.  The node also records the metadata the
//! schedulers key on: the instance lane, the inline-computed depth, the
//! program phase, and the batched kernel that executes it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use acrobat_codegen::KernelId;
use acrobat_tensor::DeviceTensor;

use crate::hash::FoldBuildHasher;

/// Identifier of a DFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

/// Identifier of a tensor value flowing through the DFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u64);

/// State of a value.
#[derive(Debug, Clone)]
pub enum ValueState {
    /// Will be produced by `producer` at output slot `slot`.
    Pending {
        /// Producing node.
        producer: NodeId,
        /// Output slot of the producer.
        slot: usize,
    },
    /// Materialized on the device.
    Ready(DeviceTensor),
}

/// One scheduling unit: a batched-kernel invocation for one instance.
///
/// A node owns no heap memory: its arguments are a range of the graph's
/// flat argument array ([`Dfg::args`]) and its outputs are consecutive
/// [`ValueId`]s ([`Dfg::outputs`]), so appending a node allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct DfgNode {
    /// Node id.
    pub id: NodeId,
    /// Kernel to launch (after batching with compatible nodes).
    pub kernel: KernelId,
    /// Mini-batch instance that created the node.
    pub instance: usize,
    /// Inline-computed depth (§4.1).
    pub depth: u64,
    /// Program phase (§4.1).
    pub phase: u32,
    /// Hash of the tensors bound to the kernel's *shared* input slots.
    /// Nodes may only batch when these agree: a batched kernel loads one
    /// tensor per shared slot, so lanes with different shared operands
    /// (e.g. the two weight sets of a duplicated BiRNN cell) must launch
    /// separately.
    pub shared_sig: u64,
    /// Start of the node's arguments in the graph's flat argument array.
    args_start: u32,
    /// Number of arguments, one per kernel input slot.
    args_len: u32,
    /// First output value; output slot `k` is `ValueId(first_output.0 + k)`.
    first_output: ValueId,
    /// Number of outputs, one per kernel output slot.
    output_count: u32,
    /// Whether the node has been executed.
    pub executed: bool,
}

impl DfgNode {
    /// The value produced at output `slot`.
    pub fn output(&self, slot: usize) -> ValueId {
        debug_assert!(slot < self.output_count as usize, "output slot out of range");
        ValueId(self.first_output.0 + slot as u64)
    }

    /// Output values in slot order (always consecutive ids).
    pub fn outputs(&self) -> impl ExactSizeIterator<Item = ValueId> {
        let first = self.first_output.0;
        (0..self.output_count).map(move |k| ValueId(first + k as u64))
    }
}

/// Sentinel for "not in the pending set" in [`Dfg::pending_pos`].
const NOT_PENDING: u32 = u32::MAX;

/// Seed of the primary window-signature accumulator.
const WIN_SEED0: u64 = 0x243F6A8885A308D3; // π digits
/// Seed of the verification accumulator (independent chain).
const WIN_SEED1: u64 = 0x13198A2E03707344; // more π digits
/// Per-token tweak applied to the verification chain so the two
/// accumulators never fold identical inputs.
const WIN_TWEAK: u64 = 0xA4093822299F31D0;

/// One splitmix64-style mixing round (the workspace-standard finalizer,
/// matching `scheduler::hash_key`): folds `v` into accumulator `h`.
#[inline]
fn sig_fold(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Deterministic fiber-lane identities for lane-canonical signature mode.
///
/// A *lane* is one fiber's append stream.  Its key is derived purely from
/// the fiber's structural position — the instance index for a top-level
/// fiber, the fork path (parent lane × branch index) for a child spawned by
/// `parallel(...)` — never from thread ids or arrival order, so the same
/// program produces the same lane keys on every run and every OS schedule.
/// Two *sequential* generations of fibers (a parent calling `parallel`
/// twice) legitimately share a key; their appends are join-ordered, so the
/// merged lane content is still deterministic.
pub mod lane {
    use super::sig_fold;

    /// Seed for root-lane derivation (π digits, like the window seeds).
    const LANE_SEED: u64 = 0x452821E638D01377;

    /// Lane key of a top-level fiber (one per mini-batch instance).
    #[inline]
    pub fn root(instance: usize) -> u64 {
        sig_fold(LANE_SEED, instance as u64)
    }

    /// Lane key of the `branch`-th child forked from a fiber with lane key
    /// `parent`.
    #[inline]
    pub fn child(parent: u64, branch: usize) -> u64 {
        sig_fold(parent, branch as u64 + 1)
    }
}

/// Structural signature of the current pending *window* — the nodes
/// appended since the pending set was last empty — consumed by
/// [`crate::plan_cache`].
///
/// The signature is order-independent over lane identity: it folds each
/// node's kernel, phase, depth, shared-operand signature and the *relative*
/// (window-local) position of each pending argument's producer, so two
/// windows with the same structure hash equal regardless of which request,
/// instance numbers or absolute `NodeId`/`ValueId` offsets produced them.
/// Two independent accumulators are kept (different seeds, tweaked token
/// streams), so a silent false hit requires a simultaneous 2×64-bit
/// collision; cache probes compare both plus the window length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSig {
    /// Primary accumulator.
    pub sig: u64,
    /// Independent verification accumulator.
    pub check: u64,
    /// Window length in nodes.
    pub n: u32,
    /// First `NodeId` of the window: a clean window is built append-only
    /// from an empty pending set, so its ids are exactly
    /// `base..base + n` — which is what makes cached-plan remapping a
    /// single offset add.
    pub base: u64,
}

impl WindowSig {
    /// Order-independent audit token for cross-run signature comparison:
    /// mixes both accumulators and the window length but *not* `base`,
    /// which legitimately varies run to run with allocation history.
    /// XORing the tokens of every signed window yields a digest invariant
    /// to flush order and to how windows are partitioned across contexts.
    pub fn chain_token(&self) -> u64 {
        sig_fold(sig_fold(sig_fold(0x9E3779B97F4A7C15, self.sig), self.check), self.n as u64)
    }
}

/// Packs the inline grouping key `(phase, depth, kernel)` into one integer
/// whose natural order is the lexicographic tuple order; `shared_sig` is
/// kept alongside as the second key component.
#[inline]
pub(crate) fn inline_key(phase: u32, depth: u64, kernel: u32) -> u128 {
    ((phase as u128) << 96) | ((depth as u128) << 32) | kernel as u128
}

/// One bucket of the incremental inline-scheduling index: every node whose
/// `(phase, depth, kernel, shared_sig)` matches `key`, in creation order.
#[derive(Debug)]
pub(crate) struct InlineBucket {
    /// Packed `(inline_key, shared_sig)` grouping key.
    pub(crate) key: (u128, u64),
    /// Member nodes in creation order.  May contain already-executed
    /// (stale) ids; they are pruned lazily on completion, and readers must
    /// filter by pending-ness unless `pending == ids.len()`.
    pub(crate) ids: Vec<NodeId>,
    /// How many of `ids` are still pending.
    pub(crate) pending: u32,
}

/// Per-lane signature accumulator for lane-canonical window signing: one
/// fiber lane's private `(sig, check)` chains plus its append count.
#[derive(Debug, Clone, Copy)]
struct LaneAcc {
    /// Structural lane key (see [`lane`]).
    key: u64,
    /// Primary accumulator, seeded per lane from [`WIN_SEED0`].
    sig: u64,
    /// Verification accumulator, seeded per lane from [`WIN_SEED1`].
    check: u64,
    /// Nodes appended to this lane in the current window.
    len: u32,
}

/// Lazily-derived canonical ordering of the current window (lane-canonical
/// mode): window-offset → canonical rank and its inverse, plus the combined
/// interleave-invariant [`WindowSig`].  Invalidated on every append or
/// completion, rebuilt at most once per window by
/// [`Dfg::window_signature`].
#[derive(Debug, Default)]
struct CanonState {
    /// Whether `rank`/`order`/`win` describe the current window.
    valid: bool,
    /// `rank[off]` = canonical position of the node at window offset `off`.
    rank: Vec<u32>,
    /// Inverse permutation: `order[pos]` = window offset at canonical
    /// position `pos`.
    order: Vec<u32>,
    /// Lane slots sorted by lane key (scratch for the combine).
    lane_order: Vec<u32>,
    /// Per lane slot, the canonical position of its first node.
    lane_start: Vec<u32>,
    /// Memoized combined signature for the current window.
    win: Option<WindowSig>,
}

/// The dataflow graph plus its value table.
///
/// The pending set is index-mapped: `pending_pos[node]` stores the node's
/// position inside `pending`, so completing a node is an O(1) swap-remove
/// instead of the O(pending) `retain` scan the first implementation used
/// (which made a flush O(n²) in the number of pending nodes).  The price is
/// that `pending` is not order-stable across completions; schedulers that
/// need creation (topological) order sort the ids, which `NodeId`'s
/// monotonic assignment makes equivalent.
#[derive(Debug, Default)]
pub struct Dfg {
    nodes: Vec<DfgNode>,
    /// Every node's arguments, back to back in creation order
    /// (`DfgNode::args_start .. + args_len`).
    node_args: Vec<ValueId>,
    values: Vec<ValueState>,
    /// Nodes not yet executed.
    pending: Vec<NodeId>,
    /// `pending_pos[id]` is the index of node `id` within `pending`, or
    /// [`NOT_PENDING`].  Indexed by `NodeId` (node ids are dense).
    pending_pos: Vec<u32>,
    /// Inline-scheduling bucket index, maintained incrementally as nodes
    /// are added: the inline grouping key is pure static metadata, so the
    /// grouping work happens during DFG construction and the inline
    /// scheduler's flush-time job degenerates to emitting the non-empty
    /// buckets in key order (§4.1's "scheduling is a bucket lookup").
    buckets: Vec<InlineBucket>,
    /// Grouping key → index into `buckets`, probed once per node: keyed
    /// by [`FoldHasher`](crate::hash::FoldHasher), not SipHash (see
    /// [`crate::hash`]).
    bucket_lookup: HashMap<(u128, u64), u32, FoldBuildHasher>,
    /// Per node, its bucket index (dense, parallel to `nodes`).
    bucket_of: Vec<u32>,
    /// Primary window-signature accumulator (see [`WindowSig`]), folded
    /// incrementally by [`Dfg::add_node`] while the window grows
    /// append-only from an empty pending set.
    win_sig: u64,
    /// Independent verification accumulator.
    win_check: u64,
    /// First node id of the current window.
    win_base: u64,
    /// Set when a partial completion (eager drain, aborted-flush retry)
    /// breaks the append-only-window property; the signature is then
    /// unavailable until the pending set next empties.
    win_dirty: bool,
    /// Whether `add_node` folds the signature at all.  Off by default so
    /// cache-off construction cost is unchanged; enabled by contexts whose
    /// engine has the plan cache on.
    win_track: bool,
    /// Lane-canonical signing mode: instead of one arrival-ordered fold,
    /// each fiber lane accumulates its own chains and the window signature
    /// is combined over lanes *sorted by lane key*, making it invariant to
    /// the OS interleaving of fiber appends.  Enabled by fiber-mode
    /// drivers; sequential models keep the cheaper single-chain fold (and
    /// its exact PR-6 signature values).
    lane_canon: bool,
    /// Per-lane accumulators for the current window (lane-canonical mode).
    lanes: Vec<LaneAcc>,
    /// Lane key → index into `lanes`, probed once per lane-canonical node.
    lane_slots: HashMap<u64, u32, FoldBuildHasher>,
    /// Per window offset, `(lane slot, index within lane)` — parallel to
    /// the window's id range `win_base..`.
    node_lane: Vec<(u32, u32)>,
    /// Lazily-built canonical ordering + combined signature.
    canon: CanonState,
    /// Emptied id lists of the buckets [`Dfg::clear`] dropped, handed to
    /// the next buckets created so a warm request regrows none of them.
    spare_ids: Vec<Vec<NodeId>>,
}

impl Dfg {
    /// Creates an empty graph.
    pub fn new() -> Dfg {
        Dfg::default()
    }

    /// Empties the graph to the state of [`Dfg::new`] — signature tracking
    /// and lane-canonical signing off, so callers re-arm them as on a new
    /// graph — while keeping the capacity of every vector, map and bucket
    /// id list, so a pooled context's next request regrows nothing.
    ///
    /// The destructuring below names every field (no `..`): a field added
    /// to `Dfg` does not compile until it is cleared here too.
    pub fn clear(&mut self) {
        let Dfg {
            nodes,
            node_args,
            values,
            pending,
            pending_pos,
            buckets,
            bucket_lookup,
            bucket_of,
            win_sig,
            win_check,
            win_base,
            win_dirty,
            win_track,
            lane_canon,
            lanes,
            lane_slots,
            node_lane,
            canon,
            spare_ids,
        } = self;
        nodes.clear();
        node_args.clear();
        values.clear();
        pending.clear();
        pending_pos.clear();
        spare_ids.extend(buckets.drain(..).map(|mut b| {
            b.ids.clear();
            b.ids
        }));
        bucket_lookup.clear();
        bucket_of.clear();
        *win_sig = 0;
        *win_check = 0;
        *win_base = 0;
        *win_dirty = false;
        *win_track = false;
        *lane_canon = false;
        lanes.clear();
        lane_slots.clear();
        node_lane.clear();
        let CanonState { valid, rank, order, lane_order, lane_start, win } = canon;
        *valid = false;
        rank.clear();
        order.clear();
        lane_order.clear();
        lane_start.clear();
        *win = None;
    }

    /// Registers an already-materialized tensor (program input, constant).
    pub fn ready_value(&mut self, tensor: DeviceTensor) -> ValueId {
        let id = ValueId(self.values.len() as u64);
        self.values.push(ValueState::Ready(tensor));
        id
    }

    /// Appends a node; returns its output [`ValueId`]s (one per slot).
    ///
    /// Convenience wrapper over [`Dfg::add_node_in_lane`] for callers that
    /// hold their arguments in a `Vec` and want the outputs as one: the node
    /// is signed on the root lane of its instance.
    #[allow(clippy::too_many_arguments)]
    pub fn add_node(
        &mut self,
        kernel: KernelId,
        instance: usize,
        depth: u64,
        phase: u32,
        shared_sig: u64,
        args: Vec<ValueId>,
        output_slots: usize,
    ) -> (NodeId, Vec<ValueId>) {
        let lane = lane::root(instance);
        let (id, _) = self.add_node_in_lane(
            kernel,
            instance,
            lane,
            depth,
            phase,
            shared_sig,
            &args,
            output_slots,
        );
        (id, self.nodes[id.0 as usize].outputs().collect())
    }

    /// Appends a node on an explicit fiber lane (see [`lane`]), copying
    /// `args` into the graph's flat argument array; returns the node and
    /// its first output value — output slot `k` is `ValueId(first.0 + k)`
    /// (see [`DfgNode::outputs`]).  Allocation-free once the graph's
    /// buffers have grown.
    ///
    /// In lane-canonical mode the node's signature tokens are folded into
    /// its *lane's* private accumulator rather than the arrival-ordered
    /// global chain, so the resulting [`WindowSig`] depends only on lane
    /// content and lane keys — never on the OS interleaving of appends.
    #[allow(clippy::too_many_arguments)]
    pub fn add_node_in_lane(
        &mut self,
        kernel: KernelId,
        instance: usize,
        lane: u64,
        depth: u64,
        phase: u32,
        shared_sig: u64,
        args: &[ValueId],
        output_slots: usize,
    ) -> (NodeId, ValueId) {
        let id = NodeId(self.nodes.len() as u64);
        if self.win_track {
            if self.pending.is_empty() {
                // First node after a drain: a new window starts here.
                self.win_sig = WIN_SEED0;
                self.win_check = WIN_SEED1;
                self.win_base = id.0;
                self.win_dirty = false;
                self.lanes.clear();
                self.lane_slots.clear();
                self.node_lane.clear();
            }
            if !self.win_dirty {
                if self.lane_canon {
                    self.fold_lane_tokens(id, lane, kernel, depth, phase, shared_sig, args);
                } else {
                    let mut s0 = self.win_sig;
                    let mut s1 = self.win_check;
                    let mut fold = |v: u64| {
                        s0 = sig_fold(s0, v);
                        s1 = sig_fold(s1, v ^ WIN_TWEAK);
                    };
                    fold(((phase as u64) << 32) | kernel.0 as u64);
                    fold(depth);
                    fold(shared_sig);
                    fold(args.len() as u64);
                    for a in args {
                        // Dependency topology in window-relative
                        // coordinates: a pending argument folds the
                        // distance to its producer (id-delta), a
                        // materialized one folds a sentinel — so the
                        // signature is independent of absolute id offsets.
                        let tok = match &self.values[a.0 as usize] {
                            ValueState::Pending { producer, .. } => ((id.0 - producer.0) << 1) | 1,
                            ValueState::Ready(_) => 0,
                        };
                        fold(tok);
                    }
                    self.win_sig = s0;
                    self.win_check = s1;
                }
            }
            self.canon.valid = false;
            self.canon.win = None;
        }
        let first_output = ValueId(self.values.len() as u64);
        self.values
            .extend((0..output_slots).map(|slot| ValueState::Pending { producer: id, slot }));
        let args_start = self.node_args.len();
        self.node_args.extend_from_slice(args);
        assert!(self.node_args.len() <= u32::MAX as usize, "DFG argument array overflow");
        self.nodes.push(DfgNode {
            id,
            kernel,
            instance,
            depth,
            phase,
            shared_sig,
            args_start: args_start as u32,
            args_len: args.len() as u32,
            first_output,
            output_count: output_slots as u32,
            executed: false,
        });
        debug_assert!(self.pending.len() < NOT_PENDING as usize, "pending set overflow");
        self.pending_pos.push(self.pending.len() as u32);
        self.pending.push(id);
        let key = (inline_key(phase, depth, kernel.0), shared_sig);
        let bucket = *self.bucket_lookup.entry(key).or_insert_with(|| {
            let ids = self.spare_ids.pop().unwrap_or_default();
            self.buckets.push(InlineBucket { key, ids, pending: 0 });
            (self.buckets.len() - 1) as u32
        });
        let b = &mut self.buckets[bucket as usize];
        b.ids.push(id);
        b.pending += 1;
        self.bucket_of.push(bucket);
        (id, first_output)
    }

    /// Folds one node's signature tokens into its lane accumulator
    /// (lane-canonical mode).  The token grammar is prefix-decodable: each
    /// argument contributes a first word that is `0` (ready), `≡ 1 mod 4`
    /// (same-lane producer, encoding the within-lane index delta) or `2`
    /// (cross-lane producer, followed by the producer's lane key and
    /// within-lane index) — so distinct window structures produce distinct
    /// token streams up to hash collision.
    #[allow(clippy::too_many_arguments)]
    fn fold_lane_tokens(
        &mut self,
        id: NodeId,
        lane: u64,
        kernel: KernelId,
        depth: u64,
        phase: u32,
        shared_sig: u64,
        args: &[ValueId],
    ) {
        let off = (id.0 - self.win_base) as usize;
        debug_assert_eq!(off, self.node_lane.len(), "window offset out of step with lane map");
        let slot = match self.lane_slots.entry(lane) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let s = self.lanes.len() as u32;
                self.lanes.push(LaneAcc {
                    key: lane,
                    sig: sig_fold(WIN_SEED0, lane),
                    check: sig_fold(WIN_SEED1, lane ^ WIN_TWEAK),
                    len: 0,
                });
                e.insert(s);
                s
            }
        };
        // Work on a copy: folding needs shared access to `values`,
        // `node_lane` and other `lanes` entries while this one mutates.
        let mut acc = self.lanes[slot as usize];
        let my_idx = acc.len;
        {
            let mut fold = |v: u64| {
                acc.sig = sig_fold(acc.sig, v);
                acc.check = sig_fold(acc.check, v ^ WIN_TWEAK);
            };
            fold(((phase as u64) << 32) | kernel.0 as u64);
            fold(depth);
            fold(shared_sig);
            fold(args.len() as u64);
        }
        for a in args {
            match &self.values[a.0 as usize] {
                ValueState::Ready(_) => {
                    acc.sig = sig_fold(acc.sig, 0);
                    acc.check = sig_fold(acc.check, WIN_TWEAK);
                }
                ValueState::Pending { producer, .. } => {
                    let poff = (producer.0 - self.win_base) as usize;
                    let (pslot, pidx) = self.node_lane[poff];
                    let words: [u64; 3] = if pslot == slot {
                        // Same-lane dependency: distance in lane-local
                        // coordinates, invariant to interleaving.
                        let d = ((my_idx - pidx) as u64) << 2 | 1;
                        [d, 0, 0]
                    } else {
                        [2, self.lanes[pslot as usize].key, pidx as u64]
                    };
                    let n_words = if words[0] == 2 { 3 } else { 1 };
                    for &w in &words[..n_words] {
                        acc.sig = sig_fold(acc.sig, w);
                        acc.check = sig_fold(acc.check, w ^ WIN_TWEAK);
                    }
                }
            }
        }
        acc.len = my_idx + 1;
        self.lanes[slot as usize] = acc;
        self.node_lane.push((slot, my_idx));
    }

    /// The node table.
    pub fn node(&self, id: NodeId) -> &DfgNode {
        &self.nodes[id.0 as usize]
    }

    /// Argument values of `id`, one per kernel input slot.
    pub fn args(&self, id: NodeId) -> &[ValueId] {
        let n = &self.nodes[id.0 as usize];
        &self.node_args[n.args_start as usize..][..n.args_len as usize]
    }

    /// All nodes (executed and pending).
    pub fn nodes(&self) -> &[DfgNode] {
        &self.nodes
    }

    /// Ids of nodes not yet executed.
    ///
    /// Between flushes (append-only periods) the slice is in creation
    /// order; while completions are in flight the order is unspecified
    /// because completion swap-removes.  Callers needing topological order
    /// must sort (node ids increase in creation order).
    pub fn pending(&self) -> &[NodeId] {
        &self.pending
    }

    /// Whether any nodes await execution.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Value state lookup.
    pub fn value(&self, id: ValueId) -> &ValueState {
        &self.values[id.0 as usize]
    }

    /// The materialized tensor behind `id`, if ready.
    pub fn tensor(&self, id: ValueId) -> Option<&DeviceTensor> {
        match &self.values[id.0 as usize] {
            ValueState::Ready(t) => Some(t),
            ValueState::Pending { .. } => None,
        }
    }

    /// The producing node of `id`, if still pending.
    pub fn producer(&self, id: ValueId) -> Option<NodeId> {
        match &self.values[id.0 as usize] {
            ValueState::Pending { producer, .. } => Some(*producer),
            ValueState::Ready(_) => None,
        }
    }

    /// True when all arguments of `node` are materialized.
    pub fn args_ready(&self, node: NodeId) -> bool {
        self.args(node).iter().all(|a| matches!(self.values[a.0 as usize], ValueState::Ready(_)))
    }

    /// Removes `node` from the pending set in O(1) via swap-remove, and
    /// keeps the bucket index's staleness bounded.
    fn remove_pending(&mut self, node: NodeId) {
        let pos = self.pending_pos[node.0 as usize];
        debug_assert_ne!(pos, NOT_PENDING, "node not pending");
        self.pending.swap_remove(pos as usize);
        if let Some(&moved) = self.pending.get(pos as usize) {
            self.pending_pos[moved.0 as usize] = pos;
        }
        self.pending_pos[node.0 as usize] = NOT_PENDING;

        let b = &mut self.buckets[self.bucket_of[node.0 as usize] as usize];
        b.pending -= 1;
        // The executed id stays in `ids` (removal would be O(len)); readers
        // filter.  A full flush drains whole buckets, so the common case
        // frees everything at once; partial (eager) completions compact
        // once a bucket is mostly stale, keeping scans amortized O(1).
        if b.pending == 0 {
            b.ids.clear();
        } else if b.ids.len() >= 16 && b.ids.len() >= 2 * b.pending as usize {
            let pending_pos = &self.pending_pos;
            b.ids.retain(|id| pending_pos[id.0 as usize] != NOT_PENDING);
        }
        // A completion that leaves other nodes pending breaks the
        // append-only-window property: the remaining pending set is no
        // longer `base..base + n`, so the incremental signature is stale.
        // Draining completely is fine — the next `add_node` starts a fresh
        // window and resets the accumulators.
        if self.win_track {
            if !self.pending.is_empty() {
                self.win_dirty = true;
            }
            // Any completion retires the memoized canonical order: either
            // the window went dirty, or it drained and the next append
            // starts a fresh window.
            self.canon.valid = false;
            self.canon.win = None;
        }
    }

    /// Whether `node` awaits execution.
    pub(crate) fn is_pending(&self, node: NodeId) -> bool {
        self.pending_pos[node.0 as usize] != NOT_PENDING
    }

    /// The incremental inline-scheduling bucket index.
    pub(crate) fn inline_buckets(&self) -> &[InlineBucket] {
        &self.buckets
    }

    /// Marks a node executed, materializing its outputs.
    ///
    /// # Panics
    ///
    /// Panics if output counts disagree (internal error).
    pub fn complete_node(&mut self, node: NodeId, outputs: Vec<DeviceTensor>) {
        let n = &mut self.nodes[node.0 as usize];
        assert_eq!(n.outputs().len(), outputs.len(), "output arity mismatch");
        assert!(!n.executed, "node executed twice");
        n.executed = true;
        for (vid, t) in n.outputs().zip(outputs) {
            self.values[vid.0 as usize] = ValueState::Ready(t);
        }
        self.remove_pending(node);
    }

    /// Marks a whole batch executed in one pass, materializing every lane's
    /// outputs.  `outputs[slot][lane]` is the tensor produced for
    /// `batch[lane]`'s output `slot` — exactly the shape
    /// `acrobat_codegen::exec::finish_prepared` returns, so the flush
    /// path moves tensors straight into the value table without per-node
    /// re-packing or handle clones.
    ///
    /// # Panics
    ///
    /// Panics if slot or lane counts disagree with the batch, or if any
    /// node was already executed (internal errors).
    pub fn complete_batch(&mut self, batch: &[NodeId], outputs: Vec<Vec<DeviceTensor>>) {
        // Validate the whole batch BEFORE touching the value table: a bad
        // batch (double completion, arity mismatch) must panic with the
        // table untouched, not after overwriting Ready values of lanes that
        // happened to precede the offending one.
        let slots = outputs.len();
        for &id in batch {
            let n = &self.nodes[id.0 as usize];
            assert_eq!(n.outputs().len(), slots, "output arity mismatch");
            assert!(!n.executed, "node executed twice");
        }
        for (slot, lanes) in outputs.iter().enumerate() {
            assert_eq!(lanes.len(), batch.len(), "lane count mismatch at slot {slot}");
        }
        for (slot, lanes) in outputs.into_iter().enumerate() {
            for (lane, t) in lanes.into_iter().enumerate() {
                let vid = self.nodes[batch[lane].0 as usize].output(slot);
                self.values[vid.0 as usize] = ValueState::Ready(t);
            }
        }
        for &id in batch {
            self.nodes[id.0 as usize].executed = true;
            self.remove_pending(id);
        }
    }

    /// Exhaustively cross-checks the pending set, the `pending_pos` index
    /// and the incremental inline-bucket index against each other and
    /// against the node table.  O(nodes); meant for the runtime's checked
    /// mode and for tests after error paths, never for the flush hot path.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn verify_consistent(&self) -> Result<(), String> {
        // pending ↔ pending_pos is a bijection.
        if self.pending_pos.len() != self.nodes.len() {
            return Err(format!(
                "pending_pos len {} != node count {}",
                self.pending_pos.len(),
                self.nodes.len()
            ));
        }
        for (i, &id) in self.pending.iter().enumerate() {
            let pos = self.pending_pos[id.0 as usize];
            if pos as usize != i {
                return Err(format!("pending[{i}] = {id:?} but pending_pos says {pos}"));
            }
            if self.nodes[id.0 as usize].executed {
                return Err(format!("{id:?} is pending but marked executed"));
            }
        }
        let mut pending_count = 0usize;
        for (idx, node) in self.nodes.iter().enumerate() {
            let pos = self.pending_pos[idx];
            if pos == NOT_PENDING {
                if !node.executed {
                    return Err(format!("node {idx} neither pending nor executed"));
                }
                // Executed nodes must have every output materialized.
                for v in node.outputs() {
                    if matches!(self.values[v.0 as usize], ValueState::Pending { .. }) {
                        return Err(format!("executed node {idx} has pending output {v:?}"));
                    }
                }
            } else {
                pending_count += 1;
                if self.pending.get(pos as usize) != Some(&NodeId(idx as u64)) {
                    return Err(format!("pending_pos[{idx}] = {pos} does not point back"));
                }
            }
        }
        if pending_count != self.pending.len() {
            return Err(format!(
                "pending_pos marks {pending_count} nodes pending, pending holds {}",
                self.pending.len()
            ));
        }

        // Bucket index: keys match members, pending counts match, every
        // pending node is present exactly once in its own bucket.
        if self.bucket_of.len() != self.nodes.len() {
            return Err("bucket_of not parallel to nodes".into());
        }
        let mut bucket_pending_total = 0u64;
        for (bi, b) in self.buckets.iter().enumerate() {
            bucket_pending_total += b.pending as u64;
            if self.bucket_lookup.get(&b.key) != Some(&(bi as u32)) {
                return Err(format!("bucket {bi} not found under its key in bucket_lookup"));
            }
            let mut live = 0u32;
            for &id in &b.ids {
                let node = &self.nodes[id.0 as usize];
                let key = (inline_key(node.phase, node.depth, node.kernel.0), node.shared_sig);
                if key != b.key {
                    return Err(format!("bucket {bi} contains {id:?} with foreign key"));
                }
                if self.bucket_of[id.0 as usize] != bi as u32 {
                    return Err(format!("{id:?} in bucket {bi} but bucket_of disagrees"));
                }
                if self.pending_pos[id.0 as usize] != NOT_PENDING {
                    live += 1;
                }
            }
            if live != b.pending {
                return Err(format!(
                    "bucket {bi}: pending count {} but {live} live members",
                    b.pending
                ));
            }
        }
        if bucket_pending_total != self.pending.len() as u64 {
            return Err(format!(
                "bucket pending totals {bucket_pending_total} != pending set {}",
                self.pending.len()
            ));
        }
        for &id in &self.pending {
            let b = &self.buckets[self.bucket_of[id.0 as usize] as usize];
            let copies = b.ids.iter().filter(|&&x| x == id).count();
            if copies != 1 {
                return Err(format!("{id:?} appears {copies} times in its bucket"));
            }
        }

        // Pending values point at live producers with matching slots.
        for (vi, v) in self.values.iter().enumerate() {
            if let ValueState::Pending { producer, slot } = v {
                let node = match self.nodes.get(producer.0 as usize) {
                    Some(n) => n,
                    None => return Err(format!("value {vi} names missing producer {producer:?}")),
                };
                if node.outputs().nth(*slot) != Some(ValueId(vi as u64)) {
                    return Err(format!("value {vi} slot {slot} not an output of {producer:?}"));
                }
            }
        }
        Ok(())
    }

    /// Values created so far: the next value is `ValueId(value_count)`.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Total nodes ever created (the DFG-construction count in Table 5).
    pub fn node_count(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Enables or disables incremental window-signature folding (see
    /// [`WindowSig`]).  Kept off by default so cache-off DFG construction
    /// pays nothing; turning it on mid-graph marks the signature dirty
    /// until the pending set next drains (a half-observed window must
    /// never hash clean).
    pub fn set_signature_tracking(&mut self, on: bool) {
        self.win_track = on;
        self.win_dirty = !self.pending.is_empty();
        self.canon.valid = false;
        self.canon.win = None;
    }

    /// Enables or disables lane-canonical signing (see
    /// [`Dfg::add_node_in_lane`]).  Fiber-mode drivers turn this on so the
    /// window signature and canonical node order are invariant to the OS
    /// interleaving of fiber lanes; sequential models leave it off and
    /// keep the cheaper single-chain fold byte-for-byte.  Toggling
    /// mid-window marks the signature dirty until the pending set next
    /// drains, exactly like [`Dfg::set_signature_tracking`].
    pub fn set_lane_canonical(&mut self, on: bool) {
        self.lane_canon = on;
        self.win_dirty = !self.pending.is_empty();
        self.canon.valid = false;
        self.canon.win = None;
    }

    /// The structural signature of the current pending window, if it is
    /// clean: tracking is on, the window grew append-only from an empty
    /// pending set, and nothing was partially completed since.  `None`
    /// sends the caller down the uncached scheduling path.
    ///
    /// In lane-canonical mode the first call per window derives the
    /// canonical node order and combines the per-lane chains (sorted by
    /// lane key) into the interleave-invariant signature; the result is
    /// memoized, so repeat calls on an unchanged window are O(1).
    pub fn window_signature(&mut self) -> Option<WindowSig> {
        if !self.win_track || self.win_dirty || self.pending.is_empty() {
            return None;
        }
        debug_assert_eq!(
            self.win_base + self.pending.len() as u64,
            self.nodes.len() as u64,
            "clean window must span a contiguous id range"
        );
        if self.lane_canon {
            if !self.canon.valid {
                self.build_canon();
            }
            return self.canon.win;
        }
        Some(WindowSig {
            sig: self.win_sig,
            check: self.win_check,
            n: self.pending.len() as u32,
            base: self.win_base,
        })
    }

    /// Derives the canonical window order and the combined lane-canonical
    /// [`WindowSig`]: lanes sorted by key, each node ranked by (lane's
    /// sorted position, within-lane index).  All inputs are themselves
    /// interleave-invariant, so so is everything derived here.
    fn build_canon(&mut self) {
        let nl = self.lanes.len();
        self.canon.lane_order.clear();
        self.canon.lane_order.extend(0..nl as u32);
        let lanes = &self.lanes;
        self.canon.lane_order.sort_unstable_by_key(|&s| lanes[s as usize].key);
        self.canon.lane_start.clear();
        self.canon.lane_start.resize(nl, 0);
        let mut cum = 0u32;
        for &s in &self.canon.lane_order {
            self.canon.lane_start[s as usize] = cum;
            cum += self.lanes[s as usize].len;
        }
        let n = self.pending.len();
        debug_assert_eq!(cum as usize, n, "lane lengths must cover the window");
        debug_assert_eq!(self.node_lane.len(), n, "lane map must cover the window");
        self.canon.rank.clear();
        self.canon.order.clear();
        self.canon.order.resize(n, 0);
        for off in 0..n {
            let (slot, idx) = self.node_lane[off];
            let r = self.canon.lane_start[slot as usize] + idx;
            self.canon.rank.push(r);
            self.canon.order[r as usize] = off as u32;
        }
        let mut s0 = WIN_SEED0;
        let mut s1 = WIN_SEED1;
        let mut fold = |v: u64| {
            s0 = sig_fold(s0, v);
            s1 = sig_fold(s1, v ^ WIN_TWEAK);
        };
        fold(nl as u64);
        for &s in &self.canon.lane_order {
            let l = &self.lanes[s as usize];
            fold(l.key);
            fold(l.sig);
            fold(l.check);
            fold(l.len as u64);
        }
        self.canon.win = Some(WindowSig { sig: s0, check: s1, n: n as u32, base: self.win_base });
        self.canon.valid = true;
    }

    /// Whether a canonical (interleave-invariant) window order is
    /// available: lane-canonical mode with a clean window whose order has
    /// been derived by [`Dfg::window_signature`].
    pub fn has_canonical_order(&self) -> bool {
        self.win_track && self.lane_canon && !self.win_dirty && self.canon.valid
    }

    /// Canonical position of window node `id` (its rank under the
    /// lane-sorted order).  Falls back to the window offset — which *is*
    /// the canonical order for sequential windows — when no lane-canonical
    /// order is available.
    pub fn canon_pos(&self, id: NodeId) -> u32 {
        let off = (id.0 - self.win_base) as u32;
        if self.has_canonical_order() {
            self.canon.rank[off as usize]
        } else {
            off
        }
    }

    /// Inverse of [`Dfg::canon_pos`]: the `NodeId` at canonical position
    /// `pos` of the current window.
    pub fn id_at_canon(&self, pos: u32) -> NodeId {
        if self.has_canonical_order() {
            NodeId(self.win_base + self.canon.order[pos as usize] as u64)
        } else {
            NodeId(self.win_base + pos as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_tensor::{DeviceMem, Tensor};
    use proptest::prelude::*;

    #[test]
    fn node_lifecycle() {
        let mut mem = DeviceMem::new(64);
        let mut dfg = Dfg::new();
        let x = dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap());
        let (n1, o1) = dfg.add_node(acrobat_codegen::KernelId(0), 0, 0, 0, 0, vec![x], 1);
        assert!(dfg.args_ready(n1));
        assert!(dfg.tensor(o1[0]).is_none());
        assert_eq!(dfg.producer(o1[0]), Some(n1));

        let (n2, _) = dfg.add_node(acrobat_codegen::KernelId(1), 0, 1, 0, 0, vec![o1[0]], 1);
        assert!(!dfg.args_ready(n2), "depends on pending n1");
        assert_eq!(dfg.pending().len(), 2);

        let t = mem.upload(&Tensor::zeros(&[2])).unwrap();
        dfg.complete_node(n1, vec![t]);
        assert!(dfg.args_ready(n2));
        assert_eq!(dfg.pending(), &[n2]);
        assert!(dfg.tensor(o1[0]).is_some());
    }

    #[test]
    fn complete_batch_materializes_all_lanes() {
        let mut mem = DeviceMem::new(256);
        let mut dfg = Dfg::new();
        let x = dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap());
        let mut ids = Vec::new();
        let mut outs = Vec::new();
        for i in 0..4 {
            let (n, o) = dfg.add_node(acrobat_codegen::KernelId(0), i, 0, 0, 0, vec![x], 1);
            ids.push(n);
            outs.push(o[0]);
        }
        assert_eq!(dfg.pending().len(), 4);
        // Complete the middle two as one batch (slot-major outputs).
        let lanes: Vec<DeviceTensor> =
            (0..2).map(|i| mem.upload(&Tensor::fill(&[2], i as f32)).unwrap()).collect();
        dfg.complete_batch(&[ids[1], ids[2]], vec![lanes]);
        assert!(dfg.tensor(outs[1]).is_some());
        assert!(dfg.tensor(outs[2]).is_some());
        assert!(dfg.tensor(outs[0]).is_none());
        let mut left: Vec<NodeId> = dfg.pending().to_vec();
        left.sort_unstable();
        assert_eq!(left, vec![ids[0], ids[3]]);

        // Swap-removed set still completes correctly one by one.
        let t = mem.upload(&Tensor::zeros(&[2])).unwrap();
        dfg.complete_node(ids[3], vec![t.clone()]);
        dfg.complete_node(ids[0], vec![t]);
        assert!(!dfg.has_pending());
    }

    #[test]
    #[should_panic(expected = "executed twice")]
    fn double_batch_completion_panics() {
        let mut mem = DeviceMem::new(64);
        let mut dfg = Dfg::new();
        let (n, _) = dfg.add_node(acrobat_codegen::KernelId(0), 0, 0, 0, 0, vec![], 1);
        let t = mem.upload(&Tensor::ones(&[1])).unwrap();
        dfg.complete_batch(&[n], vec![vec![t.clone()]]);
        dfg.complete_batch(&[n], vec![vec![t]]);
    }

    #[test]
    fn failed_batch_completion_leaves_value_table_untouched() {
        // Regression: complete_batch used to materialize lane outputs slot
        // by slot BEFORE checking `executed`, so a double completion
        // overwrote Ready values of earlier lanes prior to panicking.
        let mut mem = DeviceMem::new(256);
        let mut dfg = Dfg::new();
        let (a, oa) = dfg.add_node(acrobat_codegen::KernelId(0), 0, 0, 0, 0, vec![], 1);
        let (b, ob) = dfg.add_node(acrobat_codegen::KernelId(0), 1, 0, 0, 0, vec![], 1);
        let t_a = mem.upload(&Tensor::fill(&[1], 1.0)).unwrap();
        let t_b = mem.upload(&Tensor::fill(&[1], 2.0)).unwrap();
        dfg.complete_batch(&[a, b], vec![vec![t_a.clone(), t_b.clone()]]);
        assert_eq!(dfg.tensor(oa[0]), Some(&t_a));

        // Re-completing [a] with a junk tensor must panic *without* first
        // clobbering a's Ready value.
        let junk = mem.upload(&Tensor::fill(&[1], 9.0)).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dfg.complete_batch(&[a], vec![vec![junk]]);
        }));
        assert!(panicked.is_err(), "double completion must still panic");
        assert_eq!(dfg.tensor(oa[0]), Some(&t_a), "value table was corrupted");
        assert_eq!(dfg.tensor(ob[0]), Some(&t_b));
        dfg.verify_consistent().unwrap();
    }

    #[test]
    fn verify_consistent_accepts_live_graphs() {
        let mut mem = DeviceMem::new(256);
        let mut dfg = Dfg::new();
        let x = dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap());
        let mut ids = Vec::new();
        for i in 0..5 {
            let (n, _) =
                dfg.add_node(acrobat_codegen::KernelId(i as u32 % 2), i, 0, 0, 0, vec![x], 1);
            ids.push(n);
        }
        dfg.verify_consistent().unwrap();
        let t = mem.upload(&Tensor::zeros(&[2])).unwrap();
        dfg.complete_node(ids[2], vec![t.clone()]);
        dfg.verify_consistent().unwrap();
        dfg.complete_batch(&[ids[0], ids[4]], vec![vec![t.clone(), t.clone()]]);
        dfg.verify_consistent().unwrap();
    }

    /// Builds one window with lane-canonical signing on, appending chain
    /// nodes in the given `(instance, kernel)` order — each node consumes
    /// its own lane's previous output (or the shared ready input).
    /// Returns the combined signature plus the kernel ids in canonical
    /// window order.
    fn build_lane_window(order: &[(usize, u32)]) -> (WindowSig, Vec<u32>) {
        let mut mem = DeviceMem::new(256);
        let mut dfg = Dfg::new();
        dfg.set_signature_tracking(true);
        dfg.set_lane_canonical(true);
        let x = dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap());
        let mut last: HashMap<usize, ValueId, FoldBuildHasher> = Default::default();
        for &(inst, k) in order {
            let arg = last.get(&inst).copied().unwrap_or(x);
            let (_, o) = dfg.add_node(acrobat_codegen::KernelId(k), inst, 0, 0, 0, vec![arg], 1);
            last.insert(inst, o[0]);
        }
        let w = dfg.window_signature().expect("clean window must sign");
        assert!(dfg.has_canonical_order());
        let kernels = (0..w.n).map(|p| dfg.node(dfg.id_at_canon(p)).kernel.0).collect();
        // canon_pos and id_at_canon must be inverse bijections.
        for p in 0..w.n {
            assert_eq!(dfg.canon_pos(dfg.id_at_canon(p)), p);
        }
        (w, kernels)
    }

    #[test]
    fn lane_canonical_signature_is_interleave_invariant() {
        // The same two lanes (two-node chains) appended in three different
        // interleavings — including lanes first-touched in opposite order —
        // must produce bit-identical signatures and canonical orders.
        let a = build_lane_window(&[(0, 10), (0, 11), (1, 20), (1, 21)]);
        let b = build_lane_window(&[(1, 20), (1, 21), (0, 10), (0, 11)]);
        let c = build_lane_window(&[(0, 10), (1, 20), (1, 21), (0, 11)]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        // Different window content must (overwhelmingly) sign differently.
        let d = build_lane_window(&[(0, 10), (0, 12), (1, 20), (1, 21)]);
        assert_ne!(a.0.sig, d.0.sig);
    }

    #[test]
    fn lane_canonical_cross_lane_deps_are_interleave_invariant() {
        // Lane 1 consumes lane 0's output; an unrelated lane 2 is shuffled
        // around the dependent pair.  The cross-lane token folds the
        // producer's lane *key* and within-lane index, so every legal
        // interleaving signs identically.
        let build = |order: &[usize]| -> (WindowSig, Vec<u32>) {
            let mut mem = DeviceMem::new(256);
            let mut dfg = Dfg::new();
            dfg.set_signature_tracking(true);
            dfg.set_lane_canonical(true);
            let x = dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap());
            let mut l0_out = None;
            for &inst in order {
                let arg = if inst == 1 { l0_out.expect("l0 first") } else { x };
                let (_, o) = dfg.add_node(
                    acrobat_codegen::KernelId(inst as u32),
                    inst,
                    0,
                    0,
                    0,
                    vec![arg],
                    1,
                );
                if inst == 0 {
                    l0_out = Some(o[0]);
                }
            }
            let w = dfg.window_signature().unwrap();
            let ks = (0..w.n).map(|p| dfg.node(dfg.id_at_canon(p)).kernel.0).collect();
            (w, ks)
        };
        let a = build(&[0, 1, 2]);
        let b = build(&[0, 2, 1]);
        let c = build(&[2, 0, 1]);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn sequential_mode_signature_is_unchanged_by_lane_plumbing() {
        // With lane-canonical mode OFF (the default), add_node must sign
        // exactly as the single-chain fold always did — arrival order
        // matters, and the lane tables stay untouched.
        let mut mem = DeviceMem::new(256);
        let mut dfg = Dfg::new();
        dfg.set_signature_tracking(true);
        let x = dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap());
        dfg.add_node(acrobat_codegen::KernelId(0), 0, 0, 0, 0, vec![x], 1);
        dfg.add_node(acrobat_codegen::KernelId(1), 1, 0, 0, 0, vec![x], 1);
        let w1 = dfg.window_signature().unwrap();

        let mut dfg2 = Dfg::new();
        dfg2.set_signature_tracking(true);
        let y = dfg2.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap());
        dfg2.add_node(acrobat_codegen::KernelId(1), 1, 0, 0, 0, vec![y], 1);
        dfg2.add_node(acrobat_codegen::KernelId(0), 0, 0, 0, 0, vec![y], 1);
        let w2 = dfg2.window_signature().unwrap();
        assert_ne!(w1.sig, w2.sig, "sequential signing stays arrival-ordered");
        // And canonical accessors degrade to the identity order.
        assert!(!dfg.has_canonical_order());
        assert_eq!(dfg.canon_pos(NodeId(1)), 1);
        assert_eq!(dfg.id_at_canon(0), NodeId(0));
    }

    /// Two-input, two-output nodes chained `links` deep per instance: each
    /// consumes the previous node's outputs (the shared ready input first).
    fn flat_window(dfg: &mut Dfg, x: ValueId, links: u64) -> Vec<(NodeId, [ValueId; 2])> {
        let mut built = Vec::new();
        for instance in 0..3 {
            let mut ins = [x, x];
            for depth in 0..links {
                let (id, first) = dfg.add_node_in_lane(
                    acrobat_codegen::KernelId(depth as u32 % 2),
                    instance,
                    lane::root(instance),
                    depth,
                    0,
                    0,
                    &ins,
                    2,
                );
                built.push((id, ins));
                ins = [first, ValueId(first.0 + 1)];
            }
        }
        built
    }

    fn drain(dfg: &mut Dfg, mem: &mut DeviceMem) {
        let mut pending = dfg.pending().to_vec();
        pending.sort_unstable();
        for id in pending {
            let outs = (0..2).map(|_| mem.upload(&Tensor::ones(&[1])).unwrap()).collect();
            dfg.complete_node(id, outs);
        }
    }

    #[test]
    fn flat_args_and_outputs_round_trip() {
        let mut mem = DeviceMem::new(1 << 12);
        let mut dfg = Dfg::new();
        let x = dfg.ready_value(mem.upload(&Tensor::ones(&[1])).unwrap());
        let built = flat_window(&mut dfg, x, 3);
        for (id, ins) in &built {
            assert_eq!(dfg.args(*id), ins, "{id:?}");
            let outs: Vec<ValueId> = dfg.node(*id).outputs().collect();
            assert_eq!(outs.len(), 2);
            assert_eq!(outs[1], ValueId(outs[0].0 + 1), "outputs are consecutive");
            assert_eq!(dfg.node(*id).output(1), outs[1]);
            for (slot, v) in outs.iter().enumerate() {
                let ValueState::Pending { producer, slot: s } = dfg.value(*v) else {
                    panic!("fresh output must be pending");
                };
                assert_eq!((*producer, *s), (*id, slot));
            }
        }
        dfg.verify_consistent().unwrap();
    }

    #[test]
    fn flat_ranges_survive_drain_window_reset_and_thaw() {
        use crate::plan_cache::{plan_cached, CacheConfig, CacheOutcome, PlanCache, PlanL1};
        use crate::scheduler::{Plan, SchedulerKind, SchedulerScratch};
        let mut mem = DeviceMem::new(1 << 12);
        let mut dfg = Dfg::new();
        dfg.set_signature_tracking(true);
        let x = dfg.ready_value(mem.upload(&Tensor::ones(&[1])).unwrap());
        let cfg = CacheConfig {
            kind: SchedulerKind::InlineDepth,
            gather_fusion: true,
            coarsen: true,
            lane_cap: 0,
            share: true,
        };
        let (cache, mut l1) = (PlanCache::new(), PlanL1::new());
        let (mut scratch, mut plan) = (SchedulerScratch::new(), Plan::default());

        // Window 1 misses; after a drain, window 2 — same structure at new
        // ids, appended to the same flat argument array — thaws its plan.
        let first = flat_window(&mut dfg, x, 2);
        let out = plan_cached(&cfg, &mut dfg, &mut scratch, &mut l1, &cache, &mut plan);
        assert!(matches!(out, CacheOutcome::Miss { .. }));
        drain(&mut dfg, &mut mem);
        let second = flat_window(&mut dfg, x, 2);
        let out = plan_cached(&cfg, &mut dfg, &mut scratch, &mut l1, &cache, &mut plan);
        assert_eq!(out, CacheOutcome::Hit);
        for (id, ins) in first.iter().chain(&second) {
            assert_eq!(dfg.args(*id), ins, "{id:?} after the second window");
        }
        dfg.verify_consistent().unwrap();
    }

    #[test]
    fn vec_add_node_wrapper_matches_the_slice_entry_point() {
        // The `Vec` form returns the node and *all* its output ids, root
        // lane, exactly as before outputs became a `(first, count)` pair.
        let build = |wrapper: bool| {
            let mut mem = DeviceMem::new(64);
            let mut dfg = Dfg::new();
            dfg.set_signature_tracking(true);
            let x = dfg.ready_value(mem.upload(&Tensor::ones(&[1])).unwrap());
            let k = acrobat_codegen::KernelId(3);
            let outs = if wrapper {
                let (id, outs) = dfg.add_node(k, 1, 4, 2, 9, vec![x, x], 3);
                assert_eq!(id, NodeId(0));
                outs
            } else {
                let (_, first) = dfg.add_node_in_lane(k, 1, lane::root(1), 4, 2, 9, &[x, x], 3);
                (0..3).map(|s| ValueId(first.0 + s)).collect()
            };
            let n = *dfg.node(NodeId(0));
            ((n.kernel, n.instance, n.depth, n.phase, n.shared_sig), outs, dfg.window_signature())
        };
        assert_eq!(build(true), build(false));
        assert_eq!(build(true).1, vec![ValueId(1), ValueId(2), ValueId(3)]);
        let mut dfg = Dfg::new();
        let (_, none) = dfg.add_node(acrobat_codegen::KernelId(0), 0, 0, 0, 0, vec![], 0);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "executed twice")]
    fn double_completion_panics() {
        let mut mem = DeviceMem::new(64);
        let mut dfg = Dfg::new();
        let (n, _) = dfg.add_node(acrobat_codegen::KernelId(0), 0, 0, 0, 0, vec![], 1);
        let t = mem.upload(&Tensor::ones(&[1])).unwrap();
        dfg.complete_node(n, vec![t.clone()]);
        dfg.complete_node(n, vec![t]);
    }

    /// What a request leaves observable on a graph: per window its
    /// signature, the inline buckets' keys in creation order and the plan
    /// each scheduler makes; and the XOR chain of window tokens
    /// (`plan_sig_chain`).
    #[derive(Debug, PartialEq)]
    struct Trace {
        sigs: Vec<Option<WindowSig>>,
        bucket_keys: Vec<Vec<(u128, u64)>>,
        plans: Vec<crate::scheduler::Plan>,
        sig_chain: u64,
    }

    /// Drives `dfg` through a fixed three-window request: two clean
    /// windows flushed whole, then one left dirty by a partial completion.
    /// Each window chains `depth` nodes per instance over two kernels, on
    /// each instance's root lane, appended round-robin over instances.
    fn drive_request(dfg: &mut Dfg, mem: &mut DeviceMem, lane_canon: bool) -> Trace {
        use crate::scheduler::{plan_into, Plan, SchedulerKind, SchedulerScratch};
        dfg.set_signature_tracking(true);
        dfg.set_lane_canonical(lane_canon);
        let x = dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap());
        let mut trace = Trace { sigs: vec![], bucket_keys: vec![], plans: vec![], sig_chain: 0 };
        let mut scratch = SchedulerScratch::new();
        for (window, (instances, depth)) in [(4usize, 3u64), (3, 5), (5, 2)].into_iter().enumerate()
        {
            let mut last = vec![x; instances];
            for d in 0..depth {
                for (inst, arg) in last.iter_mut().enumerate() {
                    let kernel = acrobat_codegen::KernelId((d % 2) as u32);
                    let lane = lane::root(inst);
                    let (_, out) = dfg.add_node_in_lane(kernel, inst, lane, d, 0, 0, &[*arg], 1);
                    *arg = out;
                }
            }
            let sig = dfg.window_signature();
            trace.sig_chain ^= sig.map_or(0, |w| w.chain_token());
            trace.sigs.push(sig);
            trace.bucket_keys.push(dfg.inline_buckets().iter().map(|b| b.key).collect());
            let mut plans: Vec<Plan> = SchedulerKind::ALL
                .iter()
                .map(|&kind| {
                    let mut plan = Plan::default();
                    plan_into(kind, dfg, &mut scratch, &mut plan);
                    plan
                })
                .collect();
            let plan = plans.remove(0);
            let batches: Vec<Vec<NodeId>> = plan.batches().map(|b| b.to_vec()).collect();
            trace.plans.push(plan);
            trace.plans.extend(plans);
            // The last window completes its first batch alone first: the
            // window goes dirty and the rest drains one node at a time.
            for (b, batch) in batches.iter().enumerate() {
                let t = mem.upload(&Tensor::ones(&[2])).unwrap();
                if window == 2 && b > 0 {
                    for &id in batch {
                        dfg.complete_node(id, vec![t.clone()]);
                    }
                } else {
                    dfg.complete_batch(batch, vec![vec![t; batch.len()]]);
                }
                dfg.verify_consistent().unwrap();
                if window == 2 && b == 0 {
                    assert_eq!(dfg.window_signature(), None, "a partial completion dirties");
                }
            }
            assert!(!dfg.has_pending());
        }
        trace
    }

    /// A cleared graph is a new graph: equal to [`Dfg::new`] field for
    /// field (capacity aside), and a request driven on it — both signing
    /// modes — leaves the same plans, bucket order, window signatures and
    /// signature chain as on a new graph, consistent throughout.
    #[test]
    fn cleared_graph_behaves_as_new() {
        for lane_canon in [false, true] {
            let mut mem = DeviceMem::new(1 << 16);
            let mut reused = Dfg::new();
            // An earlier request, abandoned with part of it completed.
            reused.set_signature_tracking(true);
            reused.set_lane_canonical(!lane_canon);
            let x = reused.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap());
            let mut ids = Vec::new();
            for i in 0..6 {
                let kernel = acrobat_codegen::KernelId(7 + i as u32 % 3);
                ids.push(reused.add_node(kernel, i, i as u64, 1, 9, vec![x], 1).0);
            }
            let _ = reused.window_signature();
            let t = mem.upload(&Tensor::ones(&[2])).unwrap();
            reused.complete_batch(&ids[..2], vec![vec![t.clone(), t]]);
            assert!(reused.has_pending());

            reused.clear();
            assert!(!reused.spare_ids.is_empty(), "bucket id lists are kept for reuse");
            let spare = std::mem::take(&mut reused.spare_ids);
            assert_eq!(format!("{reused:?}"), format!("{:?}", Dfg::new()), "clear() is new()");
            reused.spare_ids = spare;

            let mut fresh = Dfg::new();
            let want = drive_request(&mut fresh, &mut mem, lane_canon);
            let got = drive_request(&mut reused, &mut mem, lane_canon);
            assert_eq!(got, want, "lane_canon {lane_canon}");
            assert!(want.sigs[..2].iter().all(Option::is_some), "clean windows are signed");

            // And again after a clear that follows a whole request.
            reused.clear();
            assert_eq!(drive_request(&mut reused, &mut mem, lane_canon), want);
        }
    }

    /// `clear` empties both hashed indexes — the inline-bucket lookup and
    /// the lane-slot map — after a request that filled them.
    #[test]
    fn clear_empties_the_hashed_indexes() {
        let mut mem = DeviceMem::new(1 << 16);
        let mut dfg = Dfg::new();
        drive_request(&mut dfg, &mut mem, true);
        assert!(!dfg.bucket_lookup.is_empty() && !dfg.lane_slots.is_empty());
        dfg.clear();
        assert!(
            dfg.bucket_lookup.is_empty(),
            "clear leaves {} bucket keys",
            dfg.bucket_lookup.len()
        );
        assert!(dfg.lane_slots.is_empty(), "clear leaves {} lane slots", dfg.lane_slots.len());
    }

    /// A grouping key as its fields: `(phase, depth, kernel, shared_sig)`.
    type Key = (u32, u64, u32, u64);

    /// Appends one node per pick, each with the key `pool[pick % len]`
    /// and a ready argument, then holds the incremental bucket index's
    /// partition — before and after completing every third node — to
    /// `scheduler::reference`'s `BTreeMap` grouping.
    fn check_inline_partition(pool: &[Key], picks: &[usize]) -> Result<(), String> {
        use crate::scheduler::{self, SchedulerKind};
        let mut mem = DeviceMem::new(1 << 16);
        let mut dfg = Dfg::new();
        let x = dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap());
        let mut ids = Vec::new();
        for (i, &pick) in picks.iter().enumerate() {
            let (phase, depth, kernel, sig) = pool[pick % pool.len()];
            let kernel = acrobat_codegen::KernelId(kernel);
            ids.push(dfg.add_node_in_lane(kernel, i, lane::root(i), depth, phase, sig, &[x], 1).0);
        }
        let t = mem.upload(&Tensor::ones(&[2])).unwrap();
        for round in 0..2 {
            dfg.verify_consistent()?;
            let kind = SchedulerKind::InlineDepth;
            let (got, want) = (scheduler::plan(kind, &dfg), scheduler::reference::plan(kind, &dfg));
            prop_assert_eq!(got.to_batches(), want.to_batches(), "round {}", round);
            for &id in ids.iter().step_by(3) {
                if dfg.is_pending(id) {
                    dfg.complete_node(id, vec![t.clone()]);
                }
            }
        }
        Ok(())
    }

    /// `count` keys from `start` on whose hashes share their low 12 bits
    /// with the first: every one lands in the same home slot of any table
    /// of up to 4 096 buckets.
    fn low_bit_twins(start: u64, count: usize) -> Vec<Key> {
        use std::hash::BuildHasher;
        let build = FoldBuildHasher::default();
        let hash = |&(p, d, k, s): &Key| build.hash_one((inline_key(p, d, k), s)) & 0xFFF;
        let mut keys = (0u64..)
            .map(|i| (start as u32 & 3, start.wrapping_add(i / 4), i as u32 % 4, start >> 40));
        let first = keys.next().unwrap();
        let target = hash(&first);
        std::iter::once(first).chain(keys.filter(|key| hash(key) == target)).take(count).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random keys drawn from a small pool, so buckets hold many nodes.
        #[test]
        fn inline_partition_matches_reference_on_random_keys(
            pool in proptest::collection::vec(
                (0u32..u32::MAX, 0u64..u64::MAX, 0u32..u32::MAX, 0u64..u64::MAX),
                1..12,
            ),
            picks in proptest::collection::vec(0usize..64, 1..80),
        ) {
            check_inline_partition(&pool, &picks)?;
        }

        /// Keys brute-forced to collide in the hasher's low bits: every
        /// probe walks one long chain, and the partition must not change.
        #[test]
        fn inline_partition_matches_reference_on_low_bit_twins(
            start in 0u64..u64::MAX,
            count in 2usize..12,
            picks in proptest::collection::vec(0usize..64, 1..80),
        ) {
            let pool = low_bit_twins(start, count);
            check_inline_partition(&pool, &picks)?;
        }
    }
}
