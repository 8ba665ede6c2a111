//! Specialized kernel compilation: monomorphized, allocation-free execution
//! of kernel programs — the kernel executor ([`crate::backend`]).
//!
//! [`CompiledKernel::compile`] lowers a [`KernelProgram`] once into a form
//! the executor can run at any lane count without touching the allocator:
//!
//! * **Register allocation.**  Every materialized virtual register gets a
//!   fixed offset in one flat scratch buffer; no intermediate
//!   `DeviceTensor` or per-instruction `Vec` is allocated at execution time.
//!   Storage is *batch-flat*: within a block of lanes, register `r` owns a
//!   contiguous `lanes × numel` region (lane-major), so elementwise work
//!   runs over the whole block in one pass and escaping registers leave as
//!   one `memcpy` per output (the reserved output regions are lane-major
//!   too).
//! * **Lane blocking.**  A launch's lane range executes [`LANE_BLOCK`] lanes
//!   at a time, every segment over one block before the next block starts:
//!   scratch is bounded by the kernel's own footprint × the block instead
//!   of the launch width, and a block's registers are still in cache when
//!   the next segment reads them.
//! * **Elementwise fusion.**  Straight-line chains of strict same-shape
//!   elementwise instructions collapse into a single pass of
//!   [`tile_width`]-element chunks over all `lanes × numel` elements of a
//!   block at once: interior temporaries live in small tile buffers and
//!   never touch the flat scratch, and each step is one loop over the
//!   tile ([`acrobat_tensor::map_unary`], vectorised per instruction set,
//!   or [`acrobat_tensor::map_binary`]).  Every fused operand is one
//!   contiguous slice per chunk, and an input slot is copied only when it
//!   has to be ([`FusedIn`]): a lane-contiguous slot is read in place from
//!   the arena, a shared one (a bias) is repeated once per launch into a
//!   buffer whose period is its length, and only a slot whose lanes are
//!   scattered is staged lane-major, once per block.
//! * **MatMul monomorphization and lane-stacking.**  Matrix dimensions are
//!   resolved at compile time and the multiply runs through
//!   [`acrobat_tensor::matmul_raw`] — the register-blocked micro-kernel the
//!   reference executor calls too.  When the right operand is a
//!   [`ArgClass::Shared`] input (the ubiquitous `activation × weight`
//!   orientation), the lane-major layout makes a block's left matrices one
//!   `(lanes·m) × k` stack, so the block runs as a *single* `matmul_raw`
//!   call that reuses every weight tile across the stacked rows: each
//!   output row depends only on its own left row and the shared right
//!   operand, accumulated in the same `k` order, so stacking is numerically
//!   invisible.  When that shared right operand is a resident weight
//!   ([`ExecView::resident_panels`]) the stack multiplies its pre-packed
//!   column panels ([`acrobat_tensor::matmul_packed`], the same bits);
//!   any other one is read row-major in place.  Otherwise the multiply
//!   runs per lane, reading batched operands straight from the arena.
//!
//! Bit-for-bit identity with the reference interpreter is structural, not
//! accidental: fused steps apply the same scalar functions
//! ([`acrobat_tensor::UnaryKind::apply`] / [`acrobat_tensor::BinaryKind::apply`])
//! in the same per-element order (fusion is only attempted when every
//! operand has exactly the output shape, so the index maps are the
//! identity), matmul is the same function computing every row from the
//! same operation sequence whatever rows it is stacked with, and every
//! other instruction is routed through [`acrobat_tensor::execute_slices`] —
//! the same implementation the interpreter calls.

use std::ops::Range;

use acrobat_analysis::ArgClass;
use acrobat_tensor::arena::ExecView;
use acrobat_tensor::ops::RawInput;
use acrobat_tensor::{
    execute_slices, map_binary, map_unary, matmul_packed, matmul_raw, BinaryKind, PrimOp, Shape,
    TensorError, UnaryKind,
};

use crate::backend::BackendScratch;
use crate::exec::{with_args, PreparedLaunch, SlotOffsets};
use crate::kernel::{KInstr, KernelProgram};

/// Where an operand of a compiled step comes from.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// External input slot, read from the arena (or, inside fused
    /// segments, from its lane-major materialization).
    Input(usize),
    /// A materialized register at this per-lane offset in the flat
    /// scratch (scaled by the lane count at execution time).
    Flat(usize),
    /// The tile buffer of an earlier step in the same fused segment.
    Tile(usize),
}

/// One step of a fused elementwise segment.
#[derive(Debug, Clone, Copy)]
enum FusedOp {
    Unary(UnaryKind, Src),
    Binary(BinaryKind, Src, Src),
}

#[derive(Debug, Clone, Copy)]
struct FusedStep {
    op: FusedOp,
    /// Flat offset to materialize this step's value at, if the register is
    /// consumed outside the segment or escapes the kernel.
    sink: Option<usize>,
}

/// A compiled execution unit: one or more source instructions.
#[derive(Debug)]
enum Segment {
    /// Straight-line same-shape elementwise chain executed as one chunked
    /// pass; interior temporaries stay in tile buffers.
    Fused { steps: Vec<FusedStep>, numel: usize },
    /// Matrix multiply with dimensions resolved at compile time.  When
    /// `stacked`, the right operand is a lane-shared input and all lanes
    /// execute as one `(lanes·m) × k × n` multiply over the lane-major
    /// left stack.
    MatMul { a: Src, b: Src, out: usize, m: usize, k: usize, n: usize, stacked: bool },
    /// An instruction whose operands are all lane-invariant (shared inputs,
    /// or none at all — constant fills): executed *once* per launch through
    /// the reference implementation and broadcast, since every lane
    /// computes identical bits from identical inputs.
    Const { op: PrimOp, args: Vec<(usize, Shape)>, out: usize, out_len: usize },
    /// Concatenation as native span copies — pure data movement, so the
    /// bits are the inputs' bits by construction.  Each arg contributes
    /// `inner` contiguous elements per outer block (`args` entries are
    /// `(src, per-lane numel, inner)`).
    Concat { args: Vec<(Src, usize, usize)>, outer: usize, out: usize, out_len: usize },
    /// Any other instruction, routed through the reference operator
    /// implementations (bit-identity by sharing the code path).
    Single { op: PrimOp, args: Vec<(Src, Shape)>, out: usize, out_len: usize },
}

/// Where the fused segments and the matmul stacks of one launch read an
/// input slot from, decided per launch from the slot's lane offsets
/// ([`SlotOffsets`]): only what cannot be read in place is copied.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FusedIn {
    /// Read by no fused segment and no matmul stack (or zero elements).
    Unused,
    /// Lane-contiguous in the arena (gather staging, the packed outputs of
    /// an earlier launch): a block's lanes are read in place.
    Arena,
    /// One operand for every lane (a shared bias): repeated once per launch
    /// into the inputs scratch at this offset, enough times that any
    /// chunk's elements `c .. c + len` are the run at `c mod numel`.
    Periodic(usize),
    /// Lanes scattered over the arena (or a shared left operand of a matmul
    /// stack): copied lane-major to the inputs scratch at this offset once
    /// per block.
    Staged(usize),
}

/// Which readers of an input slot need a [`FusedIn`] each launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SlotRead {
    /// Only other instructions, which read the arena per lane.
    PerLane,
    /// A fused segment, which reads contiguous chunks of a block.
    Fused,
    /// The left stack of a stacked matmul (and maybe fused segments too),
    /// which needs every lane's rows even when all lanes share one operand.
    Stack,
}

/// Length of a [`FusedIn::Periodic`] buffer for a `numel`-element operand
/// read in chunks of at most `tile_w`: whole periods covering
/// `numel − 1 + tile_w` elements.
fn periodic_len(numel: usize, tile_w: usize) -> usize {
    ((tile_w - 1).div_ceil(numel) + 1) * numel
}

/// Chunk width of fused segments for a launch of `lanes` lanes.  Larger
/// batches amortize loop overhead over more lanes, so they get wider tiles
/// (fused chunks span the whole lanes × numel range).  Numerically
/// invisible: elementwise steps are per-element pure, so any width
/// computes the same bits.
pub(crate) fn tile_width(lanes: usize) -> usize {
    match lanes {
        0..=3 => 32,
        4..=15 => 64,
        _ => 128,
    }
}

/// Lanes a compiled kernel executes at a time.  Large enough that a stacked
/// matmul reuses each weight tile across [`LANE_BLOCK`] left rows, small
/// enough that the block's lane-major registers stay cache-resident from
/// one segment to the next and that scratch does not scale with the launch
/// (a TreeLSTM leaf launch is over a thousand lanes).  Numerically
/// invisible, like any other partition of the lane range.
pub(crate) const LANE_BLOCK: usize = 32;

/// Grows `buf` to at least `len` elements, to exactly the capacity needed.
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, 0.0);
    }
}

/// A compiled kernel program, ready to execute lanes against a
/// [`PreparedLaunch`] of any lane count without allocating.
#[derive(Debug)]
pub struct CompiledKernel {
    segments: Vec<Segment>,
    /// Total flat-scratch length in *per-lane* elements (the buffer is
    /// `flat_len × lanes` at execution time).
    flat_len: usize,
    /// Deepest fused segment, in steps: the tile buffer holds one
    /// [`tile_width`] tile per step.
    max_depth: usize,
    /// Element count per input slot, parallel to `KernelProgram::inputs`.
    input_numels: Vec<usize>,
    /// How each input slot is read, parallel to `KernelProgram::inputs`.
    slot_reads: Vec<SlotRead>,
    /// `(flat offset, numel)` per program output, parallel to
    /// `KernelProgram::outputs`.
    outputs: Vec<(usize, usize)>,
}

impl CompiledKernel {
    /// Lowers `program`.  Total: every instruction either fuses,
    /// monomorphizes or falls back to the shared reference implementation,
    /// so compilation cannot fail.
    pub(crate) fn compile(program: &KernelProgram) -> CompiledKernel {
        let max_reg = program
            .instrs
            .iter()
            .map(|k| k.out.0)
            .chain(program.inputs.iter().map(|i| i.reg.0))
            .chain(program.instrs.iter().flat_map(|k| k.args.iter().map(|a| a.0)))
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0);

        // Register tables: input slot, producing instruction, shape.
        let mut reg_input: Vec<Option<usize>> = vec![None; max_reg];
        for (si, inp) in program.inputs.iter().enumerate() {
            reg_input[inp.reg.0 as usize] = Some(si);
        }
        let mut reg_shape: Vec<Option<&Shape>> = vec![None; max_reg];
        for inp in &program.inputs {
            reg_shape[inp.reg.0 as usize] = Some(&inp.shape);
        }
        for k in &program.instrs {
            reg_shape[k.out.0 as usize] = Some(&k.shape);
        }

        // An instruction fuses when it is elementwise and every operand has
        // exactly the output shape (no broadcast — identity index maps).
        let fusable = |k: &KInstr| -> bool {
            (k.op.unary_kind().is_some() || k.op.binary_kind().is_some())
                && k.args.iter().all(|a| reg_shape[a.0 as usize] == Some(&k.shape))
        };

        // Greedy segmentation: maximal runs of fusable instructions with a
        // common element count (they share one chunk loop).
        let mut seg_of: Vec<usize> = vec![0; program.instrs.len()];
        let mut seg_ranges: Vec<Range<usize>> = Vec::new();
        let mut i = 0;
        while i < program.instrs.len() {
            let start = i;
            if fusable(&program.instrs[i]) {
                let numel = program.instrs[i].shape.numel();
                i += 1;
                while i < program.instrs.len()
                    && fusable(&program.instrs[i])
                    && program.instrs[i].shape.numel() == numel
                {
                    i += 1;
                }
            } else {
                i += 1;
            }
            for s in seg_of.iter_mut().take(i).skip(start) {
                *s = seg_ranges.len();
            }
            seg_ranges.push(start..i);
        }

        // A fused instruction materializes (sinks) when its register is
        // consumed by another segment or escapes the kernel.
        let mut instr_of_reg: Vec<Option<usize>> = vec![None; max_reg];
        for (ii, k) in program.instrs.iter().enumerate() {
            instr_of_reg[k.out.0 as usize] = Some(ii);
        }
        let mut materialize: Vec<bool> = vec![false; program.instrs.len()];
        for (ii, k) in program.instrs.iter().enumerate() {
            let seg = seg_of[ii];
            let run_len = seg_ranges[seg].len();
            let is_fused_run = run_len > 1 || fusable(k);
            if !is_fused_run {
                materialize[ii] = true;
                continue;
            }
            let escapes = program.outputs.iter().any(|(_, r, _)| *r == k.out);
            let consumed_outside = program
                .instrs
                .iter()
                .enumerate()
                .any(|(jj, kj)| seg_of[jj] != seg && kj.args.contains(&k.out));
            materialize[ii] = escapes || consumed_outside;
        }

        // Flat register allocation in instruction order: operands of any
        // instruction therefore live strictly below its own output offset,
        // which is what lets execution split the flat buffer into disjoint
        // read/write halves.
        let mut flat_off: Vec<Option<usize>> = vec![None; max_reg];
        let mut flat_len = 0usize;
        for (ii, k) in program.instrs.iter().enumerate() {
            if materialize[ii] {
                flat_off[k.out.0 as usize] = Some(flat_len);
                flat_len += k.shape.numel();
            }
        }

        // Lower each segment.
        let mut segments: Vec<Segment> = Vec::with_capacity(seg_ranges.len());
        let mut max_depth = 0usize;
        for range in &seg_ranges {
            let run = &program.instrs[range.clone()];
            let run_fused = run.len() > 1 || (run.len() == 1 && fusable(&run[0]));
            if run_fused {
                // Step-local register map for Tile operands.
                let mut step_of_reg: Vec<Option<usize>> = vec![None; max_reg];
                let mut steps = Vec::with_capacity(run.len());
                for (si, k) in run.iter().enumerate() {
                    // Sinked steps write their flat region directly (no
                    // tile detour), so intra-segment consumers of a sinked
                    // register read it back as `Flat` — steps within a
                    // chunk run in order, so the chunk's values are there.
                    let src = |a: crate::kernel::RegId| -> Src {
                        if let Some(slot) = reg_input[a.0 as usize] {
                            Src::Input(slot)
                        } else if let Some(off) = flat_off[a.0 as usize] {
                            Src::Flat(off)
                        } else {
                            let step = step_of_reg[a.0 as usize]
                                .expect("unsinked operand is an earlier step");
                            Src::Tile(step)
                        }
                    };
                    let op = if let Some(kind) = k.op.unary_kind() {
                        FusedOp::Unary(kind, src(k.args[0]))
                    } else {
                        let kind = k.op.binary_kind().expect("fusable is elementwise");
                        FusedOp::Binary(kind, src(k.args[0]), src(k.args[1]))
                    };
                    steps.push(FusedStep { op, sink: flat_off[k.out.0 as usize] });
                    step_of_reg[k.out.0 as usize] = Some(si);
                }
                max_depth = max_depth.max(steps.len());
                segments.push(Segment::Fused { steps, numel: run[0].shape.numel() });
            } else {
                let k = &run[0];
                let src = |a: crate::kernel::RegId| -> Src {
                    if let Some(slot) = reg_input[a.0 as usize] {
                        Src::Input(slot)
                    } else {
                        Src::Flat(flat_off[a.0 as usize].expect("materialized register"))
                    }
                };
                let out = flat_off[k.out.0 as usize].expect("non-fused instr materializes");
                let matmul_dims = if k.op == PrimOp::MatMul {
                    let la = reg_shape[k.args[0].0 as usize].expect("arg shape");
                    let lb = reg_shape[k.args[1].0 as usize].expect("arg shape");
                    match (la.as_matrix(), lb.as_matrix()) {
                        (Ok((m, kk)), Ok((_, n))) if k.shape.numel() == m * n => Some((m, kk, n)),
                        _ => None,
                    }
                } else {
                    None
                };
                // Lane-invariant instruction: all operands shared (or none,
                // e.g. constant fills) → every lane computes the same bits,
                // so it executes once and broadcasts.
                let const_args = {
                    let mut args = Vec::with_capacity(k.args.len());
                    let all_shared = k.args.iter().all(|a| match src(*a) {
                        Src::Input(slot) if program.inputs[slot].class == ArgClass::Shared => {
                            let sh = reg_shape[a.0 as usize].expect("arg shape resolved").clone();
                            args.push((slot, sh));
                            true
                        }
                        _ => false,
                    });
                    all_shared.then_some(args)
                };
                // Concatenation decomposed into per-outer-block span copies
                // (requires every arg to agree on the outer extent).
                let concat_args = if let PrimOp::Concat { axis } = &k.op {
                    let axis = *axis;
                    let mut args = Vec::with_capacity(k.args.len());
                    let mut outer = None;
                    let mut total = 0usize;
                    let uniform = k.args.iter().all(|a| {
                        let sh = reg_shape[a.0 as usize].expect("arg shape resolved");
                        if axis >= sh.rank() {
                            return false;
                        }
                        let o: usize = sh.dims()[..axis].iter().product();
                        let inner: usize = sh.dims()[axis..].iter().product();
                        args.push((src(*a), sh.numel(), inner));
                        total += sh.numel();
                        *outer.get_or_insert(o) == o
                    });
                    (uniform && total == k.shape.numel()).then(|| (args, outer.unwrap_or(1)))
                } else {
                    None
                };
                if let Some((m, kk, n)) = matmul_dims {
                    let b = src(k.args[1]);
                    // Lane-shared right operand → the batch stacks into one
                    // (lanes·m) × k × n multiply (row-independent, so the
                    // stack computes the per-lane bits exactly).
                    let stacked = matches!(
                        b,
                        Src::Input(slot) if program.inputs[slot].class == ArgClass::Shared
                    );
                    segments.push(Segment::MatMul {
                        a: src(k.args[0]),
                        b,
                        out,
                        m,
                        k: kk,
                        n,
                        stacked,
                    });
                } else if let Some(args) = const_args {
                    segments.push(Segment::Const {
                        op: k.op.clone(),
                        args,
                        out,
                        out_len: k.shape.numel(),
                    });
                } else if let Some((args, outer)) = concat_args {
                    segments.push(Segment::Concat { args, outer, out, out_len: k.shape.numel() });
                } else {
                    let args = k
                        .args
                        .iter()
                        .map(|a| {
                            let sh = reg_shape[a.0 as usize].expect("arg shape resolved").clone();
                            (src(*a), sh)
                        })
                        .collect();
                    segments.push(Segment::Single {
                        op: k.op.clone(),
                        args,
                        out,
                        out_len: k.shape.numel(),
                    });
                }
            }
        }

        let outputs = program
            .outputs
            .iter()
            .map(|(_, r, sh)| (flat_off[r.0 as usize].expect("output materialized"), sh.numel()))
            .collect();

        // Input slots consumed by fused segments — or as the left stack of
        // a stacked matmul — are resolved per launch to a `FusedIn`;
        // everything else reads the arena directly.
        let input_numels: Vec<usize> = program.inputs.iter().map(|i| i.shape.numel()).collect();
        let mut slot_reads = vec![SlotRead::PerLane; program.inputs.len()];
        for seg in &segments {
            match seg {
                Segment::Fused { steps, .. } => {
                    for step in steps {
                        let mut mark = |s: Src| {
                            if let Src::Input(slot) = s {
                                slot_reads[slot] = slot_reads[slot].max(SlotRead::Fused);
                            }
                        };
                        match step.op {
                            FusedOp::Unary(_, a) => mark(a),
                            FusedOp::Binary(_, a, b) => {
                                mark(a);
                                mark(b);
                            }
                        }
                    }
                }
                Segment::MatMul { a: Src::Input(slot), stacked: true, .. } => {
                    slot_reads[*slot] = SlotRead::Stack;
                }
                _ => {}
            }
        }

        CompiledKernel { segments, flat_len, max_depth, input_numels, slot_reads, outputs }
    }

    /// Executes the lanes `lane_range` of `prep` through a shared arena
    /// view, [`LANE_BLOCK`] lanes at a time, using `scratch` as the (reused)
    /// working memory — sized by the kernel's footprint × the block, never
    /// by the launch width.
    ///
    /// Pure with respect to the arena apart from writes into the launch's
    /// own reserved output regions at lane-deterministic offsets — the same
    /// contract as [`crate::exec::execute_prepared`].  Every lane's values
    /// depend only on that lane's operands (elementwise steps are
    /// per-element pure, a matmul row only reads its own left row), so any
    /// partition of the lane range across workers, and any placement of the
    /// block boundaries inside a range, produces identical memory contents.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on kernel failures.
    pub(crate) fn run_lanes(
        &self,
        view: &ExecView<'_>,
        prep: &PreparedLaunch,
        lane_range: Range<usize>,
        scratch: &mut BackendScratch,
    ) -> Result<(), TensorError> {
        debug_assert!(lane_range.end <= prep.batch);
        debug_assert_eq!(prep.slots.len(), self.input_numels.len());
        let tile_w = tile_width(prep.batch);
        let block = lane_range.len().min(LANE_BLOCK);
        grow(&mut scratch.flat, self.flat_len * block);
        grow(&mut scratch.tiles, self.max_depth * tile_w);
        self.plan_fused_inputs(view, prep, tile_w, block, scratch);
        for l0 in lane_range.clone().step_by(LANE_BLOCK) {
            let lanes = l0..lane_range.end.min(l0 + LANE_BLOCK);
            self.execute_block(view, prep, lanes, tile_w, scratch)?;
        }
        Ok(())
    }

    /// Resolves where each fused-read input slot is read from for this
    /// launch ([`FusedIn`]), lays out the inputs scratch for `block`-lane
    /// blocks and fills the periodic buffers of shared operands — once per
    /// launch, not per block.
    fn plan_fused_inputs(
        &self,
        view: &ExecView<'_>,
        prep: &PreparedLaunch,
        tile_w: usize,
        block: usize,
        scratch: &mut BackendScratch,
    ) {
        let BackendScratch { inputs, fused_in, .. } = scratch;
        fused_in.clear();
        let mut len = 0;
        let slots = prep.slots.iter().zip(&self.input_numels).zip(&self.slot_reads);
        for ((slot, &numel), &read) in slots {
            let (plan, size) = match &slot.offsets {
                _ if read == SlotRead::PerLane => (FusedIn::Unused, 0),
                _ if numel == 0 => (FusedIn::Arena, 0),
                SlotOffsets::Strided { stride, .. } if *stride == numel => (FusedIn::Arena, 0),
                SlotOffsets::Same(_) if read == SlotRead::Fused => {
                    (FusedIn::Periodic(len), periodic_len(numel, tile_w))
                }
                _ => (FusedIn::Staged(len), block * numel),
            };
            fused_in.push(plan);
            len += size;
        }
        grow(inputs, len);
        for ((slot, &numel), plan) in prep.slots.iter().zip(&self.input_numels).zip(&*fused_in) {
            if let FusedIn::Periodic(base) = *plan {
                // SAFETY: inputs were fully written before this launch's
                // execution phase and no concurrent work unit writes them.
                let src = unsafe { view.read(slot.offset(0), numel) };
                for period in
                    inputs[base..base + periodic_len(numel, tile_w)].chunks_exact_mut(numel)
                {
                    period.copy_from_slice(src);
                }
            }
        }
    }

    /// One block of lanes through every segment.
    ///
    /// Registers and staged inputs are stored *batch-flat*: register
    /// `r` at per-lane offset `off` owns `flat[off × L .. (off + numel) × L]`
    /// (lane-major, `L` = lane count of this block), so fused segments
    /// sweep all lanes in one chunked pass and escaping registers leave as
    /// a single copy per output (reserved output regions are lane-major
    /// with exactly the same layout).
    fn execute_block(
        &self,
        view: &ExecView<'_>,
        prep: &PreparedLaunch,
        lane_range: Range<usize>,
        tile_w: usize,
        scratch: &mut BackendScratch,
    ) -> Result<(), TensorError> {
        let BackendScratch { flat, tiles, inputs, fused_in, .. } = scratch;
        let l0 = lane_range.start;
        let lanes = lane_range.len();

        // Stage the scattered slots lane-major.  SAFETY (here and for every
        // arena read below): inputs were fully written before this launch's
        // execution phase (uploads, earlier flushes' outputs, gather staging
        // filled during preparation) and no concurrent work unit writes
        // them.
        for ((slot, &numel), plan) in prep.slots.iter().zip(&self.input_numels).zip(&*fused_in) {
            if let FusedIn::Staged(base) = *plan {
                for (l, lane) in
                    inputs[base..base + lanes * numel].chunks_exact_mut(numel).enumerate()
                {
                    lane.copy_from_slice(unsafe { view.read(slot.offset(l0 + l), numel) });
                }
            }
        }
        // A fused-read slot's elements `at .. at + len` of this block.
        let fused_input = |slot: usize, at: usize, len: usize| -> &[f32] {
            match fused_in[slot] {
                FusedIn::Arena => unsafe { view.read(prep.slots[slot].offset(l0) + at, len) },
                FusedIn::Periodic(base) => &inputs[base + at % self.input_numels[slot]..][..len],
                FusedIn::Staged(base) => &inputs[base + at..base + at + len],
                FusedIn::Unused => unreachable!("slot {slot} is read by a fused segment"),
            }
        };

        let input_slice = |slot: usize, lane: usize, numel: usize| -> &[f32] {
            // SAFETY: as for the staging loop above.
            unsafe { view.read(prep.slots[slot].offset(lane), numel) }
        };

        for seg in &self.segments {
            match seg {
                Segment::Fused { steps, numel } => {
                    let total = numel * lanes;
                    let mut chunk = 0;
                    while chunk < total {
                        let len = (total - chunk).min(tile_w);
                        for (si, step) in steps.iter().enumerate() {
                            let (before, cur) = tiles.split_at_mut(si * tile_w);
                            // Sinked steps write their flat region directly;
                            // their operands' flat offsets are strictly
                            // smaller (registers allocate in instruction
                            // order), so the split keeps sources readable.
                            let (flat_lo, dst) = match step.sink {
                                Some(off) => {
                                    let (lo, hi) = flat.split_at_mut(off * lanes);
                                    (&*lo, &mut hi[chunk..chunk + len])
                                }
                                None => (flat.as_slice(), &mut cur[..len]),
                            };
                            let src = |s: Src| -> &[f32] {
                                match s {
                                    Src::Input(slot) => fused_input(slot, chunk, len),
                                    Src::Flat(off) => {
                                        let base = off * lanes;
                                        &flat_lo[base + chunk..base + chunk + len]
                                    }
                                    Src::Tile(step) => &before[step * tile_w..step * tile_w + len],
                                }
                            };
                            match step.op {
                                FusedOp::Unary(kind, a) => map_unary(kind, src(a), dst),
                                FusedOp::Binary(kind, a, b) => {
                                    map_binary(kind, src(a), src(b), dst)
                                }
                            }
                        }
                        chunk += len;
                    }
                }
                Segment::MatMul { a, b, out, m, k, n, stacked } => {
                    let (lo, hi) = flat.split_at_mut(*out * lanes);
                    if *stacked {
                        // Lane-shared right operand: the lane-major left
                        // matrices are one (lanes·m) × k stack, so the whole
                        // batch is a single multiply.  matmul_raw computes
                        // each output row from its own left row and the
                        // shared right operand in the same k order, so the
                        // stacked call produces the per-lane bits exactly.
                        let sa = match a {
                            Src::Input(slot) => fused_input(*slot, 0, lanes * m * k),
                            Src::Flat(off) => &lo[off * lanes..][..lanes * m * k],
                            Src::Tile(_) => unreachable!("tiles never cross segments"),
                        };
                        let Src::Input(b) = *b else {
                            unreachable!("stacked matmul rhs is a shared input")
                        };
                        let out = &mut hi[..lanes * m * n];
                        // A resident weight multiplies from its packed
                        // panels: matmul_raw's bits, read contiguously.
                        match view.resident_panels(prep.slots[b].offset(l0), *k, *n) {
                            Some(panels) => matmul_packed(sa, panels, out, lanes * m),
                            None => {
                                matmul_raw(sa, input_slice(b, l0, k * n), out, lanes * m, *k, *n)
                            }
                        }
                    } else {
                        for l in 0..lanes {
                            let sa = match a {
                                Src::Input(slot) => input_slice(*slot, l0 + l, m * k),
                                Src::Flat(off) => &lo[off * lanes + l * (m * k)..][..m * k],
                                Src::Tile(_) => unreachable!("tiles never cross segments"),
                            };
                            let sb = match b {
                                Src::Input(slot) => input_slice(*slot, l0 + l, k * n),
                                Src::Flat(off) => &lo[off * lanes + l * (k * n)..][..k * n],
                                Src::Tile(_) => unreachable!("tiles never cross segments"),
                            };
                            matmul_raw(sa, sb, &mut hi[l * (m * n)..][..m * n], *m, *k, *n);
                        }
                    }
                }
                Segment::Const { op, args, out, out_len } => {
                    let region = &mut flat[*out * lanes..][..lanes * out_len];
                    let (first, rest) = region.split_at_mut(*out_len);
                    let operand = |i: usize| -> RawInput<'_> {
                        let (slot, sh) = &args[i];
                        (input_slice(*slot, l0, sh.numel()), sh)
                    };
                    with_args(args.len(), operand, |ins| execute_slices(op, ins, first))?;
                    if *out_len > 0 {
                        for chunk in rest.chunks_exact_mut(*out_len) {
                            chunk.copy_from_slice(first);
                        }
                    }
                }
                Segment::Concat { args, outer, out, out_len } => {
                    let (lo, hi) = flat.split_at_mut(*out * lanes);
                    let dst = &mut hi[..lanes * out_len];
                    for l in 0..lanes {
                        let mut at = l * out_len;
                        for o in 0..*outer {
                            for (s, numel, inner) in args {
                                let src: &[f32] = match s {
                                    Src::Input(slot) => input_slice(*slot, l0 + l, *numel),
                                    Src::Flat(off) => &lo[off * lanes + l * numel..][..*numel],
                                    Src::Tile(_) => {
                                        unreachable!("tiles never cross segments")
                                    }
                                };
                                dst[at..at + inner]
                                    .copy_from_slice(&src[o * inner..(o + 1) * inner]);
                                at += inner;
                            }
                        }
                    }
                }
                Segment::Single { op, args, out, out_len } => {
                    let (lo, hi) = flat.split_at_mut(*out * lanes);
                    for l in 0..lanes {
                        let operand = |i: usize| -> RawInput<'_> {
                            let (s, sh) = &args[i];
                            let sl = match s {
                                Src::Input(slot) => input_slice(*slot, l0 + l, sh.numel()),
                                Src::Flat(off) => &lo[off * lanes + l * sh.numel()..][..sh.numel()],
                                Src::Tile(_) => unreachable!("tiles never cross segments"),
                            };
                            (sl, sh)
                        };
                        let lane_out = &mut hi[l * out_len..][..*out_len];
                        with_args(args.len(), operand, |ins| execute_slices(op, ins, lane_out))?;
                    }
                }
            }
        }

        // Escaping registers leave in one lane-major copy per output.
        // SAFETY: each output region was freshly allocated for this launch
        // and this lane sub-range is written by exactly one work unit —
        // concurrent writes are disjoint by construction.
        for (&(off, n), handle) in self.outputs.iter().zip(&prep.out_handles) {
            let dst = unsafe { view.write(handle.offset() + l0 * n, lanes * n) };
            dst.copy_from_slice(&flat[off * lanes..off * lanes + lanes * n]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::BatchMode;
    use acrobat_analysis::{analyze, AnalysisOptions, ArgClass};
    use acrobat_ir::{parse_module, typeck};
    use acrobat_tensor::{DeviceMem, Params, Shape, Tensor};

    use super::{tile_width, LANE_BLOCK};
    use crate::backend::{BackendScratch, SpecializedBackend};
    use crate::exec::{finish_prepared, prepare_batched_kernel_with};
    use crate::kernel::KernelId;

    fn compile(src: &str) -> (acrobat_analysis::AnalysisResult, crate::KernelLibrary) {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let a = analyze(m, AnalysisOptions::default()).unwrap();
        let lib = crate::KernelLibrary::build(&a);
        (a, lib)
    }

    /// The tile width steps up at 4 and at 16 lanes and nowhere else.
    #[test]
    fn tile_width_has_three_lane_bands() {
        for (lanes, width) in [(1..=3, 32), (4..=15, 64), (16..=4096, 128)] {
            for n in lanes {
                assert_eq!(super::tile_width(n), width, "{n} lanes");
            }
        }
    }

    /// The compiled path must agree with the interpreter bit for bit on a
    /// kernel mixing matmul, a fused same-shape elementwise chain and an
    /// odd element count that exercises the chunk-loop remainder — with
    /// the weights uploaded per launch (the stack multiplies them
    /// row-major) and resident (from their packed panels).
    #[test]
    fn compiled_matches_interp_bits() {
        const D: usize = 37; // > tile width 32: main chunk + remainder tail
        let (_, lib) = compile(&format!(
            "def @main($w: Tensor[({D}, {D})], $b: Tensor[(1, {D})], %x: Tensor[(1, {D})]) \
             -> Tensor[(1, {D})] {{
                tanh(add($b, sigmoid(relu(matmul(%x, $w)))))
            }}"
        ));
        assert_eq!(lib.len(), 1);
        let program = lib.kernel(KernelId(0));

        let w = Tensor::from_fn(&[D, D], |i| ((i as f32) * 0.37).sin());
        let b = Tensor::from_fn(&[1, D], |i| (i as f32) * 0.05 - 0.3);
        let params = Params::from([("b".to_string(), b.clone()), ("w".to_string(), w.clone())]);
        for &(batch, mode, resident) in &[
            (1, BatchMode::GatherFused, false),
            (5, BatchMode::GatherFused, false),
            (5, BatchMode::ExplicitGather, false),
            (1, BatchMode::GatherFused, true),
            (5, BatchMode::GatherFused, true),
        ] {
            let mut mem = DeviceMem::new(1 << 20);
            let (dw, db) = if resident {
                let h = mem.make_resident(&params, &[1, 0]).unwrap();
                (h[0].clone(), h[1].clone())
            } else {
                (mem.upload(&w).unwrap(), mem.upload(&b).unwrap())
            };
            assert_eq!(mem.exec_view().resident_panels(dw.offset(), D, D).is_some(), resident);
            let mut lanes = Vec::new();
            for l in 0..batch {
                let x = Tensor::from_fn(&[1, D], |i| ((i + l) as f32) * 0.11 - 1.0);
                let dx = mem.upload(&x).unwrap();
                let mut lane = Vec::new();
                for input in &program.inputs {
                    match input.class {
                        acrobat_analysis::ArgClass::Batched => lane.push(dx.clone()),
                        acrobat_analysis::ArgClass::Shared => {
                            if input.shape.dims() == [D, D] {
                                lane.push(dw.clone());
                            } else {
                                lane.push(db.clone());
                            }
                        }
                    }
                }
                lanes.push(lane);
            }

            // Checked execution re-runs the launch through the interpreter
            // and panics on any output-bit divergence.
            let backend = SpecializedBackend::new(lib.len());
            let prep =
                prepare_batched_kernel_with(&mut mem, program, batch, mode, |l, s| &lanes[l][s])
                    .unwrap();
            let (kernel, fresh) = backend.select(program);
            assert!(fresh, "the first launch compiles");
            let mut scratch = BackendScratch::default();
            kernel.execute(&mem.exec_view(), program, &prep, 0..batch, &mut scratch, true).unwrap();
            let outs = finish_prepared(&mem, &prep).unwrap();
            assert_eq!(outs.len(), 1);

            // Second select hits the cache.
            assert!(!backend.select(program).1, "the second launch hits the cache");
            assert_eq!(backend.compiled_count(), 1);

            // Sanity: outputs match a host-side reference within tolerance.
            for (l, out) in outs[0].iter().enumerate() {
                let x = Tensor::from_fn(&[1, D], |i| ((i + l) as f32) * 0.11 - 1.0);
                let mm =
                    acrobat_tensor::execute(&acrobat_tensor::PrimOp::MatMul, &[&x, &w]).unwrap();
                let rl = acrobat_tensor::execute(&acrobat_tensor::PrimOp::Relu, &[&mm]).unwrap();
                let sg = acrobat_tensor::execute(&acrobat_tensor::PrimOp::Sigmoid, &[&rl]).unwrap();
                let ad = acrobat_tensor::execute(&acrobat_tensor::PrimOp::Add, &[&b, &sg]).unwrap();
                let th = acrobat_tensor::execute(&acrobat_tensor::PrimOp::Tanh, &[&ad]).unwrap();
                let got = mem.download(out).unwrap();
                assert!(got.allclose(&th, 1e-6), "lane {l} diverged from host reference");
            }
        }
    }

    /// A TreeLSTM-leaf-shaped kernel (three gate matmuls against shared
    /// weights, fused gate arithmetic, a constant fill) at a leaf launch's
    /// width: scratch is bounded by the kernel's footprint × one lane
    /// block, checked mode holds every block to the interpreter's bits, and
    /// lane ranges that start and end mid-block leave the same bits as one
    /// range.
    #[test]
    fn wide_launch_runs_in_lane_blocks() {
        const D: usize = 16;
        const LANES: usize = 1100;
        let (_, lib) = compile(&format!(
            "def @main($wi: Tensor[({D}, {D})], $wo: Tensor[({D}, {D})], $wu: Tensor[({D}, {D})], \
                       $bi: Tensor[(1, {D})], $bo: Tensor[(1, {D})], $bu: Tensor[(1, {D})], \
                       %e: Tensor[(1, {D})]) -> (Tensor[(1, {D})], Tensor[(1, {D})]) {{
                let %i = sigmoid(add(matmul(%e, $wi), $bi));
                let %o = sigmoid(add(matmul(%e, $wo), $bo));
                let %u = tanh(add(matmul(%e, $wu), $bu));
                let %c = add(mul(%i, %u), zeros[shape=(1, {D})]());
                (mul(%o, tanh(%c)), %c)
            }}"
        ));
        let backend = SpecializedBackend::new(lib.len());
        for id in 0..lib.len() {
            let program = lib.kernel(KernelId(id as u32));
            let (kernel, _) = backend.select(program);

            // One launch executed as `ranges`, in checked mode; output bits.
            let run = |ranges: &[std::ops::Range<usize>], scratch: &mut BackendScratch| {
                let mut mem = DeviceMem::new(1 << 20);
                let value = |slot: usize, lane: usize, i: usize| {
                    ((slot * 31 + lane * 17 + i * 7) % 23) as f32 / 11.0 - 1.0
                };
                let shared: Vec<_> = program
                    .inputs
                    .iter()
                    .enumerate()
                    .map(|(s, inp)| {
                        mem.upload(&Tensor::from_fn(inp.shape.dims(), |i| value(s, 0, i))).unwrap()
                    })
                    .collect();
                let batched: Vec<Vec<_>> = (0..LANES)
                    .map(|lane| {
                        mem.alloc(&Shape::new(&[1 + lane % 3])).unwrap(); // scatter the lanes
                        let upload = |(s, inp): (usize, &crate::KernelInput)| {
                            let t = Tensor::from_fn(inp.shape.dims(), |i| value(s, lane + 1, i));
                            (inp.class == ArgClass::Batched).then(|| mem.upload(&t).unwrap())
                        };
                        program.inputs.iter().enumerate().map(upload).collect()
                    })
                    .collect();
                let prep = prepare_batched_kernel_with(
                    &mut mem,
                    program,
                    LANES,
                    BatchMode::GatherFused,
                    |l, s| batched[l][s].as_ref().unwrap_or(&shared[s]),
                )
                .unwrap();
                for range in ranges {
                    let view = mem.exec_view();
                    kernel.execute(&view, program, &prep, range.clone(), scratch, true).unwrap();
                }
                let outs = finish_prepared(&mem, &prep).unwrap();
                let bits = |t| mem.read(t).unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                outs.iter().flatten().flat_map(bits).collect::<Vec<u32>>()
            };

            let mut scratch = BackendScratch::default();
            let whole = run(std::slice::from_ref(&(0..LANES)), &mut scratch);
            assert_eq!(whole.len(), LANES * D * program.outputs.len());
            assert!(kernel.flat_len > 0 && scratch.flat.capacity() <= kernel.flat_len * LANE_BLOCK);
            // Staged or periodic, a fused-read slot needs at most a block's
            // worth of its elements at this width.
            let reads = kernel.slot_reads.iter().zip(&kernel.input_numels);
            let inputs_len: usize =
                reads.filter(|(&read, _)| read != super::SlotRead::PerLane).map(|(_, n)| n).sum();
            assert!(scratch.inputs.capacity() <= inputs_len * LANE_BLOCK);
            assert!(scratch.tiles.capacity() <= kernel.max_depth * tile_width(LANES));

            let mut scratch = BackendScratch::default();
            let ranges = [0..17, 17..50, 50..50, 50..LANES - 1, LANES - 1..LANES];
            assert_eq!(run(&ranges, &mut scratch), whole, "kernel `{}`", program.name);
            assert!(scratch.flat.capacity() <= kernel.flat_len * LANE_BLOCK);
        }
    }
}
