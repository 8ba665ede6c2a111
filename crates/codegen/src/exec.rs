//! Reference executor for batched kernel programs.
//!
//! One launch — [`prepare_batched_kernel_with`] → [`execute_prepared`] →
//! [`finish_prepared`] — models one GPU kernel launch executing a fused
//! kernel program for every instance lane of a batch.  Both §5.2
//! batched-operand styles are supported:
//!
//! * [`BatchMode::ExplicitGather`] — scattered per-instance operands are
//!   first copied into contiguous staging (bytes charged to the arena's
//!   gather counters), then read densely;
//! * [`BatchMode::GatherFused`] — operands are read in place through their
//!   offsets; the launch reports the indirect accesses so the device cost
//!   model can charge them.
//!
//! Results are bit-identical between the modes (enforced by property tests).

use acrobat_analysis::ArgClass;
use acrobat_tensor::arena::{batched_shape, ExecView};
use acrobat_tensor::ops::RawInput;
use acrobat_tensor::{execute_slices, DeviceMem, DeviceTensor, Shape, TensorError};

use crate::kernel::KernelProgram;

/// Cost-relevant observations of one launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelLaunchStats {
    /// Always 1 for a successful launch.
    pub launches: u64,
    /// Bytes moved by explicit gathers.
    pub gather_bytes: u64,
    /// Explicit gather copies performed.
    pub gather_copies: u64,
    /// Gathers skipped (operands contiguous).
    pub contiguous_hits: u64,
    /// Scattered operand instances read through the offset table.
    pub indirect_reads: u64,
    /// Total floating-point work (`flops_per_instance × batch`).
    pub flops: u64,
    /// Bytes of shared operands loaded (once per launch).
    pub shared_bytes: u64,
    /// Bytes of batched operands loaded (per instance).
    pub batched_bytes: u64,
    /// Bytes of output written.
    pub output_bytes: u64,
}

/// One whole launch of `program` over `batch` lanes on the calling thread —
/// [`prepare_batched_kernel_with`] + [`execute_prepared`] over every lane +
/// [`finish_prepared`], the same three phases the runtime's flush path
/// drives.  DyNet-sim (`acrobat_baselines::dynet`) launches every vendor
/// kernel through it in [`BatchMode::ExplicitGather`].
///
/// Returns `outputs[slot][lane]` device tensors (each slot's lanes share one
/// contiguous allocation, so downstream gathers hit the contiguous fast
/// path) plus the launch statistics.
///
/// # Errors
///
/// Returns [`TensorError`] on argument-shape mismatches, arena exhaustion or
/// kernel failures.
pub fn run_batched_kernel_with<'a>(
    mem: &mut DeviceMem,
    program: &KernelProgram,
    batch: usize,
    mode: BatchMode,
    resolve: impl FnMut(usize, usize) -> &'a DeviceTensor,
) -> Result<(Vec<Vec<DeviceTensor>>, KernelLaunchStats), TensorError> {
    let prep = prepare_batched_kernel_with(mem, program, batch, mode, resolve)?;
    let mut scratch = ExecScratch::default();
    execute_prepared(&mem.exec_view(), program, &prep, 0..batch, &mut scratch)?;
    let outputs = finish_prepared(mem, &prep)?;
    Ok((outputs, prep.stats))
}

/// Per-lane offset pattern of a resolved input slot.
///
/// The overwhelmingly common patterns — every lane reads one address
/// (shared operands, broadcast operands) or lane `i` reads
/// `base + i · stride` (gather staging, the contiguous outputs of an
/// earlier batched launch) — are encoded closed-form, so preparing a
/// launch allocates a per-lane offset table only for genuinely scattered
/// operands.
#[derive(Debug, Clone)]
pub(crate) enum SlotOffsets {
    /// Every lane reads the same offset.
    Same(usize),
    /// Lane `i` reads `base + i * stride` (element offsets).
    Strided {
        /// Offset lane 0 reads.
        base: usize,
        /// Per-lane element stride.
        stride: usize,
    },
    /// One offset per lane.
    Scattered(Vec<usize>),
}

/// A resolved input slot of a prepared launch: absolute element offsets
/// into the arena plus the per-instance operand shape.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    pub(crate) offsets: SlotOffsets,
    pub(crate) shape: Shape,
}

impl Slot {
    /// Absolute element offset the given lane reads this slot from.
    #[inline]
    pub(crate) fn offset(&self, lane: usize) -> usize {
        match &self.offsets {
            SlotOffsets::Same(o) => *o,
            SlotOffsets::Strided { base, stride } => base + lane * stride,
            SlotOffsets::Scattered(offsets) => offsets[lane],
        }
    }
}

/// A batched kernel launch after argument resolution and output
/// reservation, ready to execute.
///
/// Prepared launches decouple the *sequential* effects of a launch (fault
/// accounting, gather staging, output allocation — everything touching
/// `&mut DeviceMem`) from the *pure* lane computation, which then runs
/// through a shared [`ExecView`] on any thread, over any partition of the
/// lane range.
#[derive(Debug)]
pub struct PreparedLaunch {
    pub(crate) slots: Vec<Slot>,
    pub(crate) out_handles: Vec<DeviceTensor>,
    /// Cost-relevant observations (complete: gathers already happened
    /// during preparation).
    pub stats: KernelLaunchStats,
    /// Lane count of the launch.
    pub batch: usize,
}

/// Local classification of a batched slot's offsets during preparation.
#[derive(PartialEq, Clone, Copy)]
enum OffsetPattern {
    Same,
    Strided,
    Scattered,
}

/// How a launch reads its batched (per-instance) operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchMode {
    /// Copy scattered operands into contiguous staging first (DyNet-style).
    ExplicitGather,
    /// Read scattered operands in place through an offset table
    /// (ACROBAT-style gather-operator fusion).
    GatherFused,
}

/// Resolves arguments, performs explicit gathers and reserves outputs for
/// one batched launch — every effect that must happen in plan order — and
/// returns the launch ready for [`execute_prepared`].
///
/// `resolve(lane, slot)` hands back the tensor bound at that position (lane
/// 0 for shared slots), typically straight out of the caller's DFG value
/// table; the closure binds by the program's own input classes, so there is
/// no argument vector to validate.  Slots whose lane offsets follow the
/// common closed forms (all-same, strided) allocate no per-lane table
/// either — this is the allocation-free binding path the runtime drives on
/// every flush.  `resolve` may be called more than once per position and
/// must return the same tensor each time.
///
/// # Errors
///
/// Returns [`TensorError`] on an empty batch, argument-shape mismatches or
/// arena exhaustion; additionally counts one launch against an armed fault
/// plan, so fault occurrence numbering follows preparation order (== plan
/// order) regardless of how execution is split across threads.
pub fn prepare_batched_kernel_with<'a>(
    mem: &mut DeviceMem,
    program: &KernelProgram,
    batch: usize,
    mode: BatchMode,
    mut resolve: impl FnMut(usize, usize) -> &'a DeviceTensor,
) -> Result<PreparedLaunch, TensorError> {
    if batch == 0 {
        return Err(TensorError::EmptyBatch);
    }
    // Checked-mode fault injection: a well-formed launch counts against an
    // armed fault plan before touching device state.
    mem.trip_fault(acrobat_tensor::FaultSite::Launch)?;
    let mut stats = KernelLaunchStats {
        launches: 1,
        flops: program.flops_per_instance * batch as u64,
        ..Default::default()
    };

    let shape_err = |input: &crate::kernel::KernelInput, other: &Shape| TensorError::BatchShape {
        op: "kernel",
        first: input.shape.clone(),
        other: other.clone(),
    };

    // Resolve every input slot to per-lane offsets (shared slots repeat).
    let mut slots: Vec<Slot> = Vec::with_capacity(program.inputs.len());
    for (slot_idx, input) in program.inputs.iter().enumerate() {
        match input.class {
            ArgClass::Shared => {
                let t = resolve(0, slot_idx);
                if t.shape() != &input.shape {
                    return Err(shape_err(input, t.shape()));
                }
                stats.shared_bytes += t.shape().byte_size() as u64;
                slots.push(Slot {
                    offsets: SlotOffsets::Same(t.offset()),
                    shape: input.shape.clone(),
                });
            }
            ArgClass::Batched => {
                // Pass 1: shape checks plus offset-pattern detection.  Only
                // a genuinely scattered slot pays for an offset table.
                let t0 = resolve(0, slot_idx);
                if t0.shape() != &input.shape {
                    return Err(shape_err(input, t0.shape()));
                }
                let base = t0.offset();
                let mut pattern = OffsetPattern::Same;
                let mut stride = 0usize;
                for lane in 1..batch {
                    let t = resolve(lane, slot_idx);
                    if t.shape() != &input.shape {
                        return Err(shape_err(input, t.shape()));
                    }
                    let off = t.offset();
                    pattern = match pattern {
                        OffsetPattern::Same if off == base => OffsetPattern::Same,
                        OffsetPattern::Same if lane == 1 && off > base => {
                            stride = off - base;
                            OffsetPattern::Strided
                        }
                        OffsetPattern::Strided if off == base + lane * stride => {
                            OffsetPattern::Strided
                        }
                        _ => OffsetPattern::Scattered,
                    };
                }
                stats.batched_bytes += (input.shape.byte_size() * batch) as u64;
                let offsets = match mode {
                    BatchMode::GatherFused => {
                        stats.indirect_reads += batch as u64;
                        match pattern {
                            OffsetPattern::Same => SlotOffsets::Same(base),
                            OffsetPattern::Strided => SlotOffsets::Strided { base, stride },
                            OffsetPattern::Scattered => SlotOffsets::Scattered(
                                (0..batch).map(|lane| resolve(lane, slot_idx).offset()).collect(),
                            ),
                        }
                    }
                    BatchMode::ExplicitGather => {
                        // Identical operands across all lanes (e.g. an
                        // un-deduplicated weight) need no staging: the dense
                        // kernel broadcast-reads one copy.
                        if pattern == OffsetPattern::Same {
                            stats.contiguous_hits += 1;
                            SlotOffsets::Same(base)
                        } else {
                            let ts: Vec<&DeviceTensor> =
                                (0..batch).map(|lane| resolve(lane, slot_idx)).collect();
                            let before = mem.stats();
                            let (staging, copied) = mem.gather(&ts)?;
                            if copied {
                                stats.gather_bytes +=
                                    mem.stats().gather_bytes - before.gather_bytes;
                                stats.gather_copies += 1;
                            } else {
                                stats.contiguous_hits += 1;
                            }
                            SlotOffsets::Strided {
                                base: staging.offset(),
                                stride: input.shape.numel(),
                            }
                        }
                    }
                };
                slots.push(Slot { offsets, shape: input.shape.clone() });
            }
        }
    }

    // Reserve batched outputs (contiguous per slot, back to back).  This is
    // the deterministic output placement that keeps split execution
    // bit-for-bit: offsets depend only on preparation order, never on which
    // thread executes which lanes.
    let mut out_handles: Vec<DeviceTensor> = Vec::with_capacity(program.outputs.len());
    for (_, _, shape) in &program.outputs {
        out_handles.push(mem.alloc(&batched_shape(shape, batch))?);
        stats.output_bytes += (shape.byte_size() * batch) as u64;
    }

    Ok(PreparedLaunch { slots, out_handles, stats, batch })
}

/// Operands an instruction can bind without touching the allocator (every
/// operator but a wide `concat` has at most two).
const INLINE_ARGS: usize = 4;

/// Calls `run` on the operand table `[arg(0), …, arg(n − 1)]`, built on the
/// stack for up to [`INLINE_ARGS`] operands and on the heap beyond.
pub(crate) fn with_args<'a, R>(
    n: usize,
    mut arg: impl FnMut(usize) -> RawInput<'a>,
    run: impl FnOnce(&[RawInput<'a>]) -> R,
) -> R {
    static UNUSED: Shape = Shape::scalar();
    if n <= INLINE_ARGS {
        let mut table: [RawInput<'a>; INLINE_ARGS] = [(&[], &UNUSED); INLINE_ARGS];
        for (i, entry) in table[..n].iter_mut().enumerate() {
            *entry = arg(i);
        }
        run(&table[..n])
    } else {
        run(&(0..n).map(arg).collect::<Vec<_>>())
    }
}

/// Where a register's value comes from while the interpreter runs.
#[derive(Debug, Clone, Copy)]
enum RegSrc {
    Unbound,
    /// External input slot, read from the arena at the lane's offset.
    Input(usize),
    /// Output of the instruction at this index, held in the register file.
    Instr(usize),
}

/// Reusable per-worker working memory for [`execute_prepared`]: instruction
/// scratch registers and the register binding table, kept alive across
/// launches so steady-state execution allocates nothing once buffer
/// capacities warm up.
#[derive(Debug, Default)]
pub struct ExecScratch {
    regs: Vec<Vec<f32>>,
    reg_src: Vec<RegSrc>,
}

/// Executes the lanes `lane_range` of a prepared launch through a shared
/// arena view, one lane and one instruction at a time through the reference
/// operators — the oracle compiled execution is held to (checked mode), and
/// DyNet-sim's executor ([`run_batched_kernel_with`]).
///
/// Pure with respect to the arena apart from writes into the launch's own
/// reserved output regions at lane-deterministic offsets, so any partition
/// of the lane range across workers produces identical memory contents.
///
/// # Errors
///
/// Returns [`TensorError`] on kernel failures.
pub fn execute_prepared(
    view: &ExecView<'_>,
    program: &KernelProgram,
    prep: &PreparedLaunch,
    lane_range: std::ops::Range<usize>,
    scratch: &mut ExecScratch,
) -> Result<(), TensorError> {
    debug_assert!(lane_range.end <= prep.batch);
    // (Re)bind the scratch registers to this program.
    let max_reg = program
        .instrs
        .iter()
        .map(|k| k.out.0)
        .chain(program.inputs.iter().map(|i| i.reg.0))
        .max()
        .map(|m| m as usize + 1)
        .unwrap_or(0);
    scratch.regs.resize_with(max_reg, Vec::new);
    scratch.reg_src.clear();
    scratch.reg_src.resize(max_reg, RegSrc::Unbound);
    for (idx, k) in program.instrs.iter().enumerate() {
        let buf = &mut scratch.regs[k.out.0 as usize];
        buf.clear();
        buf.resize(k.shape.numel(), 0.0);
        scratch.reg_src[k.out.0 as usize] = RegSrc::Instr(idx);
    }
    for (slot, input) in program.inputs.iter().enumerate() {
        scratch.reg_src[input.reg.0 as usize] = RegSrc::Input(slot);
    }

    for lane in lane_range {
        // Execute instructions into scratch.  Registers are SSA-style (the
        // destination is always fresh), so taking the output buffer out of
        // the register file before borrowing the argument registers is safe.
        for k in &program.instrs {
            let mut out_buf = std::mem::take(&mut scratch.regs[k.out.0 as usize]);
            let (regs, reg_src) = (&scratch.regs, &scratch.reg_src);
            let operand = |i: usize| -> RawInput<'_> {
                let reg = k.args[i].0 as usize;
                match reg_src[reg] {
                    // SAFETY: inputs were fully written before this launch's
                    // execution phase (they are uploads, earlier launches'
                    // outputs or gather staging filled during preparation)
                    // and no concurrent lane range writes them — a launch
                    // never reads its own outputs.
                    RegSrc::Input(slot) => {
                        let slot = &prep.slots[slot];
                        (unsafe { view.read(slot.offset(lane), slot.shape.numel()) }, &slot.shape)
                    }
                    RegSrc::Instr(idx) => (&regs[reg], &program.instrs[idx].shape),
                    RegSrc::Unbound => panic!("register r{reg} read before it is defined"),
                }
            };
            let ran =
                with_args(k.args.len(), operand, |ins| execute_slices(&k.op, ins, &mut out_buf));
            scratch.regs[k.out.0 as usize] = out_buf;
            ran?;
        }
        // Copy escaping registers into the reserved output regions.
        // SAFETY: each output region was freshly bump-allocated for this
        // launch and this `lane` sub-range is written by exactly one lane
        // range — concurrent writes are disjoint by construction.
        for ((_, reg, shape), handle) in program.outputs.iter().zip(&prep.out_handles) {
            let n = shape.numel();
            let dst = unsafe { view.write(handle.offset() + lane * n, n) };
            dst.copy_from_slice(&scratch.regs[reg.0 as usize]);
        }
    }
    Ok(())
}

/// Builds the per-lane output views of an executed prepared launch.
///
/// # Errors
///
/// Returns [`TensorError::StaleHandle`] if the arena was reset since
/// preparation (cannot happen in the flush path).
pub fn finish_prepared(
    mem: &DeviceMem,
    prep: &PreparedLaunch,
) -> Result<Vec<Vec<DeviceTensor>>, TensorError> {
    let mut outputs: Vec<Vec<DeviceTensor>> = Vec::with_capacity(prep.out_handles.len());
    for handle in &prep.out_handles {
        outputs.push(mem.scatter_views(handle, prep.batch)?);
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_analysis::{analyze, AnalysisOptions};
    use acrobat_ir::{parse_module, typeck};
    use acrobat_tensor::Tensor;

    fn compile(src: &str) -> (acrobat_analysis::AnalysisResult, crate::KernelLibrary) {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let a = analyze(m, AnalysisOptions::default()).unwrap();
        let lib = crate::KernelLibrary::build(&a);
        (a, lib)
    }

    #[test]
    fn fused_kernel_matches_reference() {
        let (_, lib) = compile(
            "def @main($w: Tensor[(3, 3)], $b: Tensor[(1, 3)], %x: Tensor[(1, 3)]) -> Tensor[(1, 3)] {
                sigmoid(add($b, matmul(%x, $w)))
            }",
        );
        assert_eq!(lib.len(), 1);
        let program = lib.kernel(crate::KernelId(0));

        let mut mem = DeviceMem::new(1 << 16);
        let w = Tensor::from_fn(&[3, 3], |i| (i as f32 * 0.3).sin());
        let b = Tensor::from_fn(&[1, 3], |i| i as f32 * 0.1);
        let dw = mem.upload(&w).unwrap();
        let db = mem.upload(&b).unwrap();

        let batch = 4;
        let mut lanes = Vec::new();
        let mut hosts = Vec::new();
        for l in 0..batch {
            let x = Tensor::from_fn(&[1, 3], |i| (i + l) as f32 * 0.2 - 0.5);
            let dx = mem.upload(&x).unwrap();
            mem.alloc(&acrobat_tensor::Shape::new(&[l + 1])).unwrap(); // scatter
            hosts.push(x);
            // Slot order follows program.inputs; find which binding is which
            // by class: x is the only batched input.
            let mut lane = Vec::new();
            for input in &program.inputs {
                match input.class {
                    ArgClass::Batched => lane.push(dx.clone()),
                    ArgClass::Shared => {
                        // shared inputs: bias and weight — identify by shape.
                        if input.shape.dims() == [3, 3] {
                            lane.push(dw.clone());
                        } else {
                            lane.push(db.clone());
                        }
                    }
                }
            }
            lanes.push(lane);
        }
        let (outs, stats) =
            run_batched_kernel_with(&mut mem, program, batch, BatchMode::GatherFused, |l, s| {
                &lanes[l][s]
            })
            .unwrap();
        assert_eq!(stats.launches, 1);
        assert_eq!(outs.len(), 1);

        for (l, host_x) in hosts.iter().enumerate() {
            let mm =
                acrobat_tensor::execute(&acrobat_tensor::PrimOp::MatMul, &[host_x, &w]).unwrap();
            let ad = acrobat_tensor::execute(&acrobat_tensor::PrimOp::Add, &[&b, &mm]).unwrap();
            let sg = acrobat_tensor::execute(&acrobat_tensor::PrimOp::Sigmoid, &[&ad]).unwrap();
            let got = mem.download(&outs[0][l]).unwrap();
            assert!(got.allclose(&sg, 1e-6), "lane {l}: {got:?} vs {sg:?}");
        }
    }

    /// Uploads `batch` scattered `[1, 2]` lane inputs plus the shared 2×2
    /// weight and returns `lanes[lane][slot]` for a one-batched-input kernel.
    fn scattered_lanes(
        mem: &mut DeviceMem,
        program: &KernelProgram,
        batch: usize,
    ) -> Vec<Vec<DeviceTensor>> {
        let w = mem.upload(&Tensor::from_fn(&[2, 2], |i| i as f32 + 1.0)).unwrap();
        (0..batch)
            .map(|l| {
                let x = mem.upload(&Tensor::fill(&[1, 2], l as f32 * 0.3 - 0.6)).unwrap();
                mem.alloc(&acrobat_tensor::Shape::new(&[1 + l])).unwrap(); // scatter
                program
                    .inputs
                    .iter()
                    .map(|i| if i.class == ArgClass::Batched { x.clone() } else { w.clone() })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn gather_and_fused_modes_agree() {
        let (_, lib) = compile(
            "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                relu(matmul(%x, $w))
            }",
        );
        let program = lib.kernel(crate::KernelId(0));
        let mut mem = DeviceMem::new(1 << 16);
        let batch = 3;
        let lanes = scattered_lanes(&mut mem, program, batch);
        let mut run = |mode| {
            run_batched_kernel_with(&mut mem, program, batch, mode, |l, s| &lanes[l][s]).unwrap()
        };
        let (f, fs) = run(BatchMode::GatherFused);
        let (g, gs) = run(BatchMode::ExplicitGather);
        for (a, b) in f[0].iter().zip(&g[0]) {
            assert_eq!(mem.read(a).unwrap(), mem.read(b).unwrap());
        }
        assert_eq!(fs.gather_bytes, 0);
        assert!(fs.indirect_reads > 0);
        assert!(gs.gather_bytes > 0);
    }

    #[test]
    fn partitioned_execution_is_bit_identical() {
        let (_, lib) = compile(
            "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                sigmoid(matmul(%x, $w))
            }",
        );
        let program = lib.kernel(crate::KernelId(0));
        let run = |splits: &[std::ops::Range<usize>]| -> Vec<u32> {
            let mut mem = DeviceMem::new(1 << 16);
            let batch = 5;
            let lanes = scattered_lanes(&mut mem, program, batch);
            let prep = prepare_batched_kernel_with(
                &mut mem,
                program,
                batch,
                BatchMode::GatherFused,
                |l, s| &lanes[l][s],
            )
            .unwrap();
            let view = mem.exec_view();
            if splits.len() > 1 {
                // Execute the partitions on real threads, one scratch each.
                std::thread::scope(|s| {
                    for r in splits {
                        let r = r.clone();
                        let prep = &prep;
                        s.spawn(move || {
                            let mut scratch = ExecScratch::default();
                            execute_prepared(&view, program, prep, r, &mut scratch).unwrap();
                        });
                    }
                });
            } else {
                let mut scratch = ExecScratch::default();
                for r in splits {
                    execute_prepared(&view, program, &prep, r.clone(), &mut scratch).unwrap();
                }
            }
            let outs = finish_prepared(&mem, &prep).unwrap();
            outs[0].iter().flat_map(|t| mem.read(t).unwrap().iter().map(|f| f.to_bits())).collect()
        };
        let sequential = run(std::slice::from_ref(&(0..5)));
        assert_eq!(run(&[0..2, 2..5]), sequential, "2-way partition");
        assert_eq!(run(&[0..1, 1..2, 2..3, 3..4, 4..5]), sequential, "per-lane partition");
    }

    #[test]
    fn batch_errors() {
        let (_, lib) = compile("def @main(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { relu(%x) }");
        let program = lib.kernel(crate::KernelId(0));
        let mut mem = DeviceMem::new(1 << 12);
        let x = mem.upload(&Tensor::zeros(&[1, 2])).unwrap();
        assert!(matches!(
            run_batched_kernel_with(&mut mem, program, 0, BatchMode::GatherFused, |_, _| &x),
            Err(TensorError::EmptyBatch)
        ));
        // A lane bound to a wrong-shaped tensor is rejected before execution.
        let bad = mem.upload(&Tensor::zeros(&[1, 3])).unwrap();
        assert!(matches!(
            run_batched_kernel_with(&mut mem, program, 2, BatchMode::GatherFused, |lane, _| {
                if lane == 0 {
                    &x
                } else {
                    &bad
                }
            }),
            Err(TensorError::BatchShape { .. })
        ));
    }

    #[test]
    fn multi_output_kernel_executes() {
        let (_, lib) = compile(
            "def @main($wi: Tensor[(2, 2)], $wf: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> (Tensor[(1, 2)], Tensor[(1, 2)]) {
                (matmul(%x, $wi), matmul(%x, $wf))
            }",
        );
        assert_eq!(lib.len(), 1);
        let program = lib.kernel(crate::KernelId(0));
        assert_eq!(program.outputs.len(), 2);
        let mut mem = DeviceMem::new(1 << 14);
        let wi = mem.upload(&Tensor::from_fn(&[2, 2], |i| i as f32)).unwrap();
        let wf = mem.upload(&Tensor::from_fn(&[2, 2], |i| (i * i) as f32)).unwrap();
        let x = mem.upload(&Tensor::fill(&[1, 2], 1.0)).unwrap();
        // Identify shared slots by binding order: both shared weights have the
        // same shape, so use input order (wi first by construction).
        let mut lane = Vec::new();
        let mut shared_seen = 0;
        for input in &program.inputs {
            match input.class {
                ArgClass::Batched => lane.push(x.clone()),
                ArgClass::Shared => {
                    lane.push(if shared_seen == 0 { wi.clone() } else { wf.clone() });
                    shared_seen += 1;
                }
            }
        }
        let (outs, _) =
            run_batched_kernel_with(&mut mem, program, 1, BatchMode::GatherFused, |_, s| &lane[s])
                .unwrap();
        assert_eq!(outs.len(), 2);
        // x·wi = [1 1]·[[0 1][2 3]] = [2 4]; x·wf = [1 1]·[[0 1][4 9]] = [4 10]
        assert_eq!(mem.read(&outs[0][0]).unwrap(), &[2.0, 4.0]);
        assert_eq!(mem.read(&outs[1][0]).unwrap(), &[4.0, 10.0]);
    }
}
