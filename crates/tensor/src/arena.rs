//! Arena-allocated simulated device memory.
//!
//! The paper's runtime arena-allocates tensors on the GPU and batches
//! CPU↔GPU transfers (§D.3).  [`DeviceMem`] reproduces that structure on the
//! host: a single bump-allocated `f32` buffer standing in for accelerator
//! memory, with explicit byte accounting for uploads, downloads, gathers and
//! copies.  The byte counters feed the simulated accelerator's memory-cost
//! terms, and the fixed capacity lets the benchmark harness reproduce the
//! paper's out-of-memory configurations (DyNet Berxit at batch 64, Table 4).

use std::fmt;

use crate::{PackedRhs, Params, Result, Shape, Tensor, TensorError};

/// A handle to a tensor resident in [`DeviceMem`].
///
/// Handles are plain offset+shape descriptors — cheap to copy and safe to
/// store in dataflow-graph nodes.  A handle is invalidated by
/// [`DeviceMem::reset`]; using a stale handle returns
/// [`TensorError::StaleHandle`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeviceTensor {
    offset: usize,
    shape: Shape,
    generation: u64,
}

impl DeviceTensor {
    /// Element offset of the tensor within the arena.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Reinterprets this handle under a new shape of equal volume without
    /// touching memory (zero-cost view, used for reshape).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeNumel`] on a volume mismatch.
    pub fn reshaped(&self, shape: &Shape) -> Result<DeviceTensor> {
        if shape.numel() != self.shape.numel() {
            return Err(TensorError::ReshapeNumel { from: self.shape.clone(), to: shape.clone() });
        }
        Ok(DeviceTensor { offset: self.offset, shape: shape.clone(), generation: self.generation })
    }
}

/// Transfer and allocation statistics for a [`DeviceMem`].
///
/// These are the raw inputs to the Table 5 activity breakdown ("Mem. copy
/// time") in the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes copied host → device (`upload`).
    pub upload_bytes: u64,
    /// Bytes copied device → host (`download`).
    pub download_bytes: u64,
    /// Bytes moved device → device by explicit gathers.
    pub gather_bytes: u64,
    /// Number of explicit gather copies performed.
    pub gather_ops: u64,
    /// Gathers skipped because operands were already contiguous.
    pub contiguous_hits: u64,
    /// Number of host→device transfer *operations* (each models one
    /// `cudaMemcpy` call; batching transfers reduces this count).
    pub upload_ops: u64,
    /// Live allocation high-water mark, in elements.
    pub peak_elements: u64,
}

/// Operation class a [`FaultPlan`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A batched kernel launch (tripped by the executor at launch entry).
    Launch,
    /// A device-side gather ([`DeviceMem::gather`]).
    Gather,
    /// A host→device transfer ([`DeviceMem::upload`] /
    /// [`DeviceMem::upload_batched`]).
    Upload,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultSite::Launch => "launch",
            FaultSite::Gather => "gather",
            FaultSite::Upload => "upload",
        })
    }
}

/// Error an injected fault produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// [`TensorError::DeviceOom`], as if the arena were exhausted.
    Oom,
    /// [`TensorError::Injected`], standing in for a kernel failure.
    Kernel,
}

/// When an armed [`FaultPlan`] trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Deterministic one-shot: fail the zero-based `nth` operation at the
    /// plan's site, exactly once.
    Nth(u64),
    /// Seeded probabilistic fault storm: every operation at the plan's site
    /// fails independently with probability `ppm / 1_000_000`, driven by a
    /// splitmix64 stream seeded from `seed` — the same plan against the
    /// same operation sequence trips at the same occurrences every time.
    Rate {
        /// Failure probability in parts per million.
        ppm: u32,
        /// Seed of the per-arming pseudo-random stream.
        seed: u64,
    },
}

/// Deterministic fault-injection plan: fail operations at `site` with an
/// error of `kind`, either one-shot (`nth`) or as a seeded probabilistic
/// storm (`rate=p`) — see [`FaultMode`].
///
/// Used by the runtime's checked mode and the chaos harness to prove that
/// every mid-flush error path leaves the runtime well-defined and
/// resumable.  Arm with [`DeviceMem::arm_fault`]; a one-shot plan fires at
/// most once and stays armed (but spent) until [`DeviceMem::clear_fault`];
/// a storm keeps rolling until cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Operation class to fail.
    pub site: FaultSite,
    /// One-shot occurrence or probabilistic storm.
    pub mode: FaultMode,
    /// Error to produce.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// One-shot plan failing the zero-based `nth` operation at `site`.
    pub fn nth(site: FaultSite, nth: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan { site, mode: FaultMode::Nth(nth), kind }
    }

    /// Seeded storm plan failing each operation at `site` with probability
    /// `ppm / 1_000_000`.
    pub fn storm(site: FaultSite, ppm: u32, seed: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan { site, mode: FaultMode::Rate { ppm, seed }, kind }
    }

    /// Parses the `site:nth:kind` one-shot syntax (e.g. `"launch:3:oom"`,
    /// `"gather:0:kernel"`) or the `site:rate=p[@seed]:kind` storm syntax
    /// (e.g. `"launch:rate=0.01:kernel"`, `"upload:rate=5%@42:oom"`), where
    /// `p` is a probability in `[0, 1]` or a percentage.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed component.
    pub fn parse(s: &str) -> std::result::Result<FaultPlan, String> {
        let mut parts = s.split(':');
        let (site, occurrence, kind) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(a), Some(b), Some(c), None) => (a, b, c),
                _ => return Err(format!("expected site:nth:kind or site:rate=p:kind, got {s:?}")),
            };
        let site = match site {
            "launch" => FaultSite::Launch,
            "gather" => FaultSite::Gather,
            "upload" => FaultSite::Upload,
            _ => return Err(format!("unknown fault site {site:?}")),
        };
        let mode = if let Some(spec) = occurrence.strip_prefix("rate=") {
            let (prob, seed) = match spec.split_once('@') {
                Some((p, s)) => {
                    (p, s.parse::<u64>().map_err(|e| format!("bad storm seed {s:?}: {e}"))?)
                }
                None => (spec, 0),
            };
            let fraction = match prob.strip_suffix('%') {
                Some(pct) => {
                    pct.parse::<f64>().map_err(|e| format!("bad rate {prob:?}: {e}"))? / 100.0
                }
                None => prob.parse::<f64>().map_err(|e| format!("bad rate {prob:?}: {e}"))?,
            };
            if !(0.0..=1.0).contains(&fraction) {
                return Err(format!("rate {prob:?} outside [0, 1]"));
            }
            FaultMode::Rate { ppm: (fraction * 1e6).round() as u32, seed }
        } else {
            FaultMode::Nth(
                occurrence
                    .parse::<u64>()
                    .map_err(|e| format!("bad occurrence {occurrence:?}: {e}"))?,
            )
        };
        let kind = match kind {
            "oom" => FaultKind::Oom,
            "kernel" => FaultKind::Kernel,
            _ => return Err(format!("unknown fault kind {kind:?}")),
        };
        Ok(FaultPlan { site, mode, kind })
    }
}

/// Bump-allocated simulated device memory.
///
/// ```
/// use acrobat_tensor::{DeviceMem, Tensor};
///
/// let mut mem = DeviceMem::new(1 << 20);
/// let t = mem.upload(&Tensor::ones(&[2, 2]))?;
/// assert_eq!(mem.read(&t)?, &[1.0; 4]);
/// # Ok::<(), acrobat_tensor::TensorError>(())
/// ```
pub struct DeviceMem {
    buf: Vec<f32>,
    top: usize,
    /// Elements of the pinned prefix `[0, pinned)` holding the resident
    /// parameters; [`DeviceMem::reset`] keeps it.
    pinned: usize,
    /// The parameters in the pinned prefix, if any.
    resident: Option<Resident>,
    generation: u64,
    stats: MemStats,
    /// Armed fault-injection plan, if any.
    fault: Option<FaultPlan>,
    /// Operations counted per [`FaultSite`] since the plan was armed.
    fault_counts: [u64; 3],
    /// Splitmix64 state driving [`FaultMode::Rate`] storms (seeded at arm).
    fault_rng: u64,
}

/// The [`Params`] a [`DeviceMem`] keeps resident: which of its tensors
/// (`entries`, positions in the `Params`) and the handle of each, in the
/// order they were uploaded — ascending offsets.
struct Resident {
    params: Params,
    entries: Vec<usize>,
    handles: Vec<DeviceTensor>,
}

impl Resident {
    /// The packed panels of the resident weight at `offset`, if one lives
    /// there and is a `k × n` matrix.
    fn panels(&self, offset: usize, k: usize, n: usize) -> Option<&PackedRhs> {
        // Several start there only if all but the last are empty.
        let first = self.handles.partition_point(|h| h.offset < offset);
        let at = self.handles[first..].iter().take_while(|h| h.offset == offset);
        at.zip(&self.entries[first..]).find_map(|(_, &entry)| self.params.panels(entry, k, n))
    }
}

impl fmt::Debug for DeviceMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceMem")
            .field("capacity", &self.buf.len())
            .field("top", &self.top)
            .field("pinned", &self.pinned)
            .field("generation", &self.generation)
            .field("stats", &self.stats)
            .finish()
    }
}

/// The NaN debug builds fill every fresh [`DeviceMem::alloc`] region
/// with (a quiet NaN with a recognizable payload).  Every read of arena
/// elements — [`DeviceMem::read`], [`DeviceMem::download`], a gather's
/// sources, [`ExecView::read`] — asserts in debug builds that none holds
/// these bits, so an element read before it is written fails there and
/// then, whatever operator would have consumed it.
pub const POISON: f32 = f32::from_bits(0x7FC0_BAD0);

/// Debug builds: panics if `elems` holds an element [`DeviceMem::alloc`]
/// reserved and nobody has written since ([`POISON`]).  Release builds
/// check nothing.
fn debug_assert_written(elems: &[f32]) {
    if cfg!(debug_assertions) {
        if let Some(i) = elems.iter().position(|v| v.to_bits() == POISON.to_bits()) {
            panic!("arena read of an element nobody wrote (element {i} of {})", elems.len());
        }
    }
}

impl DeviceMem {
    /// Creates an arena holding `capacity` `f32` elements.
    pub fn new(capacity: usize) -> Self {
        DeviceMem {
            buf: vec![0.0; capacity],
            top: 0,
            pinned: 0,
            resident: None,
            generation: 0,
            stats: MemStats::default(),
            fault: None,
            fault_counts: [0; 3],
            fault_rng: 0,
        }
    }

    /// Elements currently allocated.
    pub fn used(&self) -> usize {
        self.top
    }

    /// Total capacity in elements.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Transfer/allocation statistics accumulated since construction (or the
    /// last [`DeviceMem::take_stats`]).
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Returns the accumulated statistics and zeroes the counters, except
    /// the high-water mark, which restarts at what is allocated now (the
    /// resident parameters after a [`DeviceMem::reset`]).
    pub fn take_stats(&mut self) -> MemStats {
        let live = MemStats { peak_elements: self.top as u64, ..MemStats::default() };
        std::mem::replace(&mut self.stats, live)
    }

    /// Releases every allocation but the resident parameters
    /// ([`DeviceMem::make_resident`]).  Outstanding [`DeviceTensor`] handles
    /// become stale; the resident ones are re-issued.  Statistics are
    /// preserved.
    pub fn reset(&mut self) {
        self.top = self.pinned;
        self.generation += 1;
        if let Some(resident) = &mut self.resident {
            for h in &mut resident.handles {
                h.generation = self.generation;
            }
        }
    }

    /// Makes the tensors `entries` (positions in `params`) resident in a
    /// pinned prefix of the arena that [`DeviceMem::reset`] keeps, and
    /// returns their handles, in `entries` order.
    ///
    /// If the same `params` (by [`Params::id`]) with the same `entries`
    /// is already resident this transfers nothing.  Otherwise the arena is
    /// emptied — the resident set it held, and every handle issued since
    /// the last reset, are gone — and each tensor is uploaded as by
    /// [`DeviceMem::upload`] (one transfer and one upload fault-site count
    /// each), at the offsets a fresh arena gives them.  So call it at the
    /// start of a request, before anything else is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DeviceOom`] when the weights do not fit, or an
    /// injected upload fault; either way nothing stays resident.
    ///
    /// # Panics
    ///
    /// Panics if an entry is out of range for `params`.
    pub fn make_resident(&mut self, params: &Params, entries: &[usize]) -> Result<&[DeviceTensor]> {
        let hit = self
            .resident
            .as_ref()
            .is_some_and(|r| r.params.id() == params.id() && r.entries == entries);
        if !hit {
            self.resident = None;
            self.pinned = 0;
            self.reset();
            let handles = entries
                .iter()
                .map(|&e| self.upload(params.tensor(e)))
                .collect::<Result<Vec<_>>>()?;
            self.pinned = self.top;
            self.resident =
                Some(Resident { params: params.clone(), entries: entries.to_vec(), handles });
        }
        Ok(&self.resident.as_ref().expect("resident after upload").handles)
    }

    /// Arms deterministic fault injection: a one-shot plan fails its `nth`
    /// operation; a storm plan fails each operation with its seeded
    /// probability.  Site counters (and the storm stream) restart.
    pub fn arm_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
        self.fault_counts = [0; 3];
        self.fault_rng = match plan.mode {
            FaultMode::Nth(_) => 0,
            // Mix the seed so seed 0 does not start a degenerate stream.
            FaultMode::Rate { seed, .. } => seed ^ 0x9E3779B97F4A7C15,
        };
    }

    /// Disarms fault injection.
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// The armed fault plan, if any.
    pub fn armed_fault(&self) -> Option<FaultPlan> {
        self.fault
    }

    /// Counts one operation at `site` against the armed fault plan and
    /// returns the injected error when it trips.  Upload and gather paths
    /// call this internally; kernel executors call it once per batched
    /// launch.  A no-op (and no counting) when nothing is armed.
    ///
    /// # Errors
    ///
    /// Returns the armed plan's error on the planned occurrence (one-shot)
    /// or on a seeded storm roll.
    pub fn trip_fault(&mut self, site: FaultSite) -> Result<()> {
        let Some(plan) = self.fault else { return Ok(()) };
        if plan.site != site {
            return Ok(());
        }
        let count = &mut self.fault_counts[site as usize];
        let occurrence = *count;
        *count += 1;
        let hit = match plan.mode {
            FaultMode::Nth(nth) => occurrence == nth,
            FaultMode::Rate { ppm, .. } => {
                // splitmix64 step: one roll per counted operation.
                self.fault_rng = self.fault_rng.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = self.fault_rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z % 1_000_000) < ppm as u64
            }
        };
        if !hit {
            return Ok(());
        }
        match plan.kind {
            FaultKind::Oom => Err(TensorError::DeviceOom {
                requested: self.buf.len() * std::mem::size_of::<f32>(),
                available: (self.buf.len() - self.top) * std::mem::size_of::<f32>(),
            }),
            FaultKind::Kernel => Err(TensorError::Injected { site, nth: occurrence }),
        }
    }

    /// Reserves a tensor's region without initializing it: the region
    /// holds whatever the arena held there before, and the caller must
    /// overwrite every element before anything reads it.  Every writer
    /// does — an upload copies the whole host tensor, a gather fills its
    /// whole staging block, and a launch writes each reserved output in
    /// full — so a warm request zero-fills nothing.  Debug builds fill the
    /// region with [`POISON`] instead, and every arena read asserts it
    /// finds none: a read of an element nobody wrote panics in every debug
    /// test, like a failed `debug_assert!`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DeviceOom`] when the arena is exhausted —
    /// allocation never grows the buffer, so memory-pressure experiments are
    /// reproducible.
    pub fn alloc(&mut self, shape: &Shape) -> Result<DeviceTensor> {
        let n = shape.numel();
        if self.top + n > self.buf.len() {
            return Err(TensorError::DeviceOom {
                requested: n * std::mem::size_of::<f32>(),
                available: (self.buf.len() - self.top) * std::mem::size_of::<f32>(),
            });
        }
        let offset = self.top;
        self.top += n;
        self.stats.peak_elements = self.stats.peak_elements.max(self.top as u64);
        if cfg!(debug_assertions) {
            self.buf[offset..offset + n].fill(POISON);
        }
        Ok(DeviceTensor { offset, shape: shape.clone(), generation: self.generation })
    }

    fn check(&self, t: &DeviceTensor) -> Result<()> {
        if t.generation != self.generation {
            return Err(TensorError::StaleHandle);
        }
        debug_assert!(t.offset + t.numel() <= self.top);
        Ok(())
    }

    /// Copies a host tensor into the arena, counting one transfer operation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DeviceOom`] when the arena is exhausted.
    pub fn upload(&mut self, t: &Tensor) -> Result<DeviceTensor> {
        self.trip_fault(FaultSite::Upload)?;
        let dt = self.alloc(t.shape())?;
        self.buf[dt.offset..dt.offset + dt.numel()].copy_from_slice(t.data());
        self.stats.upload_bytes += t.shape().byte_size() as u64;
        self.stats.upload_ops += 1;
        Ok(dt)
    }

    /// Uploads several host tensors as one batched transfer (models the
    /// paper's batched CPU→GPU memcpys, §D.3: many tensors, one transfer op).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DeviceOom`] when the arena is exhausted.
    pub fn upload_batched(&mut self, tensors: &[&Tensor]) -> Result<Vec<DeviceTensor>> {
        if !tensors.is_empty() {
            self.trip_fault(FaultSite::Upload)?;
        }
        let mut out = Vec::with_capacity(tensors.len());
        for t in tensors {
            let dt = self.alloc(t.shape())?;
            self.buf[dt.offset..dt.offset + dt.numel()].copy_from_slice(t.data());
            self.stats.upload_bytes += t.shape().byte_size() as u64;
            out.push(dt);
        }
        if !tensors.is_empty() {
            self.stats.upload_ops += 1;
        }
        Ok(out)
    }

    /// Copies a device tensor back to the host.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::StaleHandle`] for handles from before a reset.
    pub fn download(&mut self, t: &DeviceTensor) -> Result<Tensor> {
        self.check(t)?;
        self.stats.download_bytes += t.shape().byte_size() as u64;
        let elems = &self.buf[t.offset..t.offset + t.numel()];
        debug_assert_written(elems);
        Tensor::from_vec(elems.to_vec(), t.shape().dims())
    }

    /// Borrows the tensor's elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::StaleHandle`] for handles from before a reset.
    pub fn read(&self, t: &DeviceTensor) -> Result<&[f32]> {
        self.check(t)?;
        let elems = &self.buf[t.offset..t.offset + t.numel()];
        debug_assert_written(elems);
        Ok(elems)
    }

    /// Mutably borrows the tensor's elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::StaleHandle`] for handles from before a reset.
    pub fn write(&mut self, t: &DeviceTensor) -> Result<&mut [f32]> {
        self.check(t)?;
        Ok(&mut self.buf[t.offset..t.offset + t.numel()])
    }

    /// A raw shared view of the whole arena for the execute phase of a
    /// kernel launch ([`ExecView`]).  All output regions must have been
    /// reserved (bump allocated) *before* taking the view — the view cannot
    /// allocate — and concurrent writers must target disjoint regions (see
    /// the [`ExecView`] contract).
    pub fn exec_view(&mut self) -> ExecView<'_> {
        ExecView {
            ptr: self.buf.as_mut_ptr(),
            len: self.buf.len(),
            resident: self.resident.as_ref(),
            _life: std::marker::PhantomData,
        }
    }

    pub(crate) fn make_handle(&self, offset: usize, shape: Shape) -> DeviceTensor {
        DeviceTensor { offset, shape, generation: self.generation }
    }

    /// Whether `tensors` form one contiguous ascending run of equal-shaped
    /// tensors (in which case an explicit gather can be skipped — exactly the
    /// "already contiguous in memory" case the paper describes in §7.3).
    pub fn is_contiguous_run(&self, tensors: &[&DeviceTensor]) -> bool {
        if tensors.is_empty() {
            return true;
        }
        let shape = tensors[0].shape();
        let n = shape.numel();
        let mut expect = tensors[0].offset;
        for t in tensors.iter() {
            if t.shape() != shape || t.offset != expect || t.generation != self.generation {
                return false;
            }
            expect += n;
        }
        true
    }

    /// Gathers `tensors` (equal shapes) into one contiguous allocation.
    ///
    /// If they already form a contiguous run, no copy happens and the result
    /// is a view; otherwise elements are copied and
    /// [`MemStats::gather_bytes`] is charged.  The boolean reports whether a
    /// copy was performed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyBatch`] for an empty input,
    /// [`TensorError::BatchShape`] if shapes differ, and
    /// [`TensorError::DeviceOom`] if staging space cannot be allocated.
    pub fn gather(&mut self, tensors: &[&DeviceTensor]) -> Result<(DeviceTensor, bool)> {
        if tensors.is_empty() {
            return Err(TensorError::EmptyBatch);
        }
        self.trip_fault(FaultSite::Gather)?;
        let shape = tensors[0].shape().clone();
        for t in tensors.iter() {
            self.check(t)?;
            if t.shape() != &shape {
                return Err(TensorError::BatchShape {
                    op: "gather",
                    first: shape.clone(),
                    other: t.shape().clone(),
                });
            }
        }
        let n = shape.numel();
        let batched_shape = batched_shape(&shape, tensors.len());
        if self.is_contiguous_run(tensors) {
            self.stats.contiguous_hits += 1;
            return Ok((self.make_handle(tensors[0].offset, batched_shape), false));
        }
        let staging = self.alloc(&batched_shape)?;
        for (i, t) in tensors.iter().enumerate() {
            let (lo, hi) = self.buf.split_at_mut(staging.offset);
            let src = &lo[t.offset..t.offset + n];
            debug_assert_written(src);
            hi[i * n..(i + 1) * n].copy_from_slice(src);
        }
        self.stats.gather_bytes += (tensors.len() * shape.byte_size()) as u64;
        self.stats.gather_ops += 1;
        Ok((staging, true))
    }

    /// Splits a contiguous batched tensor into `batch` per-instance handles.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if the leading extent is not
    /// `batch`.
    pub fn scatter_views(&self, batched: &DeviceTensor, batch: usize) -> Result<Vec<DeviceTensor>> {
        self.check(batched)?;
        let dims = batched.shape().dims();
        if dims.is_empty() || !dims[0].is_multiple_of(batch) {
            return Err(TensorError::DataLength {
                got: dims.first().copied().unwrap_or(0),
                expected: batch,
            });
        }
        let inner = instance_shape(batched.shape(), batch);
        let n = inner.numel();
        Ok((0..batch).map(|i| self.make_handle(batched.offset + i * n, inner.clone())).collect())
    }
}

/// A thread-shareable raw view of a [`DeviceMem`] arena, used by the
/// kernel executor to run disjoint lane ranges of one prepared launch on
/// several threads.
///
/// The view mutably borrows the arena for its lifetime (no allocation,
/// upload or reset can interleave), but deliberately bypasses Rust's
/// aliasing checks *within* the buffer so that multiple threads can write
/// their own output regions simultaneously.  Safety therefore rests on the
/// executor's output-reservation discipline:
///
/// * every region passed to [`ExecView::write`] is the slice of a freshly
///   bump-allocated launch output that belongs to exactly one lane range —
///   output allocations never overlap and lane ranges are disjoint, so
///   concurrent writes are disjoint by construction;
/// * every region passed to [`ExecView::read`] was fully written before
///   the launch's execute phase began (its inputs are uploads, gather
///   staging or *earlier* launches' outputs — a launch never reads its
///   own outputs).
#[derive(Clone, Copy)]
pub struct ExecView<'a> {
    ptr: *mut f32,
    len: usize,
    resident: Option<&'a Resident>,
    _life: std::marker::PhantomData<&'a mut f32>,
}

// SAFETY: the view is only useful across threads, and the read/write
// contract above makes concurrent access race-free; `f32` has no drop or
// validity hazards.
unsafe impl Send for ExecView<'_> {}
unsafe impl Sync for ExecView<'_> {}

impl fmt::Debug for ExecView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecView").field("len", &self.len).finish()
    }
}

impl<'a> ExecView<'a> {
    /// Reads `len` elements at `offset`.
    ///
    /// # Safety
    ///
    /// The region must not be concurrently written (see the type-level
    /// contract: reads target data produced before the execute phase).
    pub unsafe fn read(&self, offset: usize, len: usize) -> &[f32] {
        debug_assert!(offset + len <= self.len, "ExecView read out of bounds");
        let elems = unsafe { std::slice::from_raw_parts(self.ptr.add(offset), len) };
        debug_assert_written(elems);
        elems
    }

    /// Mutably accesses `len` elements at `offset`.
    ///
    /// # Safety
    ///
    /// The region must be exclusively owned by the caller for the duration
    /// of the borrow (freshly reserved output, disjoint from every other
    /// lane range's outputs and from all concurrent reads).
    #[allow(clippy::mut_from_ref)] // aliasing is governed by the documented contract
    pub unsafe fn write(&self, offset: usize, len: usize) -> &mut [f32] {
        debug_assert!(offset + len <= self.len, "ExecView write out of bounds");
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(offset), len) }
    }

    /// The packed panels ([`crate::matmul_packed`]) of the resident weight
    /// at arena `offset`, as a `k × n` right operand — `None` unless a
    /// resident tensor ([`DeviceMem::make_resident`]) of that matrix shape
    /// starts there.  They hold that region's elements: nothing writes the
    /// pinned prefix after the upload, and the upload and the panels both
    /// copy the same host tensor.
    pub fn resident_panels(&self, offset: usize, k: usize, n: usize) -> Option<&'a PackedRhs> {
        self.resident?.panels(offset, k, n)
    }
}

/// Shape of a batch of `batch` instances of `shape`, stacked on a new or
/// existing leading axis.
pub fn batched_shape(shape: &Shape, batch: usize) -> Shape {
    let mut dims = Vec::with_capacity(shape.rank() + 1);
    dims.push(batch);
    dims.extend_from_slice(shape.dims());
    Shape::from(dims)
}

/// Inverse of [`batched_shape`]: per-instance shape of a stacked batch.
pub fn instance_shape(batched: &Shape, batch: usize) -> Shape {
    let dims = batched.dims();
    debug_assert!(!dims.is_empty());
    if dims[0] == batch {
        Shape::new(&dims[1..])
    } else {
        // Leading axis folded multiple instances (e.g. concat): divide it.
        let mut out = dims.to_vec();
        out[0] /= batch;
        Shape::from(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_read_download_roundtrip() {
        let mut mem = DeviceMem::new(1024);
        let host = Tensor::from_fn(&[2, 3], |i| i as f32);
        let dev = mem.upload(&host).unwrap();
        assert_eq!(mem.read(&dev).unwrap(), host.data());
        let back = mem.download(&dev).unwrap();
        assert_eq!(back, host);
        assert_eq!(mem.stats().upload_bytes, 24);
        assert_eq!(mem.stats().download_bytes, 24);
        assert_eq!(mem.stats().upload_ops, 1);
    }

    /// Resident parameters survive `reset` at the offsets a fresh arena
    /// gives them, count in the high-water mark of every request, upload
    /// once per `Params` and are replaced by a different one.
    #[test]
    fn resident_params_survive_reset() {
        let params = Params::from([
            ("b".to_string(), Tensor::ones(&[1, 3])),
            ("w".to_string(), Tensor::from_fn(&[3, 3], |i| i as f32)),
        ]);
        let mut mem = DeviceMem::new(1024);
        let first = mem.make_resident(&params, &[1, 0]).unwrap().to_vec();
        assert_eq!((first[0].offset(), first[1].offset()), (0, 9), "a fresh arena's offsets");
        assert_eq!((mem.stats().upload_ops, mem.used()), (2, 12));
        mem.reset();
        assert_eq!(mem.used(), 12, "reset keeps the resident prefix");
        assert_eq!(mem.take_stats().peak_elements, 12);
        assert_eq!(mem.stats().peak_elements, 12, "a request's peak starts at the weights");
        let again = mem.make_resident(&params.clone(), &[1, 0]).unwrap().to_vec();
        assert_eq!(mem.stats().upload_bytes, 0, "resident: nothing transferred");
        assert_eq!(mem.read(&again[0]).unwrap(), params["w"].data(), "re-issued, not stale");
        assert!(matches!(mem.read(&first[0]), Err(TensorError::StaleHandle)));
        let x = mem.upload(&Tensor::ones(&[2])).unwrap();
        assert_eq!(x.offset(), 12, "requests allocate after the weights");
        let view = mem.exec_view();
        assert!(view.resident_panels(0, 3, 3).is_some(), "w, packed as a 3 × 3 operand");
        assert!(view.resident_panels(9, 3, 1).is_none(), "b is a 1 × 3 matrix, not 3 × 1");
        assert!(view.resident_panels(3, 3, 3).is_none(), "no weight starts there");
        assert!(view.resident_panels(12, 1, 2).is_none(), "nor at a request's upload");

        let copy: Params = params.iter().map(|(n, t)| (n.clone(), t.clone())).collect();
        mem.make_resident(&copy, &[1, 0]).unwrap();
        assert_eq!(mem.stats().upload_ops, 3, "another identity uploads again");
        assert!(matches!(mem.read(&x), Err(TensorError::StaleHandle)), "and empties the arena");
    }

    #[test]
    fn batched_upload_counts_one_op() {
        let mut mem = DeviceMem::new(1024);
        let a = Tensor::ones(&[4]);
        let b = Tensor::zeros(&[4]);
        let handles = mem.upload_batched(&[&a, &b]).unwrap();
        assert_eq!(handles.len(), 2);
        assert_eq!(mem.stats().upload_ops, 1);
        assert_eq!(mem.stats().upload_bytes, 32);
    }

    #[test]
    fn oom_is_reported() {
        let mut mem = DeviceMem::new(4);
        assert!(mem.alloc(&Shape::new(&[4])).is_ok());
        let err = mem.alloc(&Shape::new(&[1])).unwrap_err();
        assert!(matches!(err, TensorError::DeviceOom { .. }));
    }

    #[test]
    fn reset_invalidates_handles() {
        let mut mem = DeviceMem::new(16);
        let t = mem.upload(&Tensor::ones(&[2])).unwrap();
        mem.reset();
        assert!(matches!(mem.read(&t), Err(TensorError::StaleHandle)));
        assert_eq!(mem.used(), 0);
        // New allocations work again.
        assert!(mem.alloc(&Shape::new(&[16])).is_ok());
    }

    #[test]
    fn contiguous_run_detection() {
        let mut mem = DeviceMem::new(64);
        let a = mem.upload(&Tensor::ones(&[4])).unwrap();
        let b = mem.upload(&Tensor::ones(&[4])).unwrap();
        let c = mem.upload(&Tensor::ones(&[4])).unwrap();
        assert!(mem.is_contiguous_run(&[&a, &b, &c]));
        assert!(!mem.is_contiguous_run(&[&a, &c]));
        assert!(!mem.is_contiguous_run(&[&b, &a]));
        let d = mem.upload(&Tensor::ones(&[2])).unwrap();
        assert!(!mem.is_contiguous_run(&[&c, &d]), "shape mismatch breaks the run");
    }

    #[test]
    fn gather_contiguous_skips_copy() {
        let mut mem = DeviceMem::new(64);
        let a = mem.upload(&Tensor::fill(&[2], 1.0)).unwrap();
        let b = mem.upload(&Tensor::fill(&[2], 2.0)).unwrap();
        let (g, copied) = mem.gather(&[&a, &b]).unwrap();
        assert!(!copied);
        assert_eq!(g.shape().dims(), &[2, 2]);
        assert_eq!(mem.read(&g).unwrap(), &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(mem.stats().gather_bytes, 0);
        assert_eq!(mem.stats().contiguous_hits, 1);
    }

    #[test]
    fn gather_scattered_copies() {
        let mut mem = DeviceMem::new(64);
        let a = mem.upload(&Tensor::fill(&[2], 1.0)).unwrap();
        let _gap = mem.upload(&Tensor::fill(&[3], 9.0)).unwrap();
        let b = mem.upload(&Tensor::fill(&[2], 2.0)).unwrap();
        let (g, copied) = mem.gather(&[&a, &b]).unwrap();
        assert!(copied);
        assert_eq!(mem.read(&g).unwrap(), &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(mem.stats().gather_bytes, 16);
        assert_eq!(mem.stats().gather_ops, 1);
    }

    #[test]
    fn gather_order_matters() {
        let mut mem = DeviceMem::new(64);
        let a = mem.upload(&Tensor::fill(&[1], 1.0)).unwrap();
        let b = mem.upload(&Tensor::fill(&[1], 2.0)).unwrap();
        // Reversed order is NOT a contiguous run and must copy.
        let (g, copied) = mem.gather(&[&b, &a]).unwrap();
        assert!(copied);
        assert_eq!(mem.read(&g).unwrap(), &[2.0, 1.0]);
    }

    #[test]
    fn gather_rejects_mixed_shapes_and_empty() {
        let mut mem = DeviceMem::new(64);
        let a = mem.upload(&Tensor::ones(&[2])).unwrap();
        let b = mem.upload(&Tensor::ones(&[3])).unwrap();
        assert!(matches!(mem.gather(&[&a, &b]), Err(TensorError::BatchShape { .. })));
        assert!(matches!(mem.gather(&[]), Err(TensorError::EmptyBatch)));
    }

    #[test]
    fn scatter_views_partition() {
        let mut mem = DeviceMem::new(64);
        let batched = mem.upload(&Tensor::from_fn(&[3, 2], |i| i as f32)).unwrap();
        let views = mem.scatter_views(&batched, 3).unwrap();
        assert_eq!(views.len(), 3);
        assert_eq!(mem.read(&views[1]).unwrap(), &[2.0, 3.0]);
        assert_eq!(views[2].shape().dims(), &[2]);
    }

    #[test]
    fn reshaped_view_is_zero_cost() {
        let mut mem = DeviceMem::new(64);
        let t = mem.upload(&Tensor::from_fn(&[2, 3], |i| i as f32)).unwrap();
        let v = t.reshaped(&Shape::new(&[3, 2])).unwrap();
        assert_eq!(v.offset(), t.offset());
        assert_eq!(mem.read(&v).unwrap(), mem.read(&t).unwrap());
        assert!(t.reshaped(&Shape::new(&[4])).is_err());
    }

    #[test]
    fn peak_tracking() {
        let mut mem = DeviceMem::new(64);
        mem.alloc(&Shape::new(&[10])).unwrap();
        mem.reset();
        mem.alloc(&Shape::new(&[5])).unwrap();
        assert_eq!(mem.stats().peak_elements, 10);
    }

    #[test]
    fn fault_plan_parse() {
        assert_eq!(
            FaultPlan::parse("launch:3:oom"),
            Ok(FaultPlan::nth(FaultSite::Launch, 3, FaultKind::Oom))
        );
        assert_eq!(
            FaultPlan::parse("gather:0:kernel"),
            Ok(FaultPlan::nth(FaultSite::Gather, 0, FaultKind::Kernel))
        );
        assert!(FaultPlan::parse("launch:3").is_err());
        assert!(FaultPlan::parse("disk:1:oom").is_err());
        assert!(FaultPlan::parse("launch:x:oom").is_err());
        assert!(FaultPlan::parse("launch:1:panic").is_err());
    }

    #[test]
    fn fault_plan_parse_rate() {
        assert_eq!(
            FaultPlan::parse("launch:rate=0.01:kernel"),
            Ok(FaultPlan::storm(FaultSite::Launch, 10_000, 0, FaultKind::Kernel))
        );
        assert_eq!(
            FaultPlan::parse("upload:rate=1%@42:oom"),
            Ok(FaultPlan::storm(FaultSite::Upload, 10_000, 42, FaultKind::Oom))
        );
        assert_eq!(
            FaultPlan::parse("gather:rate=0.001@7:kernel"),
            Ok(FaultPlan::storm(FaultSite::Gather, 1_000, 7, FaultKind::Kernel))
        );
        assert!(FaultPlan::parse("launch:rate=2:kernel").is_err(), "p > 1 rejected");
        assert!(FaultPlan::parse("launch:rate=-0.1:kernel").is_err());
        assert!(FaultPlan::parse("launch:rate=x:kernel").is_err());
        assert!(FaultPlan::parse("launch:rate=0.5@x:kernel").is_err());
    }

    #[test]
    fn fault_storm_is_seed_deterministic_and_roughly_calibrated() {
        let storm_hits = |seed: u64, ppm: u32, trials: u32| -> Vec<u32> {
            let mut mem = DeviceMem::new(16);
            mem.arm_fault(FaultPlan::storm(FaultSite::Launch, ppm, seed, FaultKind::Kernel));
            (0..trials).filter(|_| mem.trip_fault(FaultSite::Launch).is_err()).collect()
        };
        // Same seed → identical hit sequence; different seed → different one.
        let a = storm_hits(1, 200_000, 500);
        assert_eq!(a, storm_hits(1, 200_000, 500));
        assert_ne!(a, storm_hits(2, 200_000, 500));
        // 20% nominal rate over 500 trials lands in a generous band.
        assert!((50..=150).contains(&(a.len() as u32)), "got {} hits", a.len());
        // Rate 0 never fires; rate 1.0 always fires.
        assert!(storm_hits(3, 0, 100).is_empty());
        assert_eq!(storm_hits(3, 1_000_000, 100).len(), 100);
    }

    #[test]
    fn fault_trips_exactly_once_at_the_planned_site() {
        let mut mem = DeviceMem::new(1024);
        mem.arm_fault(FaultPlan::parse("upload:1:kernel").unwrap());
        let t = Tensor::ones(&[2]);
        assert!(mem.upload(&t).is_ok(), "occurrence 0 passes");
        let err = mem.upload(&t).unwrap_err();
        assert_eq!(err, TensorError::Injected { site: FaultSite::Upload, nth: 1 });
        assert!(mem.upload(&t).is_ok(), "plan fires at most once");
        // Other sites are never affected.
        let a = mem.upload(&t).unwrap();
        let _pad = mem.alloc(&Shape::new(&[3])).unwrap();
        let b = mem.upload(&t).unwrap();
        assert!(mem.gather(&[&a, &b]).is_ok());
        mem.clear_fault();
        assert!(mem.upload(&t).is_ok());
    }

    #[test]
    fn injected_oom_reports_oom() {
        let mut mem = DeviceMem::new(1024);
        mem.arm_fault(FaultPlan::nth(FaultSite::Gather, 0, FaultKind::Oom));
        let a = mem.upload(&Tensor::ones(&[2])).unwrap();
        let _pad = mem.alloc(&Shape::new(&[3])).unwrap();
        let b = mem.upload(&Tensor::ones(&[2])).unwrap();
        assert!(matches!(mem.gather(&[&a, &b]), Err(TensorError::DeviceOom { .. })));
        // Spent plan: the next gather succeeds and the arena still works.
        let (g, copied) = mem.gather(&[&a, &b]).unwrap();
        assert!(copied);
        assert_eq!(mem.read(&g).unwrap(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn alloc_poisons_in_debug() {
        let mut mem = DeviceMem::new(16);
        let fresh = mem.alloc(&Shape::new(&[8])).unwrap();
        if cfg!(debug_assertions) {
            let bits: Vec<u32> = mem.write(&fresh).unwrap().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, [POISON.to_bits(); 8]);
            // Every read path refuses a region with one unwritten
            // element, whatever the others hold.
            let refused = |read: &dyn Fn(&mut DeviceMem, &DeviceTensor)| {
                let mut mem = DeviceMem::new(32);
                let t = mem.alloc(&Shape::new(&[8])).unwrap();
                mem.write(&t).unwrap()[..7].fill(1.0);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read(&mut mem, &t)))
                    .is_err()
            };
            assert!(refused(&|m, t| {
                let _ = m.read(t);
            }));
            assert!(refused(&|m, t| {
                let _ = m.download(t);
            }));
            assert!(refused(&|m, t| {
                let other = m.upload(&Tensor::ones(&[8])).unwrap();
                let _ = m.gather(&[&other, t]);
            }));
            assert!(refused(&|m, t| {
                let view = m.exec_view();
                // SAFETY: nothing else touches the arena.
                let _ = unsafe { view.read(t.offset(), 8) };
            }));
            mem.write(&fresh).unwrap().fill(1.0);
            assert_eq!(mem.read(&fresh).unwrap(), &[1.0; 8]);
        }
        // Reused regions are not cleared: every writer overwrites its own.
        mem.reset();
        let a = mem.upload(&Tensor::fill(&[3], 1.0)).unwrap();
        let _gap = mem.alloc(&Shape::new(&[2])).unwrap();
        let b = mem.upload(&Tensor::fill(&[3], 2.0)).unwrap();
        let (g, copied) = mem.gather(&[&a, &b]).unwrap();
        assert!(copied);
        assert_eq!(mem.read(&g).unwrap(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn exec_view_disjoint_parallel_writes() {
        let mut mem = DeviceMem::new(64);
        let src = mem.upload(&Tensor::from_fn(&[8], |i| i as f32)).unwrap();
        let a = mem.alloc(&Shape::new(&[4])).unwrap();
        let b = mem.alloc(&Shape::new(&[4])).unwrap();
        let view = mem.exec_view();
        std::thread::scope(|s| {
            for (dst, half) in [(&a, 0usize), (&b, 4)] {
                let src = &src;
                s.spawn(move || {
                    // SAFETY: `src` was written before the view was taken;
                    // `a`/`b` are disjoint fresh allocations, one per thread.
                    let input = unsafe { view.read(src.offset() + half, 4) };
                    let out = unsafe { view.write(dst.offset(), 4) };
                    for (o, i) in out.iter_mut().zip(input) {
                        *o = i * 2.0;
                    }
                });
            }
        });
        assert_eq!(mem.read(&a).unwrap(), &[0.0, 2.0, 4.0, 6.0]);
        assert_eq!(mem.read(&b).unwrap(), &[8.0, 10.0, 12.0, 14.0]);
    }

    #[test]
    fn batched_instance_shape_roundtrip() {
        let s = Shape::new(&[1, 8]);
        let b = batched_shape(&s, 4);
        assert_eq!(b.dims(), &[4, 1, 8]);
        assert_eq!(instance_shape(&b, 4), s);
    }
}
