//! A DyNet-style dynamic auto-batching framework.
//!
//! Architecture (the paper's Fig. 6): the user program builds a lazy
//! computation graph per instance through an imperative API
//! ([`ComputationGraph`]); calling [`ComputationGraph::forward`] triggers
//! the runtime batcher, which repeatedly groups executable nodes by a
//! *signature heuristic* and launches vendor-library kernels, gathering
//! scattered operands into contiguous memory first.
//!
//! The deliberate limitations — each verified against §E.4 of the paper —
//! are what the evaluation measures:
//!
//! * **Matmul heuristic**: matrix multiplications batch only when their
//!   *first argument is literally the same tensor* (true for linear layers
//!   whose first argument is a weight parameter; false for MV-RNN's
//!   activation×activation products, which then execute one by one).
//! * **Vendor-kernel gaps**: `argmax` and broadcasting element-wise
//!   multiplication have no batched implementation; constant-tensor
//!   construction is re-executed per call instead of being reused.
//! * **Dynamic-only analysis**: no fusion, no coarsening, no hoisting, no
//!   phases — every operator is a graph node and a scheduling decision.
//! * **Explicit gathers**: batched operands are copied into staging unless
//!   already contiguous.
//!
//! [`Improvements`] enables the DN++ fixes of Table 8.

use std::collections::BTreeMap;

use acrobat_analysis::ArgClass;
use acrobat_codegen::autosched::Schedule;
use acrobat_codegen::{run_batched_kernel_with, BatchMode, KernelProgram};
use acrobat_runtime::{DeviceModel, RuntimeStats};
use acrobat_tensor::{DeviceMem, DeviceTensor, PrimOp, Shape, Tensor, TensorError};

/// DyNet's two auto-batching schedulers (Neubig et al. 2017b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynetScheduler {
    /// Batch by topological depth.
    Depth,
    /// Agenda-based: repeatedly pick the available signature class with the
    /// lowest average depth.
    Agenda,
}

/// The DN++ improvement toggles of Table 8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Improvements {
    /// Batch matmuls by shape even when the first argument differs
    /// (fixes MV-RNN).
    pub matmul_by_shape: bool,
    /// Cache constant tensors by (value, shape) and reuse them
    /// (fixes TreeLSTM leaf initialization).
    pub constant_cache: bool,
}

impl Improvements {
    /// All Table 8 improvements on (the `DN++` configuration).
    pub fn all() -> Improvements {
        Improvements { matmul_by_shape: true, constant_cache: true }
    }
}

/// Framework configuration.
#[derive(Debug, Clone)]
pub struct DynetConfig {
    /// Scheduler choice (the paper reports the better of the two).
    pub scheduler: DynetScheduler,
    /// DN++ toggles.
    pub improvements: Improvements,
    /// Shared accelerator model (same constants as the ACROBAT runtime).
    pub device: DeviceModel,
    /// Device memory in `f32` elements.
    pub device_memory: usize,
    /// Vendor-kernel quality (cuDNN/Eigen kernels are well tuned).
    pub kernel_quality: f64,
}

impl Default for DynetConfig {
    fn default() -> Self {
        DynetConfig {
            scheduler: DynetScheduler::Agenda,
            improvements: Improvements::default(),
            device: DeviceModel::default(),
            device_memory: 64 << 20,
            kernel_quality: 0.9,
        }
    }
}

/// A node reference within a [`ComputationGraph`].
pub type NodeRef = usize;

#[derive(Debug, Clone)]
struct DyNode {
    op: PrimOp,
    args: Vec<NodeRef>,
    shape: Shape,
    /// Vendor libraries provide no batched kernel for this node (executes
    /// as a singleton launch).
    unbatchable: bool,
    /// Registered model parameter (resident tensor).
    is_param: bool,
}

/// The lazily-built computation graph plus the executing runtime.
#[derive(Debug)]
pub struct ComputationGraph {
    cfg: DynetConfig,
    mem: DeviceMem,
    nodes: Vec<DyNode>,
    values: Vec<Option<DeviceTensor>>,
    stats: RuntimeStats,
    const_cache: BTreeMap<(u32, Shape), NodeRef>,
    schedule: Schedule,
}

impl ComputationGraph {
    /// Creates an empty graph.
    pub fn new(cfg: DynetConfig) -> ComputationGraph {
        let schedule = Schedule {
            tile: 1,
            vector: 1,
            unroll: 1,
            quality: cfg.kernel_quality,
            iterations_spent: 0,
        };
        ComputationGraph {
            mem: DeviceMem::new(cfg.device_memory),
            cfg,
            nodes: Vec::new(),
            values: Vec::new(),
            stats: RuntimeStats::default(),
            const_cache: BTreeMap::new(),
            schedule,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    fn push(&mut self, node: DyNode) -> NodeRef {
        // Eager per-node graph construction cost (Fig. 6: no static
        // analysis amortizes this).
        self.stats.dfg_construction_us += self.cfg.device.dfg_node_cost_us;
        self.stats.nodes += 1;
        self.nodes.push(node);
        self.values.push(None);
        self.nodes.len() - 1
    }

    /// Registers a model parameter (resident on the device; uploads are not
    /// charged, as in the ACROBAT runtime).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DeviceOom`] when memory is exhausted.
    pub fn parameter(&mut self, t: &Tensor) -> Result<NodeRef, TensorError> {
        let dev = self.mem.upload(t)?;
        let node = self.push(DyNode {
            op: PrimOp::Copy,
            args: vec![],
            shape: t.shape().clone(),
            unbatchable: false,
            is_param: true,
        });
        self.values[node] = Some(dev);
        Ok(node)
    }

    /// Uploads an input tensor — one transfer *per call*, as DyNet performs
    /// (no transfer batching; this is the "Mem. copy time" line of Table 5).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DeviceOom`] when memory is exhausted.
    pub fn input(&mut self, t: &Tensor) -> Result<NodeRef, TensorError> {
        let before = self.mem.stats();
        let dev = self.mem.upload(t)?;
        let bytes = self.mem.stats().upload_bytes - before.upload_bytes;
        self.stats.memcpy_bytes += bytes;
        self.stats.memcpy_ops += 1;
        self.stats.memcpy_us += self.cfg.device.memcpy_time_us(bytes, 1);
        self.stats.cuda_api_us += self.cfg.device.memcpy_overhead_us;
        let node = self.push(DyNode {
            op: PrimOp::Copy,
            args: vec![],
            shape: t.shape().clone(),
            unbatchable: false,
            is_param: false,
        });
        self.values[node] = Some(dev);
        Ok(node)
    }

    /// Applies a primitive operator.
    ///
    /// # Errors
    ///
    /// Returns shape errors immediately (DyNet also shape-checks at graph
    /// construction).
    pub fn apply(&mut self, op: PrimOp, args: &[NodeRef]) -> Result<NodeRef, TensorError> {
        let shapes: Vec<&Shape> = args.iter().map(|&a| &self.nodes[a].shape).collect();
        let shape = acrobat_tensor::infer_shape(&op, &shapes)?;
        // Vendor-library coverage gaps (§E.4).
        let unbatchable = match &op {
            PrimOp::ArgmaxRows => true,
            PrimOp::Mul => {
                // Broadcasting element-wise multiply has no batched kernel.
                shapes.len() == 2 && shapes[0] != shapes[1]
            }
            _ => false,
        };
        Ok(self.push(DyNode { op, args: args.to_vec(), shape, unbatchable, is_param: false }))
    }

    /// Creates a constant-filled tensor node.  Without
    /// [`Improvements::constant_cache`] every call creates (and later
    /// executes) a fresh node — the TreeLSTM leaf-state pathology of §E.4.
    pub fn constant(&mut self, value: f32, shape: &Shape) -> NodeRef {
        if self.cfg.improvements.constant_cache {
            let key = (value.to_bits(), shape.clone());
            if let Some(&n) = self.const_cache.get(&key) {
                return n;
            }
            let n = self.push(DyNode {
                op: PrimOp::Fill { value, shape: shape.clone() },
                args: vec![],
                shape: shape.clone(),
                unbatchable: true,
                is_param: false,
            });
            self.const_cache.insert(key, n);
            return n;
        }
        self.push(DyNode {
            op: PrimOp::Fill { value, shape: shape.clone() },
            args: vec![],
            shape: shape.clone(),
            unbatchable: true,
            is_param: false,
        })
    }

    /// The shape of a node.
    pub fn shape(&self, n: NodeRef) -> &Shape {
        &self.nodes[n].shape
    }

    /// Batching signature: nodes sharing a signature may execute as one
    /// batched vendor kernel.
    fn signature(&self, n: NodeRef) -> String {
        let node = &self.nodes[n];
        if node.unbatchable {
            return format!("solo:{n}");
        }
        let mut sig = format!("{}", node.op);
        for &a in &node.args {
            sig.push(';');
            sig.push_str(&self.nodes[a].shape.to_string());
        }
        if matches!(node.op, PrimOp::MatMul) {
            let weight_is_param = self.nodes[node.args[1]].is_param;
            if !self.cfg.improvements.matmul_by_shape || weight_is_param {
                // DyNet's heuristic: batch only when the weight-position
                // operand is the SAME tensor (§E.4 "brittle heuristics").
                // DyNet's column-vector layout puts the weight first; our
                // row-vector layout puts it second — same heuristic,
                // transposed.  The DN++ improvement relaxes this *only* for
                // activation×activation products (the MV-RNN case): linear
                // layers keep the identity signature, since batching across
                // different weight tensors would gather the weights
                // themselves.
                sig.push_str(&format!(";w={}", node.args[1]));
            }
        }
        sig
    }

    /// Executes all pending nodes needed to materialize `target`, batching
    /// on the fly, then returns its host value.
    ///
    /// # Errors
    ///
    /// Propagates device and kernel errors.
    pub fn forward(&mut self, target: NodeRef) -> Result<Tensor, TensorError> {
        self.execute_pending()?;
        let t = self.values[target].clone().expect("executed");
        let before = self.mem.stats();
        let host = self.mem.download(&t)?;
        let bytes = self.mem.stats().download_bytes - before.download_bytes;
        self.stats.memcpy_bytes += bytes;
        self.stats.memcpy_ops += 1;
        self.stats.memcpy_us += self.cfg.device.memcpy_time_us(bytes, 1);
        self.stats.cuda_api_us += self.cfg.device.memcpy_overhead_us;
        Ok(host)
    }

    /// Executes everything currently pending.
    ///
    /// # Errors
    ///
    /// Propagates device and kernel errors.
    pub fn execute_pending(&mut self) -> Result<(), TensorError> {
        let pending: Vec<NodeRef> =
            (0..self.nodes.len()).filter(|&n| self.values[n].is_none()).collect();
        if pending.is_empty() {
            return Ok(());
        }
        self.stats.flushes += 1;

        // Incremental batcher, as in DyNet: one pass computes topological
        // depths and dependency counts (charged per node+edge); thereafter
        // availability is maintained incrementally — completing a node
        // decrements its consumers' counters — so scheduling cost is linear
        // in nodes+edges rather than quadratic.
        let per_node = match self.cfg.scheduler {
            DynetScheduler::Depth => self.cfg.device.sched_dyn_depth_cost_us,
            DynetScheduler::Agenda => self.cfg.device.sched_agenda_cost_us,
        };
        let mut depth: BTreeMap<NodeRef, u64> = BTreeMap::new();
        let mut missing: BTreeMap<NodeRef, usize> = BTreeMap::new();
        let mut consumers: BTreeMap<NodeRef, Vec<NodeRef>> = BTreeMap::new();
        for &n in &pending {
            let mut d = 0;
            let mut miss = 0;
            for &a in &self.nodes[n].args {
                self.stats.scheduling_us += per_node * 0.3; // per-edge work
                if self.values[a].is_none() {
                    d = d.max(depth.get(&a).copied().unwrap_or(0) + 1);
                    miss += 1;
                    consumers.entry(a).or_default().push(n);
                }
            }
            depth.insert(n, d);
            missing.insert(n, miss);
        }

        self.stats.device_peak_elements = self.mem.stats().peak_elements;
        // Signature classes of currently-available nodes.
        let mut classes: BTreeMap<String, Vec<NodeRef>> = BTreeMap::new();
        for &n in &pending {
            self.stats.scheduling_us += per_node;
            if missing[&n] == 0 {
                classes.entry(self.signature(n)).or_default().push(n);
            }
        }
        let mut left = pending.len();
        while left > 0 {
            // Pick a class: depth scheduler takes the minimum depth first;
            // agenda takes the class with the lowest average depth.
            self.stats.scheduling_us += per_node * classes.len() as f64 * 0.2;
            let key = match self.cfg.scheduler {
                DynetScheduler::Depth => classes
                    .iter()
                    .min_by_key(|(_, v)| v.iter().map(|n| depth[n]).min().unwrap_or(0))
                    .map(|(k, _)| k.clone()),
                DynetScheduler::Agenda => classes
                    .iter()
                    .min_by(|(_, a), (_, b)| {
                        let avg = |v: &Vec<NodeRef>| {
                            v.iter().map(|n| depth[n] as f64).sum::<f64>() / v.len() as f64
                        };
                        avg(a).partial_cmp(&avg(b)).expect("finite")
                    })
                    .map(|(k, _)| k.clone()),
            }
            .expect("ready nodes exist");
            let batch = classes.remove(&key).expect("chosen class");
            self.launch(&batch)?;
            left -= batch.len();
            for &n in &batch {
                for &c in consumers.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
                    let m = missing.get_mut(&c).expect("pending consumer");
                    *m -= 1;
                    self.stats.scheduling_us += per_node * 0.3;
                    if *m == 0 {
                        self.stats.scheduling_us += per_node;
                        classes.entry(self.signature(c)).or_default().push(c);
                    }
                }
            }
        }
        self.stats.device_peak_elements = self.mem.stats().peak_elements;
        Ok(())
    }

    /// Launches one batch (possibly a singleton) as a vendor kernel: a
    /// one-instruction kernel program through codegen's batched launch in
    /// explicit-gather mode.  An argument is shared when every lane passes
    /// the same tensor, so a singleton launch reads every argument shared;
    /// only a singleton reshape is a zero-copy view instead of a launch.
    fn launch(&mut self, batch: &[NodeRef]) -> Result<(), TensorError> {
        let node0 = self.nodes[batch[0]].clone();
        let lanes = batch.len();
        let arg =
            |n: NodeRef, j: usize| self.values[self.nodes[n].args[j]].as_ref().expect("ready");

        if lanes == 1 && matches!(node0.op, PrimOp::Reshape { .. }) {
            let view = arg(batch[0], 0).reshaped(&node0.shape)?;
            self.charge_launch(&node0, lanes, 0, 0);
            self.values[batch[0]] = Some(view);
            return Ok(());
        }

        let inputs = (0..node0.args.len())
            .map(|j| {
                let shared = batch.iter().all(|&n| arg(n, j) == arg(batch[0], j));
                let class = if shared { ArgClass::Shared } else { ArgClass::Batched };
                (class, self.nodes[node0.args[j]].shape.clone())
            })
            .collect();
        let program = KernelProgram::single_op(node0.op.clone(), inputs, node0.shape.clone());
        let (mut outs, launch) = run_batched_kernel_with(
            &mut self.mem,
            &program,
            lanes,
            BatchMode::ExplicitGather,
            |lane, j| arg(batch[lane], j),
        )?;
        self.stats.gather_bytes += launch.gather_bytes;
        self.stats.gather_copies += launch.gather_copies;
        self.stats.contiguous_hits += launch.contiguous_hits;
        self.charge_launch(&node0, lanes, launch.gather_bytes, launch.gather_copies);
        for (&n, out) in batch.iter().zip(outs.swap_remove(0)) {
            self.values[n] = Some(out);
        }
        Ok(())
    }

    fn charge_launch(&mut self, node: &DyNode, lanes: usize, gather_bytes: u64, gathers: u64) {
        let shapes: Vec<&Shape> = node.args.iter().map(|&a| &self.nodes[a].shape).collect();
        let flops = acrobat_tensor::flops(&node.op, &shapes) * lanes as u64;
        let in_bytes: u64 = shapes.iter().map(|s| s.byte_size() as u64).sum::<u64>() * lanes as u64;
        let out_bytes = node.shape.byte_size() as u64 * lanes as u64;
        let lstats = acrobat_codegen::KernelLaunchStats {
            launches: 1,
            flops,
            batched_bytes: in_bytes,
            output_bytes: out_bytes,
            gather_bytes,
            gather_copies: gathers,
            ..Default::default()
        };
        self.stats.kernel_launches += 1;
        self.stats.flops += flops;
        self.stats.kernel_time_us +=
            self.cfg.device.kernel_time_us(&lstats, Some(&self.schedule), lanes)
                + self.cfg.device.gather_time_us(&lstats);
        self.stats.cuda_api_us += self.cfg.device.launch_overhead_us
            + gathers as f64 * self.cfg.device.launch_overhead_us * 0.5;
    }
}

/// Runs a mini-batch through a user-supplied per-instance graph builder and
/// returns per-instance outputs plus statistics.
///
/// `setup` registers model parameters once (shared parameter nodes are what
/// make the stock matmul heuristic batch linear layers); `build` constructs
/// one instance's graph and returns the node(s) whose values constitute the
/// instance output.  Tensor-dependent models call
/// [`ComputationGraph::forward`] *during* building, which flushes
/// everything pending (there are no fibers — this is DyNet's limitation the
/// DRNN experiment exercises, §7.2.1).
///
/// # Errors
///
/// Propagates device and kernel errors (the Berxit OOM of Table 4 arrives
/// through here).
pub fn run_minibatch<P, S, F>(
    cfg: DynetConfig,
    batch_size: usize,
    setup: S,
    mut build: F,
) -> Result<(Vec<Vec<Tensor>>, RuntimeStats), TensorError>
where
    S: FnOnce(&mut ComputationGraph) -> Result<P, TensorError>,
    F: FnMut(&mut ComputationGraph, &P, usize) -> Result<Vec<NodeRef>, TensorError>,
{
    let mut cg = ComputationGraph::new(cfg);
    let params = setup(&mut cg)?;
    let wall = std::time::Instant::now();
    let mut per_instance_nodes = Vec::with_capacity(batch_size);
    for i in 0..batch_size {
        per_instance_nodes.push(build(&mut cg, &params, i)?);
    }
    cg.execute_pending()?;
    let mut outputs = Vec::with_capacity(batch_size);
    for nodes in per_instance_nodes {
        let mut outs = Vec::with_capacity(nodes.len());
        for n in nodes {
            outs.push(cg.forward(n)?);
        }
        outputs.push(outs);
    }
    let mut stats = *cg.stats();
    stats.program_host_us = wall.elapsed().as_secs_f64() * 1e6;
    Ok((outputs, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(v: f32, dims: &[usize]) -> Tensor {
        Tensor::fill(dims, v)
    }

    #[test]
    fn linear_layers_batch_via_shared_weight() {
        let mut cg = ComputationGraph::new(DynetConfig::default());
        let w = cg.parameter(&Tensor::from_fn(&[2, 2], |i| i as f32)).unwrap();
        let mut outs = Vec::new();
        for i in 0..4 {
            let x = cg.input(&dev(i as f32, &[1, 2])).unwrap();
            let mm = cg.apply(PrimOp::MatMul, &[x, w]).unwrap();
            outs.push(cg.apply(PrimOp::Tanh, &[mm]).unwrap());
        }
        cg.execute_pending().unwrap();
        // One batched matmul + one batched tanh.
        assert_eq!(cg.stats().kernel_launches, 2);
        for (i, o) in outs.into_iter().enumerate() {
            let got = cg.forward(o).unwrap();
            let x = dev(i as f32, &[1, 2]);
            let w = Tensor::from_fn(&[2, 2], |i| i as f32);
            let mm = acrobat_tensor::execute(&PrimOp::MatMul, &[&x, &w]).unwrap();
            let want = acrobat_tensor::execute(&PrimOp::Tanh, &[&mm]).unwrap();
            assert!(got.allclose(&want, 1e-6));
        }
    }

    #[test]
    fn matmul_heuristic_blocks_activation_products() {
        // MV-RNN-style activation×activation: first args differ → one
        // launch per instance under stock DyNet.
        let run = |improved: bool| {
            let cfg = DynetConfig {
                improvements: Improvements { matmul_by_shape: improved, ..Default::default() },
                ..Default::default()
            };
            let mut cg = ComputationGraph::new(cfg);
            for i in 0..6 {
                let a = cg.input(&dev(1.0 + i as f32, &[2, 2])).unwrap();
                let b = cg.input(&dev(2.0, &[2, 2])).unwrap();
                cg.apply(PrimOp::MatMul, &[a, b]).unwrap();
            }
            cg.execute_pending().unwrap();
            cg.stats().kernel_launches
        };
        assert_eq!(run(false), 6, "stock heuristic: sequential execution");
        assert_eq!(run(true), 1, "DN++ batches by shape");
    }

    #[test]
    fn singleton_reshape_is_a_view_and_batched_reshape_copies() {
        let reshape = PrimOp::Reshape { shape: Shape::new(&[3, 2]) };
        let mut cg = ComputationGraph::new(DynetConfig::default());
        let x = cg.input(&Tensor::from_fn(&[2, 3], |i| i as f32)).unwrap();
        let r = cg.apply(reshape.clone(), &[x]).unwrap();
        let used = cg.mem.used();
        assert_eq!(cg.forward(r).unwrap().data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cg.mem.used(), used, "a singleton reshape allocates nothing");
        assert_eq!(
            cg.values[r].as_ref().unwrap().offset(),
            cg.values[x].as_ref().unwrap().offset()
        );

        let rs: Vec<NodeRef> = (0..2)
            .map(|_| {
                let x = cg.input(&Tensor::ones(&[2, 3])).unwrap();
                cg.apply(reshape.clone(), &[x]).unwrap()
            })
            .collect();
        cg.execute_pending().unwrap();
        assert_eq!(cg.stats().kernel_launches, 2, "one view, one batched copy");
        assert_eq!(cg.shape(rs[1]), &Shape::new(&[3, 2]));
    }

    #[test]
    fn argmax_never_batches() {
        let mut cg = ComputationGraph::new(DynetConfig::default());
        for i in 0..5 {
            let x = cg.input(&dev(i as f32, &[1, 4])).unwrap();
            cg.apply(PrimOp::ArgmaxRows, &[x]).unwrap();
        }
        cg.execute_pending().unwrap();
        assert_eq!(cg.stats().kernel_launches, 5);
    }

    #[test]
    fn broadcast_mul_never_batches() {
        let mut cg = ComputationGraph::new(DynetConfig::default());
        for _ in 0..4 {
            let a = cg.input(&dev(2.0, &[2, 3])).unwrap();
            let b = cg.input(&dev(3.0, &[1, 3])).unwrap();
            cg.apply(PrimOp::Mul, &[a, b]).unwrap();
        }
        cg.execute_pending().unwrap();
        assert_eq!(cg.stats().kernel_launches, 4);
        // Same-shape mul DOES batch.
        let mut cg = ComputationGraph::new(DynetConfig::default());
        for _ in 0..4 {
            let a = cg.input(&dev(2.0, &[2, 3])).unwrap();
            let b = cg.input(&dev(3.0, &[2, 3])).unwrap();
            cg.apply(PrimOp::Mul, &[a, b]).unwrap();
        }
        cg.execute_pending().unwrap();
        assert_eq!(cg.stats().kernel_launches, 1);
    }

    #[test]
    fn constants_reexecute_unless_cached() {
        let shape = Shape::new(&[1, 4]);
        let run = |cache: bool| {
            let cfg = DynetConfig {
                improvements: Improvements { constant_cache: cache, ..Default::default() },
                ..Default::default()
            };
            let mut cg = ComputationGraph::new(cfg);
            let mut outs = Vec::new();
            for _ in 0..8 {
                let c = cg.constant(0.0, &shape);
                let x = cg.input(&dev(1.0, &[1, 4])).unwrap();
                outs.push(cg.apply(PrimOp::Add, &[c, x]).unwrap());
            }
            cg.execute_pending().unwrap();
            cg.stats().kernel_launches
        };
        // 8 constant fills + adds vs 1 fill + adds.
        assert!(run(false) > run(true) + 5);
    }

    #[test]
    fn run_minibatch_collects_outputs_and_stats() {
        let w = Tensor::from_fn(&[2, 2], |i| (i as f32) * 0.5);
        let (outs, stats) = run_minibatch(
            DynetConfig::default(),
            3,
            |cg| cg.parameter(&w),
            |cg, &wp, i| {
                let x = cg.input(&Tensor::fill(&[1, 2], i as f32))?;
                let y = cg.apply(PrimOp::MatMul, &[x, wp])?;
                Ok(vec![y])
            },
        )
        .unwrap();
        assert_eq!(outs.len(), 3);
        assert!(stats.total_us() > 0.0);
        assert!(stats.memcpy_ops >= 3, "one transfer per input");
        // Shared parameter node → the stock heuristic batches all three.
        assert_eq!(stats.kernel_launches, 1);
        for (i, o) in outs.iter().enumerate() {
            let x = Tensor::fill(&[1, 2], i as f32);
            let want = acrobat_tensor::execute(&PrimOp::MatMul, &[&x, &w]).unwrap();
            assert!(o[0].allclose(&want, 1e-6));
        }
    }

    #[test]
    fn oom_propagates() {
        let cfg = DynetConfig { device_memory: 8, ..Default::default() };
        let err = run_minibatch(
            cfg,
            1,
            |_| Ok(()),
            |cg, _, _| {
                let x = cg.input(&Tensor::zeros(&[16]))?;
                Ok(vec![x])
            },
        );
        assert!(matches!(err, Err(TensorError::DeviceOom { .. })));
    }
}
