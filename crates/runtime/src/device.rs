//! The simulated accelerator cost model.
//!
//! The paper's numbers come from an Nvidia RTX 3070; this reproduction has
//! no GPU, so device time is computed analytically from the quantities the
//! runtime actually produces: kernel launches, floating-point work, bytes
//! moved (shared operands once per launch, batched operands per lane,
//! explicit gathers, host↔device transfers) and the auto-scheduler's
//! kernel-quality factor.  The default constants are calibrated to the
//! order of magnitude of the paper's Table 5 breakdown; every raw count is
//! reported alongside so the benchmarks' *shape* conclusions never hinge on
//! a single constant.

use acrobat_codegen::{KernelLaunchStats, Schedule};
use serde::{Deserialize, Serialize};

/// Analytical accelerator + host-overhead model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Fixed cost of one kernel launch, µs (CUDA driver overhead).
    pub launch_overhead_us: f64,
    /// Effective compute throughput, FLOPs per µs.
    pub flops_per_us: f64,
    /// Effective memory bandwidth, bytes per µs.
    pub bytes_per_us: f64,
    /// Relative cost multiplier for indirect (gather-fused) operand reads.
    pub indirect_read_penalty: f64,
    /// Output elements needed to saturate the device (kernels producing
    /// fewer run at proportionally lower utilization — small unbatched
    /// kernels cannot fill an RTX 3070).
    pub saturation_elements: f64,
    /// Utilization floor for tiny kernels.
    pub min_utilization: f64,
    /// Fixed cost of one host↔device transfer operation, µs.
    pub memcpy_overhead_us: f64,
    /// Effective host↔device (PCIe) bandwidth, bytes per µs.
    #[serde(default = "default_pcie_bytes_per_us")]
    pub pcie_bytes_per_us: f64,
    /// Host cost of constructing one DFG node, µs.
    pub dfg_node_cost_us: f64,
    /// Host cost of one inline-depth scheduling decision, µs (bucket
    /// insert).
    pub sched_inline_cost_us: f64,
    /// Host cost per node of the DyNet simulator's depth-based scheduler
    /// (`acrobat_baselines::dynet`), µs.
    pub sched_dyn_depth_cost_us: f64,
    /// Host cost per node of agenda-based scheduling, µs.
    pub sched_agenda_cost_us: f64,
    /// Host cost per node of folding the window signature during DFG
    /// construction ([`crate::plan_cache`]), µs.  Charged on every flush
    /// with the plan cache on, hit or miss.
    #[serde(default = "default_sched_sig_cost_us")]
    pub sched_sig_cost_us: f64,
    /// Host cost per node of rebinding a cached plan onto the current
    /// window (plan-cache hit dispatch), µs.
    #[serde(default = "default_sched_remap_cost_us")]
    pub sched_remap_cost_us: f64,
    /// Host cost of one fiber context switch, µs.
    pub fiber_switch_cost_us: f64,
}

impl Default for DeviceModel {
    fn default() -> Self {
        DeviceModel {
            launch_overhead_us: 8.0,
            flops_per_us: 2.0e6,     // ~2 effective TFLOP/s fp32
            bytes_per_us: 300_000.0, // ~300 GB/s effective
            indirect_read_penalty: 1.6,
            saturation_elements: 49_152.0,
            min_utilization: 0.02,
            memcpy_overhead_us: 10.0,
            pcie_bytes_per_us: default_pcie_bytes_per_us(),
            dfg_node_cost_us: 0.45,
            sched_inline_cost_us: 0.08,
            sched_dyn_depth_cost_us: 0.30,
            sched_agenda_cost_us: 0.60,
            sched_sig_cost_us: default_sched_sig_cost_us(),
            sched_remap_cost_us: default_sched_remap_cost_us(),
            fiber_switch_cost_us: 0.35,
        }
    }
}

impl DeviceModel {
    /// Device-busy time of one batched kernel launch, µs (excluding the
    /// launch overhead, which is charged to the CUDA-API account).
    ///
    /// The kernel is memory- or compute-bound, whichever is larger, divided
    /// by the schedule quality at the actual batch extent.  Gather-fused
    /// scattered reads pay the indirection penalty on the batched-operand
    /// traffic.
    pub fn kernel_time_us(
        &self,
        stats: &KernelLaunchStats,
        schedule: Option<&Schedule>,
        batch: usize,
    ) -> f64 {
        // Small-kernel utilization: a launch producing few elements cannot
        // fill the device's SMs.
        let out_elems = (stats.output_bytes as f64 / 4.0).max(1.0);
        let util = (out_elems / self.saturation_elements).clamp(self.min_utilization, 1.0);
        let compute = stats.flops as f64 / (self.flops_per_us * util);
        let indirect_factor =
            if stats.indirect_reads > 0 { self.indirect_read_penalty } else { 1.0 };
        let traffic = stats.shared_bytes as f64
            + stats.batched_bytes as f64 * indirect_factor
            + stats.output_bytes as f64;
        let memory = traffic / (self.bytes_per_us * util.sqrt().max(0.25));
        let quality = schedule
            .map(|s| s.quality_at(batch))
            .unwrap_or(acrobat_codegen::autosched::UNTUNED_QUALITY);
        compute.max(memory) / quality
    }

    /// Device time of the explicit gathers performed for a launch, µs.
    pub fn gather_time_us(&self, stats: &KernelLaunchStats) -> f64 {
        // Gather copies are strided device-to-device copies: bandwidth cost
        // plus a small fixed cost per gather kernel.
        stats.gather_bytes as f64 / self.bytes_per_us
            + stats.gather_copies as f64 * self.launch_overhead_us * 0.5
    }

    /// Host↔device transfer time, µs, for `bytes` moved in `ops` calls.
    pub fn memcpy_time_us(&self, bytes: u64, ops: u64) -> f64 {
        bytes as f64 / self.pcie_bytes_per_us + ops as f64 * self.memcpy_overhead_us
    }
}

/// PCIe-ish 12 GB/s effective (calibrated to a Gen3 ×16 link under real
/// pinned-memory transfer efficiency, matching the paper's RTX 3070 host).
fn default_pcie_bytes_per_us() -> f64 {
    12_000.0
}

/// One hash fold over metadata already in registers — an order of
/// magnitude cheaper than even the inline scheduler's bucket insert.
fn default_sched_sig_cost_us() -> f64 {
    0.01
}

/// One offset add + store per node on a plan-cache hit.
fn default_sched_remap_cost_us() -> f64 {
    0.005
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(flops: u64, shared: u64, batched: u64, out: u64) -> KernelLaunchStats {
        KernelLaunchStats {
            launches: 1,
            flops,
            shared_bytes: shared,
            batched_bytes: batched,
            output_bytes: out,
            ..Default::default()
        }
    }

    #[test]
    fn compute_bound_scales_with_flops() {
        let m = DeviceModel::default();
        let t1 = m.kernel_time_us(&stats(2_000_000, 0, 1_000, 1_000), None, 1);
        let t2 = m.kernel_time_us(&stats(4_000_000, 0, 1_000, 1_000), None, 1);
        assert!(t2 > t1 * 1.9 && t2 < t1 * 2.1);
    }

    #[test]
    fn memory_bound_small_kernels() {
        let m = DeviceModel::default();
        // Tiny flops, large traffic → memory bound.
        let t = m.kernel_time_us(&stats(10, 0, 3_000_000, 3_000_000), None, 1);
        assert!(t > 3_000_000.0 / m.bytes_per_us);
    }

    #[test]
    fn better_schedule_is_faster() {
        let m = DeviceModel::default();
        let s = stats(1_000_000, 0, 0, 100);
        let tuned = Schedule { tile: 1, vector: 1, unroll: 1, quality: 0.9, iterations_spent: 100 };
        let fast = m.kernel_time_us(&s, Some(&tuned), 64);
        let slow = m.kernel_time_us(&s, None, 64);
        assert!(fast < slow, "tuned {fast} vs untuned {slow}");
    }

    #[test]
    fn indirection_penalty_applies_to_batched_traffic_only() {
        let m = DeviceModel::default();
        let mut fused = stats(0, 1_000_000, 2_000_000, 0);
        fused.indirect_reads = 8;
        let gathered = stats(0, 1_000_000, 2_000_000, 0);
        let tf = m.kernel_time_us(&fused, None, 8);
        let tg = m.kernel_time_us(&gathered, None, 8);
        assert!(tf > tg);
        // …but the gathered path pays gather time separately.
        let mut g = gathered;
        g.gather_bytes = 2_000_000;
        g.gather_copies = 1;
        assert!(m.gather_time_us(&g) > 0.0);
        assert_eq!(m.gather_time_us(&fused), 0.0);
    }

    #[test]
    fn memcpy_batching_saves_overhead() {
        let m = DeviceModel::default();
        let many = m.memcpy_time_us(1_000_000, 100);
        let one = m.memcpy_time_us(1_000_000, 1);
        assert!(many > one + 900.0);
    }

    #[test]
    fn pcie_bandwidth_is_tunable_and_defaults_compatibly() {
        let m = DeviceModel::default();
        assert_eq!(m.pcie_bytes_per_us, 12_000.0);
        // Doubling the link speed halves the bandwidth term only.
        let fast = DeviceModel { pcie_bytes_per_us: 24_000.0, ..m };
        let base = m.memcpy_time_us(1_200_000, 0);
        assert_eq!(fast.memcpy_time_us(1_200_000, 0), base / 2.0);
        assert_eq!(fast.memcpy_time_us(0, 3), m.memcpy_time_us(0, 3));
    }
}
