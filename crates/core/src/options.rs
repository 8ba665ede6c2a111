//! Compilation options, including the ablation ladder of the paper's Fig. 5.

use acrobat_analysis::AnalysisOptions;
use acrobat_codegen::ScheduleOptions;
use acrobat_runtime::{DeviceModel, RuntimeOptions, SchedulerKind};
use acrobat_vm::BackendKind;

/// Cumulative optimization levels matching the bars of Fig. 5.
///
/// Each level enables everything the previous one does, in the order the
/// paper's ablation adds them: standard kernel fusion, grain-size
/// coarsening, inline depth computation, program phases + ghost operators,
/// and finally gather-operator fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// No optimizations: one kernel per operator, agenda scheduling,
    /// explicit gathers.
    None,
    /// - standard kernel fusion (vertical + horizontal).
    Fusion,
    /// - grain-size coarsening (§B.2).
    Coarsening,
    /// - inline depth computation + operator hoisting (§4.1, §B.1).
    InlineDepth,
    /// - program phases + ghost operators (§4.1, §B.3).
    PhasesGhosts,
    /// - gather-operator fusion (§5.2) — everything on.
    Full,
}

impl OptLevel {
    /// All levels in ablation order.
    pub const ALL: [OptLevel; 6] = [
        OptLevel::None,
        OptLevel::Fusion,
        OptLevel::Coarsening,
        OptLevel::InlineDepth,
        OptLevel::PhasesGhosts,
        OptLevel::Full,
    ];

    /// Short label used by the benchmark harness.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Fusion => "+fusion",
            OptLevel::Coarsening => "+coarsen",
            OptLevel::InlineDepth => "+inline-depth",
            OptLevel::PhasesGhosts => "+phases/ghosts",
            OptLevel::Full => "+gather-fusion",
        }
    }
}

/// Everything [`crate::compile`] needs to know.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Static-analysis toggles (Fig. 5 ablation flags).
    pub analysis: AnalysisOptions,
    /// Runtime configuration (scheduler, gather fusion, device memory).
    pub runtime: RuntimeOptions,
    /// Simulated accelerator model.
    pub device: DeviceModel,
    /// Auto-scheduler configuration.
    pub schedule: ScheduleOptions,
    /// Execution backend.
    pub backend: BackendKind,
    /// Seed for pseudo-random control flow (§E.1).
    pub seed: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            analysis: AnalysisOptions::default(),
            runtime: RuntimeOptions::default(),
            device: DeviceModel::default(),
            schedule: ScheduleOptions::default(),
            backend: BackendKind::Aot,
            seed: 0x5EED,
        }
    }
}

impl CompileOptions {
    /// Enable or disable checked mode (`acrobat_runtime::check`): every
    /// flush is validated against the scheduler/DFG invariants and the
    /// reference schedulers.  Slow; intended for tests and fuzzing.
    pub fn with_checked(mut self, checked: bool) -> CompileOptions {
        self.runtime.checked = checked;
        self
    }

    /// Enable or disable flush-plan memoization
    /// (`acrobat_runtime::plan_cache`): repeated pending-window shapes are
    /// served by remapping a frozen plan instead of rescheduling.  Off by
    /// default (the paper configuration reschedules every flush).
    pub fn with_plan_cache(mut self, on: bool) -> CompileOptions {
        self.runtime.plan_cache = on;
        self
    }

    /// Enable or disable cross-request continuous batching
    /// (`acrobat_vm::broker`): concurrent `run` calls pass a
    /// `BatchBroker` that admits one dispatch per core; a request arriving
    /// while every core runs one queues and merges with its queued peers
    /// into shared flush plans and shared batched kernel launches.  Off by
    /// default — each request batches only within itself, exactly the
    /// pre-broker behaviour.
    pub fn with_broker(mut self, on: bool) -> CompileOptions {
        self.runtime.broker = on;
        self
    }

    /// Select the kernel-execution backend
    /// (`acrobat_codegen::backend`): the default specialized backend, which
    /// compiles each kernel on its first launch into a monomorphized
    /// allocation-free plan, or the reference interpreter it is
    /// bit-identical to — the oracle, for tests and baselines.
    pub fn with_kernel_backend(
        mut self,
        backend: acrobat_codegen::KernelBackendKind,
    ) -> CompileOptions {
        self.runtime.backend = backend;
        self
    }

    /// Options for one rung of the Fig. 5 ablation ladder.
    pub fn at_level(level: OptLevel) -> CompileOptions {
        let mut o = CompileOptions::default();
        let mut a = AnalysisOptions::none();
        // Duplication and hoisting ride with inline depth computation (they
        // exist to give the depth scheme its precision); duplication also
        // benefits kernel sharing, but keeping it on the inline-depth rung
        // matches the paper's grouping.
        let mut r = RuntimeOptions {
            scheduler: SchedulerKind::Agenda,
            gather_fusion: false,
            coarsen: false,
            ..RuntimeOptions::default()
        };
        if level >= OptLevel::Fusion {
            a.fusion = true;
            a.horizontal_fusion = true;
        }
        if level >= OptLevel::Coarsening {
            a.coarsen = true;
            r.coarsen = true;
        }
        if level >= OptLevel::InlineDepth {
            a.hoisting = true;
            a.duplication = true;
            r.scheduler = SchedulerKind::InlineDepth;
        }
        if level >= OptLevel::PhasesGhosts {
            a.phases = true;
            a.ghost_ops = true;
        }
        if level >= OptLevel::Full {
            r.gather_fusion = true;
        }
        o.analysis = a;
        o.runtime = r;
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_cumulative() {
        let none = CompileOptions::at_level(OptLevel::None);
        assert!(!none.analysis.fusion);
        assert_eq!(none.runtime.scheduler, SchedulerKind::Agenda);
        assert!(!none.runtime.gather_fusion);

        let fusion = CompileOptions::at_level(OptLevel::Fusion);
        assert!(fusion.analysis.fusion && !fusion.analysis.coarsen);

        let full = CompileOptions::at_level(OptLevel::Full);
        assert!(full.analysis.fusion);
        assert!(full.analysis.coarsen && full.runtime.coarsen);
        assert!(full.analysis.hoisting && full.analysis.phases && full.analysis.ghost_ops);
        assert_eq!(full.runtime.scheduler, SchedulerKind::InlineDepth);
        assert!(full.runtime.gather_fusion);
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::BTreeSet<&str> =
            OptLevel::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels.len(), OptLevel::ALL.len());
    }
}
