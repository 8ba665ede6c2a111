//! A simulation of TVM's auto-scheduler (Ansor) as used by ACROBAT (§D.1).
//!
//! The real system searches, per kernel, over schedules (tilings,
//! vectorization, unrolling) evaluated on hardware; kernel quality improves
//! with the iteration budget, and ACROBAT prioritizes the budget across
//! kernels by their invocation frequency — measured via profile-guided
//! optimization (PGO) or estimated statically (Table 9 quantifies the PGO
//! benefit).
//!
//! This module reproduces that *workflow* against an analytical model: every
//! kernel has a hidden optimal schedule (derived deterministically from its
//! structural signature); random search with more iterations lands closer to
//! the optimum; the resulting [`Schedule::quality`] ∈ (0, 1] divides into
//! the kernel's ideal execution time in the device cost model.  Variable
//! batch extents are handled as in the paper: the schedule is tuned for one
//! static extent and applied to all extents, with DietCode-style local
//! padding shrinking the misalignment penalty.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::kernel::KernelId;
use crate::library::KernelLibrary;

/// An optimized kernel schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Tile size of the batch loop.
    pub tile: u32,
    /// Vectorization width.
    pub vector: u32,
    /// Unroll factor.
    pub unroll: u32,
    /// Schedule quality in `(0, 1]`; execution time scales as `1/quality`.
    pub quality: f64,
    /// Iterations the search spent on this kernel.
    pub iterations_spent: u64,
}

/// Quality of a completely unoptimized kernel (no auto-scheduling).
pub const UNTUNED_QUALITY: f64 = 0.25;

impl Schedule {
    /// The schedule of a kernel that was never auto-scheduled.
    pub fn untuned() -> Schedule {
        Schedule { tile: 1, vector: 1, unroll: 1, quality: UNTUNED_QUALITY, iterations_spent: 0 }
    }

    /// Effective quality at a dynamic batch extent.
    ///
    /// When the extent is not a multiple of the tile, the generated kernel
    /// needs bounds checks, which the paper notes are "severely detrimental"
    /// unless eliminated by local padding / partitioning (§D.1).  ACROBAT
    /// always pads, so a misaligned extent costs only the padded lanes.
    pub fn quality_at(&self, batch: usize) -> f64 {
        let tile = self.tile.max(1) as usize;
        if batch.is_multiple_of(tile) {
            self.quality
        } else {
            self.quality * 0.97
        }
    }
}

/// Options for an auto-scheduling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleOptions {
    /// Total search iterations across all kernels.
    pub iterations: u64,
    /// Search seed.
    pub seed: u64,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions { iterations: 500, seed: 0 }
    }
}

const TILES: [u32; 6] = [1, 2, 4, 8, 16, 32];
const VECTORS: [u32; 4] = [1, 2, 4, 8];
const UNROLLS: [u32; 3] = [1, 2, 4];
const INNER_TILES: [u32; 6] = [1, 2, 4, 8, 16, 32];
const THREADS: [u32; 6] = [32, 64, 128, 256, 512, 1024];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A point in the schedule space: (tile, vector, unroll, inner tile,
/// thread-block size).  6·4·3·6·6 = 2592 candidates — large enough that a
/// small search budget cannot exhaust it, which is what gives the PGO
/// prioritization of Table 9 its effect.
type Candidate = (u32, u32, u32, u32, u32);

/// The hidden optimum of a kernel's schedule space.
fn optimum(signature: &str, seed: u64) -> Candidate {
    let mut st = hash_str(signature) ^ seed.wrapping_mul(0x9E3779B97F4A7C15);
    (
        TILES[(splitmix64(&mut st) % TILES.len() as u64) as usize],
        VECTORS[(splitmix64(&mut st) % VECTORS.len() as u64) as usize],
        UNROLLS[(splitmix64(&mut st) % UNROLLS.len() as u64) as usize],
        INNER_TILES[(splitmix64(&mut st) % INNER_TILES.len() as u64) as usize],
        THREADS[(splitmix64(&mut st) % THREADS.len() as u64) as usize],
    )
}

fn sample_candidate(st: &mut u64) -> Candidate {
    (
        TILES[(splitmix64(st) % TILES.len() as u64) as usize],
        VECTORS[(splitmix64(st) % VECTORS.len() as u64) as usize],
        UNROLLS[(splitmix64(st) % UNROLLS.len() as u64) as usize],
        INNER_TILES[(splitmix64(st) % INNER_TILES.len() as u64) as usize],
        THREADS[(splitmix64(st) % THREADS.len() as u64) as usize],
    )
}

/// Quality of a candidate relative to the hidden optimum: multiplicative
/// penalties per log2 step of distance in each dimension.
fn candidate_quality(cand: Candidate, opt: Candidate) -> f64 {
    const MAX_QUALITY: f64 = 0.95;
    let dist = |a: u32, b: u32| ((a as f64).log2() - (b as f64).log2()).abs();
    let factor = |d: f64| 1.0 / (1.0 + 0.22 * d);
    MAX_QUALITY
        * factor(dist(cand.0, opt.0))
        * factor(dist(cand.1, opt.1))
        * factor(dist(cand.2, opt.2))
        * factor(dist(cand.3, opt.3))
        * factor(dist(cand.4, opt.4))
}

/// Runs the simulated auto-scheduler over every kernel of the library.
///
/// `priorities` maps kernels to their (profiled or estimated) invocation
/// counts; when present, the iteration budget is divided proportionally —
/// this is the PGO mode of §D.1.  Without priorities the budget is uniform.
pub fn autoschedule(
    library: &mut KernelLibrary,
    options: ScheduleOptions,
    priorities: Option<&BTreeMap<KernelId, u64>>,
) {
    let ids: Vec<KernelId> = library.iter().map(|k| k.id).collect();
    if ids.is_empty() {
        return;
    }
    // Budget allocation.
    let weights: Vec<f64> = ids
        .iter()
        .map(|id| match priorities {
            Some(p) => (*p.get(id).unwrap_or(&1)).max(1) as f64,
            None => 1.0,
        })
        .collect();
    let total_w: f64 = weights.iter().sum();
    for (id, w) in ids.iter().zip(&weights) {
        let budget = ((options.iterations as f64) * w / total_w).round() as u64;
        let program = library.kernel_mut(*id);
        let sig = program.signature();
        let opt = optimum(&sig, options.seed);
        let mut st = hash_str(&sig) ^ options.seed.wrapping_add(1).wrapping_mul(0x2545F4914F6CDD1D);
        let mut best = Schedule::untuned();
        for _ in 0..budget {
            let cand = sample_candidate(&mut st);
            let q = candidate_quality(cand, opt);
            if q > best.quality {
                best = Schedule {
                    tile: cand.0,
                    vector: cand.1,
                    unroll: cand.2,
                    quality: q,
                    iterations_spent: 0,
                };
            }
        }
        best.iterations_spent = budget;
        program.schedule = Some(best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_analysis::{analyze, AnalysisOptions};
    use acrobat_ir::{parse_module, typeck};

    fn library(src: &str) -> KernelLibrary {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let a = analyze(m, AnalysisOptions::default()).unwrap();
        KernelLibrary::build(&a)
    }

    const TWO_KERNELS: &str = "def @main($w1: Tensor[(4, 4)], $w2: Tensor[(4, 8)], %x: Tensor[(1, 4)]) -> Tensor[(1, 8)] {
        matmul(relu(matmul(%x, $w1)), $w2)
    }";

    #[test]
    fn more_iterations_never_worse() {
        let mut prev = 0.0;
        for iters in [0u64, 10, 100, 1000] {
            let mut lib = library(TWO_KERNELS);
            autoschedule(
                &mut lib,
                ScheduleOptions { iterations: iters, ..Default::default() },
                None,
            );
            let q: f64 = lib.iter().map(|k| k.schedule.unwrap().quality).sum();
            assert!(q >= prev - 1e-12, "quality should not regress: {q} < {prev}");
            prev = q;
        }
    }

    #[test]
    fn untuned_quality_is_floor() {
        let mut lib = library(TWO_KERNELS);
        autoschedule(&mut lib, ScheduleOptions { iterations: 0, ..Default::default() }, None);
        for k in lib.iter() {
            assert_eq!(k.schedule.unwrap().quality, UNTUNED_QUALITY);
        }
    }

    #[test]
    fn pgo_prioritizes_hot_kernel() {
        // Give kernel 0 a 30× priority (the NestedRNN inner/outer ratio);
        // with a small budget, the hot kernel must end up at least as good
        // as under uniform allocation.
        let mut uniform = library(TWO_KERNELS);
        autoschedule(&mut uniform, ScheduleOptions { iterations: 20, ..Default::default() }, None);
        let mut pgo = library(TWO_KERNELS);
        let mut prio = BTreeMap::new();
        prio.insert(KernelId(0), 30u64);
        prio.insert(KernelId(1), 1u64);
        autoschedule(
            &mut pgo,
            ScheduleOptions { iterations: 20, ..Default::default() },
            Some(&prio),
        );
        let hot_uniform = uniform.kernel(KernelId(0)).schedule.unwrap();
        let hot_pgo = pgo.kernel(KernelId(0)).schedule.unwrap();
        assert!(hot_pgo.iterations_spent > hot_uniform.iterations_spent);
        assert!(hot_pgo.quality >= hot_uniform.quality);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut lib = library(TWO_KERNELS);
            autoschedule(&mut lib, ScheduleOptions { iterations: 50, seed }, None);
            lib.iter().map(|k| k.schedule.unwrap().quality).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_eq!(run(8), run(8));
    }

    #[test]
    fn misaligned_extent_penalty_and_padding() {
        let s = Schedule { tile: 8, vector: 1, unroll: 1, quality: 0.9, iterations_spent: 0 };
        assert_eq!(s.quality_at(64), 0.9);
        assert_eq!(s.quality_at(63), 0.9 * 0.97, "local padding keeps 97 % of the quality");
    }
}
