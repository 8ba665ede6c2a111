//! The machine-speed probe.
//!
//! The sandbox shares its host.  For minutes at a time everything in it runs
//! 1.3–1.6× slower, and ten runs of the same code then spread by 25–40 % —
//! more than any bound the contract allows.  So every wall-clock end-to-end
//! metric is reported **at the speed of a quiet machine**: between requests
//! the client thread runs a fixed piece of the benchmark's own code (a
//! *round* of this probe), and each request's wall time is divided by how
//! much slower than [`QUIET_US`] the rounds around it ran.
//!
//! The probe is benchmark code, so no change to the product moves it; a
//! product change shows in the reported latency one to one.  Its two parts
//! stress what the workloads stress — floating-point kernels, and allocating
//! and hashing host code — and their slow-downs are averaged (geometric
//! mean), since interference hits each kind differently.  Each part runs
//! twice back to back and the second is timed, so what the workload left in
//! the caches does not matter.  Measured: README, "Machine speed".

use std::collections::HashMap;
use std::time::Instant;

use crate::metrics::median;

/// What the two parts of a round cost, in µs, on the quiet machine the
/// baseline was taken on (the same inside every workload, to a few percent).
/// The constants only fix the unit: a wrong one scales every run alike and
/// cancels in every comparison.
pub const QUIET_US: [f64; 2] = [66.0, 38.0];

/// A round is due this long after the last one ended.
const EVERY_S: f64 = 0.01;

/// A request's machine speed is read off the rounds within this many
/// seconds of it, and never off fewer than [`NEAREST`] rounds.
const WINDOW_S: f64 = 0.25;
const NEAREST: usize = 5;

const FP_ROWS: usize = 256;
const FP_COLS: usize = 512;

struct Probe {
    weights: Vec<f32>,
    x: Vec<f32>,
    out: Vec<f32>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            weights: (0..FP_ROWS * FP_COLS).map(|i| (i % 17) as f32 * 1e-3).collect(),
            x: (0..FP_ROWS).map(|i| (i % 5) as f32 * 0.1).collect(),
            out: vec![0.0; FP_COLS],
        }
    }

    /// Runs one round and returns what each part took, in µs.
    fn round(&mut self) -> [f64; 2] {
        let warm_then_timed = |part: &mut dyn FnMut()| {
            part();
            let t = Instant::now();
            part();
            t.elapsed().as_secs_f64() * 1e6
        };
        [warm_then_timed(&mut || self.fp()), warm_then_timed(&mut host)]
    }

    /// Four `[1×256]·[256×512]` products: the inner loop of a batched cell.
    fn fp(&mut self) {
        for _ in 0..4 {
            self.out.fill(0.0);
            for (xk, row) in self.x.iter().zip(self.weights.chunks_exact(FP_COLS)) {
                for (o, w) in self.out.iter_mut().zip(row) {
                    *o += xk * w;
                }
            }
            std::hint::black_box(&self.out);
        }
    }
}

/// Builds a 200-node graph the way a host-side executor does: small heap
/// allocations, argument lists, a hash index, tiny tensors summed.
fn host() {
    let mut nodes: Vec<(Vec<u32>, Box<[f32; 16]>)> = Vec::new();
    let mut index: HashMap<u64, u32> = HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..200u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let args: Vec<u32> = (0..(x % 3) as u32 + 1).map(|k| i.saturating_sub(k + 1)).collect();
        let mut data = Box::new([0.0f32; 16]);
        for a in &args {
            if let Some((_, from)) = nodes.get(*a as usize) {
                data.iter_mut().zip(from.iter()).for_each(|(d, s)| *d += s + 1.0);
            }
        }
        index.insert(x % 1024, i);
        nodes.push((args, data));
    }
    std::hint::black_box((&nodes, &index));
}

/// The rounds one thread has run, and when: what it knows of the machine's
/// speed over time.
pub struct Rounds {
    probe: Probe,
    origin: Instant,
    last: Instant,
    /// `(seconds since origin, slow-down)`, in time order.
    log: Vec<(f64, f64)>,
}

impl Rounds {
    /// Starts with three rounds, so that the first reading has neighbours.
    pub fn new(origin: Instant) -> Rounds {
        let mut rounds = Rounds { probe: Probe::new(), origin, last: origin, log: Vec::new() };
        for _ in 0..3 {
            rounds.run();
        }
        rounds
    }

    fn run(&mut self) {
        let slowdown = slowdown(&self.probe.round());
        self.last = Instant::now();
        self.log.push(((self.last - self.origin).as_secs_f64(), slowdown));
    }

    /// Runs a round if one is due; call between two pieces of timed work.
    /// Returns whether it did.
    pub fn tick(&mut self) -> bool {
        let due = self.last.elapsed().as_secs_f64() >= EVERY_S;
        if due {
            self.run();
        }
        due
    }

    /// The machine's slow-down over `[from, to]`, read at its middle.  Ask
    /// once the rounds that followed `to` have run.
    pub fn slowdown_over(&self, from: Instant, to: Instant) -> f64 {
        let middle = (from - self.origin).as_secs_f64() + (to - from).as_secs_f64() / 2.0;
        slowdown_at(&self.log, middle)
    }

    pub fn slowdowns(&self) -> impl Iterator<Item = f64> + '_ {
        self.log.iter().map(|r| r.1)
    }
}

/// How many times slower than the quiet machine one round ran: the
/// geometric mean over its parts.
fn slowdown(round_us: &[f64; 2]) -> f64 {
    round_us.iter().zip(QUIET_US).map(|(us, quiet)| us / quiet).product::<f64>().sqrt()
}

/// The machine's slow-down at time `at`: the median over the rounds within
/// [`WINDOW_S`] of it, widened to the [`NEAREST`] nearest.  `rounds` is
/// `(time, slowdown)` in time order; 1 when there are none.
fn slowdown_at(rounds: &[(f64, f64)], at: f64) -> f64 {
    if rounds.is_empty() {
        return 1.0;
    }
    let mut lo = rounds.partition_point(|r| r.0 < at - WINDOW_S);
    let mut hi = rounds.partition_point(|r| r.0 <= at + WINDOW_S);
    while hi - lo < NEAREST.min(rounds.len()) {
        // Take whichever neighbour outside the range is closer in time.
        let before = lo.checked_sub(1).map(|i| at - rounds[i].0);
        let after = rounds.get(hi).map(|r| r.0 - at);
        match (before, after) {
            (Some(b), Some(a)) if b <= a => lo -= 1,
            (_, Some(_)) => hi += 1,
            _ => lo -= 1,
        }
    }
    median(&rounds[lo..hi].iter().map(|r| r.1).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_geometric_mean_against_quiet() {
        assert!((slowdown(&QUIET_US) - 1.0).abs() < 1e-12);
        let [a, b] = QUIET_US;
        assert!((slowdown(&[2.0 * a, 2.0 * b]) - 2.0).abs() < 1e-12);
        assert!((slowdown(&[4.0 * a, b]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_at_reads_the_rounds_around_a_time() {
        assert_eq!(slowdown_at(&[], 3.0), 1.0);
        let rounds: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 / 16.0, i as f64)).collect();
        // ±0.25 s around 2.0 s holds rounds 28..=36.
        assert_eq!(slowdown_at(&rounds, 2.0), 32.0);
        // Sparse rounds: the five nearest, on whichever side they lie.
        let sparse = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0), (5.0, 6.0)];
        assert_eq!(slowdown_at(&sparse, 0.1), 3.0);
        assert_eq!(slowdown_at(&sparse, 2.6), 4.0);
        assert_eq!(slowdown_at(&sparse[..2], 9.0), 1.5);
    }

    #[test]
    fn a_round_times_every_part() {
        let round = Probe::new().round();
        assert!(round.iter().all(|us| *us > 0.0 && us.is_finite()), "{round:?}");
    }
}
