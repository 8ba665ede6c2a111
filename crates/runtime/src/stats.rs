//! Runtime activity accounting — the Table 5 breakdown.

use serde::{Deserialize, Serialize};

/// Time and count accounting for one mini-batch execution.
///
/// The `*_us` fields are model-derived times (see
/// [`crate::device::DeviceModel`]); the count fields are exact observations.
/// `host_wall_us` is real measured wall-clock time of the host-side work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Host time constructing DFG nodes, µs.
    pub dfg_construction_us: f64,
    /// Host time spent in the scheduler, µs.
    pub scheduling_us: f64,
    /// Host↔device memory transfer time, µs.
    pub memcpy_us: f64,
    /// Device busy time in kernels (including gather kernels), µs.
    pub kernel_time_us: f64,
    /// CUDA-API-style time: launch overheads + transfer calls, µs.
    pub cuda_api_us: f64,
    /// Host time in fiber context switches, µs.
    pub fiber_us: f64,

    /// DFG nodes constructed.
    pub nodes: u64,
    /// Batched kernel launches.
    pub kernel_launches: u64,
    /// Explicit gather copies.
    pub gather_copies: u64,
    /// Bytes moved by explicit gathers.
    pub gather_bytes: u64,
    /// Gathers skipped because operands were contiguous.
    pub contiguous_hits: u64,
    /// Host↔device transfer operations.
    pub memcpy_ops: u64,
    /// Bytes moved host↔device.
    pub memcpy_bytes: u64,
    /// Total floating-point work executed.
    pub flops: u64,
    /// DFG flushes (sync points + the final drain).
    pub flushes: u64,
    /// Flushes aborted by a mid-plan device or kernel error.  Batches
    /// launched before the failure are accounted normally; the rest of the
    /// plan stays pending and replannable (see [`crate::ExecutionContext::flush`]).
    pub aborted_flushes: u64,
    /// Fiber suspensions.
    pub fiber_switches: u64,
    /// Transient-fault retries performed by the flush path.
    pub retries: u64,
    /// Modeled retry backoff charged as virtual time, µs.
    pub retry_backoff_us: f64,
    /// Flushes served by remapping a frozen plan ([`crate::plan_cache`]).
    #[serde(default)]
    pub plan_cache_hits: u64,
    /// Flushes that scheduled fresh with the plan cache enabled (including
    /// signature bypasses after partial completions).
    #[serde(default)]
    pub plan_cache_misses: u64,
    /// Shared-cache entries evicted by this context's publishes.
    #[serde(default)]
    pub plan_cache_evictions: u64,
    /// Host time folding window signatures and remapping cached plans, µs.
    /// A sub-account of `scheduling_us` (already included there — not
    /// added again by [`RuntimeStats::total_us`]); exactly `0.0` with the
    /// plan cache off.
    #[serde(default)]
    pub plan_sig_us: f64,
    /// XOR digest of every signed window's [`crate::WindowSig`] audit
    /// token (`chain_token`: accumulators + length, never the run-varying
    /// base).  XOR accumulation makes the digest invariant to flush order
    /// and to how windows are partitioned across contexts/workers, so two
    /// runs of the same workload must produce the same digest bit for bit
    /// at any worker count — the run-to-run determinism gate the fiber
    /// tests and `scripts/check.sh` assert on.  `0` with the cache off.
    #[serde(default)]
    pub plan_sig_chain: u64,
    /// Flushes whose plan co-batched DFG nodes from two or more distinct
    /// requests of a broker cohort (cross-request continuous batching).
    /// Exactly `0` outside broker cohorts — a context only classifies its
    /// flushes when the cohort driver installs a request partition
    /// ([`crate::ExecutionContext::set_instance_partition`]).
    #[serde(default)]
    pub shared_flushes: u64,
    /// Flushes inside a broker dispatch whose plan touched a single
    /// request (no cross-request sharing at that sync point).  `0` outside
    /// broker cohorts, like [`RuntimeStats::shared_flushes`].
    #[serde(default)]
    pub solo_flushes: u64,
    /// Launches whose selection compiled their kernel on the spot — the
    /// kernel's first launch (specialized backend only; `0` under the
    /// interpreter).
    #[serde(default)]
    pub backend_compiles: u64,
    /// Launches served by an already-compiled kernel.
    #[serde(default)]
    pub backend_hits: u64,
    /// Launches the specialized backend declined and routed to the
    /// interpreter.  Always `0`: lowering is total and nothing gates it, so
    /// the field has no writer (`benchmark/` still reads it).
    #[serde(default)]
    pub backend_interp_falls: u64,

    /// High-water mark of simulated device memory, in `f32` elements.
    pub device_peak_elements: u64,
    /// Measured host wall-clock time, µs.
    pub host_wall_us: f64,
    /// Measured wall-clock time of the kernel *execute* phase (the part a
    /// [`acrobat_codegen::backend::Selection`] chooses: interpreter
    /// dispatch or compiled-kernel execution, excluding prepare/gather,
    /// scheduling and finish), µs.  This is the host time the specialized
    /// backend attacks; the `kernel_backend` bench gates on it.
    #[serde(default)]
    pub exec_wall_us: f64,
    /// Measured wall-clock time of unbatched-program execution (the
    /// interpreter or AOT code driving DFG construction), µs.  This is where
    /// the Relay-VM-vs-AOT gap of Table 7 lives.
    pub program_host_us: f64,
}

impl RuntimeStats {
    /// Total modeled latency, µs: the serial sum of the seven accounts.
    pub fn total_us(&self) -> f64 {
        self.dfg_construction_us
            + self.scheduling_us
            + self.memcpy_us
            + self.kernel_time_us
            + self.cuda_api_us
            + self.fiber_us
            + self.retry_backoff_us
    }

    /// Total modeled latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_us() / 1000.0
    }

    /// Modeled latency plus the *measured* host cost of executing the
    /// unbatched program (used by the VM-vs-AOT comparison, where the
    /// difference is real interpretation overhead rather than a model).
    pub fn total_with_host_us(&self) -> f64 {
        self.total_us() + self.program_host_us
    }
}

/// The one place each [`RuntimeStats`] field is classified.  The table
/// drives [`RuntimeStats::merge`], [`RuntimeStats::scaled`] and
/// [`RuntimeStats::split`]; `scaled` expands to a full struct literal, so a
/// field added to the struct without a row here (or listed twice) does not
/// compile.
macro_rules! field_table {
    ($($field:ident: $kind:ident,)*) => {
        impl RuntimeStats {
            /// Accumulates another run's statistics (for averaging across repeats).
            pub fn merge(&mut self, o: &RuntimeStats) {
                $(self.$field = ($kind.merge)(self.$field, o.$field);)*
            }

            /// Divides all quantities by `n` (averaging after [`RuntimeStats::merge`]).
            ///
            /// Count fields round to the nearest integer: a truncating division
            /// biased every averaged count downward (3 runs of 10, 10 and 11
            /// launches averaged to 10.33 and reported 10, but 11, 11, 10 reported
            /// 10 as well while 32/3 should read 11).
            pub fn scaled(&self, n: f64) -> RuntimeStats {
                RuntimeStats { $($field: ($kind.scaled)(self.$field, n),)* }
            }

            /// Splits one run's statistics among the requests that shared it,
            /// weighted by their instance `counts`.  Merging the parts
            /// reproduces `self` exactly, field for field, and a single
            /// member receives `self` unchanged.
            pub fn split(&self, counts: &[usize]) -> Vec<RuntimeStats> {
                let mut out = vec![RuntimeStats::default(); counts.len()];
                $(($kind.split)(self.$field, counts, &mut out, |s| &mut s.$field);)*
                out
            }
        }
    };
}

field_table! {
    dfg_construction_us: TIME_SUM,
    scheduling_us: TIME_SUM,
    memcpy_us: TIME_SUM,
    kernel_time_us: TIME_SUM,
    cuda_api_us: TIME_SUM,
    fiber_us: TIME_SUM,
    nodes: COUNT_SUM,
    kernel_launches: COUNT_SUM,
    gather_copies: COUNT_SUM,
    gather_bytes: COUNT_SUM,
    contiguous_hits: COUNT_SUM,
    memcpy_ops: COUNT_SUM,
    memcpy_bytes: COUNT_SUM,
    flops: COUNT_SUM,
    flushes: COUNT_SUM,
    aborted_flushes: COUNT_SUM,
    fiber_switches: COUNT_SUM,
    retries: COUNT_SUM,
    retry_backoff_us: TIME_SUM,
    plan_cache_hits: COUNT_SUM,
    plan_cache_misses: COUNT_SUM,
    plan_cache_evictions: COUNT_SUM,
    plan_sig_us: TIME_SUM,
    plan_sig_chain: XOR_DIGEST,
    shared_flushes: COUNT_SUM,
    solo_flushes: COUNT_SUM,
    backend_compiles: COUNT_SUM,
    backend_hits: COUNT_SUM,
    backend_interp_falls: COUNT_SUM,
    device_peak_elements: MAX,
    host_wall_us: TIME_SUM,
    exec_wall_us: TIME_SUM,
    program_host_us: TIME_SUM,
}

/// How one kind of field merges, averages (`scaled`) and splits.
struct Kind<T> {
    merge: fn(T, T) -> T,
    scaled: fn(T, f64) -> T,
    split: fn(T, &[usize], &mut [RuntimeStats], Field<T>),
}

/// Selects the field of a member's [`RuntimeStats`] a split fills.
type Field<T> = fn(&mut RuntimeStats) -> &mut T;

/// A modeled or measured time, µs.
const TIME_SUM: Kind<f64> = Kind { merge: |a, b| a + b, scaled: |a, n| a / n, split: split_time };

/// An exact event or byte count; averages round to the nearest integer.
const COUNT_SUM: Kind<u64> =
    Kind { merge: |a, b| a + b, scaled: |a, n| (a as f64 / n).round() as u64, split: split_count };

/// A high-water mark.  It was genuinely shared: every member of a split saw
/// it, and merging by max keeps the peak.
const MAX: Kind<u64> = Kind {
    merge: u64::max,
    scaled: |a, _| a,
    split: |total, _, out, field| out.iter_mut().for_each(|s| *field(s) = total),
};

/// An XOR digest: a set-of-windows invariant, not a quantity.  XOR keeps it
/// independent of any merge grouping; it does not average; it cannot be
/// apportioned, so member 0 carries it whole and the XOR across members
/// equals the total.
const XOR_DIGEST: Kind<u64> = Kind {
    merge: |a, b| a ^ b,
    scaled: |a, _| a,
    split: |total, _, out, field| out.iter_mut().take(1).for_each(|s| *field(s) = total),
};

/// Proportional shares of a time; the last member takes the rounding
/// residue so the shares sum back to `total`.
fn split_time(total: f64, counts: &[usize], out: &mut [RuntimeStats], field: Field<f64>) {
    let weight: u64 = counts.iter().map(|&c| c as u64).sum();
    let mut acc = 0.0_f64;
    for (i, s) in out.iter_mut().enumerate() {
        let share = if i + 1 == counts.len() {
            total - acc
        } else if weight == 0 {
            0.0
        } else {
            total * counts[i] as f64 / weight as f64
        };
        *field(s) = share;
        acc += share;
    }
}

/// Largest-remainder apportionment of a count: shares sum to `total`
/// exactly and each is within one of its proportional value.  Ties in the
/// fractional remainder break toward the lower index.
fn split_count(total: u64, counts: &[usize], out: &mut [RuntimeStats], field: Field<u64>) {
    let weight: u128 = counts.iter().map(|&c| c as u128).sum();
    if weight == 0 {
        out.iter_mut().take(1).for_each(|s| *field(s) = total);
        return;
    }
    let mut left = total;
    for (s, &c) in out.iter_mut().zip(counts) {
        let share = (u128::from(total) * c as u128 / weight) as u64;
        *field(s) = share;
        left -= share;
    }
    if left > 0 {
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by_key(|&i| {
            (std::cmp::Reverse(u128::from(total) * counts[i] as u128 % weight), i)
        });
        for &i in order.iter().take(left as usize) {
            *field(&mut out[i]) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The hand-written classification the field table is checked against.
    macro_rules! fields {
        ($s:ident: $($f:ident)*) => { [$(&mut $s.$f),*] };
    }
    fn times(s: &mut RuntimeStats) -> [&mut f64; 11] {
        fields!(s: dfg_construction_us scheduling_us memcpy_us kernel_time_us cuda_api_us fiber_us
            retry_backoff_us plan_sig_us host_wall_us exec_wall_us program_host_us)
    }
    fn counts(s: &mut RuntimeStats) -> [&mut u64; 20] {
        fields!(s: nodes kernel_launches gather_copies gather_bytes contiguous_hits memcpy_ops
            memcpy_bytes flops flushes aborted_flushes fiber_switches retries plan_cache_hits
            plan_cache_misses plan_cache_evictions shared_flushes solo_flushes backend_compiles
            backend_hits backend_interp_falls)
    }
    fn filled(
        time: impl Fn(usize) -> f64,
        count: impl Fn(usize) -> u64,
        peak: u64,
        chain: u64,
    ) -> RuntimeStats {
        let mut s = RuntimeStats {
            device_peak_elements: peak,
            plan_sig_chain: chain,
            ..Default::default()
        };
        times(&mut s).into_iter().enumerate().for_each(|(i, f)| *f = time(i));
        counts(&mut s).into_iter().enumerate().for_each(|(i, f)| *f = count(i));
        s
    }

    #[test]
    fn table_classifies_every_field_as_written_by_hand() {
        let mut merged = filled(|_| 3.5, |_| 7, 10, 0b1100);
        merged.merge(&filled(|_| 1.25, |_| 4, 6, 0b1010));
        assert_eq!(merged, filled(|_| 4.75, |_| 11, 10, 0b0110), "sum, sum, max, xor");
        assert_eq!(
            merged.scaled(2.0),
            filled(|_| 2.375, |_| 6, 10, 0b0110),
            "digest and peak pass through"
        );
    }

    proptest! {
        #[test]
        fn split_parts_merge_back_to_the_total(
            vals in proptest::collection::vec(0u64..u64::MAX, 33),
            weights in proptest::collection::vec(0usize..5, 1..6),
        ) {
            // Counts span 0 .. 2^40 (so `total < members` occurs), times are
            // non-dyadic so every share rounds.
            let count = |i: usize| (vals[11 + i] >> 24) >> (vals[11 + i] % 41);
            let mut total = filled(|i| (vals[i] >> 24) as f64 / 7.0, count, vals[31], vals[32]);
            let parts = total.split(&weights);
            prop_assert_eq!(total.split(&weights[..1]), vec![total], "a lone member gets the total");
            let mut merged = RuntimeStats::default();
            parts.iter().for_each(|p| merged.merge(p));
            for (m, t) in times(&mut merged).into_iter().zip(times(&mut total)) {
                prop_assert!((*m - *t).abs() <= 1e-9 * t.abs(), "time {} != {}", m, t);
                *m = *t;
            }
            prop_assert_eq!(merged, total, "counts, peak and digest merge back exactly");
            let weight: usize = weights.iter().sum();
            for (mut part, &w) in parts.into_iter().zip(&weights) {
                prop_assert_eq!(part.device_peak_elements, total.device_peak_elements);
                for (share, t) in counts(&mut part).into_iter().zip(counts(&mut total)) {
                    let exact = *t as f64 * w as f64 / weight.max(1) as f64;
                    let off = if weight == 0 { 0.0 } else { (*share as f64 - exact).abs() };
                    prop_assert!(off < 1.0 + exact * 1e-12, "share {} of {}", share, exact);
                }
            }
        }
    }

    #[test]
    fn totals_and_merge() {
        let mut a =
            RuntimeStats { kernel_time_us: 100.0, scheduling_us: 10.0, ..Default::default() };
        let b = RuntimeStats { kernel_time_us: 50.0, nodes: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.kernel_time_us, 150.0);
        assert_eq!(a.nodes, 7);
        assert!((a.total_us() - 160.0).abs() < 1e-9);
        let avg = a.scaled(2.0);
        assert_eq!(avg.kernel_time_us, 75.0);
    }

    #[test]
    fn scaled_rounds_counts_to_nearest() {
        // 3 runs × (10, 10, 11) launches: the truncating average reported
        // 10 for 31/3 ≈ 10.33 (fine) but also 10 for 32/3 ≈ 10.67 (wrong).
        let mut acc = RuntimeStats::default();
        for launches in [10u64, 11, 11] {
            acc.merge(&RuntimeStats { kernel_launches: launches, ..Default::default() });
        }
        assert_eq!(acc.kernel_launches, 32);
        assert_eq!(acc.scaled(3.0).kernel_launches, 11, "round to nearest, not floor");
        let mut acc = RuntimeStats::default();
        for nodes in [10u64, 10, 11] {
            acc.merge(&RuntimeStats { nodes, ..Default::default() });
        }
        assert_eq!(acc.scaled(3.0).nodes, 10);
        // A count that divides exactly is unchanged.
        let s = RuntimeStats { flushes: 12, ..Default::default() };
        assert_eq!(s.scaled(4.0).flushes, 3);
    }
}
