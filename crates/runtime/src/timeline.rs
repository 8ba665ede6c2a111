//! Event-driven simulated device timeline.
//!
//! The scalar [`crate::DeviceModel`] prices individual activities; this
//! module sequences them the way an RTX-3070-class accelerator would run
//! them: `N` in-order compute streams, one dedicated copy engine, and the
//! host thread as its own lane.  Modeled latency becomes the *critical
//! path* through that schedule rather than the serial sum of all charges,
//! while every per-account busy time keeps accumulating unchanged for
//! Table 5-style breakdowns.
//!
//! Event rules (mirroring CUDA stream semantics):
//!
//! * every operation is **issued** by the host, so it can start no earlier
//!   than the host lane's cursor; the issuing API overhead itself is host
//!   work;
//! * a **kernel launch** runs on the least-loaded compute stream, starting
//!   at `max(stream tail, host issue time, producers' completion events)` —
//!   the producer events are the flush `Plan`'s DFG edges, which is exactly
//!   the cross-stream dependency an event-wait would encode;
//! * a **transfer** (upload, download, explicit gather) runs on the copy
//!   engine when one is configured, overlapping independent compute;
//!   otherwise it queues on compute stream 0;
//! * with `host_overlap` the host continues after issuing (async queue);
//!   without it the host blocks until the operation completes.  Downloads
//!   always block the host — the caller needs the bytes.
//!
//! With the default serialized configuration (`streams = 1`, no copy
//! engine, no host overlap) every event chains onto a single cursor, so the
//! critical path is *bitwise* equal to the serial sum of charges and
//! [`DeviceTimeline::overlap_saved_us`] is exactly `0.0` — the legacy
//! scalar accumulation is reproduced to the last ulp.

use serde::{Deserialize, Serialize};

use crate::dfg::ValueId;

/// Configuration of the simulated device timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineOptions {
    /// Number of in-order compute streams (≥ 1).  Independent batches of a
    /// flush dispatch round-robin-by-load across the streams.
    pub streams: u32,
    /// Dedicated copy engine: transfers and explicit gathers overlap
    /// compute instead of queueing on stream 0.
    pub copy_engine: bool,
    /// Asynchronous launches: the host continues after issuing an
    /// operation instead of blocking until it completes.
    pub host_overlap: bool,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions { streams: 1, copy_engine: false, host_overlap: false }
    }
}

impl TimelineOptions {
    /// Whether any overlap source is enabled.  When `false`, the timeline
    /// degenerates to the legacy serial accumulation (bitwise).
    pub fn overlap_enabled(&self) -> bool {
        self.streams > 1 || self.copy_engine || self.host_overlap
    }

    /// Effective stream count (≥ 1; `streams = 0` is treated as 1).
    pub fn effective_streams(&self) -> usize {
        (self.streams as usize).max(1)
    }
}

/// One recorded kernel launch (kept only when tracing is enabled; tests and
/// the timeline bench assert event-ordering invariants on it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchEvent {
    /// Compute stream the launch was placed on.
    pub stream: u32,
    /// Time the launch started executing, µs.
    pub start_us: f64,
    /// Completion event time, µs.
    pub end_us: f64,
    /// Latest completion event among the launch's producers (and its
    /// gather, if any), µs.  Invariant: `start_us >= deps_ready_us`.
    pub deps_ready_us: f64,
    /// Host issue time, µs.  Invariant: `start_us >= issued_us`.
    pub issued_us: f64,
}

/// The simulated device timeline of one [`crate::ExecutionContext`].
///
/// Cursors only ever move forward; [`DeviceTimeline::makespan_us`] is the
/// maximum over all lanes and [`DeviceTimeline::overlap_saved_us`] is the
/// (always non-negative) difference between the serial sum of charges and
/// that makespan.
#[derive(Debug)]
pub struct DeviceTimeline {
    opts: TimelineOptions,
    /// Host lane cursor, µs.
    host_us: f64,
    /// Per compute stream: time the stream's queue drains, µs.
    streams: Vec<f64>,
    /// Copy engine cursor, µs (unused without a copy engine).
    copy_us: f64,
    /// Completion event per [`ValueId`] (0.0 = ready at start of time,
    /// e.g. pre-uploaded weights).  Indexed by value id; grown on demand.
    value_ready: Vec<f64>,
    /// Serial sum of every charge, µs — what the legacy accumulator
    /// reported as total latency.
    serial_us: f64,
    /// Busy time per compute stream, µs.
    stream_busy: Vec<f64>,
    /// Busy time of the copy engine, µs.
    copy_busy: f64,
    /// Busy time of the host lane, µs.
    host_busy: f64,
    /// Launch log, kept only when tracing.
    trace: Option<Vec<LaunchEvent>>,
}

impl DeviceTimeline {
    /// A fresh timeline at t = 0.
    pub fn new(opts: TimelineOptions) -> DeviceTimeline {
        let n = opts.effective_streams();
        DeviceTimeline {
            opts,
            host_us: 0.0,
            streams: vec![0.0; n],
            copy_us: 0.0,
            value_ready: Vec::new(),
            serial_us: 0.0,
            stream_busy: vec![0.0; n],
            copy_busy: 0.0,
            host_busy: 0.0,
            trace: None,
        }
    }

    /// As [`DeviceTimeline::new`], recording every launch for inspection.
    pub fn with_trace(opts: TimelineOptions) -> DeviceTimeline {
        let mut t = DeviceTimeline::new(opts);
        t.trace = Some(Vec::new());
        t
    }

    /// The active configuration.
    pub fn options(&self) -> &TimelineOptions {
        &self.opts
    }

    /// Rewinds to t = 0 (context reuse), keeping the configuration.
    pub fn reset(&mut self) {
        let n = self.opts.effective_streams();
        self.host_us = 0.0;
        self.streams.clear();
        self.streams.resize(n, 0.0);
        self.copy_us = 0.0;
        self.value_ready.clear();
        self.serial_us = 0.0;
        self.stream_busy.clear();
        self.stream_busy.resize(n, 0.0);
        self.copy_busy = 0.0;
        self.host_busy = 0.0;
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }

    /// Charges host-lane work (DFG node construction, scheduling, fiber
    /// switches, retry backoff, API call overheads).
    pub fn host(&mut self, us: f64) {
        self.host_us += us;
        self.host_busy += us;
        self.serial_us += us;
    }

    fn value_ready_at(&self, v: ValueId) -> f64 {
        self.value_ready.get(v.0 as usize).copied().unwrap_or(0.0)
    }

    fn set_value_ready(&mut self, v: ValueId, at: f64) {
        let i = v.0 as usize;
        if i >= self.value_ready.len() {
            self.value_ready.resize(i + 1, 0.0);
        }
        self.value_ready[i] = at;
    }

    /// Latest completion event among `args` (0.0 when all are pre-flush
    /// ready values).
    pub fn args_ready_us(&self, args: impl IntoIterator<Item = ValueId>) -> f64 {
        args.into_iter().map(|v| self.value_ready_at(v)).fold(0.0, f64::max)
    }

    /// A host→device transfer producing `outputs`: `api_us` of host-side
    /// driver work plus `transfer_us` occupying the copy engine (or stream
    /// 0 without one).
    pub fn upload(&mut self, api_us: f64, transfer_us: f64, outputs: &[ValueId]) {
        self.host(api_us);
        let end = self.run_copy_op(transfer_us, 0.0);
        if !self.opts.host_overlap {
            self.host_us = end;
        }
        for &v in outputs {
            self.set_value_ready(v, end);
        }
    }

    /// A device→host transfer of `value`.  Downloads always block the host
    /// lane until the bytes arrive.
    pub fn download(&mut self, api_us: f64, transfer_us: f64, value: Option<ValueId>) {
        self.host(api_us);
        let dep = value.map(|v| self.value_ready_at(v)).unwrap_or(0.0);
        let end = self.run_copy_op(transfer_us, dep);
        self.host_us = self.host_us.max(end);
    }

    /// Runs a `dur`-µs op on the copy lane (or stream 0 without a copy
    /// engine), starting no earlier than the host cursor and `dep`.
    fn run_copy_op(&mut self, dur: f64, dep: f64) -> f64 {
        self.serial_us += dur;
        if self.opts.copy_engine {
            let start = self.copy_us.max(self.host_us).max(dep);
            let end = start + dur;
            self.copy_us = end;
            self.copy_busy += dur;
            end
        } else {
            let start = self.streams[0].max(self.host_us).max(dep);
            let end = start + dur;
            self.streams[0] = end;
            self.stream_busy[0] += dur;
            end
        }
    }

    /// A batched kernel launch: `api_us` of host issue work, then
    /// `gather_us` of copy-engine staging (0.0 under gather fusion) and
    /// `kernel_us` of compute, starting only after `deps_ready_us` — the
    /// latest producer completion event among the batch's arguments.
    /// Completion events are recorded for `outputs`.
    ///
    /// Returns the compute stream the launch was placed on.
    pub fn launch(
        &mut self,
        deps_ready_us: f64,
        gather_us: f64,
        kernel_us: f64,
        api_us: f64,
        outputs: impl IntoIterator<Item = ValueId>,
    ) -> u32 {
        self.host(api_us);
        let issued = self.host_us;
        // Explicit gather staging precedes the kernel; on the copy engine
        // it overlaps other streams' compute but orders before this launch.
        let mut dep = deps_ready_us;
        if gather_us > 0.0 && self.opts.copy_engine {
            dep = self.run_copy_op(gather_us, dep);
        }
        // Least-loaded stream, lowest index on ties (deterministic).
        let mut s = 0usize;
        for (i, &tail) in self.streams.iter().enumerate().skip(1) {
            if tail < self.streams[s] {
                s = i;
            }
        }
        let mut dur = kernel_us;
        if gather_us > 0.0 && !self.opts.copy_engine {
            // No copy engine: the gather is a device-side copy queued on
            // the same stream right before the kernel.
            dur += gather_us;
        }
        let start = self.streams[s].max(issued).max(dep);
        let end = start + dur;
        self.streams[s] = end;
        self.stream_busy[s] += dur;
        // Charge `dur` (not gather and kernel separately) so the serialized
        // configuration performs the *same* f64 addition sequence as the
        // host cursor — the bitwise-equality guarantee depends on it.
        self.serial_us += dur;
        if !self.opts.host_overlap {
            self.host_us = end;
        }
        let at = end;
        for v in outputs {
            self.set_value_ready(v, at);
        }
        if let Some(t) = &mut self.trace {
            t.push(LaunchEvent {
                stream: s as u32,
                start_us: start,
                end_us: end,
                deps_ready_us: dep,
                issued_us: issued,
            });
        }
        s as u32
    }

    /// The critical path: time the last lane drains, µs.
    pub fn makespan_us(&self) -> f64 {
        let device = self.streams.iter().fold(self.copy_us, |a, &b| a.max(b));
        self.host_us.max(device)
    }

    /// Serial sum of all charges, µs — what a scalar accumulator reports.
    pub fn serial_us(&self) -> f64 {
        self.serial_us
    }

    /// Modeled time saved by overlap: `serial − makespan`, µs.  Exactly
    /// `0.0` in the serialized configuration; never negative (every event
    /// advances the makespan by at most its serial charge).
    pub fn overlap_saved_us(&self) -> f64 {
        self.serial_us - self.makespan_us()
    }

    /// Busy time per compute stream, µs.
    pub fn stream_busy_us(&self) -> &[f64] {
        &self.stream_busy
    }

    /// Busy time of the copy engine, µs.
    pub fn copy_busy_us(&self) -> f64 {
        self.copy_busy
    }

    /// Busy time of the host lane, µs.
    pub fn host_busy_us(&self) -> f64 {
        self.host_busy
    }

    /// Recorded launches (empty unless built with
    /// [`DeviceTimeline::with_trace`]).
    pub fn trace(&self) -> &[LaunchEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u64) -> ValueId {
        ValueId(i)
    }

    #[test]
    fn serialized_timeline_is_bitwise_serial() {
        let mut t = DeviceTimeline::new(TimelineOptions::default());
        t.host(0.45);
        t.upload(10.0, 93.7, &[v(0)]);
        t.launch(t.args_ready_us([v(0)]), 0.0, 17.3, 8.0, [v(1)]);
        t.launch(t.args_ready_us([v(1)]), 4.2, 9.9, 8.0, [v(2)]);
        t.download(10.0, 12.5, Some(v(2)));
        assert_eq!(t.makespan_us(), t.serial_us(), "single lane: bitwise equal");
        assert_eq!(t.overlap_saved_us(), 0.0);
    }

    #[test]
    fn copy_engine_overlaps_independent_compute() {
        let opts = TimelineOptions { streams: 1, copy_engine: true, host_overlap: true };
        let mut t = DeviceTimeline::new(opts);
        t.upload(0.0, 100.0, &[v(0)]);
        // A kernel with no dependence on the upload runs concurrently.
        t.launch(0.0, 0.0, 100.0, 0.0, [v(1)]);
        assert!(t.makespan_us() < t.serial_us());
        assert!(t.overlap_saved_us() > 99.0);
    }

    #[test]
    fn dependent_launch_waits_for_producer_event() {
        let opts = TimelineOptions { streams: 4, copy_engine: true, host_overlap: true };
        let mut t = DeviceTimeline::with_trace(opts);
        t.launch(0.0, 0.0, 50.0, 1.0, [v(0)]);
        t.launch(t.args_ready_us([v(0)]), 0.0, 10.0, 1.0, [v(1)]);
        let e = t.trace()[1];
        assert!(e.start_us >= t.trace()[0].end_us, "consumer starts after producer event");
        assert!(e.start_us >= e.deps_ready_us && e.start_us >= e.issued_us);
    }

    #[test]
    fn independent_launches_spread_across_streams() {
        let opts = TimelineOptions { streams: 2, copy_engine: false, host_overlap: true };
        let mut t = DeviceTimeline::with_trace(opts);
        t.launch(0.0, 0.0, 40.0, 0.0, [v(0)]);
        t.launch(0.0, 0.0, 40.0, 0.0, [v(1)]);
        let (a, b) = (t.trace()[0], t.trace()[1]);
        assert_ne!(a.stream, b.stream);
        assert!((t.makespan_us() - 40.0).abs() < 1e-9, "perfect 2-way overlap");
        assert_eq!(t.stream_busy_us(), &[40.0, 40.0]);
    }

    #[test]
    fn makespan_bounds_busy_times() {
        let opts = TimelineOptions { streams: 3, copy_engine: true, host_overlap: true };
        let mut t = DeviceTimeline::new(opts);
        for i in 0..20u64 {
            t.upload(1.0, 3.0, &[v(i * 2)]);
            t.launch(t.args_ready_us([v(i * 2)]), 0.5, 7.0, 2.0, [v(i * 2 + 1)]);
        }
        let m = t.makespan_us();
        for &b in t.stream_busy_us() {
            assert!(m >= b);
        }
        assert!(m >= t.copy_busy_us() && m >= t.host_busy_us());
        assert!(t.overlap_saved_us() >= 0.0);
        assert!(m <= t.serial_us());
    }

    #[test]
    fn reset_rewinds_everything() {
        let mut t = DeviceTimeline::with_trace(TimelineOptions {
            streams: 2,
            copy_engine: true,
            host_overlap: true,
        });
        t.upload(1.0, 5.0, &[v(0)]);
        t.launch(0.0, 0.0, 5.0, 1.0, [v(1)]);
        t.reset();
        assert_eq!(t.makespan_us(), 0.0);
        assert_eq!(t.serial_us(), 0.0);
        assert!(t.trace().is_empty());
        assert_eq!(t.args_ready_us([v(0), v(1)]), 0.0);
    }
}
