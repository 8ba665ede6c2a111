//! Cross-request continuous batching.
//!
//! ACROBAT's auto-batching stops at the request boundary: each
//! [`ExecutionContext`](acrobat_runtime::ExecutionContext) batches only
//! within its own DFG, so two concurrent requests evaluating the same model
//! never share a kernel launch.  The [`BatchBroker`] lifts that limit: it
//! sits between [`Executable::run_with`] and the pooled contexts, queues
//! concurrent requests, and lets the first idle request thread drain every
//! compatible queued peer and execute the whole *cohort* as one merged
//! mini-batch — one DFG whose lanes span requests, one flush plan per sync
//! window, one batched launch per kernel group — then demux per-request
//! outputs and statistics back to each waiter.
//!
//! A cohort is nothing but a request group of several members
//! ([`Executable::run_group`] — the same lifecycle a solo run takes as a
//! group of one).  Correctness rests on two properties:
//!
//! * **Lane independence.**  Batched kernels compute each lane from that
//!   lane's operands only, so merging requests into one batch changes
//!   which *launches* execute, never the bits any lane produces.  A cohort
//!   member's outputs are therefore bit-for-bit identical to its solo run
//!   (instance RNG keys are member-relative for the same reason).
//! * **Coarse fault isolation.**  Any cohort-level failure — a member's
//!   injected fault, the strictest member deadline, a cancellation, a
//!   fiber stall — abandons the shared context to the existing quarantine
//!   path and re-runs *every* member solo.  The triggering member
//!   reproduces its genuine outcome; its peers complete with their exact
//!   solo results.  No partial cohort state is ever trusted.

use std::collections::{BTreeMap, HashMap};

use acrobat_tensor::Tensor;
use parking_lot::{Condvar, Mutex};

use crate::driver::{Executable, Member, RunOptions, RunResult};
use crate::session::VmError;
use crate::value::InputValue;

/// One member of a broker cohort: the same triple [`Executable::run_with`]
/// takes, borrowed for the duration of the cohort.
#[derive(Debug)]
pub struct CohortRequest<'a> {
    /// Model parameters.  Members whose parameters differ from member 0's
    /// cannot share uploads and fall back to solo runs.
    pub params: &'a BTreeMap<String, Tensor>,
    /// Per-instance inputs, exactly as for [`Executable::run`].
    pub instances: &'a [Vec<InputValue>],
    /// Per-member run options (keys are member-relative, as in a solo run).
    pub opts: RunOptions,
}

impl Executable {
    /// Runs several requests as one *cohort*: their instances merge into a
    /// single mini-batch on one shared context, so compatible DFG windows
    /// across requests flush as shared plans and shared batched launches.
    /// Each member receives exactly its own instances' outputs plus an
    /// apportioned share of the cohort statistics, and lands in the session
    /// ledger as one run — the ledger and aggregate balance exactly as if
    /// every member had run solo.
    ///
    /// Members that cannot merge run solo instead and still get a faithful
    /// result: a parameter map differing from member 0's, a second fault
    /// plan, an already-fired cancel token, or an empty instance list.  If
    /// the merged run fails for any reason (fault, deadline, cancellation,
    /// stall), the shared context is quarantined and *every* merged member
    /// re-runs solo: the trigger observes its genuine error, the peers'
    /// outputs are bit-for-bit what their solo runs produce.
    pub fn run_cohort(&self, requests: &[CohortRequest<'_>]) -> Vec<Result<RunResult, VmError>> {
        let members: Vec<Member<'_>> = requests
            .iter()
            .map(|r| Member { params: r.params, instances: r.instances, opts: &r.opts })
            .collect();
        self.run_members(&members)
    }

    /// [`Executable::run_cohort`] over borrowed members: decides who merges
    /// and who is peeled out to a group of one.  The lifecycle itself is
    /// [`Executable::run_group`]'s.
    pub(crate) fn run_members(&self, members: &[Member<'_>]) -> Vec<Result<RunResult, VmError>> {
        let Some(reference) = members.first().map(|m| m.params) else { return Vec::new() };
        // The cohort shares member 0's parameter map (one upload, shared
        // operand ValueIds — the precondition for cross-request windows to
        // batch); at most one fault plan can be armed on the shared
        // context; a pre-cancelled member would abort the whole cohort at
        // its first flush, so it is peeled out up front.
        let (mut merged, mut peeled) = (Vec::new(), Vec::new());
        let mut fault_seen = false;
        for (i, m) in members.iter().enumerate() {
            let pre_cancelled = m.opts.cancel.as_ref().is_some_and(|t| t.is_cancelled());
            let second_fault = fault_seen && m.opts.fault.is_some();
            let same_params = std::ptr::eq(m.params, reference) || m.params == reference;
            if m.instances.is_empty() || pre_cancelled || second_fault || !same_params {
                peeled.push(i);
            } else {
                fault_seen |= m.opts.fault.is_some();
                merged.push(i);
            }
        }

        let mut out: Vec<_> = members.iter().map(|_| None).collect();
        let cohort: Vec<Member<'_>> = merged.iter().map(|&i| members[i]).collect();
        for (i, result) in merged.into_iter().zip(self.run_group(&cohort, true)) {
            out[i] = Some(result);
        }
        for i in peeled {
            out[i] = self.run_group(&members[i..=i], false).pop();
        }
        out.into_iter().map(|r| r.expect("every cohort member resolved")).collect()
    }
}

/// Queue-level dispatch counters for one [`BatchBroker`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Cohort dispatches executed (each drains the whole compatible queue).
    pub dispatches: u64,
    /// Requests dispatched in a cohort of two or more (the requests that
    /// actually shared a context with a peer).
    pub merged_requests: u64,
    /// Cross-request batch-size histogram: cohort size → dispatches of that
    /// size.
    pub cohort_sizes: BTreeMap<usize, u64>,
}

/// The continuous-batching queue for one [`Executable`].
///
/// There is no dedicated broker thread: the first submitter to find the
/// queue idle becomes the dispatcher, drains every queued request sharing
/// its parameter map (by address — concurrently queued maps are all alive
/// and borrowed, so equal addresses mean the very same map), executes the
/// cohort via [`Executable::run_cohort`], publishes peer results and wakes
/// the waiters.  Requests arriving mid-dispatch queue up for the next
/// epoch — classic continuous batching, with the flush epoch as the merge
/// grain.
#[derive(Default)]
pub(crate) struct BatchBroker {
    state: Mutex<BrokerState>,
    wake: Condvar,
    stats: Mutex<BrokerStats>,
}

#[derive(Default)]
struct BrokerState {
    next_id: u64,
    queue: Vec<Pending>,
    results: HashMap<u64, Result<RunResult, VmError>>,
    dispatching: bool,
}

struct Pending {
    id: u64,
    params_addr: usize,
    instances: Vec<Vec<InputValue>>,
    opts: RunOptions,
}

impl BatchBroker {
    pub(crate) fn stats(&self) -> BrokerStats {
        self.stats.lock().clone()
    }

    /// Queues one request and blocks until its result is available —
    /// either computed by this thread (as the dispatcher of a cohort that
    /// includes it) or published by a peer's dispatch.
    pub(crate) fn submit(
        &self,
        exe: &Executable,
        params: &BTreeMap<String, Tensor>,
        instances: &[Vec<InputValue>],
        opts: &RunOptions,
    ) -> Result<RunResult, VmError> {
        let params_addr = params as *const BTreeMap<String, Tensor> as usize;
        let mut st = self.state.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.queue.push(Pending {
            id,
            params_addr,
            instances: instances.to_vec(),
            opts: opts.clone(),
        });
        loop {
            if let Some(result) = st.results.remove(&id) {
                return result;
            }
            // Dispatch only while our own entry is still queued: if a peer
            // drained it, the result is on its way — wait for it instead.
            let queued = st.queue.iter().any(|p| p.id == id);
            if !st.dispatching && queued {
                let (cohort, rest): (Vec<Pending>, Vec<Pending>) = std::mem::take(&mut st.queue)
                    .into_iter()
                    .partition(|p| p.params_addr == params_addr);
                st.queue = rest;
                st.dispatching = true;
                drop(st);

                {
                    let mut bs = self.stats.lock();
                    bs.dispatches += 1;
                    if cohort.len() >= 2 {
                        bs.merged_requests += cohort.len() as u64;
                    }
                    *bs.cohort_sizes.entry(cohort.len()).or_default() += 1;
                }
                let members: Vec<Member<'_>> = cohort
                    .iter()
                    .map(|p| Member { params, instances: &p.instances, opts: &p.opts })
                    .collect();
                let results = exe.run_members(&members);

                st = self.state.lock();
                let mut own = None;
                for (p, r) in cohort.iter().zip(results) {
                    if p.id == id {
                        own = Some(r);
                    } else {
                        st.results.insert(p.id, r);
                    }
                }
                st.dispatching = false;
                self.wake.notify_all();
                return own.expect("dispatcher drained its own entry");
            }
            self.wake.wait(&mut st);
        }
    }
}
