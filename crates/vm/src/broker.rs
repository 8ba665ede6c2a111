//! Cross-request continuous batching.
//!
//! ACROBAT's auto-batching stops at the request boundary: each
//! [`ExecutionContext`](acrobat_runtime::ExecutionContext) batches only
//! within its own DFG, so two concurrent requests evaluating the same model
//! never share a kernel launch.  The [`BatchBroker`] lifts that limit: it
//! sits between [`Executable::run_with`] and the pooled contexts and admits
//! one dispatch per core.  A request that finds a core free runs at once;
//! one that finds every core busy queues, and the next request thread to
//! take a freed core drains every compatible queued peer and executes the
//! whole *cohort* as one merged mini-batch — one DFG whose lanes span
//! requests, one flush plan per sync window, one batched launch per kernel
//! group — then demuxes per-request outputs and statistics back to each
//! waiter.
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

use acrobat_runtime::cores;
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
/// There is no dedicated broker thread, and at most [`cores`] dispatches
/// run at once.  A submitter that finds a slot free becomes a dispatcher
/// at once: it drains every queued request sharing its parameter map (by
/// address — concurrently queued maps are all alive and borrowed, so equal
/// addresses mean the very same map), executes its own request and theirs
/// as one cohort via [`Executable::run_members`], publishes peer results
/// and wakes the waiters.  Only a submitter that finds every slot busy
/// copies its request into the queue, to merge into the next cohort — so
/// requests share launches exactly when the cores are saturated, and on a
/// one-core host every request arriving mid-dispatch waits for the next
/// epoch (classic continuous batching, the flush epoch as the merge grain).
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
    /// Dispatches running now; [`BrokerState::admit`] keeps it at most the
    /// slot count.
    in_flight: usize,
}

/// A request that found every slot busy: an owned copy a peer's dispatch
/// can run while its submitter sleeps.
struct Pending {
    id: u64,
    params_addr: usize,
    instances: Vec<Vec<InputValue>>,
    opts: RunOptions,
}

/// What a submitter does next, decided under the state lock.
enum Turn {
    /// A slot is taken: run the submitter's own request together with
    /// these drained peers.
    Dispatch(Vec<Pending>),
    /// Every slot is busy: copy the request into the queue and sleep.
    Enqueue,
    /// Queued, or drained by a peer whose result is on its way: sleep.
    Wait,
    /// A peer's dispatch published the result.
    Done(Box<Result<RunResult, VmError>>),
}

impl BrokerState {
    /// The admission rule.  `me` is the submitter's queue id once it has
    /// one (`None` before it ever queued), `params_addr` its parameter map.
    fn admit(&mut self, slots: usize, me: Option<u64>, params_addr: usize) -> Turn {
        if let Some(id) = me {
            if let Some(result) = self.results.remove(&id) {
                return Turn::Done(Box::new(result));
            }
            if !self.queue.iter().any(|p| p.id == id) {
                return Turn::Wait;
            }
        }
        if self.in_flight >= slots {
            return if me.is_some() { Turn::Wait } else { Turn::Enqueue };
        }
        self.in_flight += 1;
        let (mut peers, rest): (Vec<Pending>, Vec<Pending>) =
            std::mem::take(&mut self.queue).into_iter().partition(|p| p.params_addr == params_addr);
        self.queue = rest;
        // The dispatcher runs its own request from its caller's borrow.
        peers.retain(|p| Some(p.id) != me);
        Turn::Dispatch(peers)
    }

    fn enqueue(
        &mut self,
        params_addr: usize,
        instances: &[Vec<InputValue>],
        opts: &RunOptions,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push(Pending {
            id,
            params_addr,
            instances: instances.to_vec(),
            opts: opts.clone(),
        });
        id
    }
}

/// One admitted dispatch's slot and the peers it drained.  Dropping it
/// gives the slot back and wakes the waiters, whether the dispatch
/// returned or unwound: peers it `delivered` get their results, peers it
/// never delivered go back to the queue for the next dispatcher.
struct Slot<'b> {
    broker: &'b BatchBroker,
    peers: Vec<Pending>,
    delivered: Option<Vec<Result<RunResult, VmError>>>,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut st = self.broker.state.lock();
        st.in_flight -= 1;
        let peers = std::mem::take(&mut self.peers);
        match self.delivered.take() {
            Some(results) => {
                for (p, r) in peers.iter().zip(results) {
                    st.results.insert(p.id, r);
                }
            }
            None => st.queue.extend(peers),
        }
        drop(st);
        self.broker.wake.notify_all();
    }
}

impl BatchBroker {
    pub(crate) fn stats(&self) -> BrokerStats {
        self.stats.lock().clone()
    }

    /// Runs one request, merged with every queued peer sharing its
    /// parameter map, as soon as one of the [`cores`] slots is free, and
    /// blocks until its result is available — computed by this thread as
    /// a dispatcher or published by a peer's dispatch.
    pub(crate) fn submit(
        &self,
        exe: &Executable,
        params: &BTreeMap<String, Tensor>,
        instances: &[Vec<InputValue>],
        opts: &RunOptions,
    ) -> Result<RunResult, VmError> {
        let params_addr = params as *const BTreeMap<String, Tensor> as usize;
        let mut me = None;
        let mut st = self.state.lock();
        let peers = loop {
            match st.admit(cores(), me, params_addr) {
                Turn::Dispatch(peers) => break peers,
                Turn::Done(result) => return *result,
                Turn::Enqueue => me = Some(st.enqueue(params_addr, instances, opts)),
                Turn::Wait => {}
            }
            self.wake.wait(&mut st);
        };
        drop(st);

        let mut slot = Slot { broker: self, peers, delivered: None };
        let own = Member { params, instances, opts };
        let members: Vec<Member<'_>> = std::iter::once(own)
            .chain(slot.peers.iter().map(|p| Member {
                params,
                instances: &p.instances,
                opts: &p.opts,
            }))
            .collect();
        let mut results = exe.run_members(&members);
        {
            let mut bs = self.stats.lock();
            bs.dispatches += 1;
            if members.len() >= 2 {
                bs.merged_requests += members.len() as u64;
            }
            *bs.cohort_sizes.entry(members.len()).or_default() += 1;
        }
        let own = results.remove(0);
        slot.delivered = Some(results);
        own
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARAMS: usize = 0x1000;
    const OTHER_PARAMS: usize = 0x2000;

    fn queued_ids(st: &BrokerState) -> Vec<u64> {
        st.queue.iter().map(|p| p.id).collect()
    }

    fn peer_ids(turn: Turn) -> Vec<u64> {
        match turn {
            Turn::Dispatch(peers) => peers.iter().map(|p| p.id).collect(),
            _ => panic!("expected a dispatch"),
        }
    }

    #[test]
    fn free_slot_admits_at_once() {
        let mut st = BrokerState { in_flight: 1, ..Default::default() };
        assert!(
            peer_ids(st.admit(2, None, PARAMS)).is_empty(),
            "a free slot runs the request alone"
        );
        assert_eq!(st.in_flight, 2);
        assert!(st.queue.is_empty(), "an admitted request is never copied into the queue");
        assert!(matches!(st.admit(2, None, PARAMS), Turn::Enqueue), "every slot busy");
    }

    #[test]
    fn one_slot_queues_and_merges() {
        let mut st = BrokerState { in_flight: 1, ..Default::default() };
        let mut ids = Vec::new();
        for _ in 0..3 {
            assert!(matches!(st.admit(1, None, PARAMS), Turn::Enqueue));
            ids.push(st.enqueue(PARAMS, &[], &RunOptions::default()));
        }
        assert!(matches!(st.admit(1, Some(ids[1]), PARAMS), Turn::Wait), "slot still busy");
        st.in_flight = 0;
        assert_eq!(peer_ids(st.admit(1, Some(ids[1]), PARAMS)), [ids[0], ids[2]]);
        assert_eq!(st.in_flight, 1);
        assert!(st.queue.is_empty(), "the dispatcher drained the whole compatible queue");
    }

    #[test]
    fn drained_entry_waits_for_its_published_result() {
        let broker = BatchBroker::default();
        let (a, b) = {
            let mut st = broker.state.lock();
            (
                st.enqueue(PARAMS, &[], &RunOptions::default()),
                st.enqueue(PARAMS, &[], &RunOptions::default()),
            )
        };
        let Turn::Dispatch(peers) = broker.state.lock().admit(2, Some(a), PARAMS) else {
            panic!("a free slot admits a")
        };
        let mut slot = Slot { broker: &broker, peers, delivered: None };
        assert_eq!(slot.peers.iter().map(|p| p.id).collect::<Vec<_>>(), [b]);
        assert!(
            matches!(broker.state.lock().admit(2, Some(b), PARAMS), Turn::Wait),
            "b is a's peer, even with a slot free"
        );
        slot.delivered = Some(vec![Err(VmError::Cancelled)]);
        drop(slot);
        let mut st = broker.state.lock();
        assert_eq!(st.in_flight, 0, "the slot came back");
        let turn = st.admit(2, Some(b), PARAMS);
        assert!(matches!(turn, Turn::Done(r) if matches!(*r, Err(VmError::Cancelled))));
        assert!(st.results.is_empty() && st.queue.is_empty());
        assert_eq!(st.in_flight, 0, "a delivered peer takes no slot");
    }

    #[test]
    fn other_parameter_maps_stay_queued() {
        let mut st = BrokerState { in_flight: 1, ..Default::default() };
        let a = st.enqueue(PARAMS, &[], &RunOptions::default());
        let other = st.enqueue(OTHER_PARAMS, &[], &RunOptions::default());
        let b = st.enqueue(PARAMS, &[], &RunOptions::default());
        st.in_flight = 0;
        assert_eq!(
            peer_ids(st.admit(1, None, PARAMS)),
            [a, b],
            "a fresh submitter drains its own map"
        );
        assert_eq!(queued_ids(&st), [other]);
        assert!(matches!(st.admit(1, Some(other), OTHER_PARAMS), Turn::Wait));
    }

    #[test]
    fn unwinding_dispatch_frees_its_slot_and_requeues_peers() {
        let broker = BatchBroker::default();
        let peer = broker.state.lock().enqueue(PARAMS, &[], &RunOptions::default());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let turn = broker.state.lock().admit(1, None, PARAMS);
            let Turn::Dispatch(peers) = turn else { panic!("expected a dispatch") };
            let _slot = Slot { broker: &broker, peers, delivered: None };
            panic!("dispatch unwinds");
        }));
        assert!(unwound.is_err());
        let mut st = broker.state.lock();
        assert_eq!(st.in_flight, 0, "the slot came back");
        assert_eq!(queued_ids(&st), [peer], "the undelivered peer is queued again");
        assert!(peer_ids(st.admit(1, Some(peer), PARAMS)).is_empty(), "and dispatches itself");
    }
}
