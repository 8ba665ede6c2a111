//! Request cohorts: several requests batched as one mini-batch.
//!
//! ACROBAT's auto-batching stops at the request boundary: each
//! [`ExecutionContext`](acrobat_runtime::ExecutionContext) batches only
//! within its own DFG, so two requests evaluating the same model never
//! share a kernel launch.  [`Executable::run_cohort`] is the explicit way
//! across that boundary for a caller that already holds several requests:
//! it executes them as one *cohort* — one DFG whose lanes span requests,
//! one flush plan per sync window, one batched launch per kernel group —
//! then demuxes per-request outputs and statistics back to each member.
//! There is no background queue: concurrent `run` calls never merge.
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

use acrobat_tensor::Params;

use crate::driver::{Executable, Member, RunOptions, RunResult};
use crate::session::VmError;
use crate::value::InputValue;

/// One member of a cohort: the same triple [`Executable::run_with`]
/// takes, borrowed for the duration of the cohort.
#[derive(Debug)]
pub struct CohortRequest<'a> {
    /// Model parameters.  Members bound to another [`Params`] than member
    /// 0's (by identity, not contents) cannot share its resident weights
    /// and fall back to solo runs.
    pub params: &'a Params,
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
    /// result: another `Params` than member 0's, a second fault
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
    fn run_members(&self, members: &[Member<'_>]) -> Vec<Result<RunResult, VmError>> {
        let Some(reference) = members.first().map(|m| m.params) else { return Vec::new() };
        // The cohort shares member 0's `Params` (one resident copy, shared
        // operand ValueIds — the precondition for cross-request windows to
        // batch); at most one fault plan can be armed on the shared
        // context; a pre-cancelled member would abort the whole cohort at
        // its first flush, so it is peeled out up front.
        let (mut merged, mut peeled) = (Vec::new(), Vec::new());
        let mut fault_seen = false;
        for (i, m) in members.iter().enumerate() {
            let pre_cancelled = m.opts.cancel.as_ref().is_some_and(|t| t.is_cancelled());
            let second_fault = fault_seen && m.opts.fault.is_some();
            let same_params = m.params.id() == reference.id();
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

/// Request-queue counters, kept only because the frozen benchmark harness
/// (`benchmark/src/run.rs`) still reads them.  There is no queue, so
/// nothing writes them: `Model::broker_stats` is always `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Queue dispatches executed.
    pub dispatches: u64,
    /// Requests dispatched together with a peer.
    pub merged_requests: u64,
}
