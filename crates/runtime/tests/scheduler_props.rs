//! Property tests: both dynamic-batching schedulers produce complete,
//! dependence-respecting plans on arbitrary DAGs, and batches never mix
//! kernels or shared-operand signatures.

use acrobat_codegen::KernelId;
use acrobat_runtime::{scheduler, Dfg, SchedulerKind};
use acrobat_tensor::{DeviceMem, Tensor};
use proptest::prelude::*;

/// Builds a random DAG: `n` nodes; node i depends on a random subset of
/// earlier nodes (creation order is a topological order, as in the real
/// runtime — observation O.1).
fn random_dfg(n: usize, kernels: u32, edges: &[usize], sigs: &[u64]) -> Dfg {
    let mut mem = DeviceMem::new(1 << 16);
    let mut dfg = Dfg::new();
    let mut outputs = Vec::new();
    let mut depths: Vec<u64> = Vec::new();
    for i in 0..n {
        let mut args = Vec::new();
        let mut dep_depth = 0u64;
        if i > 0 {
            // Up to two dependencies on earlier nodes.
            for k in 0..2 {
                let pick = edges[(i * 2 + k) % edges.len()] % (i + 1);
                if pick < i {
                    args.push(outputs[pick]);
                    dep_depth = dep_depth.max(depths[pick] + 1);
                } else {
                    args.push(dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap()));
                }
            }
        } else {
            args.push(dfg.ready_value(mem.upload(&Tensor::ones(&[2])).unwrap()));
        }
        let kernel = KernelId((i as u32 * 7 + 3) % kernels);
        let sig = sigs[i % sigs.len()] % 3;
        // Inline depths must respect dependences — the AOT-generated code
        // guarantees this (observation O.1); mimic it here.
        let depth = dep_depth.max((i / 3) as u64);
        let (_, outs) = dfg.add_node(kernel, i % 4, depth, 0, sig, args, 1);
        depths.push(depth);
        outputs.push(outs[0]);
    }
    dfg
}

fn check_plan(dfg: &Dfg, kind: SchedulerKind) {
    let plan = scheduler::plan(kind, dfg);
    let mut done = std::collections::BTreeSet::new();
    let mut scheduled = 0usize;
    for batch in plan.batches() {
        assert!(!batch.is_empty());
        let first = dfg.node(batch[0]);
        for &id in batch {
            let n = dfg.node(id);
            // Batches are homogeneous in kernel and shared signature.
            assert_eq!(n.kernel, first.kernel, "{kind:?}: mixed kernels in a batch");
            assert_eq!(n.shared_sig, first.shared_sig, "{kind:?}: mixed shared operands");
            // Dependences already executed.
            for a in dfg.args(id) {
                if let Some(p) = dfg.producer(*a) {
                    assert!(done.contains(&p), "{kind:?}: dependence violated");
                }
            }
        }
        for &id in batch {
            assert!(done.insert(id), "{kind:?}: node scheduled twice");
            scheduled += 1;
        }
    }
    assert_eq!(scheduled, dfg.pending().len(), "{kind:?}: nodes dropped");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedulers_are_sound_on_random_dags(
        n in 1usize..60,
        kernels in 1u32..6,
        edges in proptest::collection::vec(0usize..64, 8..128),
        sigs in proptest::collection::vec(0u64..8, 1..8),
    ) {
        let dfg = random_dfg(n, kernels, &edges, &sigs);
        for kind in SchedulerKind::ALL {
            check_plan(&dfg, kind);
        }
    }

    #[test]
    fn optimized_schedulers_match_reference(
        n in 1usize..60,
        kernels in 1u32..6,
        edges in proptest::collection::vec(0usize..64, 8..128),
        sigs in proptest::collection::vec(0u64..8, 1..8),
    ) {
        // The optimized (sort-based / incremental) schedulers must produce
        // the exact batch sequence of the straight transcriptions of the
        // original algorithms, and charge identical decision counts.
        let dfg = random_dfg(n, kernels, &edges, &sigs);
        for kind in SchedulerKind::ALL {
            let opt = scheduler::plan(kind, &dfg);
            let refp = scheduler::reference::plan(kind, &dfg);
            prop_assert_eq!(opt.to_batches(), refp.to_batches(), "{:?}: partitions differ", kind);
            prop_assert_eq!(opt.decisions, refp.decisions, "{:?}: decisions differ", kind);
        }
    }

    #[test]
    fn inline_depth_is_cheapest(
        n in 4usize..60,
        edges in proptest::collection::vec(0usize..64, 8..128),
    ) {
        let dfg = random_dfg(n, 3, &edges, &[0]);
        let inline = scheduler::plan(SchedulerKind::InlineDepth, &dfg).decisions;
        let agenda = scheduler::plan(SchedulerKind::Agenda, &dfg).decisions;
        prop_assert!(inline <= agenda, "inline {inline} vs agenda {agenda}");
    }
}
