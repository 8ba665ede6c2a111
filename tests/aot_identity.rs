//! The AOT executor hands the DFG the node sequence its predecessor did.
//!
//! For every model of the quick suite, at batch 8 and 64, seed 7, plan
//! cache on, two consecutive requests on one `Model` (the second runs on
//! the pooled, reset execution context and is served from the plan cache)
//! are folded into one digest: every output tensor's bits, then `nodes`,
//! `kernel_launches`, `flushes`, `fiber_switches`, `plan_sig_chain` and the
//! seven modeled accounts of `RuntimeStats`.  `plan_sig_chain` folds each
//! flushed window's kernels, depths, phases, shared-operand signatures and
//! argument topology, so an executor that emits a different node — or the
//! same nodes in another order, lane or depth — cannot reproduce it.
//!
//! `PARENT` was generated by this file at commit 7521cc2, the last tree
//! whose AOT backend was the recursive `Code`-tree walker, and committed
//! before the executor was replaced.  The Relay-VM baseline is no oracle
//! here: it builds a different DFG (TreeLSTM/8: 47 launches against 49,
//! sequential `parallel` depth semantics).  To regenerate after a change
//! that is *meant* to move a paper number, run the test and copy the table
//! it prints.

use acrobat_bench::suite;
use acrobat_core::CompileOptions;
use acrobat_models::testkit::build;
use acrobat_models::{ModelSize, ModelSpec};

const SEED: u64 = 7;
const BATCHES: [usize; 2] = [8, 64];

const PARENT: &str = "\
TreeLSTM/8 70b1adfd79ab91a2
TreeLSTM/64 44a874d02f715290
MV-RNN/8 22dfa7b3abfb0f0c
MV-RNN/64 a3f3d6668136cb52
BiRNN/8 f35c60e52e0c0996
BiRNN/64 942408728cde1dea
NestedRNN/8 664fa40ec2b840e2
NestedRNN/64 5c95aae9deb077b9
DRNN/8 c45cf51e6b91d985
DRNN/64 ad01e50b1f6091d5
Berxit/8 d856c71b8a04a811
Berxit/64 d1f74f9756ef365f
StackRNN/8 fa2da5042a1d1962
StackRNN/64 64ea70e75514f871
";

fn fold(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h = (*h ^ byte as u64).wrapping_mul(0x100000001b3);
    }
}

fn digest(spec: &ModelSpec, batch: usize) -> u64 {
    let model = build(spec, &CompileOptions::default().with_plan_cache(true));
    let instances = (spec.make_instances)(SEED, batch);
    let mut h = 0xcbf29ce484222325u64;
    for _ in 0..2 {
        let run = model.run(&spec.params, &instances).expect("request");
        for output in &run.outputs {
            for tensor in (spec.flatten_output)(output) {
                tensor.data().iter().for_each(|x| fold(&mut h, x.to_bits() as u64));
            }
        }
        let s = run.stats;
        for count in [s.nodes, s.kernel_launches, s.flushes, s.fiber_switches, s.plan_sig_chain] {
            fold(&mut h, count);
        }
        let accounts = [
            s.dfg_construction_us,
            s.scheduling_us,
            s.memcpy_us,
            s.kernel_time_us,
            s.cuda_api_us,
            s.fiber_us,
            s.retry_backoff_us,
        ];
        accounts.iter().for_each(|us| fold(&mut h, us.to_bits()));
    }
    h
}

#[test]
fn aot_executor_reproduces_the_parent_commit() {
    let mut table = String::new();
    for spec in suite(ModelSize::Small, true) {
        for batch in BATCHES {
            table += &format!("{}/{batch} {:016x}\n", spec.name, digest(&spec, batch));
        }
    }
    assert_eq!(table, PARENT, "digests moved; this run's table:\n{table}");
}
