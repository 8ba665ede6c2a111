//! The AOT executor hands the DFG the node sequence its predecessor did.
//!
//! For every model of the quick suite, at batch 8 and 64, seed 7, plan
//! cache on, two consecutive requests on one `Model` (the second runs on
//! the pooled, reset execution context and is served from the plan cache)
//! are folded into two digests.  The *bits* column folds every output
//! tensor's bits.  The *structure* column folds `nodes`,
//! `kernel_launches`, `flushes`, `fiber_switches`, `plan_sig_chain` and the
//! seven modeled accounts of `RuntimeStats`.  `plan_sig_chain` folds each
//! flushed window's kernels, depths, phases, shared-operand signatures and
//! argument topology, so an executor that emits a different node — or the
//! same nodes in another order, lane or depth — cannot reproduce it.
//!
//! The structure column was generated at commit 7521cc2, the last tree
//! whose AOT backend was the recursive `Code`-tree walker, and committed
//! before the executor was replaced.  The Relay-VM baseline is no oracle
//! here: it builds a different DFG (TreeLSTM/8: 47 launches against 49,
//! sequential `parallel` depth semantics).  The columns are separate so a
//! change to the per-element arithmetic (a new `exp`, say) re-records the
//! bits column alone while the structure column keeps pinning the
//! executor.  To regenerate after a change that is *meant* to move one of
//! them, run the test and copy the column it prints.

use acrobat_bench::suite;
use acrobat_core::CompileOptions;
use acrobat_models::testkit::build;
use acrobat_models::{ModelSize, ModelSpec};

const SEED: u64 = 7;
const BATCHES: [usize; 2] = [8, 64];

/// `model/batch bits structure`.
const PARENT: &str = "\
TreeLSTM/8 26e62df00c8753f5 0e4c6574ade0022e
TreeLSTM/64 d721e1a35e242465 6910bf6f415050e0
MV-RNN/8 eb469f9cda5104fd 783621f63f097fbc
MV-RNN/64 ed6ced1529e56a25 e65ff02d92655c3e
BiRNN/8 1f0c5fc12298235d 32d86b667197479a
BiRNN/64 1c5e934dabc9999d 9824ac25f578785a
NestedRNN/8 f19a9f9a01beb2d9 d81e09c8d16be532
NestedRNN/64 4e5f6dd2e0629541 5277cc86041a1021
DRNN/8 666dc0bd6f673c3d eb56be0802062e8d
DRNN/64 7fb4af7c41a3f869 416bb725d8cead79
Berxit/8 9dd1d78f360ee435 41265953cabdc055
Berxit/64 da987146b33b5925 82b224580150171b
StackRNN/8 81fe9ea085488e25 8c2767f7482dd09a
StackRNN/64 9827785f26227121 14955bfc90b33e9d
";

fn fold(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h = (*h ^ byte as u64).wrapping_mul(0x100000001b3);
    }
}

/// `(bits, structure)` digests of two requests.
fn digest(spec: &ModelSpec, batch: usize) -> (u64, u64) {
    let model = build(spec, &CompileOptions::default().with_plan_cache(true));
    let instances = (spec.make_instances)(SEED, batch);
    let (mut bits, mut h) = (0xcbf29ce484222325u64, 0xcbf29ce484222325u64);
    for _ in 0..2 {
        let run = model.run(&spec.params, &instances).expect("request");
        for output in &run.outputs {
            for tensor in (spec.flatten_output)(output) {
                tensor.data().iter().for_each(|x| fold(&mut bits, x.to_bits() as u64));
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
    (bits, h)
}

#[test]
fn aot_executor_reproduces_the_parent_commit() {
    let mut table = String::new();
    for spec in suite(ModelSize::Small, true) {
        for batch in BATCHES {
            let (bits, structure) = digest(&spec, batch);
            table += &format!("{}/{batch} {bits:016x} {structure:016x}\n", spec.name);
        }
    }
    assert_eq!(table, PARENT, "digests moved; this run's table:\n{table}");
}
