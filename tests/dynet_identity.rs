//! DyNet-sim computes and charges exactly what it did at the recorded
//! commit.
//!
//! For every model of the quick suite, at batch 8 and 64, seed 7, under the
//! stock configuration (`DynetConfig::default()`) and under DN++
//! (`Improvements::all()`), one mini-batch is folded into one digest: every
//! output tensor's bits, then `kernel_launches`, `flops`, `gather_copies`,
//! `gather_bytes`, `contiguous_hits` and `device_peak_elements`, then the
//! seven modeled accounts of `RuntimeStats`.  A run that fails folds its
//! error message instead.  Same gathers in the same order, same bump
//! allocations and same per-lane kernels reproduce every digest; anything
//! else moves one.
//!
//! `PARENT` was generated by this file on the last tree whose DyNet-sim
//! launched through its own batched-primitive executor, and committed
//! before the launch moved onto the kernel-program executor.  To regenerate
//! after a change that is *meant* to move a paper number, run the test and
//! copy the table it prints.

use acrobat_baselines::dynet::{DynetConfig, Improvements};
use acrobat_bench::suite;
use acrobat_models::{ModelSize, ModelSpec};

const SEED: u64 = 7;
const BATCHES: [usize; 2] = [8, 64];

const PARENT: &str = "\
TreeLSTM/8/stock 74c6834051d350f9
TreeLSTM/8/dn++ 53d2ce56c9ded6cb
TreeLSTM/64/stock d9e6b89ef501d056
TreeLSTM/64/dn++ 57f0668a6638a431
MV-RNN/8/stock 4917f7d0378007cd
MV-RNN/8/dn++ 269c69a1d19ca108
MV-RNN/64/stock db4e1fc34804a45c
MV-RNN/64/dn++ b2612a2e0cad0245
BiRNN/8/stock 39b868abda3d1443
BiRNN/8/dn++ 39b868abda3d1443
BiRNN/64/stock 8293c7a4b3a35e73
BiRNN/64/dn++ 8293c7a4b3a35e73
NestedRNN/8/stock f79cdc5996f13070
NestedRNN/8/dn++ 92b4ec896ec1fbb7
NestedRNN/64/stock fc687da58d2a7bfd
NestedRNN/64/dn++ 17ba12fa075b662c
DRNN/8/stock f6f0d108105e9d77
DRNN/8/dn++ a4b1efdcb8185f70
DRNN/64/stock c633bb2b0fa7f0ce
DRNN/64/dn++ cc0f2cd62252e717
Berxit/8/stock 51c172e77bf8c5d0
Berxit/8/dn++ f4cf3cf14094bbf4
Berxit/64/stock c0fe168c1b6461a8
Berxit/64/dn++ b3bb01754c45a977
StackRNN/8/stock ce6389522eda3dc2
StackRNN/8/dn++ ce6389522eda3dc2
StackRNN/64/stock a5c8717a9eb516a1
StackRNN/64/dn++ a5c8717a9eb516a1
";

fn fold(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h = (*h ^ byte as u64).wrapping_mul(0x100000001b3);
    }
}

fn digest(spec: &ModelSpec, batch: usize, cfg: &DynetConfig) -> u64 {
    let run = spec.dynet_run.as_ref().expect("every quick-suite model has a DyNet implementation");
    let instances = (spec.make_instances)(SEED, batch);
    let mut h = 0xcbf29ce484222325u64;
    match run(cfg, &instances, SEED) {
        Ok((outputs, s)) => {
            for tensor in outputs.iter().flatten() {
                tensor.data().iter().for_each(|x| fold(&mut h, x.to_bits() as u64));
            }
            let counts = [
                s.kernel_launches,
                s.flops,
                s.gather_copies,
                s.gather_bytes,
                s.contiguous_hits,
                s.device_peak_elements,
            ];
            counts.into_iter().for_each(|c| fold(&mut h, c));
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
        Err(e) => e.to_string().bytes().for_each(|b| fold(&mut h, b as u64)),
    }
    h
}

#[test]
fn dynet_sim_reproduces_the_parent_commit() {
    let configs = [
        ("stock", DynetConfig::default()),
        ("dn++", DynetConfig { improvements: Improvements::all(), ..Default::default() }),
    ];
    let mut table = String::new();
    for spec in suite(ModelSize::Small, true) {
        for batch in BATCHES {
            for (label, cfg) in &configs {
                table +=
                    &format!("{}/{batch}/{label} {:016x}\n", spec.name, digest(&spec, batch, cfg));
            }
        }
    }
    assert_eq!(table, PARENT, "digests moved; this run's table:\n{table}");
}
