//! DyNet-sim computes and charges exactly what it did at the recorded
//! commit.
//!
//! For every model of the quick suite, at batch 8 and 64, seed 7, under the
//! stock configuration (`DynetConfig::default()`) and under DN++
//! (`Improvements::all()`), one mini-batch is folded into two digests.  The
//! *bits* column folds every output tensor's bits.  The *structure* column
//! folds `kernel_launches`, `flops`, `gather_copies`, `gather_bytes`,
//! `contiguous_hits` and `device_peak_elements`, then the seven modeled
//! accounts of `RuntimeStats`.  A run that fails folds its error message
//! into both.  Same gathers in the same order, same bump allocations and
//! same per-lane kernels reproduce every digest; anything else moves one.
//!
//! The structure column was generated on the last tree whose DyNet-sim
//! launched through its own batched-primitive executor, and committed
//! before the launch moved onto the kernel-program executor.  The columns
//! are separate so a change to the per-element arithmetic re-records the
//! bits column alone.  To regenerate after a change that is *meant* to
//! move one of them, run the test and copy the column it prints.

use acrobat_baselines::dynet::{DynetConfig, Improvements};
use acrobat_bench::suite;
use acrobat_models::{ModelSize, ModelSpec};

const SEED: u64 = 7;
const BATCHES: [usize; 2] = [8, 64];

/// `model/batch/config bits structure`.
const PARENT: &str = "\
TreeLSTM/8/stock 50b2e99bd645af94 21602c45d8ee00e6
TreeLSTM/8/dn++ 50b2e99bd645af94 9706855d4e533408
TreeLSTM/64/stock bc8c1dab5ed0e411 4c2320ad71f94550
TreeLSTM/64/dn++ bc8c1dab5ed0e411 72fb0c89ff77ae1f
MV-RNN/8/stock ecf25eee7839847c 15884f0f9a5d29fe
MV-RNN/8/dn++ ecf25eee7839847c c790f6002fe5ea97
MV-RNN/64/stock 808d16580fdf08b5 d8c2ff9c549a2077
MV-RNN/64/dn++ 808d16580fdf08b5 48da7008ab9d844e
BiRNN/8/stock 06baba4ae6851087 32a9c747e44340e5
BiRNN/8/dn++ 06baba4ae6851087 32a9c747e44340e5
BiRNN/64/stock 89498d9e10078cb2 993e5d761aea756c
BiRNN/64/dn++ 89498d9e10078cb2 993e5d761aea756c
NestedRNN/8/stock 4dd6dc0266161b90 5d0bb32f9781140e
NestedRNN/8/dn++ 4dd6dc0266161b90 d0f0f55baa0d2215
NestedRNN/64/stock e26c05058465ca95 63489e8a2fb93bd8
NestedRNN/64/dn++ e26c05058465ca95 5fdd92a5359df95d
DRNN/8/stock 4506ff78e5a7b46d e8c644ea92031fca
DRNN/8/dn++ 4506ff78e5a7b46d 84a8189025d139b5
DRNN/64/stock e2bf48496705e0b6 1569abbc3c305579
DRNN/64/dn++ e2bf48496705e0b6 528ca92335245810
Berxit/8/stock 8faa7492c9aa40cb e3cea2cbcd7e9a6f
Berxit/8/dn++ 8faa7492c9aa40cb eef08e2e547fe4cb
Berxit/64/stock 325cae0e971fb670 aea5120ea96c0448
Berxit/64/dn++ 325cae0e971fb670 94345cd5c1b70117
StackRNN/8/stock 13159032da7f961d f9febe2d360b54c8
StackRNN/8/dn++ 13159032da7f961d f9febe2d360b54c8
StackRNN/64/stock 81ee0b84df7885cf 2efa259a58ba16e2
StackRNN/64/dn++ 81ee0b84df7885cf 2efa259a58ba16e2
";

fn fold(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h = (*h ^ byte as u64).wrapping_mul(0x100000001b3);
    }
}

/// `(bits, structure)` digests of one mini-batch.
fn digest(spec: &ModelSpec, batch: usize, cfg: &DynetConfig) -> (u64, u64) {
    let run = spec.dynet_run.as_ref().expect("every quick-suite model has a DyNet implementation");
    let instances = (spec.make_instances)(SEED, batch);
    let (mut bits, mut h) = (0xcbf29ce484222325u64, 0xcbf29ce484222325u64);
    match run(cfg, &instances, SEED) {
        Ok((outputs, s)) => {
            for tensor in outputs.iter().flatten() {
                tensor.data().iter().for_each(|x| fold(&mut bits, x.to_bits() as u64));
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
        Err(e) => e.to_string().bytes().for_each(|b| {
            fold(&mut bits, b as u64);
            fold(&mut h, b as u64);
        }),
    }
    (bits, h)
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
                let (bits, structure) = digest(&spec, batch, cfg);
                table += &format!("{}/{batch}/{label} {bits:016x} {structure:016x}\n", spec.name);
            }
        }
    }
    assert_eq!(table, PARENT, "digests moved; this run's table:\n{table}");
}
