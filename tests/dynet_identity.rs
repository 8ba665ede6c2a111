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
TreeLSTM/8/stock f9f668f503b189d6 21602c45d8ee00e6
TreeLSTM/8/dn++ f9f668f503b189d6 9706855d4e533408
TreeLSTM/64/stock 50c3d191596e1a2a 4c2320ad71f94550
TreeLSTM/64/dn++ 50c3d191596e1a2a 72fb0c89ff77ae1f
MV-RNN/8/stock 47a8bbe421e40e7e 15884f0f9a5d29fe
MV-RNN/8/dn++ 47a8bbe421e40e7e c790f6002fe5ea97
MV-RNN/64/stock 61a69b216e68a475 d8c2ff9c549a2077
MV-RNN/64/dn++ 61a69b216e68a475 48da7008ab9d844e
BiRNN/8/stock a2c7606ad4c83c0d 32a9c747e44340e5
BiRNN/8/dn++ a2c7606ad4c83c0d 32a9c747e44340e5
BiRNN/64/stock 378ad8681ab2141d 993e5d761aea756c
BiRNN/64/dn++ 378ad8681ab2141d 993e5d761aea756c
NestedRNN/8/stock 2d381819ca721a2c 5d0bb32f9781140e
NestedRNN/8/dn++ 2d381819ca721a2c d0f0f55baa0d2215
NestedRNN/64/stock 5a147096c62e1393 63489e8a2fb93bd8
NestedRNN/64/dn++ 5a147096c62e1393 5fdd92a5359df95d
DRNN/8/stock d557d1952d4db653 e8c644ea92031fca
DRNN/8/dn++ d557d1952d4db653 84a8189025d139b5
DRNN/64/stock 6d0bb6d385a8daf5 1569abbc3c305579
DRNN/64/dn++ 6d0bb6d385a8daf5 528ca92335245810
Berxit/8/stock f084ea06cd1ef950 e3cea2cbcd7e9a6f
Berxit/8/dn++ f084ea06cd1ef950 eef08e2e547fe4cb
Berxit/64/stock 46f78790cb45eafc aea5120ea96c0448
Berxit/64/dn++ 46f78790cb45eafc 94345cd5c1b70117
StackRNN/8/stock 369ba0f658349f13 f9febe2d360b54c8
StackRNN/8/dn++ 369ba0f658349f13 f9febe2d360b54c8
StackRNN/64/stock 6a7c51e5f45859c8 2efa259a58ba16e2
StackRNN/64/dn++ 6a7c51e5f45859c8 2efa259a58ba16e2
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
