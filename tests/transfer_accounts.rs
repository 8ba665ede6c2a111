//! The modeled host↔device transfers of one request, pinned exactly.
//!
//! A request uploads its inputs as one batched transfer and downloads each
//! output tensor as one transfer; `RuntimeStats` charges each transfer's
//! bytes, one operation, its modeled copy time (`memcpy_us`) and its API
//! overhead (`cuda_api_us`).  These are paper numbers (the memcpy rows of
//! Table 7 and the modeled end-to-end time), so a change to how a request
//! crosses its boundary — how many walks, in which order — must charge the
//! same transfers in the same order, down to the bits of the two `f64`
//! sums.  Both program shapes the repo benchmark drives on the AOT
//! executor, and the Relay-VM baseline on the same requests, instances of
//! seed 1, each row a cold request (first on its `Model`) followed by a
//! warm one: weights are resident and charge nothing, so both read alike.
//!
//! The table was recorded before the AOT request boundary became one input
//! walk and one output pass.  To regenerate after a change that is *meant*
//! to move it, run the test and copy the table it prints.

use acrobat_core::CompileOptions;
use acrobat_models::testkit::build;
use acrobat_models::{birnn, treelstm};
use acrobat_vm::BackendKind;

/// `model/batch backend memcpy_ops memcpy_bytes memcpy_us cuda_api_us`,
/// cold request then warm request.
const PINNED: &str = "\
TreeLSTM/8 Aot 9 10464 90.872 530
TreeLSTM/8 Aot 9 10464 90.872 530
TreeLSTM/8 Vm 9 10464 90.872 506
TreeLSTM/8 Vm 9 10464 90.872 506
BiRNN/16 Aot 347 92728 3477.7273333333583 4174
BiRNN/16 Aot 347 92728 3477.7273333333583 4174
BiRNN/16 Vm 347 92728 3477.7273333333583 4174
BiRNN/16 Vm 347 92728 3477.7273333333583 4174
";

#[test]
fn a_request_charges_the_recorded_transfers() {
    let mut table = String::new();
    for (spec, batch) in [(treelstm::spec_with(16, 5), 8), (birnn::spec_with(64, 3), 16)] {
        let instances = (spec.make_instances)(1, batch);
        for backend in [BackendKind::Aot, BackendKind::Vm] {
            let model = build(&spec, &CompileOptions { backend, ..CompileOptions::default() });
            for _ in 0..2 {
                let s = model.run(&spec.params, &instances).expect("request").stats;
                table += &format!(
                    "{}/{batch} {backend:?} {} {} {} {}\n",
                    spec.name, s.memcpy_ops, s.memcpy_bytes, s.memcpy_us, s.cuda_api_us
                );
            }
        }
    }
    assert_eq!(table, PINNED, "transfer accounts moved; this run's table:\n{table}");
}
