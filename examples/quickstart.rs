//! Quickstart: compile a small dynamic RNN, run a mini-batch, inspect the
//! auto-batching statistics.
//!
//! ```sh
//! cargo run --release -p acrobat-bench --example quickstart
//! ```

use acrobat_core::{compile, CompileOptions, InputValue, Params, Tensor};

// A sequence model with dynamic control flow: the recursion length depends
// on each instance's input list. `$`-parameters are model weights (shared
// across the batch); `%`-parameters are per-instance inputs.
const SOURCE: &str = r#"
    def @rnn(%xs: List[Tensor[(1, 32)]], %h: Tensor[(1, 32)],
             $w: Tensor[(64, 32)], $b: Tensor[(1, 32)]) -> Tensor[(1, 32)] {
        match %xs {
            Nil => %h,
            Cons(%x, %rest) => {
                let %nh = tanh(add(matmul(concat[axis=1](%h, %x), $w), $b));
                @rnn(%rest, %nh, $w, $b)
            }
        }
    }

    def @main($w: Tensor[(64, 32)], $b: Tensor[(1, 32)], $h0: Tensor[(1, 32)],
              $wc: Tensor[(32, 4)],
              %xs: List[Tensor[(1, 32)]]) -> Tensor[(1, 4)] {
        let %h = @rnn(%xs, $h0, $w, $b);
        relu(matmul(%h, $wc))
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile: parsing, type/shape checking, taint analysis, fusion,
    //    batched-kernel generation and auto-scheduling all happen here.
    let model = compile(SOURCE, &CompileOptions::default())?;
    println!("compiled {} batched kernels", model.kernel_count());

    // 2. Bind the model parameters once.
    let params = Params::from([
        ("w".to_string(), Tensor::from_fn(&[64, 32], |i| ((i % 13) as f32 - 6.0) * 0.02)),
        ("b".to_string(), Tensor::zeros(&[1, 32])),
        ("h0".to_string(), Tensor::zeros(&[1, 32])),
        ("wc".to_string(), Tensor::from_fn(&[32, 4], |i| (i as f32 - 64.0) * 0.01)),
    ]);

    // 3. Build a mini-batch of *different-length* sequences — the dynamic
    //    control flow auto-batching exists for.
    let batch: Vec<Vec<InputValue>> = (0..16)
        .map(|i| {
            let len = 3 + (i * 7) % 12;
            vec![InputValue::list(
                (0..len)
                    .map(|t| {
                        InputValue::Tensor(Tensor::from_fn(&[1, 32], |k| {
                            ((i * 31 + t * 7 + k) % 17) as f32 * 0.05 - 0.4
                        }))
                    })
                    .collect(),
            )]
        })
        .collect();

    // 4. Run. All sixteen instances execute as one lazily-built dataflow
    //    graph; compatible operators across instances (and across hoisted
    //    recursion steps) launch as single batched kernels.
    let result = model.run(&params, &batch)?;

    println!("outputs: {} instances", result.outputs.len());
    println!("dataflow nodes:   {}", result.stats.nodes);
    println!(
        "kernel launches:  {} (vs {} operators unbatched)",
        result.stats.kernel_launches, result.stats.nodes
    );
    println!("modeled latency:  {:.3} ms", result.stats.total_ms());
    println!(
        "breakdown: dfg {:.0}µs | sched {:.0}µs | memcpy {:.0}µs | kernels {:.0}µs | api {:.0}µs",
        result.stats.dfg_construction_us,
        result.stats.scheduling_us,
        result.stats.memcpy_us,
        result.stats.kernel_time_us,
        result.stats.cuda_api_us,
    );
    Ok(())
}
