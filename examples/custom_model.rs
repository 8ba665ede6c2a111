//! Writing your own model: a gated recursive DAG encoder that exists in no
//! framework's model zoo — and inspecting what the compiler did with it.
//!
//! Shows the surface language (ADTs, recursion, `parallel`, overloaded
//! tensor arithmetic), the analysis artifacts (argument classes, fusion
//! groups, hoisted operators), the AOT backend's register code and the
//! Fig. 5-style ablation knobs.
//!
//! ```sh
//! cargo run --release -p acrobat-bench --example custom_model
//! ```

use acrobat_core::{compile, ArgClass, CompileOptions, InputValue, OptLevel, Params, Tensor};

const SOURCE: &str = r#"
    type Tree[a] { Leaf(a), Node(Tree[a], Tree[a]) }

    def @enc(%t: Tree[Tensor[(1, 24)]],
             $wleaf: Tensor[(24, 24)], $wg: Tensor[(48, 24)], $wu: Tensor[(48, 24)],
             $bg: Tensor[(1, 24)]) -> Tensor[(1, 24)] {
        match %t {
            Leaf(%e) => tanh(matmul(%e, $wleaf)),
            Node(%l, %r) => {
                let (%a, %b) = parallel(
                    @enc(%l, $wleaf, $wg, $wu, $bg),
                    @enc(%r, $wleaf, $wg, $wu, $bg));
                let %x = concat[axis=1](%a, %b);
                let %g = sigmoid(add(matmul(%x, $wg), $bg));
                let %u = tanh(matmul(%x, $wu));
                add(mul(%g, %u), mul(sub(ones[shape=(1, 24)](), %g), %a))
            }
        }
    }

    def @main($wleaf: Tensor[(24, 24)], $wg: Tensor[(48, 24)], $wu: Tensor[(48, 24)],
              $bg: Tensor[(1, 24)], %t: Tree[Tensor[(1, 24)]]) -> Tensor[(1, 24)] {
        @enc(%t, $wleaf, $wg, $wu, $bg)
    }
"#;

fn tree(depth: usize, seed: &mut u64) -> InputValue {
    let next = |s: &mut u64| {
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        (*s >> 33) as f32 / (1u64 << 31) as f32 - 0.5
    };
    if depth == 0 {
        InputValue::Adt {
            ctor: "Leaf".into(),
            fields: vec![InputValue::Tensor(Tensor::from_fn(&[1, 24], |_| next(seed)))],
        }
    } else {
        InputValue::Adt {
            ctor: "Node".into(),
            fields: vec![tree(depth - 1, seed), tree(depth - 1, seed)],
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = compile(SOURCE, &CompileOptions::default())?;

    // What did the static analysis conclude?
    let analysis = model.analysis();
    let shared =
        analysis.arg_classes.values().flatten().filter(|c| **c == ArgClass::Shared).count();
    let batched = analysis.arg_classes.values().flatten().count() - shared;
    println!("taint analysis: {shared} shared (weight) operands, {batched} batched operands");
    println!(
        "hoisted out of the recursion: {} operator(s) (the leaf transform)",
        analysis.hoisted.len()
    );
    let groups: usize = analysis.blocks.blocks.iter().map(|b| b.groups.len()).sum();
    println!(
        "fusion: {} operators → {} kernel groups → {} distinct kernels",
        analysis.blocks.site_count(),
        groups,
        model.kernel_count()
    );

    // What does the unbatched program look like once lowered?  Flat register
    // code: `match` is a tag test, the recursion a `call`, and each fusion
    // group one `emit` naming its kernel and the registers it reads/writes.
    println!("\nAOT register code:\n{}", model.disassemble().expect("AOT backend"));

    // Run a batch of random trees.
    let params = Params::from([
        ("wleaf".to_string(), Tensor::from_fn(&[24, 24], |i| ((i % 9) as f32 - 4.0) * 0.05)),
        ("wg".to_string(), Tensor::from_fn(&[48, 24], |i| ((i % 7) as f32 - 3.0) * 0.04)),
        ("wu".to_string(), Tensor::from_fn(&[48, 24], |i| ((i % 5) as f32 - 2.0) * 0.05)),
        ("bg".to_string(), Tensor::zeros(&[1, 24])),
    ]);
    let mut seed = 42;
    let instances: Vec<Vec<InputValue>> =
        (0..12).map(|i| vec![tree(2 + i % 3, &mut seed)]).collect();

    // Ablation: run the same batch at each optimization level.
    println!("\nablation (same inputs, identical outputs at every level):");
    let mut reference: Option<Vec<Tensor>> = None;
    for level in OptLevel::ALL {
        let m = compile(SOURCE, &CompileOptions::at_level(level))?;
        let r = m.run(&params, &instances)?;
        let outs: Vec<Tensor> = r.outputs.iter().map(|o| o.tensors()[0].clone()).collect();
        if let Some(referen) = &reference {
            for (a, b) in referen.iter().zip(&outs) {
                assert!(a.allclose(b, 1e-5), "optimizations changed results!");
            }
        } else {
            reference = Some(outs);
        }
        println!(
            "  {:>16}: {:>3} launches, {:>6.2} ms modeled",
            level.label(),
            r.stats.kernel_launches,
            r.stats.total_ms()
        );
    }
    Ok(())
}
