//! End-to-end tests of the full static-analysis pipeline on model-scale
//! programs, including the paper's flagship examples: the RNN of Listing 1
//! (hoisting + phases) and the BiRNN of §C.1 (duplication).

use acrobat_analysis::{analyze, AnalysisOptions, AnalysisResult, ArgClass};
use acrobat_ir::{parse_module, typeck};

const RNN_PROGRAM: &str = r#"
    def @rnn(%inps: List[Tensor[(1, 8)]], %state: Tensor[(1, 8)],
             $bias: Tensor[(1, 8)], $i_wt: Tensor[(8, 8)], $h_wt: Tensor[(8, 8)])
        -> List[Tensor[(1, 8)]] {
        match %inps {
            Nil => Nil,
            Cons(%inp, %tail) => {
                let %inp_linear = add($bias, matmul(%inp, $i_wt));
                let %new_state = sigmoid(add(%inp_linear, matmul(%state, $h_wt)));
                Cons(%new_state, @rnn(%tail, %new_state, $bias, $i_wt, $h_wt))
            }
        }
    }
    def @main($bias: Tensor[(1, 8)], $i_wt: Tensor[(8, 8)], $h_wt: Tensor[(8, 8)],
              $init: Tensor[(1, 8)], $c_wt: Tensor[(8, 4)], $c_bias: Tensor[(1, 4)],
              %inps: List[Tensor[(1, 8)]]) -> List[Tensor[(1, 4)]] {
        let %states = @rnn(%inps, $init, $bias, $i_wt, $h_wt);
        map(fn(%p) { relu(add($c_bias, matmul(%p, $c_wt))) }, %states)
    }
"#;

const BIRNN_PROGRAM: &str = r#"
    def @rnn(%inps: List[Tensor[(1, 8)]], %state: Tensor[(1, 8)], $w: Tensor[(8, 8)])
        -> Tensor[(1, 8)] {
        match %inps {
            Nil => %state,
            Cons(%inp, %tail) => @rnn(%tail, tanh(matmul(add(%inp, %state), $w)), $w)
        }
    }
    def @main($wf: Tensor[(8, 8)], $wb: Tensor[(8, 8)], $h0: Tensor[(1, 8)],
              %inps: List[Tensor[(1, 8)]]) -> Tensor[(1, 8)] {
        let %f = @rnn(%inps, $h0, $wf);
        let %b = @rnn(%inps, $h0, $wb);
        add(%f, %b)
    }
"#;

#[test]
fn rnn_pipeline_produces_all_artifacts() {
    let m = typeck::check_module(parse_module(RNN_PROGRAM).unwrap()).unwrap();
    let r = analyze(m, AnalysisOptions::default()).unwrap();

    // Every op site classified.
    for (site, prim) in &r.module.op_prims {
        assert!(r.arg_classes.contains_key(site), "unclassified op site {site:?} ({prim})");
    }
    // Weight arguments shared, data arguments batched.
    let shared = r.arg_classes.values().flatten().filter(|c| **c == ArgClass::Shared).count();
    assert!(shared >= 5, "params + biases should be shared, got {shared}");

    // The input linear transform is hoisted.
    assert!(!r.hoisted.is_empty(), "RNN input transform must hoist");

    // One phase boundary between the recursive stage and the output stage.
    assert_eq!(r.phase_boundaries.len(), 1);

    // Fusion produced fewer groups than sites.
    let sites = r.blocks.site_count();
    let groups: usize = r.blocks.blocks.iter().map(|b| b.groups.len()).sum();
    assert!(groups < sites, "fusion should merge ({groups} groups, {sites} sites)");

    // Site info covers every site and marks closers consistently.
    for block in &r.blocks.blocks {
        for node in &block.sites {
            let info = r.site_info[&node.site];
            assert_eq!(info.block, block.id);
        }
        let closers = block.sites.iter().filter(|s| r.site_info[&s.site].closes_block).count();
        assert_eq!(closers, 1, "exactly one site closes each block");
    }
}

#[test]
fn birnn_pipeline_duplicates_and_shares() {
    let m = typeck::check_module(parse_module(BIRNN_PROGRAM).unwrap()).unwrap();
    let r = analyze(m, AnalysisOptions::default()).unwrap();

    // @rnn was duplicated into two copies.
    let rnn_copies = r.module.functions.keys().filter(|n| n.starts_with("rnn__c")).count();
    assert_eq!(rnn_copies, 2, "functions: {:?}", r.module.functions.keys());
    assert!(!r.module.functions.contains_key("rnn"));

    // Every matmul weight is shared after duplication.
    for (site, prim) in &r.module.op_prims {
        if *prim == acrobat_tensor::PrimOp::MatMul {
            assert_eq!(
                r.arg_classes[site][1],
                ArgClass::Shared,
                "post-duplication weights must be shared"
            );
        }
    }
}

#[test]
fn duplication_disabled_keeps_single_copy() {
    let m = typeck::check_module(parse_module(BIRNN_PROGRAM).unwrap()).unwrap();
    let opts = AnalysisOptions { duplication: false, ..Default::default() };
    let r = analyze(m, opts).unwrap();
    assert!(r.module.functions.contains_key("rnn"));
    // Without duplication the weight argument degrades to batched.
    let degraded = r
        .module
        .op_prims
        .iter()
        .filter(|(_, p)| **p == acrobat_tensor::PrimOp::MatMul)
        .any(|(site, _)| r.arg_classes[site][1] == ArgClass::Batched);
    assert!(degraded);
}

#[test]
fn options_none_disables_everything() {
    let m = typeck::check_module(parse_module(RNN_PROGRAM).unwrap()).unwrap();
    let r = analyze(m, AnalysisOptions::none()).unwrap();
    assert!(r.hoisted.is_empty());
    assert!(r.phase_boundaries.is_empty());
    assert!(r.ghosts.is_empty());
    let sites = r.blocks.site_count();
    let groups: usize = r.blocks.blocks.iter().map(|b| b.groups.len()).sum();
    assert_eq!(groups, sites, "no fusion -> one group per site");
}

#[test]
fn no_main_is_an_error() {
    let m = typeck::check_module(parse_module("def @f(%x: Int) -> Int { %x }").unwrap()).unwrap();
    assert!(matches!(analyze(m, AnalysisOptions::default()), Err(acrobat_ir::IrError::NoMain)));
}

const LETS: usize = 2_000;

/// Parses, type-checks and analyzes a `LETS`-long `relu` chain over
/// `@main`'s one parameter `param` on a thread with a 2 MiB stack.
fn analyze_relu_chain(param: &'static str) -> AnalysisResult {
    let mut src = format!("def @main({param}: Tensor[(1, 4)]) -> Tensor[(1, 4)] {{\n");
    src.push_str(&format!("let %v0 = relu({param});\n"));
    for i in 1..LETS {
        src.push_str(&format!("let %v{i} = relu(%v{});\n", i - 1));
    }
    src.push_str(&format!("%v{}\n}}\n", LETS - 1));
    let analyzed = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
        let module = typeck::check_module(parse_module(&src).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        analyze(module, AnalysisOptions::default()).map_err(|e| e.to_string())
    });
    analyzed.expect("spawns").join().expect("no panic").unwrap()
}

/// A `let` spine is a sequence, not nesting, to the analyses too: a
/// 2 000-`let` `relu` chain is parsed, type-checked and analyzed on a
/// thread with a 2 MiB stack, every `relu` fusing into one kernel of one
/// block (each pass walks the spine as a loop, and none compares every
/// site with every other).
#[test]
fn let_spine_2000_deep_analyzes() {
    let a = analyze_relu_chain("%x");
    let groups: Vec<usize> =
        a.blocks.blocks.iter().map(|b| b.groups.len()).filter(|&g| g > 0).collect();
    assert_eq!((a.site_info.len(), groups), (LETS, vec![1]));
}

/// The same chain over a `$` weight is lane-invariant end to end: each
/// `relu`'s identity names its operand's, 2 000 deep, and every site's
/// argument is still found shared (an identity costs its arity, so the
/// reuse analysis stays linear in the chain).
#[test]
fn invariant_let_spine_2000_deep_is_shared() {
    let a = analyze_relu_chain("$w");
    let classes: Vec<ArgClass> = a.arg_classes.values().flatten().copied().collect();
    assert_eq!(classes, vec![ArgClass::Shared; LETS]);
}
