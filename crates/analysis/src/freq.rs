//! Static invocation-frequency estimation (§D.1 of the paper).
//!
//! The auto-scheduler prioritizes kernels by how often they execute.  When
//! profile-guided optimization is not possible, ACROBAT "provides a simple
//! static analysis to heuristically perform this estimation based on how
//! deeply nested an operator call is in the recursion".
//!
//! The heuristic here: every enclosing repetition level — a self-recursive
//! function body, or a `map` body — multiplies an operator's estimated
//! execution count by a nominal trip count.  Operators in `@main`'s
//! straight-line code count once; the inner RNN cell of the NestedRNN model
//! (two repetition levels deep) is weighted `TRIP²` — which is exactly the
//! prioritization Table 9 needs when no profile exists.

use std::collections::BTreeMap;

use acrobat_ir::{Callee, Expr, ExprId, ExprKind, Module};

/// Nominal trip count assumed per repetition level.
pub const NOMINAL_TRIP: u64 = 16;

/// Estimates, for every operator call site, how many times it executes per
/// instance (relative weights, not absolute counts).
pub fn estimate_frequencies(module: &Module) -> BTreeMap<ExprId, u64> {
    let recursive: Vec<&str> = module
        .functions
        .iter()
        .filter(|(name, f)| f.body.calls(name))
        .map(|(n, _)| n.as_str())
        .collect();

    let mut out = BTreeMap::new();
    // Fixpoint over call multiplicities: start from @main at weight 1 and
    // push weights through calls; each call into a recursive function (or a
    // map body) multiplies by the nominal trip count.  Functions reachable
    // along several paths accumulate.
    let mut fn_weight: BTreeMap<&str, u64> = BTreeMap::new();
    fn_weight.insert("main", 1);
    // Simple propagation: a few rounds suffice for the call-depths models
    // have (no mutual recursion in the suite).
    for _ in 0..module.functions.len() + 2 {
        let snapshot = fn_weight.clone();
        for (name, f) in &module.functions {
            let Some(&w) = snapshot.get(name.as_str()) else { continue };
            let body_weight =
                if recursive.contains(&name.as_str()) { w.saturating_mul(NOMINAL_TRIP) } else { w };
            collect_calls(&f.body, name, body_weight, &mut fn_weight);
        }
    }

    for (name, f) in &module.functions {
        let Some(&w) = fn_weight.get(name.as_str()) else { continue };
        let body_weight =
            if recursive.contains(&name.as_str()) { w.saturating_mul(NOMINAL_TRIP) } else { w };
        record_sites(&f.body, body_weight, &mut out);
    }
    out
}

fn collect_calls<'m>(
    e: &'m Expr,
    enclosing: &str,
    weight: u64,
    fn_weight: &mut BTreeMap<&'m str, u64>,
) {
    let mut stack = vec![(e, weight)];
    while let Some((e, w)) = stack.pop() {
        match &e.kind {
            ExprKind::Call { callee: Callee::Global(n), args } => {
                if n != enclosing {
                    let entry = fn_weight.entry(n.as_str()).or_insert(0);
                    *entry = (*entry).max(w);
                }
                for a in args {
                    stack.push((a, w));
                }
            }
            ExprKind::Map { func, list } => {
                stack.push((list, w));
                stack.push((func, w.saturating_mul(NOMINAL_TRIP)));
            }
            _ => e.for_each_child(|c| stack.push((c, w))),
        }
    }
}

fn record_sites(e: &Expr, weight: u64, out: &mut BTreeMap<ExprId, u64>) {
    let mut stack = vec![(e, weight)];
    while let Some((e, w)) = stack.pop() {
        match &e.kind {
            ExprKind::Call { callee: Callee::Op { .. }, args } => {
                out.insert(e.id, w);
                for a in args {
                    stack.push((a, w));
                }
            }
            ExprKind::Map { func, list } => {
                stack.push((list, w));
                stack.push((func, w.saturating_mul(NOMINAL_TRIP)));
            }
            _ => e.for_each_child(|c| stack.push((c, w))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_ir::{parse_module, typeck};

    fn freqs(src: &str) -> (Module, BTreeMap<ExprId, u64>) {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let f = estimate_frequencies(&m);
        (m, f)
    }

    fn site_weight(m: &Module, f: &BTreeMap<ExprId, u64>, op: &str) -> u64 {
        let mut w = 0;
        for func in m.functions.values() {
            acrobat_ir::ast::visit_exprs(&func.body, &mut |e| {
                if let ExprKind::Call { callee: Callee::Op { name, .. }, .. } = &e.kind {
                    if name == op {
                        w = w.max(f.get(&e.id).copied().unwrap_or(0));
                    }
                }
            });
        }
        w
    }

    #[test]
    fn nesting_depth_multiplies() {
        // tanh sits two repetition levels deep (inner inside outer); sigmoid
        // only one.
        let src = r#"
            def @inner(%h: Tensor[(1, 2)], %n: Int, $w: Tensor[(2, 2)]) -> Tensor[(1, 2)] {
                if %n <= 0 { %h } else { @inner(tanh(matmul(%h, $w)), %n - 1, $w) }
            }
            def @outer(%h: Tensor[(1, 2)], %n: Int, $w: Tensor[(2, 2)]) -> Tensor[(1, 2)] {
                if %n <= 0 { %h } else {
                    let %hh = @inner(%h, 5, $w);
                    @outer(sigmoid(matmul(%hh, $w)), %n - 1, $w)
                }
            }
            def @main($w: Tensor[(2, 2)], %h: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                relu(@outer(%h, 5, $w))
            }
        "#;
        let (m, f) = freqs(src);
        let inner = site_weight(&m, &f, "tanh");
        let outer = site_weight(&m, &f, "sigmoid");
        let flat = site_weight(&m, &f, "relu");
        assert_eq!(flat, 1);
        assert_eq!(outer, NOMINAL_TRIP);
        assert_eq!(inner, NOMINAL_TRIP * NOMINAL_TRIP);
    }

    #[test]
    fn map_counts_as_a_repetition_level() {
        let src = r#"
            def @main($w: Tensor[(2, 2)], %xs: List[Tensor[(1, 2)]]) -> List[Tensor[(1, 2)]] {
                map(fn(%p) { relu(matmul(%p, $w)) }, %xs)
            }
        "#;
        let (m, f) = freqs(src);
        assert_eq!(site_weight(&m, &f, "relu"), NOMINAL_TRIP);
    }

    #[test]
    fn every_op_site_is_estimated() {
        let src = r#"
            def @f(%x: Tensor[(1, 2)], $w: Tensor[(2, 2)]) -> Tensor[(1, 2)] {
                tanh(matmul(%x, $w))
            }
            def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                add(@f(%x, $w), relu(%x))
            }
        "#;
        let (m, f) = freqs(src);
        for func in m.functions.values() {
            acrobat_ir::ast::visit_exprs(&func.body, &mut |e| {
                if let ExprKind::Call { callee: Callee::Op { .. }, .. } = &e.kind {
                    assert!(f.contains_key(&e.id), "unestimated op site");
                }
            });
        }
    }
}
