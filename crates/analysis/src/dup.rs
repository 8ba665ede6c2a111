//! Code duplication for data reuse (§C.1 of the paper).
//!
//! When the reuse analysis finds a function reached under two or more
//! distinct invariant-binding signatures (the BiRNN example: one `@rnn`
//! called with forward weights and again with backward weights), no single
//! batched kernel for the operators inside can treat the weights as shared.
//! Simply inlining does not work for recursive functions, so — exactly as
//! the paper describes — we *transitively duplicate* the function, giving
//! each calling context its own copy (and therefore its own operator call
//! sites, each with a unique shared binding).
//!
//! Duplication proceeds in rounds from the outside in: each round clones the
//! currently-conflicting functions and retargets unambiguous call sites;
//! nested conflicts are exposed and resolved by the next round's re-analysis
//! (driven by [`crate::analyze`]).

use std::collections::BTreeMap;

use acrobat_ir::{Callee, Expr, ExprKind, FnDef, Module};

use crate::absval::ReuseAnalysis;

/// Applies one round of duplication, then re-type-checks the module.
///
/// # Errors
///
/// Propagates type errors from re-checking (these indicate an internal bug —
/// duplication is type-preserving).
pub fn duplicate_for_reuse(
    mut module: Module,
    analysis: &ReuseAnalysis,
) -> Result<Module, acrobat_ir::IrError> {
    // Assign clone names per (func, signature).
    let mut clone_names: BTreeMap<(String, String), String> = BTreeMap::new();
    for (func, sigs) in &analysis.conflicts {
        for (i, sig) in sigs.iter().enumerate() {
            clone_names.insert((func.clone(), sig.clone()), format!("{func}__c{i}"));
        }
    }

    // Retarget call sites inside non-conflicting functions.  (Call sites
    // inside conflicting functions are cloned verbatim; their targets are
    // resolved in a later round once the clone has a unique context.)
    let conflicting: Vec<String> = analysis.conflicts.keys().cloned().collect();
    let fn_names: Vec<String> = module.functions.keys().cloned().collect();
    for name in &fn_names {
        if conflicting.contains(name) {
            continue;
        }
        let mut f = module.functions.remove(name).expect("function exists");
        retarget_calls(&mut f.body, &|id, callee| {
            if let Some((target, sig)) = analysis.call_signatures.get(&id) {
                if target == callee {
                    return clone_names.get(&(target.clone(), sig.clone())).cloned();
                }
            }
            None
        });
        module.functions.insert(name.clone(), f);
    }

    // Create the clones: deep copies with fresh expression ids and
    // self-recursive calls retargeted to the clone itself.
    let mut new_fns: Vec<FnDef> = Vec::new();
    for ((func, _sig), clone_name) in &clone_names {
        let original = module.functions[func].clone();
        let mut body = original.body.clone();
        refresh_ids(&mut body, &mut module);
        retarget_calls(&mut body, &|_, callee| (callee == func).then(|| clone_name.clone()));
        new_fns.push(FnDef {
            name: clone_name.clone(),
            params: original.params.clone(),
            ret: original.ret.clone(),
            body,
        });
    }
    for f in new_fns {
        module.functions.insert(f.name.clone(), f);
    }

    // Drop originals that are no longer referenced.
    for func in &conflicting {
        let referenced = module.functions.values().any(|f| f.name != *func && f.body.calls(func));
        if !referenced {
            module.functions.remove(func);
        }
    }

    // Re-elaborate types and op resolutions for the new bodies.
    module.expr_types.clear();
    module.op_prims.clear();
    acrobat_ir::typeck::check_module(module)
}

/// Rewrites global call targets throughout an expression tree.
fn retarget_calls(expr: &mut Expr, rename: &dyn Fn(acrobat_ir::ExprId, &str) -> Option<String>) {
    if let ExprKind::Call { callee: Callee::Global(name), .. } = &mut expr.kind {
        if let Some(new_name) = rename(expr.id, name) {
            *name = new_name;
        }
    }
    expr.for_each_child_mut(|c| retarget_calls(c, rename));
}

/// Assigns fresh ids to every node of a cloned expression tree.
fn refresh_ids(expr: &mut Expr, module: &mut Module) {
    expr.id = module.fresh_id();
    expr.for_each_child_mut(|c| refresh_ids(c, module));
}

#[cfg(test)]
mod tests {
    use crate::absval::analyze_reuse;
    use crate::ArgClass;
    use acrobat_ir::{parse_module, typeck, Callee, ExprKind};

    const BIRNN_LIKE: &str = r#"
        def @step(%x: Tensor[(1, 2)], $w: Tensor[(2, 2)]) -> Tensor[(1, 2)] {
            tanh(matmul(%x, $w))
        }
        def @main($wf: Tensor[(2, 2)], $wb: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
            let %f = @step(%x, $wf);
            let %b = @step(%x, $wb);
            add(%f, %b)
        }
    "#;

    #[test]
    fn duplication_splits_conflicting_function() {
        let m = typeck::check_module(parse_module(BIRNN_LIKE).unwrap()).unwrap();
        let r = analyze_reuse(&m);
        assert!(!r.conflicts.is_empty());
        let m2 = super::duplicate_for_reuse(m, &r).unwrap();
        // @step is gone, replaced by two clones.
        assert!(!m2.functions.contains_key("step"));
        assert!(m2.functions.contains_key("step__c0"));
        assert!(m2.functions.contains_key("step__c1"));
        // After duplication, re-analysis sees no conflicts and both matmul
        // sites have shared weights.
        let r2 = analyze_reuse(&m2);
        assert!(r2.conflicts.is_empty(), "{:?}", r2.conflicts);
        let mut shared_weights = 0;
        for f in m2.functions.values() {
            acrobat_ir::ast::visit_exprs(&f.body, &mut |e| {
                if let ExprKind::Call { callee: Callee::Op { name, .. }, .. } = &e.kind {
                    if name == "matmul" && r2.arg_classes[&e.id][1] == ArgClass::Shared {
                        shared_weights += 1;
                    }
                }
            });
        }
        assert_eq!(shared_weights, 2);
    }

    #[test]
    fn recursive_function_duplicates_with_self_calls() {
        let src = r#"
            def @rnn(%xs: List[Tensor[(1, 2)]], %h: Tensor[(1, 2)], $w: Tensor[(2, 2)]) -> Tensor[(1, 2)] {
                match %xs {
                    Nil => %h,
                    Cons(%x, %t) => @rnn(%t, tanh(matmul(add(%x, %h), $w)), $w)
                }
            }
            def @main($wf: Tensor[(2, 2)], $wb: Tensor[(2, 2)], $h0: Tensor[(1, 2)],
                      %xs: List[Tensor[(1, 2)]]) -> Tensor[(1, 2)] {
                let %f = @rnn(%xs, $h0, $wf);
                let %b = @rnn(%xs, $h0, $wb);
                add(%f, %b)
            }
        "#;
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let r = analyze_reuse(&m);
        assert!(r.conflicts.contains_key("rnn"));
        let m2 = super::duplicate_for_reuse(m, &r).unwrap();
        // Each clone's recursive call targets itself.
        for clone in ["rnn__c0", "rnn__c1"] {
            let f = &m2.functions[clone];
            let mut self_calls = 0;
            acrobat_ir::ast::visit_exprs(&f.body, &mut |e| {
                if let ExprKind::Call { callee: Callee::Global(n), .. } = &e.kind {
                    assert_eq!(n, clone, "recursive call must stay inside the clone");
                    self_calls += 1;
                }
            });
            assert_eq!(self_calls, 1);
        }
        let r2 = analyze_reuse(&m2);
        assert!(r2.conflicts.is_empty());
    }

    #[test]
    fn no_conflict_no_change() {
        let src = "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { matmul(%x, $w) }";
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let r = analyze_reuse(&m);
        assert!(r.conflicts.is_empty());
    }

    #[test]
    fn cloned_ids_are_fresh() {
        let m = typeck::check_module(parse_module(BIRNN_LIKE).unwrap()).unwrap();
        let r = analyze_reuse(&m);
        let m2 = super::duplicate_for_reuse(m, &r).unwrap();
        let mut ids = std::collections::HashSet::new();
        for f in m2.functions.values() {
            acrobat_ir::ast::visit_exprs(&f.body, &mut |e| {
                assert!(ids.insert(e.id), "duplicate expr id {:?}", e.id);
            });
        }
    }
}
