//! Program-phase inference (§4.1, §B.3 of the paper).
//!
//! Depth-based scheduling alone batches the per-token output operators of an
//! RNN poorly: every instance reaches the output stage at a different depth
//! because sentence lengths differ.  The fix is *program phases*: the
//! scheduler drains all work of phase *k* before executing anything of phase
//! *k + 1*, so the output transformations of all instances batch together
//! regardless of how deep the recursive stage ran.
//!
//! The paper's heuristic — "considering individual semantic stages of the
//! input DL computation as individual phases" — is implemented here as:
//! every top-level statement of `@main` that performs *repetitive* work (a
//! call to a recursive function, or a `map`) ends a phase, provided later
//! statements still perform tensor work.  Users can override with explicit
//! `phase;` markers, which always insert a boundary.

use std::collections::BTreeSet;

use acrobat_ir::{Callee, Expr, ExprId, ExprKind, Module};

/// Returns the `let` expressions in `@main` after whose bound value the
/// phase counter increments.
pub fn phase_boundaries(module: &Module) -> BTreeSet<ExprId> {
    let Some(main) = module.functions.get("main") else {
        return BTreeSet::new();
    };
    // Collect the top-level statement chain of @main.
    let mut stmts: Vec<(ExprId, &Expr)> = Vec::new(); // (let id, value expr)
    let mut cursor = &main.body;
    while let ExprKind::Let { value, body, .. } = &cursor.kind {
        stmts.push((cursor.id, value));
        cursor = body;
    }
    // The final expression is the last "statement".
    let tail = cursor;

    let recursive: BTreeSet<&str> = module
        .functions
        .iter()
        .filter(|(name, f)| f.body.calls(name))
        .map(|(name, _)| name.as_str())
        .collect();

    let is_repetitive = |e: &Expr| -> bool {
        let mut rep = false;
        acrobat_ir::ast::visit_exprs(e, &mut |x| match &x.kind {
            ExprKind::Map { .. } => rep = true,
            ExprKind::Call { callee: Callee::Global(n), .. } if recursive.contains(n.as_str()) => {
                rep = true
            }
            _ => {}
        });
        rep
    };
    let has_tensor_work = |e: &Expr| -> bool {
        let mut work = false;
        acrobat_ir::ast::visit_exprs(e, &mut |x| {
            if matches!(
                &x.kind,
                ExprKind::Call { .. } | ExprKind::Map { .. } | ExprKind::Sync { .. }
            ) {
                work = true;
            }
        });
        work
    };

    let mut boundaries = BTreeSet::new();
    for (i, (let_id, value)) in stmts.iter().enumerate() {
        // Manual override.
        if matches!(value.kind, ExprKind::PhaseBoundary) {
            boundaries.insert(*let_id);
            continue;
        }
        let later_work =
            stmts[i + 1..].iter().any(|(_, v)| has_tensor_work(v)) || has_tensor_work(tail);
        if is_repetitive(value) && later_work {
            boundaries.insert(*let_id);
        }
    }
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_ir::{parse_module, typeck};

    fn boundaries(src: &str) -> usize {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        phase_boundaries(&m).len()
    }

    const RNN_WITH_OUTPUT: &str = r#"
        def @rnn(%xs: List[Tensor[(1, 4)]], %h: Tensor[(1, 4)], $w: Tensor[(4, 4)]) -> List[Tensor[(1, 4)]] {
            match %xs {
                Nil => Nil,
                Cons(%x, %t) => {
                    let %nh = tanh(matmul(add(%x, %h), $w));
                    Cons(%nh, @rnn(%t, %nh, $w))
                }
            }
        }
        def @main($w: Tensor[(4, 4)], $cw: Tensor[(4, 2)], $h0: Tensor[(1, 4)],
                  %xs: List[Tensor[(1, 4)]]) -> List[Tensor[(1, 2)]] {
            let %states = @rnn(%xs, $h0, $w);
            map(fn(%p) { relu(matmul(%p, $cw)) }, %states)
        }
    "#;

    #[test]
    fn recursive_stage_before_output_stage_is_a_boundary() {
        // The paper's RNN example: the recursive stage is phase 1, the
        // output transformations phase 2.
        assert_eq!(boundaries(RNN_WITH_OUTPUT), 1);
    }

    #[test]
    fn single_stage_no_boundary() {
        let src = r#"
            def @main($w: Tensor[(4, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
                let %a = matmul(%x, $w);
                relu(%a)
            }
        "#;
        assert_eq!(boundaries(src), 0);
    }

    #[test]
    fn trailing_repetitive_stage_no_boundary() {
        // A repetitive stage with nothing after it needs no boundary.
        let src = r#"
            def @main($w: Tensor[(4, 4)], %xs: List[Tensor[(1, 4)]]) -> List[Tensor[(1, 4)]] {
                map(fn(%p) { relu(matmul(%p, $w)) }, %xs)
            }
        "#;
        assert_eq!(boundaries(src), 0);
    }

    #[test]
    fn manual_marker_always_counts() {
        let src = r#"
            def @main($w: Tensor[(4, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
                let %a = matmul(%x, $w);
                phase;
                relu(%a)
            }
        "#;
        assert_eq!(boundaries(src), 1);
    }

    #[test]
    fn two_recursive_stages_two_boundaries() {
        let src = r#"
            def @rnn(%xs: List[Tensor[(1, 4)]], %h: Tensor[(1, 4)], $w: Tensor[(4, 4)]) -> Tensor[(1, 4)] {
                match %xs {
                    Nil => %h,
                    Cons(%x, %t) => @rnn(%t, tanh(matmul(add(%x, %h), $w)), $w)
                }
            }
            def @main($w1: Tensor[(4, 4)], $w2: Tensor[(4, 4)], $h0: Tensor[(1, 4)],
                      %xs: List[Tensor[(1, 4)]]) -> Tensor[(1, 4)] {
                let %a = @rnn(%xs, $h0, $w1);
                let %b = @rnn(%xs, %a, $w2);
                relu(%b)
            }
        "#;
        assert_eq!(boundaries(src), 2);
    }
}
