//! Operator hoisting out of recursions (§B.1 of the paper).
//!
//! Inside a recursive function, an operator whose inputs do not depend on
//! values carried across recursive calls is not part of the recursion's
//! sequential dependency.  Assigning it a *statically computed* depth (zero,
//! or its position in the hoisted chain) lets the runtime batch all of its
//! invocations across every recursion step and every instance in one go —
//! the paper's RNN example hoists the input linear transformation
//! (`bias_dense` at depth 0 in Listing 2), turning N sequential matmuls into
//! one batched matmul over all tokens.
//!
//! The analysis computes, per self-recursive function:
//!
//! 1. the set of *carried* formals — parameters that receive, at some
//!    recursive call site, a value derived from an operator executed in the
//!    body (e.g. the RNN hidden state).  Structural descent (passing the
//!    tail of a matched list) does **not** make a formal carried;
//! 2. the operator sites whose transitive inputs avoid all carried formals
//!    and that do not sit under a conditional — these are hoistable.
//!
//! Functions containing tensor-dependent control flow (`item`/`sample`)
//! disable hoisting conservatively: execution of later iterations is not
//! statically known to happen.

use std::collections::{BTreeSet, HashMap};

use acrobat_ir::{Arm, Callee, Expr, ExprId, ExprKind, Module};

/// Dependence level of a value inside a recursive body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Dep {
    /// Derived only from original inputs / parameters / structure.
    Clean,
    /// Derived from operator results of the current iteration (clean
    /// inputs).  Feeding this into a recursive call makes the target formal
    /// carried.
    CleanOp,
    /// Depends on a carried formal.
    Carried,
}

impl Dep {
    fn join(self, other: Dep) -> Dep {
        self.max(other)
    }
}

/// Finds all hoistable operator sites in the module.
pub fn hoistable_sites(module: &Module) -> BTreeSet<ExprId> {
    let op_free = op_free_formals(module);
    let mut out = BTreeSet::new();
    for (name, f) in &module.functions {
        if !f.body.calls(name) || f.body.contains_sync() {
            continue;
        }
        let mut carried = carried_formals(module, name);
        // A hoisted operator executes at a *static* depth, before any
        // dynamically-scheduled work — so its inputs must be available at
        // program start.  Formals that may receive operator results at some
        // call site (e.g. BiRNN's @zipcat consuming the RNN states) are
        // therefore treated like carried state.
        if let Some(flags) = op_free.get(name) {
            for (i, &free) in flags.iter().enumerate() {
                if !free {
                    carried.insert(i);
                }
            }
        }
        collect_hoistable(module, name, &carried, &mut out);
    }
    out
}

/// Interprocedural fixpoint: which formals of each function only ever
/// receive values derivable without executing any tensor operator (program
/// inputs, parameters, constants, and structure thereof)?
fn op_free_formals(module: &Module) -> HashMap<String, Vec<bool>> {
    let mut flags: HashMap<String, Vec<bool>> =
        module.functions.iter().map(|(n, f)| (n.clone(), vec![true; f.params.len()])).collect();
    loop {
        let mut changed = false;
        for (name, f) in &module.functions {
            let mut eval = OpFreeEval { observations: Vec::new() };
            let mut env: HashMap<String, bool> = HashMap::new();
            for (i, p) in f.params.iter().enumerate() {
                // @main's inputs and weights are resident before execution.
                let free = name == "main" || flags[name][i];
                env.insert(p.name.clone(), free);
            }
            eval.eval(&f.body, &mut env);
            for (callee, position, free) in eval.observations {
                if !free {
                    if let Some(v) = flags.get_mut(&callee) {
                        if position < v.len() && v[position] {
                            v[position] = false;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            return flags;
        }
    }
}

struct OpFreeEval {
    /// (callee, arg position, value-is-op-free) per call site visit.
    observations: Vec<(String, usize, bool)>,
}

impl OpFreeEval {
    fn eval(&mut self, expr: &Expr, env: &mut HashMap<String, bool>) -> bool {
        match &expr.kind {
            ExprKind::Var(n) => env.get(n).copied().unwrap_or(false),
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::RandRange { .. }
            | ExprKind::PhaseBoundary => true,
            ExprKind::Let { .. } => {
                // The spine as a loop: the body is the tail.
                let mut cur = expr;
                while let ExprKind::Let { pat, value, body } = &cur.kind {
                    let v = self.eval(value, env);
                    for n in pat.names() {
                        env.insert(n.clone(), v);
                    }
                    cur = body;
                }
                self.eval(cur, env)
            }
            ExprKind::If { cond, then, els } => {
                let c = self.eval(cond, env);
                let t = self.eval(then, env);
                let e = self.eval(els, env);
                c && t && e
            }
            ExprKind::Match { scrutinee, arms } => {
                let s = self.eval(scrutinee, env);
                let mut r = true;
                for Arm { binders, body, .. } in arms {
                    for b in binders {
                        env.insert(b.clone(), s);
                    }
                    r &= self.eval(body, env);
                }
                r
            }
            ExprKind::Call { callee, args } => {
                let vals: Vec<bool> = args.iter().map(|a| self.eval(a, env)).collect();
                match callee {
                    Callee::Op { .. } => false,
                    Callee::Global(g) => {
                        for (i, v) in vals.iter().enumerate() {
                            self.observations.push((g.clone(), i, *v));
                        }
                        // A function's *result* is op-free only if its body
                        // performs no ops at all — approximate as false.
                        false
                    }
                    Callee::Ctor(_) => vals.into_iter().all(|v| v),
                    Callee::Var(_) => false,
                }
            }
            ExprKind::Tuple(es) | ExprKind::Parallel(es) => {
                es.iter().map(|e| self.eval(e, env)).collect::<Vec<_>>().into_iter().all(|b| b)
            }
            ExprKind::Proj { tuple, .. } => self.eval(tuple, env),
            ExprKind::Lambda { body, .. } => self.eval(body, env),
            ExprKind::Map { func, list } => {
                let l = self.eval(list, env);
                if let ExprKind::Lambda { params, body } = &func.kind {
                    for p in params {
                        env.insert(p.name.clone(), l);
                    }
                    let _ = self.eval(body, env);
                }
                false
            }
            ExprKind::ScalarBin { lhs, rhs, .. } => {
                let a = self.eval(lhs, env);
                let b = self.eval(rhs, env);
                a && b
            }
            ExprKind::ScalarUn { operand, .. } => self.eval(operand, env),
            ExprKind::Sync { tensor, .. } => {
                let _ = self.eval(tensor, env);
                false
            }
        }
    }
}

/// Fixpoint computation of the carried-formal set for `name`.
fn carried_formals(module: &Module, name: &str) -> BTreeSet<usize> {
    let f = &module.functions[name];
    let mut carried: BTreeSet<usize> = BTreeSet::new();
    loop {
        let mut eval = DepEval {
            func: name,
            env: HashMap::new(),
            self_call_actuals: Vec::new(),
            hoistable: None,
            in_conditional: 0,
        };
        for (i, p) in f.params.iter().enumerate() {
            let d = if carried.contains(&i) { Dep::Carried } else { Dep::Clean };
            eval.env.insert(p.name.clone(), d);
        }
        eval.eval(&f.body);
        let mut next = carried.clone();
        for actuals in &eval.self_call_actuals {
            for (i, d) in actuals.iter().enumerate() {
                if *d >= Dep::CleanOp {
                    next.insert(i);
                }
            }
        }
        if next == carried {
            return carried;
        }
        carried = next;
    }
}

/// Second pass: with the carried set fixed, collect hoistable sites.
fn collect_hoistable(
    module: &Module,
    name: &str,
    carried: &BTreeSet<usize>,
    out: &mut BTreeSet<ExprId>,
) {
    let f = &module.functions[name];
    let mut eval = DepEval {
        func: name,
        env: HashMap::new(),
        self_call_actuals: Vec::new(),
        hoistable: Some(BTreeSet::new()),
        in_conditional: 0,
    };
    for (i, p) in f.params.iter().enumerate() {
        let d = if carried.contains(&i) { Dep::Carried } else { Dep::Clean };
        eval.env.insert(p.name.clone(), d);
    }
    eval.eval(&f.body);
    out.extend(eval.hoistable.expect("collection enabled"));
}

struct DepEval<'m> {
    func: &'m str,
    env: HashMap<String, Dep>,
    self_call_actuals: Vec<Vec<Dep>>,
    hoistable: Option<BTreeSet<ExprId>>,
    in_conditional: u32,
}

impl<'m> DepEval<'m> {
    fn eval(&mut self, expr: &Expr) -> Dep {
        match &expr.kind {
            ExprKind::Var(n) => self.env.get(n).copied().unwrap_or(Dep::Clean),
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::RandRange { .. }
            | ExprKind::PhaseBoundary => Dep::Clean,
            ExprKind::Let { .. } => {
                // The spine as a loop: the body is the tail.
                let mut cur = expr;
                while let ExprKind::Let { pat, value, body } = &cur.kind {
                    let v = self.eval(value);
                    for n in pat.names() {
                        self.env.insert(n.clone(), v);
                    }
                    cur = body;
                }
                self.eval(cur)
            }
            ExprKind::If { cond, then, els } => {
                let c = self.eval(cond);
                self.in_conditional += 1;
                let t = self.eval(then);
                let e = self.eval(els);
                self.in_conditional -= 1;
                c.join(t).join(e)
            }
            ExprKind::Match { scrutinee, arms } => {
                let s = self.eval(scrutinee);
                let mut r = Dep::Clean;
                for Arm { binders, body, .. } in arms {
                    for b in binders {
                        // Structural descent preserves the scrutinee's level.
                        self.env.insert(b.clone(), s);
                    }
                    r = r.join(self.eval(body));
                }
                r
            }
            ExprKind::Call { callee, args } => {
                let arg_deps: Vec<Dep> = args.iter().map(|a| self.eval(a)).collect();
                match callee {
                    Callee::Op { .. } => {
                        let input = arg_deps.iter().copied().fold(Dep::Clean, Dep::join);
                        if input < Dep::Carried {
                            if self.in_conditional == 0 {
                                if let Some(h) = &mut self.hoistable {
                                    h.insert(expr.id);
                                }
                            }
                            Dep::CleanOp
                        } else {
                            Dep::Carried
                        }
                    }
                    Callee::Global(n) if n == self.func => {
                        self.self_call_actuals.push(arg_deps);
                        Dep::Carried
                    }
                    _ => arg_deps.into_iter().fold(Dep::CleanOp, Dep::join),
                }
            }
            ExprKind::Tuple(es) | ExprKind::Parallel(es) => {
                es.iter().map(|e| self.eval(e)).fold(Dep::Clean, Dep::join)
            }
            ExprKind::Proj { tuple, .. } => self.eval(tuple),
            ExprKind::Lambda { body, .. } => self.eval(body),
            ExprKind::Map { func, list } => {
                let l = self.eval(list);
                if let ExprKind::Lambda { params, body } = &func.kind {
                    for p in params {
                        self.env.insert(p.name.clone(), l);
                    }
                    l.join(self.eval(body))
                } else {
                    l.join(self.eval(func))
                }
            }
            ExprKind::ScalarBin { lhs, rhs, .. } => self.eval(lhs).join(self.eval(rhs)),
            ExprKind::ScalarUn { operand, .. } => self.eval(operand),
            ExprKind::Sync { tensor, .. } => self.eval(tensor).join(Dep::Carried),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_ir::{parse_module, typeck, Callee, ExprKind};

    fn hoisted(src: &str) -> (Module, BTreeSet<ExprId>) {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let h = hoistable_sites(&m);
        (m, h)
    }

    fn site_named(m: &Module, func: &str, op: &str, nth: usize) -> ExprId {
        let mut found = Vec::new();
        acrobat_ir::ast::visit_exprs(&m.functions[func].body, &mut |e| {
            if let ExprKind::Call { callee: Callee::Op { name, .. }, .. } = &e.kind {
                if name == op {
                    found.push(e.id);
                }
            }
        });
        found[nth]
    }

    /// The paper's RNN (Listing 1 / Listing 2): the input linear transform
    /// hoists, the recurrent transform does not.
    const RNN: &str = r#"
        def @rnn(%inps: List[Tensor[(1, 4)]], %state: Tensor[(1, 4)],
                 $bias: Tensor[(1, 4)], $i_wt: Tensor[(4, 4)], $h_wt: Tensor[(4, 4)])
            -> List[Tensor[(1, 4)]] {
            match %inps {
                Nil => Nil,
                Cons(%inp, %tail) => {
                    let %inp_linear = add($bias, matmul(%inp, $i_wt));
                    let %new_state = sigmoid(add(%inp_linear, matmul(%state, $h_wt)));
                    Cons(%new_state, @rnn(%tail, %new_state, $bias, $i_wt, $h_wt))
                }
            }
        }
        def @main($bias: Tensor[(1, 4)], $i_wt: Tensor[(4, 4)], $h_wt: Tensor[(4, 4)],
                  $init: Tensor[(1, 4)], %inps: List[Tensor[(1, 4)]]) -> List[Tensor[(1, 4)]] {
            @rnn(%inps, $init, $bias, $i_wt, $h_wt)
        }
    "#;

    #[test]
    fn rnn_input_transform_hoists() {
        let (m, h) = hoisted(RNN);
        // matmul #0 = inp × i_wt (hoistable), add #0 = bias + … (hoistable).
        assert!(h.contains(&site_named(&m, "rnn", "matmul", 0)), "input matmul hoists");
        assert!(h.contains(&site_named(&m, "rnn", "add", 0)), "bias add hoists");
        // matmul #1 = state × h_wt (carried), sigmoid + add #1 depend on it.
        assert!(!h.contains(&site_named(&m, "rnn", "matmul", 1)));
        assert!(!h.contains(&site_named(&m, "rnn", "sigmoid", 0)));
        assert!(!h.contains(&site_named(&m, "rnn", "add", 1)));
    }

    #[test]
    fn non_recursive_function_not_considered() {
        let (_, h) = hoisted(
            "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { matmul(%x, $w) }",
        );
        assert!(h.is_empty());
    }

    #[test]
    fn conditional_ops_not_hoisted() {
        let src = r#"
            def @f(%xs: List[Tensor[(1, 2)]], %n: Int) -> Int {
                match %xs {
                    Nil => %n,
                    Cons(%h, %t) => {
                        let %v = if %n > 3 { relu(%h) } else { %h };
                        @f(%t, %n + 1)
                    }
                }
            }
            def @main(%xs: List[Tensor[(1, 2)]]) -> Int { @f(%xs, 0) }
        "#;
        let (_, h) = hoisted(src);
        assert!(h.is_empty(), "op under a conditional must not hoist");
    }

    #[test]
    fn tensor_dependent_function_disables_hoisting() {
        let src = r#"
            def @f(%xs: List[Tensor[(1, 1)]], %acc: Tensor[(1, 1)]) -> Tensor[(1, 1)] {
                match %xs {
                    Nil => %acc,
                    Cons(%h, %t) => {
                        let %lin = relu(%h);
                        if sample(%acc) > 0.5 { @f(%t, %lin) } else { %acc }
                    }
                }
            }
            def @main(%xs: List[Tensor[(1, 1)]], %a: Tensor[(1, 1)]) -> Tensor[(1, 1)] { @f(%xs, %a) }
        "#;
        let (_, h) = hoisted(src);
        assert!(h.is_empty());
    }

    #[test]
    fn treelstm_like_leaf_transform_hoists() {
        let src = r#"
            type Tree[a] { Leaf(a), Node(Tree[a], Tree[a]) }
            def @enc(%t: Tree[Tensor[(1, 4)]], $w: Tensor[(4, 4)], $u: Tensor[(4, 4)]) -> Tensor[(1, 4)] {
                match %t {
                    Leaf(%e) => tanh(matmul(%e, $w)),
                    Node(%l, %r) => {
                        let (%a, %b) = parallel(@enc(%l, $w, $u), @enc(%r, $w, $u));
                        tanh(matmul(add(%a, %b), $u))
                    }
                }
            }
            def @main($w: Tensor[(4, 4)], $u: Tensor[(4, 4)], %t: Tree[Tensor[(1, 4)]]) -> Tensor[(1, 4)] {
                @enc(%t, $w, $u)
            }
        "#;
        let (m, h) = hoisted(src);
        // Leaf embedding transform hoists (depends only on input structure).
        assert!(h.contains(&site_named(&m, "enc", "matmul", 0)));
        assert!(h.contains(&site_named(&m, "enc", "tanh", 0)));
        // Internal-node combine consumes recursive results — not hoistable.
        assert!(!h.contains(&site_named(&m, "enc", "matmul", 1)));
        assert!(!h.contains(&site_named(&m, "enc", "add", 0)));
    }
}
