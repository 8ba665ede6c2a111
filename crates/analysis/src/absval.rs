//! Parameter-reuse inference: a 1-context-sensitive interprocedural taint
//! analysis (§5.1 of the paper).
//!
//! The question the batched-kernel generator needs answered for every
//! argument of every tensor-operator call site is: *will all DFG nodes
//! batched for this site pass the same tensor here?*  If yes the argument is
//! [`ArgClass::Shared`] (loaded once by the batched kernel — model
//! parameters, constant tensors); otherwise it is [`ArgClass::Batched`].
//!
//! The analysis computes, for every expression, an abstract value:
//!
//! * [`AbsVal::Inv`] — *batch-invariant*, with a symbolic identity
//!   describing which value it is (a `$` model parameter, a constant
//!   operator such as `zeros`, or an operator applied to invariant inputs);
//! * [`AbsVal::Instance`] — (possibly) differs across mini-batch instances.
//!
//! Functions are analyzed per *context*: the vector of abstract arguments at
//! the call site (this subsumes the paper's 1-call-site sensitivity on our
//! two-level lattice, while remaining finite).  When the same operator call
//! site observes *different* invariant identities in different contexts —
//! the paper's BiRNN example, where `@rnn` is invoked with forward and then
//! backward weights — the site cannot have a single shared binding; the
//! conflict is recorded and resolved by code duplication ([`crate::dup`]).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use acrobat_ir::{Arm, Callee, Expr, ExprId, ExprKind, Module, Param, ParamKind, Pattern};

use crate::ArgClass;

/// Symbolic identity of a batch-invariant value: a dense index into the
/// analysis' identity table.  Two values share a kernel argument slot iff
/// their identities are equal, and the table interns each distinct
/// [`Ident`] once, so index equality is structural equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvId(u32);

/// What an identity stands for.  A derived value names its operands by
/// their [`InvId`]s, so interning one costs its arity, not the size of the
/// expression it denotes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Ident {
    /// A value with no operands: `param:w`, `lit:i1`, `ctor:<site>`, ….
    Leaf(String),
    /// `head(operands…)`: `op:<site>`, `sb:<symbol>` or `su:<op>` applied
    /// to invariant operands.
    Node(String, Vec<InvId>),
}

/// Abstract value of an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsVal {
    /// Batch-invariant with the given identity.
    Inv(InvId),
    /// Differs (or may differ) across instances.
    Instance,
    /// Tuple of abstract values (kept precise for `parallel` results).
    Tuple(Vec<AbsVal>),
}

impl AbsVal {
    /// Least upper bound.  Distinct invariant identities join to
    /// [`AbsVal::Instance`]: a value that is one parameter on one control
    /// path and another parameter on a different path is not uniform across
    /// the batch.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Inv(a), AbsVal::Inv(b)) if a == b => AbsVal::Inv(*a),
            (AbsVal::Tuple(xs), AbsVal::Tuple(ys)) if xs.len() == ys.len() => {
                AbsVal::Tuple(xs.iter().zip(ys).map(|(x, y)| x.join(y)).collect())
            }
            _ => AbsVal::Instance,
        }
    }

    /// Collapses tuples: the join of all leaves.
    fn flatten(&self) -> AbsVal {
        match self {
            AbsVal::Tuple(xs) => {
                let mut acc: Option<AbsVal> = None;
                for x in xs {
                    let fx = x.flatten();
                    acc = Some(match acc {
                        None => fx,
                        Some(a) => a.join(&fx),
                    });
                }
                acc.unwrap_or(AbsVal::Instance)
            }
            other => other.clone(),
        }
    }

    fn inv_id(&self) -> Option<InvId> {
        match self {
            AbsVal::Inv(id) => Some(*id),
            _ => None,
        }
    }
}

/// Accumulated observation of one operator-site argument across contexts.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SiteArg {
    Unseen,
    Inv(InvId),
    /// Invariant in every context but under different identities — the
    /// duplication trigger.
    MultiInv,
    Instance,
}

impl SiteArg {
    fn observe(&mut self, v: &AbsVal) {
        let flat = v.flatten();
        *self = match (&*self, &flat) {
            (SiteArg::Unseen, AbsVal::Inv(id)) => SiteArg::Inv(*id),
            (SiteArg::Unseen, _) => SiteArg::Instance,
            (SiteArg::Inv(a), AbsVal::Inv(b)) if a == b => SiteArg::Inv(*a),
            (SiteArg::Inv(_), AbsVal::Inv(_)) => SiteArg::MultiInv,
            (SiteArg::MultiInv, AbsVal::Inv(_)) => SiteArg::MultiInv,
            (_, _) => SiteArg::Instance,
        };
    }
}

/// Binding vector: per argument position, the invariant identity if the
/// argument is batch-invariant (`None` = instance data).
pub type BindingVec = Vec<Option<InvId>>;

/// Result of the reuse analysis.
#[derive(Debug, Clone, Default)]
pub struct ReuseAnalysis {
    /// Final argument classes per operator call site.
    pub arg_classes: BTreeMap<ExprId, Vec<ArgClass>>,
    /// Functions observed under genuinely conflicting invariant bindings
    /// (two contexts with *different* invariant identities at the same
    /// position), with the distinct restricted binding keys seen (used by
    /// [`crate::dup`]).  Positions where one context is invariant and
    /// another is instance data do **not** conflict — duplication cannot
    /// make instance data shared.
    pub conflicts: BTreeMap<String, BTreeSet<String>>,
    /// For every *global-function call site*: the callee and its restricted
    /// binding key (drives call-site rewriting in duplication).
    pub call_signatures: BTreeMap<ExprId, (String, String)>,
}

/// Runs the reuse analysis over a type-checked module.
///
/// # Panics
///
/// Panics if the module has no `@main` (checked by [`crate::analyze`]).
pub fn analyze_reuse(module: &Module) -> ReuseAnalysis {
    let main = module.functions.get("main").expect("module has @main");
    let mut a = Analyzer {
        module,
        idents: HashMap::new(),
        table: Vec::new(),
        site_args: BTreeMap::new(),
        memo: HashMap::new(),
        stack: Vec::new(),
        call_sigs: BTreeMap::new(),
        fn_bindings: BTreeMap::new(),
        queue: Vec::new(),
    };
    let args: Vec<AbsVal> = main
        .params
        .iter()
        .map(|p| match p.kind {
            ParamKind::Model => a.leaf(format!("param:{}", p.name)),
            ParamKind::Input => AbsVal::Instance,
        })
        .collect();
    a.analyze_fn("main", &args);
    // Drain widened recursive contexts: a recursive call whose context
    // differs from the pending one (e.g. the RNN hidden state becoming
    // loop-carried instance data) must still have its body's operator sites
    // observed under the widened context.
    let mut guard = 0;
    while let Some((func, args)) = a.queue.pop() {
        guard += 1;
        if guard > 1000 {
            break; // widening guarantees termination; belt and braces
        }
        let key = (func.clone(), binding_vec(&args));
        if !a.memo.contains_key(&key) {
            a.analyze_fn(&func, &args);
        }
    }

    let mut result = ReuseAnalysis::default();
    for (site, args) in &a.site_args {
        result.arg_classes.insert(
            *site,
            args.iter()
                .map(|s| match s {
                    SiteArg::Inv(_) => ArgClass::Shared,
                    // MultiInv is *not* shared until duplication splits it.
                    _ => ArgClass::Batched,
                })
                .collect(),
        );
    }
    // Conflict positions: ≥2 distinct invariant identities at one position.
    let mut conflict_positions: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (func, bindings) in &a.fn_bindings {
        let nargs = bindings.iter().map(Vec::len).max().unwrap_or(0);
        let mut positions = Vec::new();
        for p in 0..nargs {
            let ids: BTreeSet<InvId> =
                bindings.iter().filter_map(|b| b.get(p).copied().flatten()).collect();
            if ids.len() >= 2 {
                positions.push(p);
            }
        }
        if !positions.is_empty() {
            conflict_positions.insert(func.clone(), positions);
        }
    }
    for (func, positions) in &conflict_positions {
        let keys: BTreeSet<String> =
            a.fn_bindings[func].iter().map(|b| a.restricted_key(b, positions)).collect();
        if keys.len() >= 2 {
            result.conflicts.insert(func.clone(), keys);
        }
    }
    // Restricted call signatures (only for callees with conflicts).
    for (site, (callee, binding)) in &a.call_sigs {
        if let Some(positions) = conflict_positions.get(callee) {
            result
                .call_signatures
                .insert(*site, (callee.clone(), a.restricted_key(binding, positions)));
        }
    }
    result
}

struct Analyzer<'m> {
    module: &'m Module,
    /// Interned identities: [`Ident`] → its index in `table`.
    idents: HashMap<Ident, InvId>,
    table: Vec<Ident>,
    site_args: BTreeMap<ExprId, Vec<SiteArg>>,
    /// (func, binding vector of the args) → result.
    memo: HashMap<(String, BindingVec), AbsVal>,
    /// Functions currently being analyzed: (name, binding vector, abstract
    /// args).
    stack: Vec<(String, BindingVec, Vec<AbsVal>)>,
    call_sigs: BTreeMap<ExprId, (String, BindingVec)>,
    fn_bindings: BTreeMap<String, BTreeSet<BindingVec>>,
    /// Widened recursive contexts awaiting analysis.
    queue: Vec<(String, Vec<AbsVal>)>,
}

fn binding_vec(args: &[AbsVal]) -> BindingVec {
    args.iter()
        .map(|a| match a.flatten() {
            AbsVal::Inv(id) => Some(id),
            _ => None,
        })
        .collect()
}

impl<'m> Analyzer<'m> {
    /// The invariant value whose identity is `ident`, interned.
    fn intern(&mut self, ident: Ident) -> AbsVal {
        let next = InvId(self.table.len() as u32);
        let id = *self.idents.entry(ident).or_insert_with_key(|ident| {
            self.table.push(ident.clone());
            next
        });
        AbsVal::Inv(id)
    }

    fn leaf(&mut self, name: String) -> AbsVal {
        self.intern(Ident::Leaf(name))
    }

    /// A binding restricted to `positions`, spelled out: each identity's
    /// canonical string (`param:w`, `op:<site>(<inputs>)`, …), or `*` for
    /// instance data, each followed by `|`.  The spelling orders a
    /// function's clones ([`crate::dup`] names them by rank).
    fn restricted_key(&self, binding: &BindingVec, positions: &[usize]) -> String {
        let mut s = String::new();
        for &p in positions {
            match binding.get(p).copied().flatten() {
                Some(id) => self.spell(id, &mut s),
                None => s.push('*'),
            }
            s.push('|');
        }
        s
    }

    /// Appends `id`'s canonical string to `out`, from a stack of pending
    /// identities (`Ok`) and punctuation (`Err`): a derived identity can be
    /// as deep as the `let` chain behind it.
    fn spell(&self, id: InvId, out: &mut String) {
        let mut todo = vec![Ok(id)];
        while let Some(piece) = todo.pop() {
            match piece.map(|id| &self.table[id.0 as usize]) {
                Err(text) => out.push_str(text),
                Ok(Ident::Leaf(name)) => out.push_str(name),
                Ok(Ident::Node(head, operands)) => {
                    out.push_str(head);
                    out.push('(');
                    todo.push(Err(")"));
                    for (i, &operand) in operands.iter().enumerate().rev() {
                        todo.push(Ok(operand));
                        if i > 0 {
                            todo.push(Err(","));
                        }
                    }
                }
            }
        }
    }

    fn analyze_fn(&mut self, name: &str, args: &[AbsVal]) -> AbsVal {
        let canon = binding_vec(args);
        let key = (name.to_string(), canon.clone());
        if let Some(hit) = self.memo.get(&key) {
            return hit.clone();
        }
        if let Some((_, _, pending_args)) = self.stack.iter().find(|(f, _, _)| f == name) {
            if self.stack.iter().any(|(f, k, _)| f == name && *k == canon) {
                // Identical context: optimistic recursion result.
                return AbsVal::Instance;
            }
            // Context differs from the pending one: widen the differing
            // positions to instance data and queue the widened context for
            // a full analysis once the stack unwinds.  Widening bounds the
            // context set (each position is either the original identity or
            // instance data), so the worklist terminates.
            let widened: Vec<AbsVal> = pending_args
                .iter()
                .zip(args)
                .map(|(p, a)| {
                    let (pf, af) = (p.flatten(), a.flatten());
                    if pf == af {
                        af
                    } else {
                        AbsVal::Instance
                    }
                })
                .collect();
            self.queue.push((name.to_string(), widened));
            return AbsVal::Instance;
        }
        self.fn_bindings.entry(name.to_string()).or_default().insert(canon.clone());
        self.stack.push((name.to_string(), canon, args.to_vec()));
        let f = &self.module.functions[name];
        let mut env: HashMap<String, AbsVal> = HashMap::new();
        for (p, a) in f.params.iter().zip(args) {
            env.insert(p.name.clone(), a.clone());
        }
        let result = self.eval(&f.body, &mut env);
        self.stack.pop();
        self.memo.insert(key, result.clone());
        result
    }

    fn eval(&mut self, expr: &Expr, env: &mut HashMap<String, AbsVal>) -> AbsVal {
        match &expr.kind {
            ExprKind::Var(name) => env.get(name).cloned().unwrap_or(AbsVal::Instance),
            ExprKind::IntLit(v) => self.leaf(format!("lit:i{v}")),
            ExprKind::FloatLit(v) => self.leaf(format!("lit:f{v}")),
            ExprKind::BoolLit(v) => self.leaf(format!("lit:b{v}")),
            ExprKind::PhaseBoundary => self.leaf("lit:phase".into()),
            ExprKind::RandRange { .. } => AbsVal::Instance,
            ExprKind::Let { .. } => {
                // A `let` spine is walked as a loop, not a recursion: bind
                // each value in turn, evaluate the tail, then restore the
                // shadowed bindings innermost first, as nested frames would.
                let mut saved = Vec::new();
                let mut cur = expr;
                while let ExprKind::Let { pat, value, body } = &cur.kind {
                    let v = self.eval(value, env);
                    match pat {
                        Pattern::Var(n) => saved.push((n.clone(), env.insert(n.clone(), v))),
                        Pattern::Wildcard => {}
                        Pattern::Tuple(ns) => match v {
                            AbsVal::Tuple(parts) if parts.len() == ns.len() => {
                                for (n, p) in ns.iter().zip(parts) {
                                    saved.push((n.clone(), env.insert(n.clone(), p)));
                                }
                            }
                            other => {
                                let flat = other.flatten();
                                for n in ns {
                                    saved.push((n.clone(), env.insert(n.clone(), flat.clone())));
                                }
                            }
                        },
                    }
                    cur = body;
                }
                let r = self.eval(cur, env);
                for (n, old) in saved.into_iter().rev() {
                    match old {
                        Some(v) => env.insert(n, v),
                        None => env.remove(&n),
                    };
                }
                r
            }
            ExprKind::If { cond, then, els } => {
                let _ = self.eval(cond, env);
                let t = self.eval(then, env);
                let e = self.eval(els, env);
                t.join(&e)
            }
            ExprKind::Match { scrutinee, arms } => {
                let sv = self.eval(scrutinee, env).flatten();
                let mut result: Option<AbsVal> = None;
                for Arm { binders, body, .. } in arms {
                    let mut saved = Vec::new();
                    for b in binders {
                        saved.push((b.clone(), env.insert(b.clone(), sv.clone())));
                    }
                    let r = self.eval(body, env);
                    for (n, old) in saved {
                        match old {
                            Some(v) => env.insert(n, v),
                            None => env.remove(&n),
                        };
                    }
                    result = Some(match result {
                        None => r,
                        Some(acc) => acc.join(&r),
                    });
                }
                result.unwrap_or(AbsVal::Instance)
            }
            ExprKind::Call { callee, args } => {
                let arg_vals: Vec<AbsVal> = args.iter().map(|a| self.eval(a, env)).collect();
                match callee {
                    Callee::Op { .. } => {
                        // Record the observation for each argument.
                        let entry = self
                            .site_args
                            .entry(expr.id)
                            .or_insert_with(|| vec![SiteArg::Unseen; arg_vals.len()]);
                        for (slot, v) in entry.iter_mut().zip(&arg_vals) {
                            slot.observe(v);
                        }
                        // The result is invariant iff every input is.
                        let mut ids = Vec::with_capacity(arg_vals.len());
                        for v in &arg_vals {
                            match v.flatten().inv_id() {
                                Some(id) => ids.push(id),
                                None => return AbsVal::Instance,
                            }
                        }
                        self.intern(Ident::Node(format!("op:{}", expr.id), ids))
                    }
                    Callee::Global(name) => {
                        self.call_sigs.insert(expr.id, (name.clone(), binding_vec(&arg_vals)));
                        self.analyze_fn(name, &arg_vals)
                    }
                    Callee::Ctor(_) => {
                        // ADT value: collapse fields.
                        let mut acc: Option<AbsVal> = None;
                        for v in &arg_vals {
                            let f = v.flatten();
                            acc = Some(match acc {
                                None => f,
                                Some(a) => a.join(&f),
                            });
                        }
                        acc.unwrap_or_else(|| self.leaf(format!("ctor:{}", expr.id)))
                    }
                    Callee::Var(name) => {
                        // Calling a lambda-typed variable: conservatively
                        // instance (lambdas are analyzed at `map` below).
                        let _ = env.get(name);
                        AbsVal::Instance
                    }
                }
            }
            ExprKind::Tuple(parts) | ExprKind::Parallel(parts) => {
                AbsVal::Tuple(parts.iter().map(|p| self.eval(p, env)).collect())
            }
            ExprKind::Proj { tuple, index } => {
                let tv = self.eval(tuple, env);
                match tv {
                    AbsVal::Tuple(parts) => parts.get(*index).cloned().unwrap_or(AbsVal::Instance),
                    other => other.flatten(),
                }
            }
            ExprKind::Lambda { .. } => AbsVal::Instance,
            ExprKind::Map { func, list } => {
                let lv = self.eval(list, env).flatten();
                match &func.kind {
                    ExprKind::Lambda { params, body } => {
                        let mut saved = Vec::new();
                        for Param { name, .. } in params {
                            saved.push((name.clone(), env.insert(name.clone(), lv.clone())));
                        }
                        let r = self.eval(body, env);
                        for (n, old) in saved {
                            match old {
                                Some(v) => env.insert(n, v),
                                None => env.remove(&n),
                            };
                        }
                        r
                    }
                    _ => AbsVal::Instance,
                }
            }
            ExprKind::ScalarBin { lhs, rhs, op } => {
                let l = self.eval(lhs, env).flatten();
                let r = self.eval(rhs, env).flatten();
                match (l.inv_id(), r.inv_id()) {
                    (Some(a), Some(b)) => {
                        self.intern(Ident::Node(format!("sb:{}", op.symbol()), vec![a, b]))
                    }
                    _ => AbsVal::Instance,
                }
            }
            ExprKind::ScalarUn { operand, op } => {
                let v = self.eval(operand, env).flatten();
                match v.inv_id() {
                    Some(a) => self.intern(Ident::Node(format!("su:{op:?}"), vec![a])),
                    None => AbsVal::Instance,
                }
            }
            ExprKind::Sync { tensor, .. } => {
                let _ = self.eval(tensor, env);
                AbsVal::Instance
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_ir::{parse_module, typeck};

    fn analyze(src: &str) -> (Module, ReuseAnalysis) {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let r = analyze_reuse(&m);
        (m, r)
    }

    /// Finds the single op site whose name matches.
    fn op_site(m: &Module, name: &str) -> ExprId {
        let mut found = None;
        for f in m.functions.values() {
            acrobat_ir::ast::visit_exprs(&f.body, &mut |e| {
                if let ExprKind::Call { callee: Callee::Op { name: n, .. }, .. } = &e.kind {
                    if n == name {
                        found = Some(e.id);
                    }
                }
            });
        }
        found.unwrap_or_else(|| panic!("no op site `{name}`"))
    }

    #[test]
    fn weight_is_shared_input_is_batched() {
        let (m, r) = analyze(
            "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { matmul(%x, $w) }",
        );
        let classes = &r.arg_classes[&op_site(&m, "matmul")];
        assert_eq!(classes, &vec![ArgClass::Batched, ArgClass::Shared]);
    }

    #[test]
    fn constant_tensor_is_shared() {
        // The §E.4 TreeLSTM case: a constant-valued tensor is recognized as
        // reusable (DyNet re-creates it per leaf).
        let (m, r) = analyze(
            "def @main(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { add(%x, zeros[shape=(1, 2)]()) }",
        );
        let classes = &r.arg_classes[&op_site(&m, "add")];
        assert_eq!(classes, &vec![ArgClass::Batched, ArgClass::Shared]);
    }

    #[test]
    fn op_on_params_stays_shared() {
        // w2 = transpose(w) is still batch-invariant, so its consumers see a
        // shared argument.
        let (m, r) = analyze(
            "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                let %wt = transpose($w);
                matmul(%x, %wt)
             }",
        );
        let classes = &r.arg_classes[&op_site(&m, "matmul")];
        assert_eq!(classes[1], ArgClass::Shared);
        // transpose itself takes a shared input.
        let t = &r.arg_classes[&op_site(&m, "transpose")];
        assert_eq!(t[0], ArgClass::Shared);
    }

    #[test]
    fn recursion_keeps_weight_shared() {
        let src = r#"
            def @rnn(%xs: List[Tensor[(1, 2)]], %h: Tensor[(1, 2)], $w: Tensor[(2, 2)]) -> Tensor[(1, 2)] {
                match %xs {
                    Nil => %h,
                    Cons(%x, %t) => {
                        let %nh = tanh(matmul(add(%x, %h), $w));
                        @rnn(%t, %nh, $w)
                    }
                }
            }
            def @main($w: Tensor[(2, 2)], $h0: Tensor[(1, 2)], %xs: List[Tensor[(1, 2)]]) -> Tensor[(1, 2)] {
                @rnn(%xs, $h0, $w)
            }
        "#;
        let (m, r) = analyze(src);
        let classes = &r.arg_classes[&op_site(&m, "matmul")];
        assert_eq!(classes[1], ArgClass::Shared, "recurrent weight stays shared");
        assert_eq!(classes[0], ArgClass::Batched);
        assert!(r.conflicts.is_empty());
    }

    #[test]
    fn birnn_two_weight_contexts_conflict() {
        // The paper's §C.1 example: one @rnn called with two different
        // parameter sets — conflict, requiring duplication.
        let src = r#"
            def @step(%x: Tensor[(1, 2)], $w: Tensor[(2, 2)]) -> Tensor[(1, 2)] {
                tanh(matmul(%x, $w))
            }
            def @main($wf: Tensor[(2, 2)], $wb: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                let %f = @step(%x, $wf);
                let %b = @step(%x, $wb);
                add(%f, %b)
            }
        "#;
        let (m, r) = analyze(src);
        assert!(r.conflicts.contains_key("step"), "conflicts: {:?}", r.conflicts);
        let keys = ["param:wb|", "param:wf|"].map(String::from);
        assert_eq!(r.conflicts["step"], BTreeSet::from(keys), "keys spell the identities");
        // Without duplication the weight argument must degrade to batched.
        let classes = &r.arg_classes[&op_site(&m, "matmul")];
        assert_eq!(classes[1], ArgClass::Batched);
    }

    #[test]
    fn same_context_twice_is_no_conflict() {
        let src = r#"
            def @step(%x: Tensor[(1, 2)], $w: Tensor[(2, 2)]) -> Tensor[(1, 2)] {
                tanh(matmul(%x, $w))
            }
            def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                let %a = @step(%x, $w);
                @step(%a, $w)
            }
        "#;
        let (m, r) = analyze(src);
        assert!(r.conflicts.is_empty());
        let classes = &r.arg_classes[&op_site(&m, "matmul")];
        assert_eq!(classes[1], ArgClass::Shared);
    }

    #[test]
    fn branch_selected_weight_not_shared() {
        // A weight chosen by instance-dependent control flow differs across
        // instances — must be batched.
        let src = r#"
            def @main($w1: Tensor[(2, 2)], $w2: Tensor[(2, 2)], %x: Tensor[(1, 2)], %c: Bool) -> Tensor[(1, 2)] {
                let %w = if %c { $w1 } else { $w2 };
                matmul(%x, %w)
            }
        "#;
        let (m, r) = analyze(src);
        let classes = &r.arg_classes[&op_site(&m, "matmul")];
        assert_eq!(classes[1], ArgClass::Batched);
    }

    #[test]
    fn map_lambda_sites_observed() {
        let src = r#"
            def @main($w: Tensor[(2, 2)], %xs: List[Tensor[(1, 2)]]) -> List[Tensor[(1, 2)]] {
                map(fn(%p) { matmul(%p, $w) }, %xs)
            }
        "#;
        let (m, r) = analyze(src);
        let classes = &r.arg_classes[&op_site(&m, "matmul")];
        assert_eq!(classes, &vec![ArgClass::Batched, ArgClass::Shared]);
    }

    #[test]
    fn sample_result_is_instance() {
        let src = r#"
            def @main($w: Tensor[(1, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                let %s = sample(%x);
                if %s > 0.5 { relu(%x) } else { relu($w) }
            }
        "#;
        let (m, r) = analyze(src);
        // Two relu sites: one sees instance data, one sees the param.
        let mut seen = Vec::new();
        for f in m.functions.values() {
            acrobat_ir::ast::visit_exprs(&f.body, &mut |e| {
                if let ExprKind::Call { callee: Callee::Op { name, .. }, .. } = &e.kind {
                    if name == "relu" {
                        seen.push(r.arg_classes[&e.id][0]);
                    }
                }
            });
        }
        seen.sort_by_key(|c| format!("{c}"));
        assert_eq!(seen, vec![ArgClass::Batched, ArgClass::Shared]);
    }
}
