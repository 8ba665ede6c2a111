//! Abstract syntax of the frontend language.
//!
//! Every expression node carries a unique [`ExprId`] so that later compiler
//! passes (taint analysis, depth assignment, fusion grouping…) can attach
//! side tables without mutating the tree.

use std::collections::BTreeMap;
use std::fmt;

use acrobat_tensor::Shape;

/// Unique identifier of an expression node within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub u32);

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A type in the frontend language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A dense `f32` tensor with a static shape.
    Tensor(Shape),
    /// Native integer scalar.
    Int,
    /// Native floating-point scalar.
    Float,
    /// Native boolean scalar.
    Bool,
    /// Product type.
    Tuple(Vec<Type>),
    /// Instantiated algebraic data type, e.g. `List[Tensor[(1, 256)]]`.
    Adt {
        /// Name of the ADT (`List`, `Tree`, …).
        name: String,
        /// Type arguments.
        args: Vec<Type>,
    },
    /// Function type (used for lambdas passed to `@map`).
    Fn {
        /// Parameter types.
        params: Vec<Type>,
        /// Return type.
        ret: Box<Type>,
    },
    /// Unification variable (only present during type checking).
    Var(u32),
}

impl Type {
    /// Convenience constructor for tensor types.
    pub fn tensor(dims: &[usize]) -> Type {
        Type::Tensor(Shape::new(dims))
    }

    /// Convenience constructor for `List[elem]`.
    pub fn list(elem: Type) -> Type {
        Type::Adt { name: "List".into(), args: vec![elem] }
    }

    /// Returns `true` if the type contains no unification variables.
    pub fn is_concrete(&self) -> bool {
        match self {
            Type::Var(_) => false,
            Type::Tensor(_) | Type::Int | Type::Float | Type::Bool => true,
            Type::Tuple(ts) => ts.iter().all(Type::is_concrete),
            Type::Adt { args, .. } => args.iter().all(Type::is_concrete),
            Type::Fn { params, ret } => params.iter().all(Type::is_concrete) && ret.is_concrete(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Tensor(s) => write!(f, "Tensor[{s}]"),
            Type::Int => write!(f, "Int"),
            Type::Float => write!(f, "Float"),
            Type::Bool => write!(f, "Bool"),
            Type::Tuple(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Type::Adt { name, args } => {
                write!(f, "{name}")?;
                if !args.is_empty() {
                    write!(f, "[")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            Type::Fn { params, ret } => {
                write!(f, "fn(")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ") -> {ret}")
            }
            Type::Var(v) => write!(f, "?{v}"),
        }
    }
}

/// A constructor of an algebraic data type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ctor {
    /// Constructor name (`Cons`, `Leaf`, …). Globally unique in a module.
    pub name: String,
    /// Field types; may reference the ADT's type variables as
    /// `Type::Adt { name: <var>, args: [] }` placeholders resolved during
    /// instantiation.
    pub fields: Vec<Type>,
}

/// An algebraic data type declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adt {
    /// ADT name.
    pub name: String,
    /// Generic type-variable names.
    pub type_vars: Vec<String>,
    /// Constructors.
    pub ctors: Vec<Ctor>,
}

/// Whether a parameter is a shared model parameter or a per-instance input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// `$name` — a model parameter, identical for every instance in the
    /// mini-batch.  These seed the parameter-reuse taint analysis (§5.1).
    Model,
    /// `%name` — per-instance input data.
    Input,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name (without sigil).
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Model parameter vs per-instance input.
    pub kind: ParamKind,
}

/// Scalar binary operators (native control-flow arithmetic, §D.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl ScalarBinOp {
    /// Surface syntax for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            ScalarBinOp::Add => "+",
            ScalarBinOp::Sub => "-",
            ScalarBinOp::Mul => "*",
            ScalarBinOp::Div => "/",
            ScalarBinOp::Lt => "<",
            ScalarBinOp::Le => "<=",
            ScalarBinOp::Gt => ">",
            ScalarBinOp::Ge => ">=",
            ScalarBinOp::Eq => "==",
            ScalarBinOp::Ne => "!=",
            ScalarBinOp::And => "&&",
            ScalarBinOp::Or => "||",
        }
    }
}

/// Scalar unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarUnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
    /// Int → Float conversion.
    ToFloat,
}

/// Synchronization intrinsics: expressions whose evaluation requires the
/// value of a tensor, forcing the lazily-built DFG to execute (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// `item(%t)` — extract the (single) element of a tensor as a `Float`.
    Item,
    /// `sample(%t)` — force the tensor's evaluation, then return the next
    /// pseudo-random `Float` in `[0, 1)` from the instance's seeded stream.
    /// This is the paper's §E.1 mechanism for emulating tensor-dependent
    /// control flow reproducibly across frameworks.
    Sample,
}

/// What a call expression invokes.
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// A global function `@name`.
    Global(String),
    /// A tensor operator from the registry, with attributes.
    Op {
        /// Operator name (`matmul`, `concat`, …).
        name: String,
        /// Attribute list (`[axis=1]`).
        attrs: BTreeMap<String, AttrValue>,
    },
    /// An ADT constructor.
    Ctor(String),
    /// A lambda-typed variable (only inside `@map`-style application).
    Var(String),
}

/// An operator attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Integer attribute.
    Int(i64),
    /// Floating-point attribute.
    Float(f64),
    /// Shape attribute, e.g. `shape=(1, 256)`.
    Shape(Vec<usize>),
}

/// Binding pattern on the left of a `let`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// Single variable.
    Var(String),
    /// Tuple destructuring, e.g. `let (%a, %b) = …`.
    Tuple(Vec<String>),
    /// Discard (`let %_ = …` / statement sequencing).
    Wildcard,
}

impl Pattern {
    /// The variables the pattern binds, in order.
    pub fn names(&self) -> &[String] {
        match self {
            Pattern::Var(n) => std::slice::from_ref(n),
            Pattern::Tuple(ns) => ns,
            Pattern::Wildcard => &[],
        }
    }
}

/// One arm of a `match`.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Constructor name being matched.
    pub ctor: String,
    /// Variables bound to the constructor's fields.
    pub binders: Vec<String>,
    /// Arm body.
    pub body: Expr,
}

/// An expression together with its [`ExprId`].
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Unique id within the module.
    pub id: ExprId,
    /// The expression proper.
    pub kind: ExprKind,
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Variable reference.
    Var(String),
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Boolean literal.
    BoolLit(bool),
    /// `let <pat> = value; body`.
    Let {
        /// Bound pattern.
        pat: Pattern,
        /// Bound value.
        value: Box<Expr>,
        /// Continuation.
        body: Box<Expr>,
    },
    /// `if cond { then } else { els }` — the condition is a native scalar.
    If {
        /// Boolean condition.
        cond: Box<Expr>,
        /// Then branch.
        then: Box<Expr>,
        /// Else branch.
        els: Box<Expr>,
    },
    /// `match scrutinee { Ctor(%a, %b) => body, … }`.
    Match {
        /// Scrutinized ADT value.
        scrutinee: Box<Expr>,
        /// Arms (one per constructor; exhaustiveness is checked).
        arms: Vec<Arm>,
    },
    /// Call of a global function, operator, constructor or lambda variable.
    Call {
        /// The callee.
        callee: Callee,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Tuple construction.
    Tuple(Vec<Expr>),
    /// Tuple projection `%x.0`.
    Proj {
        /// Tuple-valued expression.
        tuple: Box<Expr>,
        /// Field index.
        index: usize,
    },
    /// Anonymous function (argument of `@map`).
    Lambda {
        /// Parameters (always `ParamKind::Input`).
        params: Vec<Param>,
        /// Body.
        body: Box<Expr>,
    },
    /// `@map(f, list)` — builtin structure-preserving map over a list, whose
    /// element applications are independent (instance parallelism, O.2).
    Map {
        /// Function to apply (lambda or global).
        func: Box<Expr>,
        /// List argument.
        list: Box<Expr>,
    },
    /// `parallel(e₁, …, eₙ)` — the paper's concurrent-call annotation
    /// (Fig. 2): evaluates to a tuple whose components may execute
    /// concurrently.
    Parallel(Vec<Expr>),
    /// Scalar binary operation.
    ScalarBin {
        /// Operator.
        op: ScalarBinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Scalar unary operation.
    ScalarUn {
        /// Operator.
        op: ScalarUnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Tensor-value synchronization intrinsic (`item` / `sample`).
    Sync {
        /// Which intrinsic.
        kind: SyncKind,
        /// The tensor whose value is required.
        tensor: Box<Expr>,
    },
    /// `rand_range[lo=…, hi=…]()` — seeded pseudo-random integer in
    /// `[lo, hi]`; does *not* force DFG evaluation.
    RandRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// `phase;` — manual program-phase boundary annotation (§4.1); evaluates
    /// to unit-like `Int 0` and is otherwise a no-op.
    PhaseBoundary,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDef {
    /// Function name (without the `@` sigil).
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Declared return type.
    pub ret: Type,
    /// Body expression.
    pub body: Expr,
}

/// A parsed (and possibly typed) module: ADTs plus functions.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// ADT declarations by name.
    pub adts: BTreeMap<String, Adt>,
    /// Function definitions by name.
    pub functions: BTreeMap<String, FnDef>,
    /// Inferred type of every expression (populated by the type checker).
    pub expr_types: BTreeMap<ExprId, Type>,
    /// Resolved primitive operator for every tensor-operator call site
    /// (populated by the type checker).
    pub op_prims: BTreeMap<ExprId, acrobat_tensor::PrimOp>,
    /// Number of expression ids allocated so far.
    pub next_expr_id: u32,
    /// Number of type variables allocated so far (parser + type checker).
    pub next_type_var: u32,
}

impl Module {
    /// Allocates a fresh [`ExprId`].
    pub fn fresh_id(&mut self) -> ExprId {
        let id = ExprId(self.next_expr_id);
        self.next_expr_id += 1;
        id
    }

    /// The inferred type of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the module has not been type checked or `id` is foreign.
    pub fn type_of(&self, id: ExprId) -> &Type {
        self.expr_types.get(&id).expect("expression not typed; run typeck first")
    }

    /// Looks up the ADT that declares constructor `ctor`.
    pub fn adt_of_ctor(&self, ctor: &str) -> Option<&Adt> {
        self.adts.values().find(|adt| adt.ctors.iter().any(|c| c.name == ctor))
    }

    /// Built-in prelude ADTs (`List`) that every module receives.
    pub fn with_prelude() -> Module {
        let mut m = Module::default();
        m.adts.insert(
            "List".into(),
            Adt {
                name: "List".into(),
                type_vars: vec!["a".into()],
                ctors: vec![
                    Ctor { name: "Nil".into(), fields: vec![] },
                    Ctor {
                        name: "Cons".into(),
                        fields: vec![
                            Type::Adt { name: "a".into(), args: vec![] },
                            Type::Adt {
                                name: "List".into(),
                                args: vec![Type::Adt { name: "a".into(), args: vec![] }],
                            },
                        ],
                    },
                ],
            },
        );
        m
    }
}

impl Expr {
    /// Calls `f` on each direct child, in evaluation order.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match &self.kind {
            ExprKind::Var(_)
            | ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::RandRange { .. }
            | ExprKind::PhaseBoundary => {}
            ExprKind::Let { value, body, .. } => {
                f(value);
                f(body);
            }
            ExprKind::If { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
            ExprKind::Match { scrutinee, arms } => {
                f(scrutinee);
                arms.iter().for_each(|arm| f(&arm.body));
            }
            ExprKind::Call { args: es, .. } | ExprKind::Tuple(es) | ExprKind::Parallel(es) => {
                es.iter().for_each(f)
            }
            ExprKind::Proj { tuple: e, .. }
            | ExprKind::Lambda { body: e, .. }
            | ExprKind::ScalarUn { operand: e, .. }
            | ExprKind::Sync { tensor: e, .. } => f(e),
            ExprKind::Map { func: a, list: b } | ExprKind::ScalarBin { lhs: a, rhs: b, .. } => {
                f(a);
                f(b);
            }
        }
    }

    /// Calls `f` on each direct child, mutably, in evaluation order.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match &mut self.kind {
            ExprKind::Var(_)
            | ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::RandRange { .. }
            | ExprKind::PhaseBoundary => {}
            ExprKind::Let { value, body, .. } => {
                f(value);
                f(body);
            }
            ExprKind::If { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
            ExprKind::Match { scrutinee, arms } => {
                f(scrutinee);
                arms.iter_mut().for_each(|arm| f(&mut arm.body));
            }
            ExprKind::Call { args: es, .. } | ExprKind::Tuple(es) | ExprKind::Parallel(es) => {
                es.iter_mut().for_each(f)
            }
            ExprKind::Proj { tuple: e, .. }
            | ExprKind::Lambda { body: e, .. }
            | ExprKind::ScalarUn { operand: e, .. }
            | ExprKind::Sync { tensor: e, .. } => f(e),
            ExprKind::Map { func: a, list: b } | ExprKind::ScalarBin { lhs: a, rhs: b, .. } => {
                f(a);
                f(b);
            }
        }
    }

    /// Whether the expression calls the global function `@name`.
    pub fn calls(&self, name: &str) -> bool {
        let mut found = false;
        visit_exprs(self, &mut |e| {
            found |=
                matches!(&e.kind, ExprKind::Call { callee: Callee::Global(n), .. } if n == name)
        });
        found
    }

    /// Whether the expression contains a sync point (`item`/`sample`), i.e.
    /// tensor-dependent control flow.
    pub fn contains_sync(&self) -> bool {
        let mut found = false;
        visit_exprs(self, &mut |e| found |= matches!(e.kind, ExprKind::Sync { .. }));
        found
    }
}

/// Walks an expression tree, calling `f` on every node (pre-order).  The
/// walk keeps its own stack of pending subtrees, so a `let` spine (or any
/// other chain) costs heap, not call-stack frames.
pub fn visit_exprs<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    let mut pending = vec![expr];
    while let Some(e) = pending.pop() {
        f(e);
        let start = pending.len();
        e.for_each_child(|c| pending.push(c));
        pending[start..].reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        let t = Type::list(Type::tensor(&[1, 4]));
        assert_eq!(t.to_string(), "List[Tensor[(1, 4)]]");
        let f = Type::Fn { params: vec![Type::Int, Type::Bool], ret: Box::new(Type::Float) };
        assert_eq!(f.to_string(), "fn(Int, Bool) -> Float");
        assert_eq!(Type::Tuple(vec![Type::Int, Type::Int]).to_string(), "(Int, Int)");
    }

    #[test]
    fn concrete_detection() {
        assert!(Type::tensor(&[2]).is_concrete());
        assert!(!Type::Var(0).is_concrete());
        assert!(!Type::list(Type::Var(1)).is_concrete());
    }

    #[test]
    fn prelude_has_list() {
        let m = Module::with_prelude();
        assert!(m.adts.contains_key("List"));
        assert_eq!(m.adt_of_ctor("Cons").unwrap().name, "List");
        assert_eq!(m.adt_of_ctor("Nil").unwrap().name, "List");
        assert!(m.adt_of_ctor("Leaf").is_none());
    }

    #[test]
    fn fresh_ids_monotonic() {
        let mut m = Module::default();
        let a = m.fresh_id();
        let b = m.fresh_id();
        assert!(b > a);
    }
}
