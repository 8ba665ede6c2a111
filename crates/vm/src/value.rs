//! The request boundary ([`InputValue`], [`OutputValue`]) and the boxed
//! runtime values of the Relay-VM baseline ([`Value`]).
//!
//! The interpreter's tensor values are *lazy*: a [`TensorRef`] names a DFG
//! value that may not exist yet (dynamic batching defers kernel execution).
//! The reference is filled exactly once, when the producing fusion group's
//! DFG node is created.
//!
//! Value representation is where the two backends differ, reproducing the
//! paper's §D.2/§E.2 comparison: the AOT backend has no `Value` at all —
//! its registers are plain words whose meaning is fixed at lowering time
//! ([`crate::aot`]) — while the Relay-VM-style interpreter boxes every
//! scalar on the heap ([`Value::BoxedScalar`]), exactly what Relay's VM
//! does and a major source of its control-flow overhead.  The box holds the
//! same typed word an AOT register holds, so both backends compute the same
//! scalars.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use acrobat_ir::{Expr, Type};
use acrobat_runtime::ValueId;
use acrobat_tensor::Tensor;

/// A lazily-materialized tensor: a slot for the DFG value id, set once when
/// the producing kernel node is built.
#[derive(Debug, Clone, Default)]
pub struct TensorRef(Arc<OnceLock<ValueId>>);

impl TensorRef {
    /// A reference that will be filled when its fusion group closes.
    pub fn pending() -> TensorRef {
        TensorRef::default()
    }

    /// A reference to an already-registered DFG value.
    pub fn ready(v: ValueId) -> TensorRef {
        let cell = OnceLock::new();
        cell.set(v).expect("fresh cell");
        TensorRef(Arc::new(cell))
    }

    /// The DFG value, if assigned.
    pub fn get(&self) -> Option<ValueId> {
        self.0.get().copied()
    }

    /// Assigns the DFG value.
    ///
    /// # Panics
    ///
    /// Panics if already assigned (fusion-group invariant violation).
    pub fn set(&self, v: ValueId) {
        self.0.set(v).expect("tensor reference assigned twice");
    }
}

/// A closure value (Relay-VM backend only; the AOT backend compiles lambdas
/// to functions with explicit captures).
#[derive(Debug)]
pub struct Closure {
    /// Parameter names.
    pub params: Vec<String>,
    /// Body expression (shared with the module).
    pub body: Arc<Expr>,
    /// Captured environment.
    pub env: Vec<(String, Value)>,
}

/// A scalar register word with its type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Word {
    /// `Int`.
    Int(i64),
    /// `Float`.
    Float(f64),
    /// `Bool`.
    Bool(bool),
}

impl Word {
    /// The `ty` word whose register bits are `bits`; `None` when `ty` is
    /// not a scalar type.
    pub fn from_bits(ty: &Type, bits: u64) -> Option<Word> {
        Some(match ty {
            Type::Int => Word::Int(bits as i64),
            Type::Float => Word::Float(f64::from_bits(bits)),
            Type::Bool => Word::Bool(bits != 0),
            _ => return None,
        })
    }

    /// The register bits, as the AOT executor stores them.
    pub fn bits(self) -> u64 {
        match self {
            Word::Int(x) => x as u64,
            Word::Float(x) => x.to_bits(),
            Word::Bool(x) => u64::from(x),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A (lazy) device tensor.
    Tensor(TensorRef),
    /// A scalar, boxed on the heap (Relay-VM backend; §D.2).
    BoxedScalar(Arc<Word>),
    /// Tuple.
    Tuple(Arc<Vec<Value>>),
    /// ADT value with a resolved constructor tag.
    Adt {
        /// Constructor tag (module-wide, see [`crate::session::CtorTable`]).
        tag: u32,
        /// Field values.
        fields: Arc<Vec<Value>>,
    },
    /// Closure (VM backend only).
    Closure(Arc<Closure>),
}

impl Value {
    /// Extracts the tensor reference.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a tensor (type checking prevents this).
    pub fn as_tensor(&self) -> &TensorRef {
        match self {
            Value::Tensor(t) => t,
            other => panic!("expected tensor value, got {other:?}"),
        }
    }

    /// Boxes a scalar.
    pub fn scalar(word: Word) -> Value {
        Value::BoxedScalar(Arc::new(word))
    }

    /// The register bits of a boxed scalar.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a scalar (type checking prevents this).
    pub fn bits(&self) -> u64 {
        match self {
            Value::BoxedScalar(w) => w.bits(),
            other => panic!("expected scalar value, got {other:?}"),
        }
    }
}

/// Host-side description of one `@main` argument (per-instance input).
#[derive(Debug, Clone, PartialEq)]
pub enum InputValue {
    /// A tensor.
    Tensor(Tensor),
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f64),
    /// Boolean scalar.
    Bool(bool),
    /// Tuple of inputs.
    Tuple(Vec<InputValue>),
    /// ADT value by constructor name.
    Adt {
        /// Constructor name (e.g. `Cons`).  Names are almost always
        /// literals, and an input tree carries one per node: borrowing the
        /// literal (`"Cons".into()`) keeps a heap string off every node.
        ctor: Cow<'static, str>,
        /// Field inputs.
        fields: Vec<InputValue>,
    },
}

impl InputValue {
    /// Builds a `List[…]` from items.
    pub fn list(items: Vec<InputValue>) -> InputValue {
        let mut out = InputValue::Adt { ctor: "Nil".into(), fields: vec![] };
        for item in items.into_iter().rev() {
            out = InputValue::Adt { ctor: "Cons".into(), fields: vec![item, out] };
        }
        out
    }

    /// Collects every tensor in traversal order (used for batched uploads).
    pub fn tensors<'a>(&'a self, out: &mut Vec<&'a Tensor>) {
        match self {
            InputValue::Tensor(t) => out.push(t),
            InputValue::Tuple(parts) => {
                for p in parts {
                    p.tensors(out);
                }
            }
            InputValue::Adt { fields, .. } => {
                for f in fields {
                    f.tensors(out);
                }
            }
            _ => {}
        }
    }
}

/// Host-side result of a model run: tensors downloaded, structure preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputValue {
    /// A downloaded tensor.
    Tensor(Tensor),
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f64),
    /// Boolean scalar.
    Bool(bool),
    /// Tuple of outputs.
    Tuple(Vec<OutputValue>),
    /// ADT value by constructor name.
    Adt {
        /// Constructor name.  Both backends name a cell by the module's
        /// interned copy (`Cow::Borrowed`), so a list output carries no heap
        /// string per element.
        ctor: Cow<'static, str>,
        /// Field outputs.
        fields: Vec<OutputValue>,
    },
}

impl OutputValue {
    /// Flattens a `List[…]` output into items; `None` if not a list.
    pub fn into_list(self) -> Option<Vec<OutputValue>> {
        let mut items = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                OutputValue::Adt { ctor, mut fields } if ctor == "Cons" && fields.len() == 2 => {
                    let tail = fields.pop().expect("cons tail");
                    let head = fields.pop().expect("cons head");
                    items.push(head);
                    cur = tail;
                }
                OutputValue::Adt { ctor, .. } if ctor == "Nil" => return Some(items),
                _ => return None,
            }
        }
    }

    /// All tensors in the output, in traversal order.
    pub fn tensors(&self) -> Vec<&Tensor> {
        let mut out = Vec::new();
        fn walk<'a>(v: &'a OutputValue, out: &mut Vec<&'a Tensor>) {
            match v {
                OutputValue::Tensor(t) => out.push(t),
                OutputValue::Tuple(parts) => parts.iter().for_each(|p| walk(p, out)),
                OutputValue::Adt { fields, .. } => fields.iter().for_each(|f| walk(f, out)),
                _ => {}
            }
        }
        walk(self, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_ref_set_once() {
        let r = TensorRef::pending();
        assert!(r.get().is_none());
        r.set(ValueId(3));
        assert_eq!(r.get(), Some(ValueId(3)));
        let ready = TensorRef::ready(ValueId(9));
        assert_eq!(ready.get(), Some(ValueId(9)));
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn tensor_ref_double_set_panics() {
        let r = TensorRef::pending();
        r.set(ValueId(1));
        r.set(ValueId(2));
    }

    #[test]
    fn boxed_scalar_views() {
        for (ty, word) in [
            (Type::Int, Word::Int(16_777_217)),
            (Type::Float, Word::Float(-0.1)),
            (Type::Bool, Word::Bool(true)),
        ] {
            let v = Value::scalar(word);
            assert_eq!(Word::from_bits(&ty, v.bits()), Some(word));
        }
    }

    #[test]
    fn input_list_roundtrip() {
        let l = InputValue::list(vec![InputValue::Int(1), InputValue::Int(2)]);
        match &l {
            InputValue::Adt { ctor, fields } => {
                assert_eq!(ctor, "Cons");
                assert_eq!(fields[0], InputValue::Int(1));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn output_list_flatten() {
        let o = OutputValue::Adt {
            ctor: "Cons".into(),
            fields: vec![
                OutputValue::Int(1),
                OutputValue::Adt { ctor: "Nil".into(), fields: vec![] },
            ],
        };
        assert_eq!(o.into_list().unwrap(), vec![OutputValue::Int(1)]);
        assert!(OutputValue::Int(3).into_list().is_none());
    }

    #[test]
    fn input_tensor_collection() {
        let t = Tensor::ones(&[2]);
        let i = InputValue::Tuple(vec![
            InputValue::Tensor(t.clone()),
            InputValue::list(vec![InputValue::Tensor(t.clone())]),
        ]);
        let mut v = Vec::new();
        i.tensors(&mut v);
        assert_eq!(v.len(), 2);
    }
}
