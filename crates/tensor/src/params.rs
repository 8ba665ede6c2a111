//! Bound model parameters: an immutable, shared set of named weights with
//! an identity.
//!
//! A [`Params`] is built once from its tensors and never changes; clones
//! share it (an `Arc`) and keep its [`Params::id`], which no other
//! `Params` in the process has.  That identity is what lets weights stay
//! put: an execution context keeps one `Params` resident in its arena and
//! uploads again only when a request brings a different one
//! ([`crate::DeviceMem::make_resident`]).
//!
//! A `Params` also owns each weight's [`PackedRhs`] — its columns repacked
//! into the panels [`crate::matmul_packed`] streams — built on the first
//! multiply that asks for it and then shared by every context, like TVM's
//! build-time weight-layout transform.  The panels are host memory outside
//! the modeled arena: they change where the kernels load a weight from,
//! never what the device model counts.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::{packed_width, PackedRhs, Tensor};

/// Immutable model parameters (`$`-bindings of `@main`) with a
/// process-unique identity; see the [module docs](self).
///
/// ```
/// use acrobat_tensor::{Params, Tensor};
///
/// let params = Params::from([("w".to_string(), Tensor::ones(&[2, 2]))]);
/// let shared = params.clone();
/// assert_eq!(shared.id(), params.id(), "clones are the same parameters");
/// let copy: Params = params.iter().map(|(n, t)| (n.clone(), t.clone())).collect();
/// assert_ne!(copy.id(), params.id(), "equal contents, another identity");
/// assert_eq!(copy["w"], params["w"]);
/// ```
#[derive(Clone)]
pub struct Params(Arc<Inner>);

struct Inner {
    id: u64,
    /// Sorted by name (a `BTreeMap`'s order), parallel to `tensors`.
    names: Vec<String>,
    tensors: Vec<Tensor>,
    /// Each tensor's panels, packed on first use.
    panels: Vec<OnceLock<Option<PackedRhs>>>,
}

impl Params {
    /// Binds `tensors` as one immutable parameter set with a fresh identity.
    pub fn new(tensors: BTreeMap<String, Tensor>) -> Params {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let (names, tensors): (Vec<_>, Vec<_>) = tensors.into_iter().unzip();
        let panels = tensors.iter().map(|_| OnceLock::new()).collect();
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        Params(Arc::new(Inner { id, names, tensors, panels }))
    }

    /// The identity: equal for clones of one `Params`, distinct for every
    /// `Params` built separately, whatever their contents.
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Position of the tensor named `name` (the order of [`Params::iter`]).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.0.names.binary_search_by(|n| n.as_str().cmp(name)).ok()
    }

    /// The tensor named `name`.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.index_of(name).map(|i| &self.0.tensors[i])
    }

    /// The tensor at position `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn tensor(&self, index: usize) -> &Tensor {
        &self.0.tensors[index]
    }

    /// `(name, tensor)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Tensor)> {
        self.0.names.iter().zip(&self.0.tensors)
    }

    /// The tensor at `index` packed into [`crate::matmul_packed`]'s panels
    /// as a `k × n` right operand, or `None` unless it is a rank-2 `k × n`
    /// matrix.  Packed once, on the first call, and shared by every caller
    /// after it.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn panels(&self, index: usize, k: usize, n: usize) -> Option<&PackedRhs> {
        let packed = self.0.panels[index].get_or_init(|| {
            let t = &self.0.tensors[index];
            let (rows, cols) = match t.shape().dims() {
                &[rows, cols] => (rows, cols),
                _ => return None,
            };
            Some(PackedRhs::new(t.data(), rows, cols, packed_width()))
        });
        packed.as_ref().filter(|p| p.dims() == (k, n))
    }
}

impl fmt::Debug for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Params").field("id", &self.0.id).field("names", &self.0.names).finish()
    }
}

impl Default for Params {
    /// No tensors, with a fresh identity.
    fn default() -> Params {
        Params::new(BTreeMap::new())
    }
}

impl<const N: usize> From<[(String, Tensor); N]> for Params {
    fn from(tensors: [(String, Tensor); N]) -> Params {
        Params::new(BTreeMap::from(tensors))
    }
}

impl FromIterator<(String, Tensor)> for Params {
    fn from_iter<I: IntoIterator<Item = (String, Tensor)>>(iter: I) -> Params {
        Params::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Params {
    type Item = (&'a String, &'a Tensor);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, String>, std::slice::Iter<'a, Tensor>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.names.iter().zip(&self.0.tensors)
    }
}

impl std::ops::Index<&str> for Params {
    type Output = Tensor;

    fn index(&self, name: &str) -> &Tensor {
        self.get(name).unwrap_or_else(|| panic!("no parameter named {name:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_are_packed_once_and_only_for_matching_matrices() {
        let params = Params::from([
            ("b".to_string(), Tensor::ones(&[1, 4])),
            ("w".to_string(), Tensor::from_fn(&[3, 5], |i| i as f32)),
            ("v".to_string(), Tensor::ones(&[6])),
        ]);
        let w = params.index_of("w").unwrap();
        let first = params.panels(w, 3, 5).expect("a 3 × 5 matrix packs") as *const PackedRhs;
        let again = params.clone();
        assert!(std::ptr::eq(first, again.panels(w, 3, 5).unwrap()), "packed once, shared");
        assert!(params.panels(w, 5, 3).is_none(), "another matrix shape");
        assert!(params.panels(params.index_of("v").unwrap(), 1, 6).is_none(), "rank 1");
    }
}
