//! Kernel fusion planning (§4, §C.1 of the paper).
//!
//! Two fusion styles, both confined to a static block:
//!
//! * **Vertical fusion** — a producer whose result is consumed exactly once,
//!   by a later operator in the same block, folds into its consumer's
//!   kernel.  At most one "heavy" operator (matmul, reductions, softmax,
//!   layer norm) per fused group; elementwise and memory operators
//!   (the paper's reshape/concat/transpose force-fusion case, §D.3) fold
//!   freely.  This is what "standard kernel fusion" toggles in Fig. 5.
//! * **Horizontal fusion** — independent groups with identical operator
//!   structure that load a common external operand merge into one kernel,
//!   exploiting the shared operand (the LSTM four-gate case, Fig. 8).
//!
//! The output is a partition of each block's sites into [`FusionGroup`]s;
//! `acrobat-codegen` compiles each group into a single batched kernel
//! program, and the runtime launches one kernel per group per batch.

use std::collections::BTreeSet;

use acrobat_ir::{ExprId, Module, Type};

use crate::blocks::{BlockMap, StaticBlock};
use crate::AnalysisOptions;

/// Identifier of a fusion group, unique within a module analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

/// How a group was formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKind {
    /// A single un-fused operator.
    Single,
    /// Vertically fused producer/consumer chain.
    Vertical,
    /// Horizontally merged concurrent operators.
    Horizontal,
}

/// A fusion group: operator sites executed as one kernel.
#[derive(Debug, Clone)]
pub struct FusionGroup {
    /// Group id.
    pub id: GroupId,
    /// Formation kind.
    pub kind: GroupKind,
    /// Member sites in execution order.
    pub sites: Vec<ExprId>,
}

/// Is this operator "heavy" (at most one allowed per fused kernel)?
fn is_heavy(op: &acrobat_tensor::PrimOp) -> bool {
    !(op.is_elementwise() || op.is_memory_op() || matches!(op, acrobat_tensor::PrimOp::Fill { .. }))
}

/// Plans fusion groups for every block.
///
/// With `options.fusion` off every site becomes its own [`GroupKind::Single`]
/// group (the Fig. 5 "no fusion" configuration).  Horizontal fusion runs
/// *first* (merging same-shape heavy operators that share an operand, as in
/// Fig. 8) and vertical fusion then folds elementwise and memory operators
/// into the resulting groups.
pub fn plan_fusion(
    module: &Module,
    mut map: BlockMap,
    options: AnalysisOptions,
    hoisted: &BTreeSet<ExprId>,
) -> BlockMap {
    let mut next_group = 0u32;
    for block in &mut map.blocks {
        let n = block.sites.len();
        let mut uf = UnionFind::new(n);
        let mut horizontal_roots: Vec<bool> = vec![false; n];
        if options.fusion {
            let hoist_flags: Vec<bool> =
                block.sites.iter().map(|s| hoisted.contains(&s.site)).collect();
            if options.horizontal_fusion {
                horizontal_pass(module, block, &mut uf, &mut horizontal_roots, &hoist_flags);
            }
            vertical_pass(module, block, &mut uf, &mut horizontal_roots, &hoist_flags);
            repair_pass(block, &mut uf, &mut horizontal_roots);
        }
        block.groups = uf
            .groups()
            .into_iter()
            .map(|members| {
                let id = GroupId(next_group);
                next_group += 1;
                let kind = if horizontal_roots[uf.find(members[0])] {
                    GroupKind::Horizontal
                } else if members.len() == 1 {
                    GroupKind::Single
                } else {
                    GroupKind::Vertical
                };
                FusionGroup {
                    id,
                    kind,
                    sites: members.iter().map(|&i| block.sites[i].site).collect(),
                }
            })
            .collect();
    }
    map
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }

    fn find(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        // Keep the smaller index as root (stable execution ordering).
        let (root, child) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        self.parent[child] = root;
        root
    }

    fn groups(&self) -> Vec<Vec<usize>> {
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for i in 0..self.parent.len() {
            by_root.entry(self.find(i)).or_default().push(i);
        }
        let mut groups: Vec<Vec<usize>> = by_root.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

/// Kernels are materialized when their group's *last* site executes.  A
/// group is therefore only executable if no site outside it consumes one of
/// its results before that point.  The greedy passes can rarely violate this
/// (an interleaved group consuming a mid-group escaping output); such groups
/// are split back into singletons.  Each scan is linear: every group's last
/// site is found once, not once per edge.
fn repair_pass(block: &StaticBlock, uf: &mut UnionFind, horizontal_roots: &mut [bool]) {
    let n = block.sites.len();
    let mut last = vec![0; n];
    loop {
        // Sites are in execution order, so a root's last member is the
        // highest index whose root it is.
        for i in 0..n {
            last[uf.find(i)] = i;
        }
        let bad_root = (0..n).find_map(|consumer| {
            let rc = uf.find(consumer);
            block.sites[consumer].arg_sources.iter().flatten().find_map(|&producer| {
                let rp = uf.find(producer);
                (rp != rc && consumer < last[rp]).then_some(rp)
            })
        });
        let Some(root) = bad_root else { return };
        // Split the offending group into singletons (collect members first:
        // resetting parents invalidates find paths).
        let members: Vec<usize> = (0..n).filter(|&i| uf.find(i) == root).collect();
        for i in members {
            uf.parent[i] = i;
        }
        horizontal_roots[root] = false;
    }
}

/// Transitive data-dependence restricted to the `width` candidate sites
/// (`cand[i]` is site `i`'s candidate index, or `usize::MAX`): bit `c` of
/// `reach[i]` is set when candidate `c` feeds site `i`.  Linear in the
/// block for a fixed candidate count.
fn reachability(block: &StaticBlock, cand: &[usize], width: usize) -> Vec<Vec<u64>> {
    let words = width.div_ceil(64);
    let mut reach: Vec<Vec<u64>> = Vec::with_capacity(block.sites.len());
    for site in &block.sites {
        let mut bits = vec![0u64; words];
        for &src in site.arg_sources.iter().flatten() {
            // A later source (none in practice) has no closure yet.
            for (w, r) in bits.iter_mut().zip(reach.get(src).into_iter().flatten()) {
                *w |= r;
            }
            if let Some(c) = cand.get(src).copied().filter(|&c| c != usize::MAX) {
                bits[c / 64] |= 1 << (c % 64);
            }
        }
        reach.push(bits);
    }
    reach
}

/// Merges independent heavy operators with identical op+shapes that load a
/// common external variable (the LSTM gate projections of Fig. 8).
fn horizontal_pass(
    module: &Module,
    block: &StaticBlock,
    uf: &mut UnionFind,
    horizontal_roots: &mut [bool],
    hoist_flags: &[bool],
) {
    let n = block.sites.len();
    let sig = |i: usize| -> Option<String> {
        let site = block.sites[i].site;
        let op = &module.op_prims[&site];
        if !is_heavy(op) {
            return None;
        }
        let shape = match module.expr_types.get(&site) {
            Some(Type::Tensor(s)) => s.to_string(),
            _ => return None,
        };
        Some(format!("{op}|{shape}"))
    };
    let ext_vars = |i: usize| -> Vec<&String> {
        block.sites[i]
            .arg_sources
            .iter()
            .zip(&block.sites[i].arg_vars)
            .filter(|(src, _)| src.is_none())
            .filter_map(|(_, v)| v.as_ref())
            .collect()
    };
    // Only heavy sites sharing a signature with another can merge.  Each
    // bucket's pairs are tried in the order of a scan over all pairs
    // `i < j`: unions only ever join one bucket's sites, so a bucket sees
    // exactly the union-find state it would in that scan.
    let mut buckets: std::collections::BTreeMap<String, Vec<usize>> = Default::default();
    for i in 0..n {
        if let Some(si) = sig(i) {
            buckets.entry(si).or_default().push(i);
        }
    }
    buckets.retain(|_, sites| sites.len() > 1);
    if buckets.is_empty() {
        return;
    }
    let mut cand = vec![usize::MAX; n];
    for (c, &i) in buckets.values().flatten().enumerate() {
        cand[i] = c;
    }
    let reach = reachability(block, &cand, buckets.values().map(Vec::len).sum());
    let feeds = |a: usize, b: usize| reach[b][cand[a] / 64] & (1 << (cand[a] % 64)) != 0;
    for sites in buckets.values() {
        for (at, &i) in sites.iter().enumerate() {
            for &j in &sites[at + 1..] {
                if uf.find(i) == uf.find(j) {
                    continue;
                }
                if feeds(i, j) || feeds(j, i) {
                    continue;
                }
                if hoist_flags[i] != hoist_flags[j] {
                    continue; // never mix hoistable and recursion-carried work
                }
                let vi = ext_vars(i);
                if !ext_vars(j).iter().any(|v| vi.contains(v)) {
                    continue;
                }
                let root = uf.union(i, j);
                horizontal_roots[root] = true;
            }
        }
    }
}

/// Folds single-use producers into their consumers, subject to the one-heavy
/// rule; horizontal groups count as a single heavy unit and accept
/// elementwise epilogues.
fn vertical_pass(
    module: &Module,
    block: &StaticBlock,
    uf: &mut UnionFind,
    horizontal_roots: &mut [bool],
    hoist_flags: &[bool],
) {
    let n = block.sites.len();
    let heavy: Vec<bool> =
        block.sites.iter().map(|s| is_heavy(&module.op_prims[&s.site])).collect();
    // Heavy budget per current root (a horizontal bundle counts as one).
    let mut budget: Vec<usize> = vec![0; n];
    for (i, &is_heavy_site) in heavy.iter().enumerate() {
        let r = uf.find(i);
        if horizontal_roots[r] {
            budget[r] = 1;
        } else if is_heavy_site {
            budget[r] += 1;
        }
    }
    for i in 0..n {
        for src in block.sites[i].arg_sources.clone().iter().flatten() {
            let p = *src;
            if block.sites[p].internal_uses != 1 || block.sites[p].escapes {
                continue;
            }
            let (ri, rp) = (uf.find(i), uf.find(p));
            if ri == rp {
                continue;
            }
            // A statically-hoisted producer must stay in its own kernel: a
            // group mixing hoisted and carried sites could not be assigned a
            // static depth (§B.1).
            if hoist_flags[i] != hoist_flags[p] {
                continue;
            }
            let combined = budget[ri] + budget[rp];
            let either_horizontal = horizontal_roots[ri] || horizontal_roots[rp];
            // One heavy unit per group; a horizontal bundle additionally
            // accepts heavy-free epilogues/prologues.
            let ok = combined <= 1 || (either_horizontal && (budget[ri] == 0 || budget[rp] == 0));
            if !ok {
                continue;
            }
            let was_horizontal = either_horizontal;
            let root = uf.union(ri, rp);
            budget[root] = combined;
            if was_horizontal {
                horizontal_roots[root] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::find_blocks;
    use acrobat_ir::{parse_module, typeck};

    fn plan(src: &str, opts: AnalysisOptions) -> BlockMap {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let b = find_blocks(&m);
        plan_fusion(&m, b, opts, &BTreeSet::new())
    }

    const CHAIN: &str =
        "def @main($w: Tensor[(2, 2)], $b: Tensor[(1, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
        sigmoid(add($b, matmul(%x, $w)))
    }";

    #[test]
    fn epilogue_fuses_into_matmul() {
        let map = plan(CHAIN, AnalysisOptions::default());
        let block = &map.blocks[0];
        assert_eq!(block.groups.len(), 1, "matmul+add+sigmoid is one kernel");
        assert_eq!(block.groups[0].sites.len(), 3);
        assert_eq!(block.groups[0].kind, GroupKind::Vertical);
    }

    #[test]
    fn fusion_off_one_group_per_site() {
        let map = plan(CHAIN, AnalysisOptions::none());
        let block = &map.blocks[0];
        assert_eq!(block.groups.len(), 3);
        assert!(block.groups.iter().all(|g| g.kind == GroupKind::Single));
    }

    #[test]
    fn two_matmuls_do_not_fuse_vertically() {
        let src = "def @main($w1: Tensor[(2, 2)], $w2: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
            matmul(matmul(%x, $w1), $w2)
        }";
        let map = plan(src, AnalysisOptions::default());
        assert_eq!(map.blocks[0].groups.len(), 2, "two heavy ops stay separate");
    }

    #[test]
    fn escaping_producer_not_fused() {
        let src = "def @main(%x: Tensor[(1, 2)]) -> (Tensor[(1, 2)], Tensor[(1, 2)]) {
            let %a = relu(%x);
            (%a, tanh(%a))
        }";
        let map = plan(src, AnalysisOptions::default());
        // relu escapes (returned), so tanh cannot swallow it.
        assert_eq!(map.blocks[0].groups.len(), 2);
    }

    #[test]
    fn lstm_gates_fuse_horizontally() {
        // Four gate projections of the same input — the Fig. 8 case.
        let src = "def @main($wi: Tensor[(2, 2)], $wf: Tensor[(2, 2)], $wo: Tensor[(2, 2)], $wc: Tensor[(2, 2)],
                              %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
            let %i = sigmoid(matmul(%x, $wi));
            let %f = sigmoid(matmul(%x, $wf));
            let %o = sigmoid(matmul(%x, $wo));
            let %c = tanh(matmul(%x, $wc));
            mul(mul(%i, %f), mul(%o, %c))
        }";
        let map = plan(src, AnalysisOptions::default());
        let block = &map.blocks[0];
        let horizontal: Vec<_> =
            block.groups.iter().filter(|g| g.kind == GroupKind::Horizontal).collect();
        assert_eq!(horizontal.len(), 1, "groups: {:?}", block.groups);
        // All four gate projections share one kernel (they load the same %x
        // and the same-shape weights).
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let _ = m;
        assert!(horizontal[0].sites.len() >= 4, "groups: {:?}", block.groups);
    }

    #[test]
    fn horizontal_off_keeps_lanes_separate() {
        let src = "def @main($wi: Tensor[(2, 2)], $wf: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
            add(sigmoid(matmul(%x, $wi)), sigmoid(matmul(%x, $wf)))
        }";
        let mut opts = AnalysisOptions { horizontal_fusion: false, ..Default::default() };
        let map = plan(src, opts);
        // add cannot fuse into either matmul group (it consumes both, each
        // single-use… it can fuse into ONE of them). Expect 2 groups.
        assert!(map.blocks[0].groups.len() >= 2);
        opts.horizontal_fusion = true;
        let map2 = plan(src, opts);
        assert!(
            map2.blocks[0].groups.len() < map.blocks[0].groups.len()
                || map2.blocks[0].groups.iter().any(|g| g.kind == GroupKind::Horizontal),
            "horizontal fusion reduces kernel count"
        );
    }

    #[test]
    fn memory_ops_fuse_into_consumer() {
        let src = "def @main(%a: Tensor[(1, 2)], %b: Tensor[(1, 2)]) -> Tensor[(1, 4)] {
            relu(concat[axis=1](%a, %b))
        }";
        let map = plan(src, AnalysisOptions::default());
        assert_eq!(map.blocks[0].groups.len(), 1, "concat folds into relu");
    }

    #[test]
    fn site_info_marks_closers() {
        let m = typeck::check_module(parse_module(CHAIN).unwrap()).unwrap();
        let map = plan_fusion(&m, find_blocks(&m), AnalysisOptions::default(), &BTreeSet::new());
        let info = crate::blocks::site_info(&map);
        let block = &map.blocks[0];
        let last = block.sites.last().unwrap().site;
        assert!(info[&last].closes_block);
        assert!(info[&last].closes_group);
        let first = block.sites.first().unwrap().site;
        assert!(!info[&first].closes_block);
    }
}
