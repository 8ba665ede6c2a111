//! Static-block discovery (§A, §B.2 of the paper).
//!
//! A *static block* is a maximal straight-line region of tensor-operator
//! call sites with no intervening control flow — the paper's observation is
//! that dynamic control flow *surrounds* such static sub-graphs.  Blocks are
//! the unit of grain-size coarsening (one DFG node per block instead of one
//! per operator) and the scope within which kernel fusion operates.
//!
//! Besides the blocks themselves this pass records intra-block def-use
//! information: for every operator argument, whether it is produced by an
//! earlier operator in the same block (an *internal* edge — a fusion
//! candidate) or arrives from outside, and whether an operator's result
//! escapes the block (escaping results cannot be fused away).

use std::collections::{BTreeMap, HashMap};

use acrobat_ir::{Callee, Expr, ExprId, ExprKind, Module, Pattern};

use crate::fusion::FusionGroup;
use crate::SiteInfo;

/// Identifier of a static block, unique within a module analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// One operator call site within a block, with its local dataflow.
#[derive(Debug, Clone)]
pub struct SiteNode {
    /// The operator call expression.
    pub site: ExprId,
    /// Argument expression ids (for shape lookups).
    pub arg_exprs: Vec<ExprId>,
    /// For each argument: the index (into [`StaticBlock::sites`]) of the
    /// producing site when the value is produced inside this block.
    pub arg_sources: Vec<Option<usize>>,
    /// For each *external* argument: the variable name it loads, when it is
    /// a direct variable reference (drives horizontal-fusion sharing).
    pub arg_vars: Vec<Option<String>>,
    /// How many times this site's result is consumed by later operators in
    /// the same block.
    pub internal_uses: usize,
    /// Whether the result is consumed by anything other than an operator in
    /// this block (returned, passed to a call, used in another block…).
    pub escapes: bool,
}

/// A static block: straight-line operator sites in execution order.
#[derive(Debug, Clone)]
pub struct StaticBlock {
    /// Block id.
    pub id: BlockId,
    /// Enclosing function.
    pub func: String,
    /// Sites in execution order.
    pub sites: Vec<SiteNode>,
    /// Fusion groups (a partition of `sites`), filled by
    /// [`crate::fusion::plan_fusion`].
    pub groups: Vec<FusionGroup>,
}

/// All static blocks of a module.
#[derive(Debug, Clone, Default)]
pub struct BlockMap {
    /// Blocks in discovery order.
    pub blocks: Vec<StaticBlock>,
}

impl BlockMap {
    /// Total number of operator sites across all blocks.
    pub fn site_count(&self) -> usize {
        self.blocks.iter().map(|b| b.sites.len()).sum()
    }
}

/// Discovers static blocks for every function of a type-checked module.
pub fn find_blocks(module: &Module) -> BlockMap {
    let mut finder =
        Finder { blocks: Vec::new(), current: None, env: HashMap::new(), escapes: BTreeMap::new() };
    for f in module.functions.values() {
        finder.env.clear();
        finder.current = None;
        finder.walk_consumed(&f.body, &f.name);
        finder.current = None;
    }
    // Apply escape marks recorded after a block closed.
    let escapes = std::mem::take(&mut finder.escapes);
    let mut map = BlockMap { blocks: finder.blocks };
    for block in &mut map.blocks {
        for node in &mut block.sites {
            if escapes.contains_key(&node.site) {
                node.escapes = true;
            }
        }
    }
    map
}

/// Builds the per-site position table from a fusion-annotated block map.
pub fn site_info(map: &BlockMap) -> BTreeMap<ExprId, SiteInfo> {
    let mut out = BTreeMap::new();
    for block in &map.blocks {
        let last_block_site = block.sites.last().map(|s| s.site);
        for group in &block.groups {
            let last_group_site = group.sites.last().copied();
            for &site in &group.sites {
                out.insert(
                    site,
                    SiteInfo {
                        block: block.id,
                        group: group.id,
                        closes_group: Some(site) == last_group_site,
                        closes_block: Some(site) == last_block_site,
                    },
                );
            }
        }
    }
    out
}

/// Where a value came from, for def-use tracking.
#[derive(Debug, Clone)]
enum Source {
    /// Produced by an operator site (block index in `blocks`, site index).
    Site { block: usize, idx: usize, site: ExprId },
    /// A plain variable reference.
    Var(String),
    /// Anything else.
    Other,
}

struct Finder {
    blocks: Vec<StaticBlock>,
    /// Index into `blocks` of the block currently being grown.
    current: Option<usize>,
    /// Variable → source, within the current function.
    env: HashMap<String, Source>,
    /// Sites whose results escaped after their block closed.
    escapes: BTreeMap<ExprId, ()>,
}

impl Finder {
    fn break_block(&mut self) {
        self.current = None;
    }

    fn mark_escape(&mut self, src: &Source) {
        if let Source::Site { block, idx, site } = src {
            // The site may be in a closed block; record both ways.
            if let Some(b) = self.blocks.get_mut(*block) {
                if let Some(node) = b.sites.get_mut(*idx) {
                    node.escapes = true;
                    return;
                }
            }
            self.escapes.insert(*site, ());
        }
    }

    /// Walks `expr` and marks its resulting value as consumed by a
    /// non-operator context.
    fn walk_consumed(&mut self, expr: &Expr, func: &str) {
        let src = self.walk(expr, func);
        self.mark_escape(&src);
    }

    fn walk(&mut self, expr: &Expr, func: &str) -> Source {
        match &expr.kind {
            ExprKind::Var(name) => self.env.get(name).cloned().unwrap_or(Source::Var(name.clone())),
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::RandRange { .. }
            | ExprKind::PhaseBoundary => Source::Other,
            ExprKind::Let { .. } => {
                // The spine as a loop: the body is the tail.
                let mut cur = expr;
                while let ExprKind::Let { pat, value, body } = &cur.kind {
                    let v = self.walk(value, func);
                    match pat {
                        Pattern::Var(n) => {
                            self.env.insert(n.clone(), v);
                        }
                        Pattern::Wildcard => self.mark_escape(&v),
                        Pattern::Tuple(ns) => {
                            // Tuple components lose site identity (conservative).
                            self.mark_escape(&v);
                            for n in ns {
                                self.env.insert(n.clone(), Source::Other);
                            }
                        }
                    }
                    cur = body;
                }
                self.walk(cur, func)
            }
            ExprKind::If { cond, then, els } => {
                self.walk_consumed(cond, func);
                self.break_block();
                self.walk_consumed(then, func);
                self.break_block();
                self.walk_consumed(els, func);
                self.break_block();
                Source::Other
            }
            ExprKind::Match { scrutinee, arms } => {
                self.walk_consumed(scrutinee, func);
                self.break_block();
                for arm in arms {
                    for b in &arm.binders {
                        self.env.insert(b.clone(), Source::Other);
                    }
                    self.walk_consumed(&arm.body, func);
                    self.break_block();
                }
                Source::Other
            }
            ExprKind::Call { callee, args } => {
                match callee {
                    Callee::Op { .. } => {
                        let mut arg_exprs = Vec::with_capacity(args.len());
                        let mut arg_srcs = Vec::with_capacity(args.len());
                        for a in args {
                            arg_exprs.push(a.id);
                            arg_srcs.push(self.walk(a, func));
                        }
                        // Open a block if none is active.
                        let bidx = match self.current {
                            Some(b) => b,
                            None => {
                                let id = BlockId(self.blocks.len() as u32);
                                self.blocks.push(StaticBlock {
                                    id,
                                    func: func.to_string(),
                                    sites: Vec::new(),
                                    groups: Vec::new(),
                                });
                                let b = self.blocks.len() - 1;
                                self.current = Some(b);
                                b
                            }
                        };
                        let mut arg_sources = Vec::with_capacity(args.len());
                        let mut arg_vars = Vec::with_capacity(args.len());
                        for s in &arg_srcs {
                            match s {
                                Source::Site { block, idx, .. } if *block == bidx => {
                                    self.blocks[bidx].sites[*idx].internal_uses += 1;
                                    arg_sources.push(Some(*idx));
                                    arg_vars.push(None);
                                }
                                Source::Site { .. } => {
                                    // Produced in an earlier block: external
                                    // input for us, escape for the producer.
                                    self.mark_escape(s);
                                    arg_sources.push(None);
                                    arg_vars.push(None);
                                }
                                Source::Var(v) => {
                                    arg_sources.push(None);
                                    arg_vars.push(Some(v.clone()));
                                }
                                Source::Other => {
                                    arg_sources.push(None);
                                    arg_vars.push(None);
                                }
                            }
                        }
                        let idx = self.blocks[bidx].sites.len();
                        self.blocks[bidx].sites.push(SiteNode {
                            site: expr.id,
                            arg_exprs,
                            arg_sources,
                            arg_vars,
                            internal_uses: 0,
                            escapes: false,
                        });
                        Source::Site { block: bidx, idx, site: expr.id }
                    }
                    _ => {
                        for a in args {
                            self.walk_consumed(a, func);
                        }
                        self.break_block();
                        Source::Other
                    }
                }
            }
            ExprKind::Tuple(parts) => {
                for p in parts {
                    self.walk_consumed(p, func);
                }
                Source::Other
            }
            ExprKind::Parallel(parts) => {
                self.break_block();
                for p in parts {
                    self.walk_consumed(p, func);
                    self.break_block();
                }
                Source::Other
            }
            ExprKind::Proj { tuple, .. } => {
                self.walk_consumed(tuple, func);
                Source::Other
            }
            ExprKind::Lambda { body, .. } => {
                let saved = self.current;
                self.current = None;
                self.walk_consumed(body, func);
                self.break_block();
                self.current = saved;
                Source::Other
            }
            ExprKind::Map { func: f, list } => {
                self.walk_consumed(list, func);
                self.break_block();
                if let ExprKind::Lambda { body, params } = &f.kind {
                    for p in params {
                        self.env.insert(p.name.clone(), Source::Other);
                    }
                    self.walk_consumed(body, func);
                } else {
                    self.walk_consumed(f, func);
                }
                self.break_block();
                Source::Other
            }
            ExprKind::ScalarBin { lhs, rhs, .. } => {
                self.walk_consumed(lhs, func);
                self.walk_consumed(rhs, func);
                Source::Other
            }
            ExprKind::ScalarUn { operand, .. } => {
                self.walk_consumed(operand, func);
                Source::Other
            }
            ExprKind::Sync { tensor, .. } => {
                self.walk_consumed(tensor, func);
                // A sync point forces DFG evaluation — hard block boundary.
                self.break_block();
                Source::Other
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_ir::{parse_module, typeck};

    fn blocks_of(src: &str) -> BlockMap {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        find_blocks(&m)
    }

    #[test]
    fn straight_line_is_one_block() {
        let map = blocks_of(
            "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                let %a = matmul(%x, $w);
                let %b = tanh(%a);
                relu(%b)
             }",
        );
        assert_eq!(map.blocks.len(), 1);
        let b = &map.blocks[0];
        assert_eq!(b.sites.len(), 3);
        // tanh's input is produced by site 0; relu's by site 1.
        assert_eq!(b.sites[1].arg_sources, vec![Some(0)]);
        assert_eq!(b.sites[2].arg_sources, vec![Some(1)]);
        // matmul result used once internally, does not escape.
        assert_eq!(b.sites[0].internal_uses, 1);
        assert!(!b.sites[0].escapes);
        // relu's result is the function return — escapes.
        assert!(b.sites[2].escapes);
    }

    #[test]
    fn control_flow_splits_blocks() {
        let map = blocks_of(
            "def @main(%x: Tensor[(1, 2)], %c: Bool) -> Tensor[(1, 2)] {
                let %a = relu(%x);
                let %b = if %c { tanh(%a) } else { sigmoid(%a) };
                neg(%b)
             }",
        );
        // relu | tanh | sigmoid | neg = 4 blocks.
        assert_eq!(map.blocks.len(), 4);
        // relu's result is consumed in *other* blocks → escapes.
        let relu_block = &map.blocks[0];
        assert!(relu_block.sites[0].escapes || relu_block.sites[0].internal_uses == 0);
    }

    #[test]
    fn nested_args_same_block() {
        let map = blocks_of(
            "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                sigmoid(add(matmul(%x, $w), %x))
             }",
        );
        assert_eq!(map.blocks.len(), 1);
        assert_eq!(map.blocks[0].sites.len(), 3);
        // Execution order: matmul, add, sigmoid.
        let adds = &map.blocks[0].sites[1];
        assert_eq!(adds.arg_sources[0], Some(0));
        assert_eq!(adds.arg_sources[1], None);
        assert_eq!(adds.arg_vars[1], Some("x".into()));
    }

    #[test]
    fn call_breaks_block() {
        let map = blocks_of(
            "def @f(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { relu(%x) }
             def @main(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                let %a = tanh(%x);
                let %b = @f(%a);
                neg(sigmoid(%b))
             }",
        );
        // @f body: 1 block. @main: tanh | sigmoid+neg.
        assert_eq!(map.blocks.len(), 3);
        let main_blocks: Vec<_> = map.blocks.iter().filter(|b| b.func == "main").collect();
        assert_eq!(main_blocks.len(), 2);
        assert_eq!(main_blocks[1].sites.len(), 2);
        // tanh result escapes (consumed by the call).
        assert!(main_blocks[0].sites[0].escapes);
    }

    #[test]
    fn sync_breaks_block() {
        let map = blocks_of(
            "def @main(%x: Tensor[(1, 1)]) -> Tensor[(1, 1)] {
                let %a = relu(%x);
                let %s = item(%a);
                if %s > 0.5 { tanh(%a) } else { %a }
             }",
        );
        let main_blocks: Vec<_> = map.blocks.iter().filter(|b| b.func == "main").collect();
        assert!(main_blocks.len() >= 2);
        assert_eq!(main_blocks[0].sites.len(), 1, "sync closes the first block");
    }

    #[test]
    fn result_used_twice_counts_uses() {
        let map = blocks_of(
            "def @main(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                let %a = relu(%x);
                add(tanh(%a), sigmoid(%a))
             }",
        );
        assert_eq!(map.blocks.len(), 1);
        assert_eq!(map.blocks[0].sites[0].internal_uses, 2);
    }

    #[test]
    fn map_lambda_gets_own_block() {
        let map = blocks_of(
            "def @main($w: Tensor[(2, 2)], %xs: List[Tensor[(1, 2)]]) -> List[Tensor[(1, 2)]] {
                map(fn(%p) { relu(matmul(%p, $w)) }, %xs)
             }",
        );
        assert_eq!(map.blocks.len(), 1);
        assert_eq!(map.blocks[0].sites.len(), 2);
    }
}
