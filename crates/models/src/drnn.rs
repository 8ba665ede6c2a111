//! DRNN: doubly-recurrent neural network for top-down tree generation
//! (Alvarez-Melis & Jaakkola 2017).
//!
//! The model *generates* a tree from a root vector: at every node a
//! tensor-dependent decision (emulated with the seeded `sample` stream,
//! §E.1) chooses whether to expand two children, which may then grow
//! *concurrently* — the flagship case for ACROBAT's fiber-based fork-join
//! instance parallelism (§4.2).  DyNet must force the tensor value at every
//! decision and expands depth-first, serializing the sub-trees (§7.2.1).

use std::collections::BTreeMap;

use acrobat_baselines::dynet::{ComputationGraph, DynetConfig, NodeRef};
use acrobat_runtime::RuntimeStats;
use acrobat_tensor::{PrimOp, Tensor, TensorError};
use acrobat_vm::InputValue;

use crate::data::{self, Prng};
use crate::{all_tensors, hidden_for, ModelSize, ModelSpec, Properties};

/// Probability of expanding children at a node.
pub const EXPAND_P: f64 = 0.6;

/// The frontend program; `depth` caps the generated tree depth.
pub fn source(d: usize, depth: i64) -> String {
    format!(
        r#"
def @gen(%h: Tensor[(1, {d})], %depth: Int,
         $wa: Tensor[({d}, {d})], $wl: Tensor[({d}, {d})], $wr: Tensor[({d}, {d})])
    -> Tensor[(1, {d})] {{
    let %ha = tanh(matmul(%h, $wa));
    if %depth <= 0 {{ %ha }} else {{
        if sample(%ha) < {EXPAND_P} {{
            let (%l, %r) = parallel(
                @gen(tanh(matmul(%ha, $wl)), %depth - 1, $wa, $wl, $wr),
                @gen(tanh(matmul(%ha, $wr)), %depth - 1, $wa, $wl, $wr));
            add(%ha, add(%l, %r))
        }} else {{ %ha }}
    }}
}}

def @main($wa: Tensor[({d}, {d})], $wl: Tensor[({d}, {d})], $wr: Tensor[({d}, {d})],
          %x: Tensor[(1, {d})]) -> Tensor[(1, {d})] {{
    @gen(%x, {depth}, $wa, $wl, $wr)
}}
"#
    )
}

/// Model parameters.
pub fn params(d: usize, seed: u64) -> BTreeMap<String, Tensor> {
    let mut rng = Prng::new(seed ^ 0xd2, 999);
    BTreeMap::from([
        ("wa".into(), data::weight(&mut rng, d, d)),
        ("wl".into(), data::weight(&mut rng, d, d)),
        ("wr".into(), data::weight(&mut rng, d, d)),
    ])
}

/// Builds the spec at explicit size and depth cap.
pub fn spec_with(d: usize, depth: i64) -> ModelSpec {
    let params = params(d, 0xd2);
    let dynet_params = params.clone();
    ModelSpec {
        name: "DRNN",
        source: source(d, depth),
        params: acrobat_tensor::Params::new(params),
        make_instances: Box::new(move |seed, batch| {
            (0..batch)
                .map(|i| {
                    let mut rng = Prng::new(seed ^ 0xd277, i);
                    vec![InputValue::Tensor(data::embedding(&mut rng, d))]
                })
                .collect()
        }),
        dynet_run: Some(Box::new(move |cfg, instances, seed| {
            run_dynet(cfg.clone(), &dynet_params, depth, instances, seed)
        })),
        flatten_output: all_tensors,
        properties: Properties {
            recursive: true,
            tensor_dependent: true,
            instance_parallel: true,
            ..Default::default()
        },
    }
}

/// The Table 3 configuration (depth cap 5 ⇒ up to 63 generated nodes).
pub fn spec(size: ModelSize) -> ModelSpec {
    spec_with(hidden_for(size), 5)
}

/// DyNet expansion, replicating the AOT fiber rng-splitting exactly: the
/// parent stream draws the decision, then `next_u64` seeds each child.
fn dy_gen(
    cg: &mut ComputationGraph,
    p: &BTreeMap<String, NodeRef>,
    h: NodeRef,
    depth: i64,
    rng: &mut Prng,
) -> Result<NodeRef, TensorError> {
    let mm = cg.apply(PrimOp::MatMul, &[h, p["wa"]])?;
    let ha = cg.apply(PrimOp::Tanh, &[mm])?;
    if depth <= 0 {
        return Ok(ha);
    }
    // Tensor-dependent decision: DyNet must execute everything pending
    // (no fibers → depth-first, per-instance serialization).
    let _ = cg.forward(ha)?;
    if rng.next_f64() < EXPAND_P {
        let mut rl = Prng::new(rng.next_u64(), 0);
        let mut rr = Prng::new(rng.next_u64(), 1);
        let lm = cg.apply(PrimOp::MatMul, &[ha, p["wl"]])?;
        let lh = cg.apply(PrimOp::Tanh, &[lm])?;
        let l = dy_gen(cg, p, lh, depth - 1, &mut rl)?;
        let rm = cg.apply(PrimOp::MatMul, &[ha, p["wr"]])?;
        let rh = cg.apply(PrimOp::Tanh, &[rm])?;
        let r = dy_gen(cg, p, rh, depth - 1, &mut rr)?;
        let lr = cg.apply(PrimOp::Add, &[l, r])?;
        cg.apply(PrimOp::Add, &[ha, lr])
    } else {
        Ok(ha)
    }
}

/// Breadth-first expansion — the Table 8 "DN++" DRNN improvement: the paper
/// manually restructures the DyNet model to expand one tree *level* at a
/// time, so all sibling decisions of a level share one `forward()` and their
/// kernels batch.  Decisions are identical to the depth-first version (each
/// node owns its split rng stream), only the flush schedule changes.
fn dy_gen_bfs(
    cg: &mut ComputationGraph,
    p: &BTreeMap<String, NodeRef>,
    root: NodeRef,
    max_depth: i64,
    rng: Prng,
) -> Result<NodeRef, TensorError> {
    struct Pending {
        h: NodeRef,
        depth: i64,
        rng: Prng,
        /// Index of the parent node record, `usize::MAX` for the root.
        slot: usize,
    }
    // Expand level-by-level; record per-node (ha, children) to fold the
    // subtree sums bottom-up afterwards.
    let mut ha_of: Vec<NodeRef> = Vec::new();
    let mut kids: Vec<Vec<usize>> = Vec::new();
    let mut frontier = vec![Pending { h: root, depth: max_depth, rng, slot: usize::MAX }];
    while !frontier.is_empty() {
        // Build every frontier node's ancestral transform first…
        let mut has = Vec::with_capacity(frontier.len());
        for pend in &frontier {
            let mm = cg.apply(PrimOp::MatMul, &[pend.h, p["wa"]])?;
            has.push(cg.apply(PrimOp::Tanh, &[mm])?);
        }
        // …then force once for the whole level: the batcher executes all
        // sibling transforms together.
        if let Some(&last) = has.last() {
            let _ = cg.forward(last)?;
        }
        let mut next = Vec::new();
        for (pend, ha) in frontier.into_iter().zip(has) {
            let idx = ha_of.len();
            ha_of.push(ha);
            kids.push(Vec::new());
            if pend.slot != usize::MAX {
                kids[pend.slot].push(idx);
            }
            let mut rng = pend.rng;
            if pend.depth > 0 && rng.next_f64() < EXPAND_P {
                let rl = Prng::new(rng.next_u64(), 0);
                let rr = Prng::new(rng.next_u64(), 1);
                for (w, r) in [("wl", rl), ("wr", rr)] {
                    let mm = cg.apply(PrimOp::MatMul, &[ha, p[w]])?;
                    let h = cg.apply(PrimOp::Tanh, &[mm])?;
                    next.push(Pending { h, depth: pend.depth - 1, rng: r, slot: idx });
                }
            }
        }
        frontier = next;
    }
    // Fold subtree sums bottom-up: value(n) = ha(n) [+ value(l) + value(r)].
    let mut value: Vec<Option<NodeRef>> = vec![None; ha_of.len()];
    for idx in (0..ha_of.len()).rev() {
        let v = if kids[idx].is_empty() {
            ha_of[idx]
        } else {
            let l = value[kids[idx][0]].expect("child folded");
            let r = value[kids[idx][1]].expect("child folded");
            let lr = cg.apply(PrimOp::Add, &[l, r])?;
            cg.apply(PrimOp::Add, &[ha_of[idx], lr])?
        };
        value[idx] = Some(v);
    }
    Ok(value[0].expect("root"))
}

fn run_dynet(
    cfg: DynetConfig,
    params: &BTreeMap<String, Tensor>,
    depth: i64,
    instances: &[Vec<InputValue>],
    seed: u64,
) -> Result<(Vec<Vec<Tensor>>, RuntimeStats), TensorError> {
    // The DN++ configuration additionally applies the paper's manual
    // restructuring of the DRNN model (breadth-first expansion, §7.2.1 /
    // Table 8); stock DyNet expands depth-first.
    let bfs = cfg.improvements.matmul_by_shape;
    acrobat_baselines::dynet::run_minibatch(
        cfg,
        instances.len(),
        |cg| {
            let mut by_name = BTreeMap::new();
            for (k, v) in params {
                by_name.insert(k.clone(), cg.parameter(v)?);
            }
            Ok(by_name)
        },
        |cg, p, i| {
            let mut rng = Prng::new(seed, i);
            let x = match &instances[i][0] {
                InputValue::Tensor(t) => cg.input(t)?,
                other => panic!("{other:?}"),
            };
            let out = if bfs {
                dy_gen_bfs(cg, p, x, depth, rng)?
            } else {
                dy_gen(cg, p, x, depth, &mut rng)?
            };
            Ok(vec![out])
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::check_acrobat_vs_dynet;

    #[test]
    fn acrobat_and_dynet_agree_on_generated_trees() {
        // The decisions are seed-reproducible across frameworks because the
        // rng splitting is mirrored exactly.
        check_acrobat_vs_dynet(&spec_with(4, 3), 4, 0xD2D2);
    }

    #[test]
    fn bfs_improvement_agrees_and_flushes_less() {
        let spec = spec_with(4, 3);
        let instances = (spec.make_instances)(0xD2D2, 6);
        let run = spec.dynet_run.as_ref().unwrap();
        let dfs = run(&DynetConfig::default(), &instances, 0xD2D2).unwrap();
        let bfs_cfg = DynetConfig {
            improvements: acrobat_baselines::dynet::Improvements::all(),
            ..Default::default()
        };
        let bfs = run(&bfs_cfg, &instances, 0xD2D2).unwrap();
        for (a, b) in dfs.0.iter().zip(&bfs.0) {
            assert!(a[0].allclose(&b[0], 1e-5), "BFS changed results");
        }
        assert!(
            bfs.1.flushes < dfs.1.flushes,
            "level-wise forcing flushes less: {} vs {}",
            bfs.1.flushes,
            dfs.1.flushes
        );
    }

    #[test]
    fn dynet_forces_many_flushes() {
        let spec = spec_with(4, 3);
        let instances = (spec.make_instances)(0xD2D2, 4);
        let (_, stats) =
            (spec.dynet_run.as_ref().unwrap())(&DynetConfig::default(), &instances, 0xD2D2)
                .unwrap();
        assert!(stats.flushes > 4, "per-decision forward() calls: {}", stats.flushes);
    }
}
