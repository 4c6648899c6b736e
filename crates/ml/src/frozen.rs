//! Frozen (compiled) tree inference: pointer-free SoA ensembles with
//! quantized thresholds.
//!
//! [`FrozenGbdt`] flattens every fitted tree into contiguous
//! struct-of-arrays storage — feature index, threshold *bin*, absolute
//! child slots, leaf value — so batch prediction is integer compares
//! over pre-binned rows instead of pointer-chasing [`TreeNode`] arenas
//! and re-comparing raw `f32` thresholds per node.
//!
//! # Why quantized traversal stays bit-identical
//!
//! Every split threshold a fitted tree carries is literally a cut point
//! of the training [`BinnedMatrix`] (`grow` writes
//! `binned.threshold(feature, bin)`), and [`bin_code`] returns the
//! smallest code `c` with `v <= cuts[c]` (or `cuts.len()` when no cut
//! is ≥ `v`). For strictly ascending cuts this gives, for **every**
//! `f32` value `v` — finite, infinite, or NaN:
//!
//! ```text
//! bin_code(cuts, v) <= b   ⟺   v <= cuts[b]
//! ```
//!
//! (NaN included: `NaN <= cuts[c]` is false for every `c`, so
//! `bin_code` returns `cuts.len() > b` and both sides route right.)
//! So the frozen compare `code <= bin` reproduces the node compare
//! `value <= threshold` exactly, provided the stored bin satisfies
//! `cuts[bin].to_bits() == threshold.to_bits()` — which
//! [`FrozenGbdt::freeze`] enforces and the `gdcm-audit` flatcheck pass
//! re-proves symbolically over every bin edge. Accumulation order is
//! also preserved: one `f64` accumulator per row, trees added in
//! boosting order starting from the base score, matching
//! [`GbdtRegressor::predict_row`] addition for addition.
//!
//! Frozen models are *produced* only by validated freezing; the
//! [`FrozenGbdt::from_raw_parts`] escape hatch exists for the auditor's
//! negative tests, and traversing a deliberately corrupted frozen model
//! may panic on out-of-range slots (like [`Tree::predict_row`] on a
//! corrupt arena) — run flatcheck first.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::binning::{bin_code, BinnedMatrix};
use crate::dataset::DenseMatrix;
use crate::gbdt::GbdtRegressor;
use crate::tree::{Tree, TreeNode};
use crate::Regressor;

/// Sentinel stored in [`FrozenNodes`] `feature` (and in the child slots
/// of leaves): this slot is a leaf, read its `leaf` value.
pub const FROZEN_LEAF: u32 = u32::MAX;

/// Contiguous SoA storage for a whole ensemble of flattened trees.
///
/// Tree `t` owns slots `tree_starts[t] .. tree_starts[t + 1]`; the slot
/// at `tree_starts[t]` is its root. Freezing preserves arena order, so
/// slot `tree_starts[t] + i` corresponds to node `i` of the source
/// tree — the bijection the flatcheck auditor re-proves per slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrozenNodes {
    /// Per-tree slot offsets, length `n_trees + 1`, `tree_starts[0] == 0`.
    tree_starts: Vec<u32>,
    /// Split feature per slot, or [`FROZEN_LEAF`] for leaves.
    feature: Vec<u32>,
    /// Quantized threshold: rows with `code <= bin` go left. 0 on leaves.
    bin: Vec<u8>,
    /// Absolute left-child slot; [`FROZEN_LEAF`] on leaves.
    left: Vec<u32>,
    /// Absolute right-child slot; [`FROZEN_LEAF`] on leaves.
    right: Vec<u32>,
    /// Leaf value; 0.0 on split slots.
    leaf: Vec<f32>,
}

impl FrozenNodes {
    /// Number of flattened trees.
    pub fn n_trees(&self) -> usize {
        self.tree_starts.len().saturating_sub(1)
    }

    /// Total slot count across all trees.
    pub fn n_slots(&self) -> usize {
        self.feature.len()
    }

    /// Per-tree slot offsets (`n_trees + 1` entries, first 0).
    pub fn tree_starts(&self) -> &[u32] {
        &self.tree_starts
    }

    /// Split features per slot ([`FROZEN_LEAF`] marks leaves).
    pub fn feature(&self) -> &[u32] {
        &self.feature
    }

    /// Quantized threshold bins per slot.
    pub fn bin(&self) -> &[u8] {
        &self.bin
    }

    /// Absolute left-child slots.
    pub fn left(&self) -> &[u32] {
        &self.left
    }

    /// Absolute right-child slots.
    pub fn right(&self) -> &[u32] {
        &self.right
    }

    /// Leaf values per slot.
    pub fn leaf(&self) -> &[f32] {
        &self.leaf
    }

    /// Assembles SoA storage from raw arrays **without validation** —
    /// the escape hatch flatcheck's negative tests use to build
    /// deliberately corrupted frozen models. Freezing is the only
    /// validated constructor.
    pub fn from_raw_parts(
        tree_starts: Vec<u32>,
        feature: Vec<u32>,
        bin: Vec<u8>,
        left: Vec<u32>,
        right: Vec<u32>,
        leaf: Vec<f32>,
    ) -> Self {
        Self {
            tree_starts,
            feature,
            bin,
            left,
            right,
            leaf,
        }
    }

    /// Decomposes into `(tree_starts, feature, bin, left, right, leaf)`.
    /// Inverse of [`FrozenNodes::from_raw_parts`].
    #[allow(clippy::type_complexity)]
    pub fn into_raw_parts(self) -> (Vec<u32>, Vec<u32>, Vec<u8>, Vec<u32>, Vec<u32>, Vec<f32>) {
        (
            self.tree_starts,
            self.feature,
            self.bin,
            self.left,
            self.right,
            self.leaf,
        )
    }

    /// Walks tree `t` over a pre-binned row, returning the selected
    /// leaf value. Panics or diverges on corrupted storage (see module
    /// docs); validated frozen models always terminate.
    fn eval_tree(&self, t: usize, codes: &[u8]) -> f32 {
        let mut s = self.tree_starts[t] as usize;
        loop {
            let f = self.feature[s];
            if f == FROZEN_LEAF {
                return self.leaf[s];
            }
            s = if codes[f as usize] <= self.bin[s] {
                self.left[s] as usize
            } else {
                self.right[s] as usize
            };
        }
    }
}

/// Why a pointer-tree ensemble could not be frozen.
///
/// `fit`-produced models always freeze against the `BinnedMatrix`
/// rebuilt from their own training data and bin budget; these errors
/// surface hand-built or mismatched inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreezeError {
    /// The grid's feature count differs from the model's.
    GridWidthMismatch {
        /// Features the model was trained on.
        model: usize,
        /// Features in the supplied bin grid.
        grid: usize,
    },
    /// A tree has an empty node arena.
    EmptyTree {
        /// Tree index.
        tree: usize,
    },
    /// A split references a feature outside the model width.
    FeatureOutOfRange {
        /// Tree index.
        tree: usize,
        /// Node index within the tree.
        node: usize,
        /// The offending feature.
        feature: usize,
    },
    /// A split threshold is not bitwise equal to any cut of its
    /// feature's grid, so no `u8` bin can represent it exactly.
    ThresholdOffGrid {
        /// Tree index.
        tree: usize,
        /// Node index within the tree.
        node: usize,
        /// The split feature.
        feature: usize,
    },
    /// A child index is out of bounds or not strictly greater than its
    /// parent (fitted arenas are topologically ordered; anything else
    /// could alias or cycle).
    ChildOutOfOrder {
        /// Tree index.
        tree: usize,
        /// Node index within the tree.
        node: usize,
    },
    /// A node is referenced by more than one parent, or a non-root node
    /// is referenced by none.
    NodeShared {
        /// Tree index.
        tree: usize,
        /// Node index within the tree.
        node: usize,
    },
}

impl std::fmt::Display for FreezeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::GridWidthMismatch { model, grid } => {
                write!(f, "model has {model} features but the bin grid has {grid}")
            }
            Self::EmptyTree { tree } => write!(f, "tree {tree} has an empty node arena"),
            Self::FeatureOutOfRange {
                tree,
                node,
                feature,
            } => write!(
                f,
                "tree {tree} node {node} splits on out-of-range feature {feature}"
            ),
            Self::ThresholdOffGrid {
                tree,
                node,
                feature,
            } => write!(
                f,
                "tree {tree} node {node}: threshold on feature {feature} is not a bin-grid cut"
            ),
            Self::ChildOutOfOrder { tree, node } => write!(
                f,
                "tree {tree} node {node} has a child out of bounds or not after its parent"
            ),
            Self::NodeShared { tree, node } => write!(
                f,
                "tree {tree} node {node} is shared between parents or orphaned"
            ),
        }
    }
}

impl std::error::Error for FreezeError {}

/// Flattens `trees` onto `cuts`, validating structure and threshold
/// exactness along the way.
fn freeze_trees(
    trees: &[Tree],
    cuts: &[Vec<f32>],
    n_features: usize,
) -> Result<FrozenNodes, FreezeError> {
    let total: usize = trees.iter().map(Tree::len).sum();
    // FROZEN_LEAF doubles as "no child", so slots must stay below it.
    assert!(
        total < FROZEN_LEAF as usize,
        "ensemble too large to freeze: {total} slots"
    );
    let mut out = FrozenNodes {
        tree_starts: Vec::with_capacity(trees.len() + 1),
        feature: Vec::with_capacity(total),
        bin: Vec::with_capacity(total),
        left: Vec::with_capacity(total),
        right: Vec::with_capacity(total),
        leaf: Vec::with_capacity(total),
    };
    out.tree_starts.push(0);
    let mut indegree: Vec<u8> = Vec::new();
    for (t, tree) in trees.iter().enumerate() {
        let nodes = tree.nodes();
        if nodes.is_empty() {
            return Err(FreezeError::EmptyTree { tree: t });
        }
        let base = out.feature.len() as u32;
        indegree.clear();
        indegree.resize(nodes.len(), 0);
        for (i, node) in nodes.iter().enumerate() {
            match *node {
                TreeNode::Leaf { weight } => {
                    out.feature.push(FROZEN_LEAF);
                    out.bin.push(0);
                    out.left.push(FROZEN_LEAF);
                    out.right.push(FROZEN_LEAF);
                    out.leaf.push(weight);
                }
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if feature >= n_features {
                        return Err(FreezeError::FeatureOutOfRange {
                            tree: t,
                            node: i,
                            feature,
                        });
                    }
                    let bin = cuts[feature]
                        .iter()
                        .position(|c| c.to_bits() == threshold.to_bits())
                        .filter(|&b| b <= u8::MAX as usize)
                        .ok_or(FreezeError::ThresholdOffGrid {
                            tree: t,
                            node: i,
                            feature,
                        })?;
                    for child in [left, right] {
                        if child <= i || child >= nodes.len() {
                            return Err(FreezeError::ChildOutOfOrder { tree: t, node: i });
                        }
                        indegree[child] = indegree[child].saturating_add(1);
                    }
                    out.feature.push(feature as u32);
                    out.bin.push(bin as u8);
                    out.left.push(base + left as u32);
                    out.right.push(base + right as u32);
                    out.leaf.push(0.0);
                }
            }
        }
        // Exactly-once reachability: the root has no parent, every other
        // node exactly one. Together with the `child > parent` order
        // this makes slot `base + i` ↔ node `i` a true bijection.
        for (i, &deg) in indegree.iter().enumerate() {
            let want = u8::from(i != 0);
            if deg != want {
                return Err(FreezeError::NodeShared { tree: t, node: i });
            }
        }
        out.tree_starts.push(out.feature.len() as u32);
    }
    Ok(out)
}

/// Bins one raw row onto a frozen cut grid.
fn bin_row(cuts: &[Vec<f32>], row: &[f32], codes: &mut [u8]) {
    for (f, code) in codes.iter_mut().enumerate() {
        *code = bin_code(&cuts[f], row[f]);
    }
}

/// A [`GbdtRegressor`] compiled to SoA arrays with quantized
/// thresholds. Construct via [`FrozenGbdt::freeze`]; predictions are
/// bit-identical to the source model (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrozenGbdt {
    base_score: f32,
    n_features: usize,
    /// Per-feature ascending cut grid the thresholds were quantized on.
    cuts: Vec<Vec<f32>>,
    nodes: FrozenNodes,
}

impl FrozenGbdt {
    /// Freezes a fitted ensemble onto the bin grid of `binned` — which
    /// must be the deterministic rebuild of the model's own training
    /// matrix at its own `max_bins`, or thresholds will not land on the
    /// grid.
    ///
    /// # Errors
    ///
    /// Any [`FreezeError`]: width mismatch, off-grid thresholds, or a
    /// structurally invalid (hand-built) arena.
    pub fn freeze(model: &GbdtRegressor, binned: &BinnedMatrix) -> Result<Self, FreezeError> {
        let _span = gdcm_obs::span!("ml/freeze_gbdt");
        if binned.n_features() != model.n_features() {
            return Err(FreezeError::GridWidthMismatch {
                model: model.n_features(),
                grid: binned.n_features(),
            });
        }
        let cuts: Vec<Vec<f32>> = (0..binned.n_features())
            .map(|f| binned.cuts(f).to_vec())
            .collect();
        let nodes = freeze_trees(model.trees(), &cuts, model.n_features())?;
        gdcm_obs::counter("ml/frozen/gbdt_freezes").incr();
        Ok(Self {
            base_score: model.base_score(),
            n_features: model.n_features(),
            cuts,
            nodes,
        })
    }

    /// The constant base score (copied from the source model).
    pub fn base_score(&self) -> f32 {
        self.base_score
    }

    /// Feature width the model scores.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of flattened trees.
    pub fn n_trees(&self) -> usize {
        self.nodes.n_trees()
    }

    /// Total SoA slot count.
    pub fn n_slots(&self) -> usize {
        self.nodes.n_slots()
    }

    /// The ascending cut points of feature `f`.
    pub fn cuts(&self, f: usize) -> &[f32] {
        &self.cuts[f]
    }

    /// The full per-feature cut grid.
    pub fn cut_grid(&self) -> &[Vec<f32>] {
        &self.cuts
    }

    /// Read-only view of the SoA storage, for the flatcheck auditor.
    pub fn nodes(&self) -> &FrozenNodes {
        &self.nodes
    }

    /// Assembles a frozen model from raw parts **without validation**
    /// (negative-test escape hatch; see [`FrozenNodes::from_raw_parts`]).
    pub fn from_raw_parts(
        base_score: f32,
        n_features: usize,
        cuts: Vec<Vec<f32>>,
        nodes: FrozenNodes,
    ) -> Self {
        Self {
            base_score,
            n_features,
            cuts,
            nodes,
        }
    }

    /// Decomposes into `(base_score, n_features, cuts, nodes)`. Inverse
    /// of [`FrozenGbdt::from_raw_parts`].
    pub fn into_raw_parts(self) -> (f32, usize, Vec<Vec<f32>>, FrozenNodes) {
        (self.base_score, self.n_features, self.cuts, self.nodes)
    }

    /// Scores one pre-binned row: `f64` accumulator seeded with the
    /// base score, trees added in boosting order — the exact addition
    /// sequence of [`GbdtRegressor::predict_row`].
    pub fn predict_binned(&self, codes: &[u8]) -> f32 {
        let mut acc = self.base_score as f64;
        for t in 0..self.nodes.n_trees() {
            acc += self.nodes.eval_tree(t, codes) as f64;
        }
        acc as f32
    }

    fn predict_chunk(&self, x: &DenseMatrix, range: Range<usize>) -> Vec<f32> {
        let rows = range.len();
        let nf = self.n_features;
        let mut codes = vec![0u8; rows * nf];
        for (k, r) in range.enumerate() {
            bin_row(&self.cuts, x.row(r), &mut codes[k * nf..(k + 1) * nf]);
        }
        // Batch-major: all rows through one tree before the next, so a
        // tree's SoA block stays hot in cache. Each row still owns its
        // accumulator, so the per-row addition order is unchanged.
        let mut acc = vec![self.base_score as f64; rows];
        for t in 0..self.nodes.n_trees() {
            for (k, a) in acc.iter_mut().enumerate() {
                *a += self.nodes.eval_tree(t, &codes[k * nf..(k + 1) * nf]) as f64;
            }
        }
        acc.into_iter().map(|a| a as f32).collect()
    }
}

impl Regressor for FrozenGbdt {
    fn predict_row(&self, row: &[f32]) -> f32 {
        debug_assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let mut codes = vec![0u8; self.n_features];
        bin_row(&self.cuts, row, &mut codes);
        self.predict_binned(&codes)
    }

    /// Chunked batch-major prediction on the `gdcm-par` pool,
    /// bit-identical to the serial row loop at any thread count.
    fn predict(&self, x: &DenseMatrix) -> Vec<f32> {
        crate::par_predict(x.n_rows(), self.n_trees(), |range| {
            self.predict_chunk(x, range)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::GbdtParams;

    fn synthetic(n: usize, d: usize) -> (DenseMatrix, Vec<f32>) {
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (u32::MAX as f32) * 2.0 - 1.0) * 4.0
        };
        for _ in 0..n {
            let row: Vec<f32> = (0..d).map(|_| next()).collect();
            let target = row[0] * 2.0 - row[1 % d] * row[1 % d] + next() * 0.1;
            rows.push(row);
            y.push(target);
        }
        (DenseMatrix::from_rows(&rows), y)
    }

    /// Probe rows exercising every routing regime: training rows,
    /// between-cut values, out-of-range values, and non-finite inputs.
    fn probe_rows(x: &DenseMatrix) -> DenseMatrix {
        let mut rows: Vec<Vec<f32>> = (0..x.n_rows()).map(|i| x.row(i).to_vec()).collect();
        let d = x.n_cols();
        rows.push(vec![1e9; d]);
        rows.push(vec![-1e9; d]);
        rows.push(vec![f32::INFINITY; d]);
        rows.push(vec![f32::NEG_INFINITY; d]);
        rows.push(vec![f32::NAN; d]);
        rows.push(vec![0.123456; d]);
        DenseMatrix::from_rows(&rows)
    }

    #[test]
    fn frozen_gbdt_is_bit_identical_to_node_model() {
        let (x, y) = synthetic(300, 5);
        let params = GbdtParams {
            n_estimators: 40,
            max_depth: 4,
            ..GbdtParams::default()
        };
        let model = GbdtRegressor::fit(&x, &y, &params);
        let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
        let frozen = FrozenGbdt::freeze(&model, &binned).expect("fitted model freezes");
        assert_eq!(frozen.n_trees(), model.n_trees());
        assert_eq!(frozen.base_score().to_bits(), model.base_score().to_bits());

        let probe = probe_rows(&x);
        let batch = frozen.predict(&probe);
        for (i, b) in batch.iter().enumerate() {
            let node = model.predict_row(probe.row(i));
            let flat = frozen.predict_row(probe.row(i));
            assert_eq!(
                node.to_bits(),
                flat.to_bits(),
                "row {i}: node {node} vs flat {flat}"
            );
            assert_eq!(b.to_bits(), node.to_bits(), "batch row {i}");
        }
    }

    #[test]
    fn freeze_rejects_off_grid_threshold() {
        let (x, y) = synthetic(100, 3);
        let params = GbdtParams {
            n_estimators: 5,
            ..GbdtParams::default()
        };
        let model = GbdtRegressor::fit(&x, &y, &params);
        let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
        let (base, mut trees, nf) = model.into_raw_parts();
        // Nudge one split threshold off the grid.
        let nodes: Vec<TreeNode> = trees[0]
            .nodes()
            .iter()
            .map(|n| match *n {
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => TreeNode::Split {
                    feature,
                    threshold: threshold + 1e-3,
                    left,
                    right,
                },
                leaf => leaf,
            })
            .collect();
        trees[0] = Tree::from_raw_nodes(nodes);
        let bad = GbdtRegressor::from_raw_parts(base, trees, nf);
        assert!(matches!(
            FrozenGbdt::freeze(&bad, &binned),
            Err(FreezeError::ThresholdOffGrid { tree: 0, .. })
        ));
    }

    #[test]
    fn freeze_rejects_mismatched_grid_width() {
        let (x, y) = synthetic(80, 3);
        let model = GbdtRegressor::fit(
            &x,
            &y,
            &GbdtParams {
                n_estimators: 3,
                ..GbdtParams::default()
            },
        );
        let (x_wide, _) = synthetic(80, 4);
        let binned = BinnedMatrix::from_matrix(&x_wide, 64);
        assert!(matches!(
            FrozenGbdt::freeze(&model, &binned),
            Err(FreezeError::GridWidthMismatch { model: 3, grid: 4 })
        ));
    }

    #[test]
    fn freeze_rejects_non_topological_children() {
        let (x, _) = synthetic(10, 2);
        let binned = BinnedMatrix::from_matrix(&x, 16);
        let threshold = binned.threshold(0, 0);
        let tree = Tree::from_raw_nodes(vec![
            TreeNode::Split {
                feature: 0,
                threshold,
                left: 0, // self-reference
                right: 1,
            },
            TreeNode::Leaf { weight: 1.0 },
        ]);
        let model = GbdtRegressor::from_raw_parts(0.0, vec![tree], 2);
        assert!(matches!(
            FrozenGbdt::freeze(&model, &binned),
            Err(FreezeError::ChildOutOfOrder { tree: 0, node: 0 })
        ));
    }

    #[test]
    fn freeze_rejects_orphan_nodes() {
        let (x, _) = synthetic(10, 2);
        let binned = BinnedMatrix::from_matrix(&x, 16);
        let tree = Tree::from_raw_nodes(vec![
            TreeNode::Leaf { weight: 1.0 },
            TreeNode::Leaf { weight: 2.0 }, // unreachable
        ]);
        let model = GbdtRegressor::from_raw_parts(0.0, vec![tree], 2);
        assert!(matches!(
            FrozenGbdt::freeze(&model, &binned),
            Err(FreezeError::NodeShared { tree: 0, node: 1 })
        ));
    }

    #[test]
    fn frozen_gbdt_serde_round_trips() {
        let (x, y) = synthetic(120, 3);
        let params = GbdtParams {
            n_estimators: 8,
            ..GbdtParams::default()
        };
        let model = GbdtRegressor::fit(&x, &y, &params);
        let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
        let frozen = FrozenGbdt::freeze(&model, &binned).expect("freezes");
        let json = serde_json::to_string(&frozen).expect("serializes");
        let back: FrozenGbdt = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(frozen, back);
        for i in 0..x.n_rows() {
            assert_eq!(
                frozen.predict_row(x.row(i)).to_bits(),
                back.predict_row(x.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn slot_layout_preserves_arena_order() {
        let (x, y) = synthetic(150, 3);
        let params = GbdtParams {
            n_estimators: 6,
            ..GbdtParams::default()
        };
        let model = GbdtRegressor::fit(&x, &y, &params);
        let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
        let frozen = FrozenGbdt::freeze(&model, &binned).expect("freezes");
        let nodes = frozen.nodes();
        let starts = nodes.tree_starts();
        assert_eq!(starts.len(), model.n_trees() + 1);
        assert_eq!(starts[0], 0);
        for (t, tree) in model.trees().iter().enumerate() {
            let base = starts[t] as usize;
            assert_eq!(starts[t + 1] as usize - base, tree.len());
            for (i, n) in tree.nodes().iter().enumerate() {
                let s = base + i;
                match *n {
                    TreeNode::Leaf { weight } => {
                        assert_eq!(nodes.feature()[s], FROZEN_LEAF);
                        assert_eq!(nodes.leaf()[s].to_bits(), weight.to_bits());
                    }
                    TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        assert_eq!(nodes.feature()[s] as usize, feature);
                        assert_eq!(nodes.left()[s] as usize, base + left);
                        assert_eq!(nodes.right()[s] as usize, base + right);
                        let bin = nodes.bin()[s];
                        assert_eq!(
                            frozen.cuts(feature)[bin as usize].to_bits(),
                            threshold.to_bits()
                        );
                    }
                }
            }
        }
    }
}
