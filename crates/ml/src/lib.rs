//! # gdcm-ml — from-scratch ML toolkit for the cost-model study
//!
//! Everything the paper borrows from the Python ML ecosystem,
//! reimplemented in safe Rust with no external ML dependencies:
//!
//! * [`gbdt`] — histogram-based gradient-boosted regression trees with
//!   XGBoost-style second-order gains (the paper's regressor of choice).
//! * [`frozen`] — compiled SoA inference: a fitted GBDT flattened to
//!   contiguous arrays with thresholds quantized onto the training bin
//!   grid, bit-identical to the pointer-tree predictor.
//! * [`forest`], [`knn`], [`linear`], [`mlp`] — the baseline regressors the
//!   paper compared against.
//! * [`metrics`] — R², RMSE, MAE, MAPE, Pearson and Spearman correlation.
//! * [`kmeans`] — k-means++ clustering (device/network clusters, Fig. 4/6).
//! * [`mutual_info`] — binned mutual-information estimation (MIS, Alg. 1).
//!
//! All estimators are deterministic given their seed.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

mod binning;
mod dataset;
pub mod forest;
pub mod frozen;
pub mod gbdt;
pub mod kmeans;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod mutual_info;
mod scaler;
mod split;
mod tree;

use std::ops::Range;

pub use binning::{bin_code, BinnedMatrix, MAX_BINS};
pub use dataset::DenseMatrix;
pub use forest::RandomForestRegressor;
pub use frozen::{FreezeError, FrozenGbdt, FrozenNodes, FROZEN_LEAF};
pub use gbdt::{GbdtParams, GbdtRegressor};
pub use kmeans::{KMeans, KMeansResult};
pub use knn::KnnRegressor;
pub use linear::RidgeRegressor;
pub use mlp::{MlpParams, MlpRegressor};
pub use scaler::StandardScaler;
pub use split::train_test_split;
pub use tree::{SharedFit, Tree, TreeNode, TreeParams};

/// Minimum `rows × trees` work below which batch prediction stays on
/// the calling thread (chunk dispatch would cost more than it buys).
const PAR_PREDICT_MIN_WORK: usize = 1 << 15;
/// Minimum rows per prediction chunk, keeping per-chunk overhead small.
const PAR_PREDICT_MIN_CHUNK: usize = 256;

/// Batch prediction shared by the tree ensembles: `chunk` scores a
/// contiguous row range. Large batches split into ranges on the
/// `gdcm-par` pool; rows are independent and chunks merge in
/// submission order, so the output is bit-identical to `chunk(0..n)`
/// at any thread count.
pub(crate) fn par_predict(
    n_rows: usize,
    n_trees: usize,
    chunk: impl Fn(Range<usize>) -> Vec<f32> + Sync,
) -> Vec<f32> {
    let pool = gdcm_par::pool();
    let work = n_rows.saturating_mul(n_trees.max(1));
    if pool.threads() <= 1 || work < PAR_PREDICT_MIN_WORK {
        return chunk(0..n_rows);
    }
    pool.par_chunks(n_rows, PAR_PREDICT_MIN_CHUNK, chunk)
        .into_iter()
        .flatten()
        .collect()
}

/// A fitted regression model that can score feature rows.
///
/// Implemented by every regressor in this crate so evaluation code can be
/// written once.
pub trait Regressor {
    /// Predicts the target for a single feature row.
    fn predict_row(&self, row: &[f32]) -> f32;

    /// Predicts targets for every row of `x`.
    fn predict(&self, x: &DenseMatrix) -> Vec<f32> {
        (0..x.n_rows())
            .map(|i| self.predict_row(x.row(i)))
            .collect()
    }
}
