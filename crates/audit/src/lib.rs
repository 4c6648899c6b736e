//! Static verification of trained artifacts: ensembles, datasets, and
//! experiment folds.
//!
//! `gdcm-analyze` (codes `GDCM001`–`GDCM043`) verifies the *inputs* of
//! the pipeline — network graphs, schedules, encodings. This crate is
//! the second static-analysis family, covering the *outputs*: a trained
//! [`GbdtRegressor`] is a data structure whose invariants can be checked
//! exhaustively without running inference, a dataset is a matrix whose
//! defects are enumerable, and an experiment plan either leaks or it
//! does not. Codes live in the `GDCM100+` range and share the
//! append-only stability contract, the [`Diagnostic`] type, and the
//! rendering of the analyzer family:
//!
//! * `GDCM100`–`GDCM119` — [`ensemble`]: tree structure (GBDT and
//!   random-forest), threshold grids, bit-for-bit reference prediction,
//!   importance re-derivation.
//! * `GDCM120`–`GDCM129` — [`dataset`]: non-finite cells, degenerate
//!   columns, duplicate rows, label outliers, scaler cross-checks.
//! * `GDCM130`–`GDCM139` — [`folds`]: split hygiene, signature leakage,
//!   leave-device-out coverage.
//! * `GDCM140`–`GDCM159` — [`flatcheck`]: translation validation of
//!   compiled (frozen SoA) models — structural bijection, symbolic
//!   quantization soundness, path/interval consistency, and bitwise
//!   accumulation cross-checks.
//!
//! The crate ships a sweep binary (`gdcm-audit`) that trains the
//! paper's four representations on a synthetic zoo and audits every
//! resulting model, and an opt-in pipeline gate
//! ([`install_pipeline_gate`]) that audits each model the moment it is
//! fitted, controlled by the `GDCM_AUDIT` environment variable
//! (`warn` or `deny`).
//!
//! ```
//! use gdcm_ml::{DenseMatrix, GbdtParams, GbdtRegressor, Regressor as _};
//!
//! let x = DenseMatrix::from_rows(&[
//!     vec![0.0, 1.0], vec![1.0, 0.5], vec![2.0, 0.2], vec![3.0, 0.1],
//!     vec![4.0, 0.9], vec![5.0, 0.3], vec![6.0, 0.7], vec![7.0, 0.4],
//! ]);
//! let y = vec![0.1, 0.9, 2.1, 3.2, 3.9, 5.1, 6.0, 7.2];
//! let params = GbdtParams { n_estimators: 10, ..GbdtParams::default() };
//! let model = GbdtRegressor::fit(&x, &y, &params);
//! let report = gdcm_audit::audit_trained_model(
//!     "doc/model", &model, Some(&params), &x, &y,
//!     &gdcm_audit::DatasetLints::strict(),
//! );
//! assert!(report.is_clean(), "{report}");
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod card;
pub mod dataset;
pub mod ensemble;
pub mod flatcheck;
pub mod folds;

pub use card::ModelCard;
pub use dataset::{check_dataset, check_scaler, DatasetLints};
pub use ensemble::{
    check_ensemble, check_forest, check_importance, check_predictions, reference_forest_predict,
    reference_predict, EnsembleContext,
};
pub use flatcheck::{check_frozen_gbdt, MAX_PATHS_PER_TREE};
pub use folds::{check_folds, check_leave_device_out, check_signature, check_split};

use gdcm_analyze::{DiagCode, Diagnostic, Report};
use gdcm_core::AuditContext;
use gdcm_ml::{BinnedMatrix, DenseMatrix, GbdtParams, GbdtRegressor};

/// Default upper bound on rows replayed through the reference
/// predictor — keeps the bit-for-bit check O(1) in dataset size while
/// still exercising every tree of the model on real training rows.
/// Override per process with the `GDCM_AUDIT_PROBE` environment
/// variable (see [`probe_rows`]).
pub const PROBE_ROWS: usize = 256;

/// Parses a `GDCM_AUDIT_PROBE` value into a probe-row budget. Accepts
/// any positive integer (whitespace-trimmed); everything else — unset,
/// empty, zero, negative, garbage — falls back to [`PROBE_ROWS`].
pub fn parse_probe_rows(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(PROBE_ROWS)
}

/// The effective probe-row budget: `GDCM_AUDIT_PROBE` when set to a
/// positive integer, [`PROBE_ROWS`] otherwise. Read once per process;
/// the resolved value is published through gdcm-obs (gauge
/// `audit/probe_rows` plus a one-shot event) so sweep logs record which
/// budget produced a report.
pub fn probe_rows() -> usize {
    static CACHE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        let raw = std::env::var("GDCM_AUDIT_PROBE").ok();
        let n = parse_probe_rows(raw.as_deref());
        gdcm_obs::gauge("audit/probe_rows").set(n as f64);
        gdcm_obs::event(
            "audit/probe_rows",
            "gdcm_audit",
            &[
                ("rows", gdcm_obs::FieldValue::U64(n as u64)),
                (
                    "source",
                    gdcm_obs::FieldValue::Str(if raw.is_some() {
                        "GDCM_AUDIT_PROBE".into()
                    } else {
                        "default".into()
                    }),
                ),
            ],
        );
        n
    })
}

/// Audits one trained model against the data it was fitted on:
/// the full ensemble pass (with the threshold grid rebuilt from
/// `x_train` when `params` is available, and a bit-for-bit reference
/// prediction over up to [`probe_rows`] training rows) plus every
/// dataset lint the given profile enables.
///
/// The `label` names the audit subject in every diagnostic (the sweep
/// uses `"gbdt/<method>"`).
pub fn audit_trained_model(
    label: &str,
    model: &GbdtRegressor,
    params: Option<&GbdtParams>,
    x_train: &DenseMatrix,
    y_train: &[f32],
    lints: &DatasetLints,
) -> Report {
    let _span = gdcm_obs::span!("audit/model");
    let mut diags = Vec::new();

    let widths_match = x_train.n_cols() == model.n_features();
    if !widths_match {
        diags.push(Diagnostic::network_level(
            DiagCode::EnsembleFeatureOutOfBounds,
            label,
            format!(
                "model declares {} features but the training matrix has {} columns",
                model.n_features(),
                x_train.n_cols()
            ),
        ));
    }

    // Rebinning is deterministic, so the grid the model was trained on
    // can be reconstructed exactly from the data plus the bin budget.
    let binned = match params {
        Some(p) if widths_match && x_train.n_rows() > 0 => {
            Some(BinnedMatrix::from_matrix(x_train, p.max_bins))
        }
        _ => None,
    };
    let probe = if widths_match && x_train.n_rows() > 0 {
        let rows: Vec<usize> = (0..x_train.n_rows().min(probe_rows())).collect();
        Some(x_train.select_rows(&rows))
    } else {
        None
    };
    let ctx = EnsembleContext {
        params,
        binned: binned.as_ref(),
        probe: probe.as_ref(),
    };
    check_ensemble(label, model, &ctx, &mut diags);
    check_dataset(label, x_train, y_train, lints, &mut diags);

    let report = Report {
        network: label.to_string(),
        diagnostics: diags,
    };
    gdcm_obs::counter("audit/models_checked").incr();
    if !report.is_clean() {
        gdcm_obs::counter("audit/models_flagged").incr();
    }
    report
}

/// Audits everything a pipeline training run exposes through the
/// [`AuditContext`] gate: the freshly fitted model against its training
/// matrix (with the [`DatasetLints::pipeline`] profile, since padded
/// encodings make constant and duplicate columns by-design), the
/// compiled model's translation (the flatcheck pass, when the pipeline
/// froze one), the device split, and the signature/evaluation-network
/// separation.
pub fn audit_pipeline_context(ctx: &AuditContext<'_>) -> Report {
    let label = format!("gbdt/{}", ctx.method);
    let mut report = audit_trained_model(
        &label,
        ctx.model,
        Some(ctx.params),
        ctx.x_train,
        ctx.y_train,
        &DatasetLints::pipeline(),
    );
    if let Some(frozen) = ctx.frozen {
        let binned = (ctx.x_train.n_cols() == ctx.model.n_features() && ctx.x_train.n_rows() > 0)
            .then(|| BinnedMatrix::from_matrix(ctx.x_train, ctx.params.max_bins));
        check_frozen_gbdt(
            &label,
            ctx.model,
            frozen,
            binned.as_ref(),
            &mut report.diagnostics,
        );
    }
    check_split(
        &label,
        ctx.train_devices,
        ctx.test_devices,
        ctx.n_devices,
        &mut report.diagnostics,
    );
    check_signature(
        &label,
        ctx.signature,
        ctx.networks,
        ctx.n_networks,
        &mut report.diagnostics,
    );
    report
}

/// Installs [`audit_pipeline_context`] as the `gdcm-core` post-training
/// audit gate. Returns `false` when a gate was already installed (the
/// gate is process-global and write-once). The gate only runs when
/// `GDCM_AUDIT` is set to `warn` or `deny` — installing it is free
/// otherwise.
pub fn install_pipeline_gate() -> bool {
    gdcm_core::install_audit_gate(Box::new(|ctx| {
        audit_pipeline_context(ctx)
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_budget_parses_positive_integers_only() {
        assert_eq!(parse_probe_rows(None), PROBE_ROWS);
        assert_eq!(parse_probe_rows(Some("")), PROBE_ROWS);
        assert_eq!(parse_probe_rows(Some("0")), PROBE_ROWS);
        assert_eq!(parse_probe_rows(Some("-4")), PROBE_ROWS);
        assert_eq!(parse_probe_rows(Some("lots")), PROBE_ROWS);
        assert_eq!(parse_probe_rows(Some("64")), 64);
        assert_eq!(parse_probe_rows(Some("  1024 ")), 1024);
    }
}
