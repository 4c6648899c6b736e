//! Property tests for the frozen-model pipeline: for arbitrary small
//! training sets, freezing succeeds, the flatcheck pass certifies the
//! translation with zero diagnostics, and the frozen batch predictor is
//! bit-identical to the recursive pointer-tree reference — at one
//! worker thread and at four.
//!
//! One `#[test]` only: the `gdcm-par` thread budget is process-global,
//! so a second concurrent test could observe the override mid-sweep.

use proptest::prelude::*;

use gdcm_audit::check_frozen_gbdt;
use gdcm_ml::{BinnedMatrix, DenseMatrix, FrozenGbdt, GbdtParams, GbdtRegressor, Regressor as _};

/// One generated case: freeze, certify, and compare bit-for-bit against
/// the recursive reference at whatever thread count is currently set.
fn check_one(rows: &[Vec<f32>], n_features: usize, max_bins: usize) -> Result<(), TestCaseError> {
    let x = DenseMatrix::from_rows(rows);
    let y: Vec<f32> = rows
        .iter()
        .map(|r| {
            r.iter()
                .enumerate()
                .map(|(i, v)| v * (i as f32 + 0.5))
                .sum()
        })
        .collect();
    let params = GbdtParams {
        n_estimators: 8,
        max_depth: 3,
        max_bins,
        ..GbdtParams::default()
    };
    let model = GbdtRegressor::fit(&x, &y, &params);
    let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
    let frozen = FrozenGbdt::freeze(&model, &binned)
        .map_err(|e| TestCaseError::Fail(format!("freeze failed: {e}")))?;

    let mut diags = Vec::new();
    check_frozen_gbdt("prop/gbdt", &model, &frozen, Some(&binned), &mut diags);
    prop_assert!(diags.is_empty(), "flatcheck flagged a fit: {:?}", diags);
    prop_assert_eq!(n_features, frozen.n_features());

    // Bit identity against the recursive reference. Probe both the
    // training rows and perturbed copies that fall between bin edges.
    let mut probe_rows: Vec<Vec<f32>> = rows.to_vec();
    probe_rows.extend(
        rows.iter()
            .map(|r| r.iter().map(|v| v * 1.5 + 0.3).collect::<Vec<f32>>()),
    );
    let probe = DenseMatrix::from_rows(&probe_rows);
    let batch = frozen.predict(&probe);
    for (i, row) in probe_rows.iter().enumerate() {
        let reference = gdcm_audit::reference_predict(&model, row);
        prop_assert_eq!(
            reference.to_bits(),
            batch[i].to_bits(),
            "gbdt batch row {} diverged",
            i
        );
        prop_assert_eq!(
            reference.to_bits(),
            frozen.predict_row(row).to_bits(),
            "gbdt predict_row {} diverged",
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full freeze → certify → predict chain is clean and
    /// bit-identical to the reference at 1 and at 4 worker threads.
    /// The vendored strategy layer has no `prop_flat_map`, so the case
    /// draws a flat value pool plus independent dimensions and reshapes.
    #[test]
    fn frozen_models_certify_and_predict_bit_identically_at_any_thread_count(
        flat in prop::collection::vec(-50.0f32..50.0, 256..257),
        n_features in 2usize..5,
        n_rows in 24usize..64,
        max_bins in 8usize..200,
    ) {
        let rows: Vec<Vec<f32>> = flat
            .chunks_exact(n_features)
            .take(n_rows)
            .map(|c| c.to_vec())
            .collect();
        prop_assume!(rows.len() == n_rows);

        let pool = gdcm_par::pool();
        let original = pool.threads();
        let mut outcome = Ok(());
        for threads in [1usize, 4] {
            pool.set_threads(threads);
            if let Err(e) = check_one(&rows, n_features, max_bins) {
                outcome = Err(match e {
                    TestCaseError::Reject(m) => TestCaseError::Reject(m),
                    TestCaseError::Fail(m) => {
                        TestCaseError::Fail(format!("at {threads} thread(s): {m}"))
                    }
                });
                break;
            }
        }
        // Restore the process-global budget before surfacing any failure.
        pool.set_threads(original);
        outcome?;
    }
}
