//! `predict_batch` must be bit-identical at any `GDCM_THREADS` setting.
//!
//! `gdcm_par::set_threads` retunes the process-global pool, so this file
//! holds exactly one `#[test]` — a second test running concurrently in
//! the same binary would race the thread budget.

use gdcm_serve::{ServeConfig, ServingRepository};

mod common;
use common::fitted_repository;

#[test]
fn predict_batch_is_bit_identical_across_thread_counts() {
    let original = gdcm_par::threads();
    let mut per_threads: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 4] {
        gdcm_par::set_threads(threads);
        // A fresh façade with caches disabled: every run recomputes the
        // full batch through the chunked predictor at this thread count.
        let (repo, nets) = fitted_repository(21);
        let serving = ServingRepository::new(
            repo,
            ServeConfig {
                encoding_cache: 0,
                prediction_cache: 0,
            },
        );
        let device = serving.device_names()[0].clone();
        let batch = serving.predict_batch(&device, &nets).unwrap();
        assert_eq!(batch.len(), nets.len());
        per_threads.push(batch.iter().map(|v| v.to_bits()).collect());
    }
    gdcm_par::set_threads(original);
    assert_eq!(
        per_threads[0], per_threads[1],
        "predict_batch diverged between GDCM_THREADS=1 and GDCM_THREADS=4"
    );
}
