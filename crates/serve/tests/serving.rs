//! Integration tests for the serving façade and snapshot persistence:
//! the bit-identity contract (cached and batched answers equal the
//! uncached single-row path), snapshot round-trips, and defensive
//! rejection of corrupt or audit-failing snapshots.

use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig, RepositoryError};
use gdcm_dnn::Network;
use gdcm_ml::{FrozenGbdt, FrozenNodes, GbdtParams, GbdtRegressor, Tree, TreeNode};
use gdcm_serve::{
    load_repository, save_repository, RepositorySnapshot, ServeConfig, ServeError,
    ServingRepository, SNAPSHOT_FORMAT, SNAPSHOT_VERSION,
};
use std::path::PathBuf;

/// A small fitted repository plus the open networks it never trained on.
fn fitted_repository(seed: u64) -> (CollaborativeRepository, Vec<Network>) {
    let data = CostDataset::tiny(seed, 6, 6);
    let all: Vec<usize> = (0..data.n_devices()).collect();
    let signature = MutualInfoSelector::default().select(&data.db, &all, 3);
    let mut repo = CollaborativeRepository::new(
        data.encoder.clone(),
        signature.len(),
        RepositoryConfig {
            gbdt: GbdtParams {
                n_estimators: 20,
                ..GbdtParams::default()
            },
            min_rows: 8,
        },
    );
    let open: Vec<usize> = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();
    for d in 0..data.n_devices() {
        let lat: Vec<f64> = signature.iter().map(|&n| data.db.latency(d, n)).collect();
        let name = data.devices[d].model.clone();
        repo.onboard_device(name.clone(), &lat).unwrap();
        for &n in open.iter().cycle().skip(d % open.len()).take(8) {
            repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                .unwrap();
        }
    }
    repo.fit().unwrap();
    let nets = open
        .iter()
        .map(|&n| data.suite[n].network.clone())
        .collect();
    (repo, nets)
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gdcm_serve_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn cached_predictions_are_bit_identical_to_cold_calls() {
    let (repo, nets) = fitted_repository(11);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    for net in &nets {
        let cold = serving
            .with_repository(|r| r.predict(&device, net))
            .unwrap();
        let first = serving.predict(&device, net).unwrap();
        let second = serving.predict(&device, net).unwrap();
        assert_eq!(first.to_bits(), cold.to_bits(), "cold call diverged");
        assert_eq!(second.to_bits(), cold.to_bits(), "cache hit diverged");
    }
    let stats = serving.cache_stats();
    assert_eq!(stats.prediction_misses, nets.len() as u64);
    assert_eq!(stats.prediction_hits, nets.len() as u64);
    // The second pass never re-encoded: one encoding miss per network.
    assert_eq!(stats.encoding_misses, nets.len() as u64);
}

#[test]
fn batch_predictions_match_single_row_bits() {
    let (repo, nets) = fitted_repository(12);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let singles: Vec<f64> = nets
        .iter()
        .map(|n| serving.with_repository(|r| r.predict(&device, n)).unwrap())
        .collect();
    let assert_bits = |got: &[f64], what: &str| {
        assert_eq!(got.len(), singles.len());
        for (g, s) in got.iter().zip(&singles) {
            assert_eq!(g.to_bits(), s.to_bits(), "{what} diverged");
        }
    };

    // All misses, every network twice: the batch computes each unique
    // network once (one miss) through the chunked predictor.
    let twice: Vec<Network> = nets.iter().chain(&nets).cloned().collect();
    let batch = serving.predict_batch(&device, &twice).unwrap();
    assert_bits(&batch[..nets.len()], "batch");
    assert_bits(&batch[nets.len()..], "repeated network in a batch");
    // `predict` and `predict_batch` are one routine: every `predict`
    // after the batch is a hit on the batch's entries.
    let after_batch: Vec<f64> = nets
        .iter()
        .map(|n| serving.predict(&device, n).unwrap())
        .collect();
    assert_bits(&after_batch, "predict after batch");
    let stats = serving.cache_stats();
    assert_eq!(stats.prediction_hits, nets.len() as u64);
    assert_eq!(stats.prediction_misses, nets.len() as u64);

    // Mixed, the other way round: `predict` warms half the cache and
    // the batch hits exactly those entries.
    let (repo, _) = fitted_repository(12);
    let serving2 = ServingRepository::new(repo, ServeConfig::default());
    for net in nets.iter().step_by(2) {
        serving2.predict(&device, net).unwrap();
    }
    let warmed = serving2.cache_stats().prediction_misses;
    let mixed = serving2.predict_batch(&device, &nets).unwrap();
    assert_bits(&mixed, "mixed batch");
    let stats = serving2.cache_stats();
    assert_eq!(stats.prediction_hits, warmed);
    assert_eq!(stats.prediction_misses, nets.len() as u64);

    // Fully cached: a pure cache read, same bits again.
    let hot = serving2.predict_batch(&device, &nets).unwrap();
    assert_bits(&hot, "hot batch");
}

#[test]
fn empty_batch_fails_on_unknown_device_or_unfitted_model() {
    let (repo, _) = fitted_repository(15);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    assert!(serving.predict_batch(&device, &[]).unwrap().is_empty());
    assert!(matches!(
        serving.predict_batch("ghost", &[]),
        Err(ServeError::Repository(RepositoryError::UnknownDevice(_)))
    ));

    let data = CostDataset::tiny(15, 6, 6);
    let mut repo = CollaborativeRepository::new(data.encoder.clone(), 2, Default::default());
    repo.onboard_device("dev", &[1.0, 2.0]).unwrap();
    let unfitted = ServingRepository::new(repo, ServeConfig::default());
    assert!(matches!(
        unfitted.predict_batch("dev", &[]),
        Err(ServeError::Repository(RepositoryError::NotFitted))
    ));
}

#[test]
fn disabled_caches_still_serve_identical_bits() {
    let (repo, nets) = fitted_repository(13);
    let serving = ServingRepository::new(
        repo,
        ServeConfig {
            encoding_cache: 0,
            prediction_cache: 0,
        },
    );
    let device = serving.device_names()[0].clone();
    for net in &nets {
        let cold = serving
            .with_repository(|r| r.predict(&device, net))
            .unwrap();
        assert_eq!(
            serving.predict(&device, net).unwrap().to_bits(),
            cold.to_bits()
        );
        assert_eq!(
            serving.predict(&device, net).unwrap().to_bits(),
            cold.to_bits()
        );
    }
    let stats = serving.cache_stats();
    assert_eq!(stats.prediction_hits, 0, "disabled cache must never hit");
    assert_eq!(stats.encoding_hits, 0);
}

#[test]
fn snapshot_round_trip_preserves_prediction_bits() {
    let (repo, nets) = fitted_repository(14);
    let path = scratch_path("round_trip.json");
    save_repository(&repo, &path).unwrap();
    let loaded = load_repository(&path).unwrap();
    for device in repo.device_names() {
        for net in &nets {
            let before = repo.predict(device, net).unwrap();
            let after = loaded.predict(device, net).unwrap();
            assert_eq!(
                before.to_bits(),
                after.to_bits(),
                "snapshot round-trip changed a prediction"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn unfitted_snapshot_round_trips_too() {
    let (repo, _) = fitted_repository(15);
    let mut parts = repo.to_parts();
    parts.model = None;
    parts.frozen = None;
    let unfitted = CollaborativeRepository::from_parts(parts).unwrap();
    let path = scratch_path("unfitted.json");
    save_repository(&unfitted, &path).unwrap();
    let loaded = load_repository(&path).unwrap();
    assert!(!loaded.is_fitted());
    assert_eq!(loaded.n_rows(), repo.n_rows());
    std::fs::remove_file(&path).ok();
}

#[test]
fn flatcheck_rejects_snapshot_with_tampered_frozen_model() {
    let (repo, _) = fitted_repository(19);
    let mut parts = repo.to_parts();
    // Flip one frozen leaf's low mantissa bit. The arena shape, grid,
    // and metadata all still match the stored model, so structural
    // `from_parts` validation passes — only the flatcheck translation
    // validator can see that the compiled artifact no longer computes
    // the model it claims to.
    let (base, width, cuts, nodes) = parts.frozen.take().unwrap().into_raw_parts();
    let (starts, feature, bin, left, right, mut leaf) = nodes.into_raw_parts();
    let victim = leaf
        .iter()
        .position(|v| *v != 0.0)
        .expect("a fitted ensemble has non-zero leaves");
    leaf[victim] = f32::from_bits(leaf[victim].to_bits() ^ 1);
    parts.frozen = Some(FrozenGbdt::from_raw_parts(
        base,
        width,
        cuts,
        FrozenNodes::from_raw_parts(starts, feature, bin, left, right, leaf),
    ));
    let snapshot = RepositorySnapshot {
        format: SNAPSHOT_FORMAT.to_string(),
        version: SNAPSHOT_VERSION,
        parts,
    };
    let path = scratch_path("tampered_frozen.json");
    std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
    match load_repository(&path) {
        Err(ServeError::AuditRejected { diagnostics }) => {
            assert!(
                diagnostics.iter().any(|d| d.contains("GDCM147")),
                "expected a flat leaf-value finding, got: {diagnostics:?}"
            );
        }
        other => panic!("tampered frozen model accepted: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_envelope_is_rejected_before_parsing_state() {
    let (repo, _) = fitted_repository(16);
    let mut snapshot = RepositorySnapshot::capture(&repo);
    snapshot.version = SNAPSHOT_VERSION + 1;
    let path = scratch_path("future_version.json");
    std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
    match load_repository(&path) {
        Err(ServeError::BadSnapshot { reason }) => {
            assert!(reason.contains("version"), "unhelpful reason: {reason}");
        }
        other => panic!("future version accepted: {other:?}"),
    }

    let mut snapshot = RepositorySnapshot::capture(&repo);
    snapshot.format = "something-else".to_string();
    std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
    assert!(matches!(
        load_repository(&path),
        Err(ServeError::BadSnapshot { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn audit_rejects_snapshot_with_corrupt_model() {
    let (repo, _) = fitted_repository(17);
    let mut parts = repo.to_parts();
    let width = parts.x_rows[0].len();
    // A split on a feature past the model's width passes structural
    // `from_parts` validation (which checks the feature *count*, not
    // ensemble internals) and survives the JSON round trip, but must be
    // caught by the gdcm-audit ensemble pass on load.
    parts.model = Some(GbdtRegressor::from_raw_parts(
        0.0,
        vec![Tree::from_raw_nodes(vec![
            TreeNode::Split {
                feature: width + 7,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            TreeNode::Leaf { weight: 0.0 },
            TreeNode::Leaf { weight: 0.0 },
        ])],
        width,
    ));
    let snapshot = RepositorySnapshot {
        format: SNAPSHOT_FORMAT.to_string(),
        version: SNAPSHOT_VERSION,
        parts,
    };
    let path = scratch_path("corrupt_model.json");
    std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
    match load_repository(&path) {
        Err(ServeError::AuditRejected { diagnostics }) => {
            assert!(!diagnostics.is_empty());
            assert!(
                diagnostics.iter().any(|d| d.contains("splits feature")),
                "expected an out-of-bounds-feature finding, got: {diagnostics:?}"
            );
        }
        other => panic!("corrupt model accepted: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn re_enroll_invalidates_cached_predictions() {
    let (repo, nets) = fitted_repository(18);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let sig_len = serving.with_repository(|r| r.signature_size());

    serving.predict(&device, &nets[0]).unwrap();
    let before = serving.cache_stats();
    assert_eq!(before.prediction_misses, 1);

    let new_sig: Vec<f64> = (0..sig_len).map(|i| 5.0 + i as f64).collect();
    serving.re_enroll(&device, &new_sig).unwrap();

    // The cached entry is gone: the next predict recomputes against the
    // new signature and matches an uncached call bit for bit.
    let fresh = serving.predict(&device, &nets[0]).unwrap();
    let after = serving.cache_stats();
    assert_eq!(after.prediction_hits, before.prediction_hits);
    assert_eq!(after.prediction_misses, before.prediction_misses + 1);
    let uncached = serving
        .with_repository(|r| r.predict(&device, &nets[0]))
        .unwrap();
    assert_eq!(fresh.to_bits(), uncached.to_bits());
}

#[test]
fn serving_snapshot_save_matches_direct_save() {
    let (repo, nets) = fitted_repository(19);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let expected = serving.predict(&device, &nets[0]).unwrap();

    let path = scratch_path("via_serving.json");
    serving.save_snapshot(&path).unwrap();
    let reloaded = ServingRepository::from_snapshot_path(&path).unwrap();
    assert_eq!(
        reloaded.predict(&device, &nets[0]).unwrap().to_bits(),
        expected.to_bits()
    );
    std::fs::remove_file(&path).ok();
}
