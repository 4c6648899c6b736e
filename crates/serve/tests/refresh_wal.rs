//! Integration tests for the streaming-ingestion stack: the
//! epoch-guarded prediction cache (a model swap racing an in-flight
//! predict must never leave a stale cached answer), atomic snapshot
//! writes, write-ahead-log crash recovery, and the background-refresh
//! pipeline end to end.

use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_dnn::Network;
use gdcm_ml::GbdtParams;
use gdcm_serve::{
    load_repository, save_repository, IngestPipeline, RefreshConfig, ServeConfig, ServeError,
    ServingRepository, WriteAheadLog,
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
    let dir = std::env::temp_dir().join(format!("gdcm_refresh_tests_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The stale-insert race, forced deterministically on a one-network
/// predict: a model swap (re-enroll) lands *between* its compute and its
/// cache insert. Before the epoch guard the stale value was inserted
/// after the invalidation and served forever; with the guard the insert
/// is discarded and the next predict recomputes against the new model.
#[test]
fn mid_flight_model_swap_discards_the_stale_prediction() {
    let (repo, nets) = fitted_repository(31);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let sig_len = serving.with_repository(|r| r.signature_size());
    let new_sig: Vec<f64> = (0..sig_len).map(|i| 7.5 + i as f64).collect();

    let discarded_before = gdcm_obs::counter("serve/pred_cache_stale_discard").get();
    let stale = serving
        .predict_batch_hooked(&device, &nets[..1], || {
            // The racing writer: swaps the model (and clears the cache)
            // while the reader holds its computed-but-uncached value.
            serving.re_enroll(&device, &new_sig).unwrap();
        })
        .unwrap()[0];
    let stats_after_race = serving.cache_stats();

    // The caller still gets the value it computed (it was correct when
    // computed), but it must NOT have been cached: the next predict is
    // a miss and answers the new model's bits, not the stale ones.
    let fresh = serving.predict(&device, &nets[0]).unwrap();
    let stats = serving.cache_stats();
    assert_eq!(
        stats.prediction_hits, stats_after_race.prediction_hits,
        "stale value was served from the cache after the model swap"
    );
    assert_eq!(
        stats.prediction_misses,
        stats_after_race.prediction_misses + 1
    );
    let uncached = serving
        .with_repository(|r| r.predict(&device, &nets[0]))
        .unwrap();
    assert_eq!(
        fresh.to_bits(),
        uncached.to_bits(),
        "post-swap predict does not match the new model"
    );
    assert_ne!(
        stale.to_bits(),
        fresh.to_bits(),
        "re-enroll should change this prediction; the race is not being exercised"
    );
    assert!(
        gdcm_obs::counter("serve/pred_cache_stale_discard").get() > discarded_before,
        "the discarded insert was not counted"
    );
}

/// The same race through the batch path: every miss computed before the
/// swap must be discarded, and a follow-up batch recomputes them all.
#[test]
fn mid_flight_model_swap_discards_stale_batch_inserts() {
    let (repo, nets) = fitted_repository(32);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let sig_len = serving.with_repository(|r| r.signature_size());
    let new_sig: Vec<f64> = (0..sig_len).map(|i| 3.25 + i as f64).collect();

    serving
        .predict_batch_hooked(&device, &nets, || {
            serving.re_enroll(&device, &new_sig).unwrap();
        })
        .unwrap();
    let after_race = serving.cache_stats();

    // Nothing from the raced batch may be cached: the re-ask misses on
    // every network and matches the new model bit for bit.
    let fresh = serving.predict_batch(&device, &nets).unwrap();
    let stats = serving.cache_stats();
    assert_eq!(
        stats.prediction_hits, after_race.prediction_hits,
        "a stale batch insert survived the model swap"
    );
    assert_eq!(
        stats.prediction_misses,
        after_race.prediction_misses + nets.len() as u64
    );
    for (i, net) in nets.iter().enumerate() {
        let uncached = serving
            .with_repository(|r| r.predict(&device, net))
            .unwrap();
        assert_eq!(fresh[i].to_bits(), uncached.to_bits());
    }
}

/// Snapshot writes go through a fsynced temp sibling + rename: no
/// `.tmp` residue on success, and a torn (truncated) snapshot is
/// rejected cleanly on load instead of half-parsing.
#[test]
fn snapshot_save_is_atomic_and_truncation_is_rejected() {
    let (repo, _) = fitted_repository(33);
    let path = scratch_path("atomic.json");
    save_repository(&repo, &path).unwrap();

    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    assert!(
        !PathBuf::from(&tmp).exists(),
        "temp sibling left behind after a successful save"
    );
    assert!(load_repository(&path).is_ok());

    // A crash mid-write under the old direct-write scheme would leave
    // exactly this: a prefix of the snapshot. It must fail loudly.
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    match load_repository(&path) {
        Err(ServeError::Json(_)) => {}
        other => panic!("torn snapshot was not rejected as corrupt JSON: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Kill-and-replay: every record acked before the "crash" survives into
/// the recovered repository; a partial trailing record (the append the
/// crash interrupted, never acked) is truncated away cleanly.
#[test]
fn acked_wal_records_survive_a_crash_and_replay() {
    let (repo, nets) = fitted_repository(34);
    let snapshot_path = scratch_path("crash_snapshot.json");
    let wal_path = scratch_path("crash.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let rows_before = repo.n_rows();
    let device = repo.device_names()[0].to_string();

    // A serving process acks three contributions through the pipeline...
    {
        let serving = ServingRepository::new(repo, ServeConfig::default());
        let (wal, records, _) = WriteAheadLog::open(&wal_path).unwrap();
        assert!(records.is_empty());
        let pipeline =
            IngestPipeline::with_wal(&serving, wal, &snapshot_path, RefreshConfig::default());
        for (i, net) in nets.iter().take(3).enumerate() {
            pipeline.contribute(&device, net, 10.0 + i as f64).unwrap();
        }
        assert_eq!(pipeline.wal_records(), 3);
    } // ...and dies without compacting.

    // The crash also tore the append that was in flight: chop a few
    // bytes off the tail so the last record is incomplete.
    let full = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &full[..full.len() - 5]).unwrap();

    // Next startup: snapshot + WAL replay. The two fully-acked records
    // are recovered; the torn one is dropped and the file healed.
    let mut recovered = load_repository(&snapshot_path).unwrap();
    let (wal, records, recovery) = WriteAheadLog::open(&wal_path).unwrap();
    assert_eq!(records.len(), 2, "expected exactly the intact records");
    assert!(recovery.truncated_bytes > 0);
    let mut applied = 0;
    for record in &records {
        if gdcm_serve::replay_record(&mut recovered, record) {
            applied += 1;
        }
    }
    assert_eq!(applied, 2);
    assert_eq!(recovered.n_rows(), rows_before + 2);
    drop(wal);
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// An unparsable `GDCM_SERVE_*` value falls back to the default and is
/// counted (and warned about via a structured event) instead of being
/// silently swallowed or crashing startup.
#[test]
fn unparsable_env_knob_warns_and_falls_back() {
    let before = gdcm_obs::counter("serve/config_env_invalid").get();
    std::env::set_var("GDCM_SERVE_REFRESH_ROWS", "a-few-hundred");
    std::env::set_var("GDCM_SERVE_REFRESH_BOOST", "-3");
    let config = RefreshConfig::from_env();
    std::env::remove_var("GDCM_SERVE_REFRESH_ROWS");
    std::env::remove_var("GDCM_SERVE_REFRESH_BOOST");
    assert_eq!(config, RefreshConfig::default());
    assert_eq!(
        gdcm_obs::counter("serve/config_env_invalid").get(),
        before + 2,
        "each unparsable knob must be counted once"
    );
}

/// A mutation the repository rejects must not leave a poison record in
/// the WAL: the frame is rolled back under the log lock, so a restart
/// replays only mutations that were actually applied. (Regression: a
/// single invalid client request used to persist a record whose replay
/// rejection aborted every subsequent startup.)
#[test]
fn rejected_mutation_is_rolled_back_out_of_the_wal() {
    let (repo, nets) = fitted_repository(36);
    let snapshot_path = scratch_path("rollback_snapshot.json");
    let wal_path = scratch_path("rollback.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let device = repo.device_names()[0].to_string();

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline =
        IngestPipeline::with_wal(&serving, wal, &snapshot_path, RefreshConfig::default());

    // One valid contribution, then two the repository rejects.
    pipeline.contribute(&device, &nets[0], 10.0).unwrap();
    assert!(matches!(
        pipeline.contribute("not-a-device", &nets[0], 10.0),
        Err(ServeError::Repository(_))
    ));
    assert!(matches!(
        pipeline.contribute(&device, &nets[0], f64::NAN),
        Err(ServeError::Repository(_))
    ));
    assert_eq!(
        pipeline.wal_records(),
        1,
        "rejected mutations must not stay in the log"
    );

    // A restart sees only the applied record, and the rolled-back tail
    // left the file byte-exact: recovery truncates nothing.
    drop(pipeline);
    let (_, records, recovery) = WriteAheadLog::open(&wal_path).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(recovery.truncated_bytes, 0);
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// Replay tolerates *any* record the repository refuses — skip and
/// warn, never error — so a stray durable record (e.g. surviving a
/// failed rollback) can never prevent the server from starting.
#[test]
fn replay_skips_rejected_records_instead_of_failing() {
    let (mut repo, nets) = fitted_repository(37);
    let device = repo.device_names()[0].to_string();
    let skipped_before = gdcm_obs::counter("serve/wal_replay_skipped").get();

    let records = [
        // Rejected: contribution for a device the snapshot never held.
        gdcm_serve::WalRecord::Contribute {
            device: "ghost-device".into(),
            network: nets[0].clone(),
            latency_ms: 12.0,
        },
        // Rejected: re-enroll of an unknown device.
        gdcm_serve::WalRecord::ReEnroll {
            device: "ghost-device".into(),
            signature_ms: vec![1.0; repo.signature_size()],
        },
        // Rejected: wrong signature length.
        gdcm_serve::WalRecord::Onboard {
            device: "short-sig".into(),
            signature_ms: vec![1.0],
        },
        // Applied: a valid contribution after all the rejects.
        gdcm_serve::WalRecord::Contribute {
            device: device.clone(),
            network: nets[0].clone(),
            latency_ms: 12.0,
        },
    ];
    let rows_before = repo.n_rows();
    let applied: Vec<bool> = records
        .iter()
        .map(|r| gdcm_serve::replay_record(&mut repo, r))
        .collect();
    assert_eq!(applied, [false, false, false, true]);
    assert_eq!(repo.n_rows(), rows_before + 1);
    assert_eq!(
        gdcm_obs::counter("serve/wal_replay_skipped").get(),
        skipped_before + 3,
        "each skipped record must be counted"
    );
}

/// Records recovered from the WAL at startup seed the refresh backlog,
/// so a crash backlog is compacted by the next refresh instead of being
/// replayed on every start until fresh contributions arrive.
#[test]
fn recovered_wal_records_seed_the_refresh_backlog() {
    let (repo, nets) = fitted_repository(38);
    let snapshot_path = scratch_path("seed_snapshot.json");
    let wal_path = scratch_path("seed.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let device = repo.device_names()[0].to_string();

    // First process acks three contributions and dies uncompacted.
    {
        let serving = ServingRepository::new(repo.clone(), ServeConfig::default());
        let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
        let pipeline = IngestPipeline::with_wal(
            &serving,
            wal,
            &snapshot_path,
            RefreshConfig {
                refresh_rows: 100,
                ..RefreshConfig::default()
            },
        );
        for (i, net) in nets.iter().take(3).enumerate() {
            pipeline.contribute(&device, net, 10.0 + i as f64).unwrap();
        }
    }

    // Second process: the recovered backlog counts toward the refresh
    // threshold immediately.
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, records, _) = WriteAheadLog::open(&wal_path).unwrap();
    assert_eq!(records.len(), 3);
    let pipeline = IngestPipeline::with_wal(
        &serving,
        wal,
        &snapshot_path,
        RefreshConfig {
            refresh_rows: 100,
            ..RefreshConfig::default()
        },
    );
    assert_eq!(
        pipeline.pending_rows(),
        3,
        "crash backlog must seed the refresh threshold"
    );
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// With the contribution threshold disabled, the WAL must still be
/// bounded: crossing `wal_compact_records` makes the refresher run a
/// backstop cycle — refit + swap + compact, since a compacted
/// snapshot's model must match its rows to pass the load-time gate.
#[test]
fn wal_compacts_via_backstop_without_contribution_threshold() {
    let (repo, nets) = fitted_repository(39);
    let snapshot_path = scratch_path("backstop_snapshot.json");
    let wal_path = scratch_path("backstop.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let rows_before = repo.n_rows();
    let device = repo.device_names()[0].to_string();

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline = IngestPipeline::with_wal(
        &serving,
        wal,
        &snapshot_path,
        RefreshConfig {
            refresh_rows: 0, // contribution threshold disabled
            wal_compact_records: 2,
            ..RefreshConfig::default()
        },
    );
    assert!(
        pipeline.refresher_needed(),
        "a WAL with a record cap needs the refresher thread"
    );
    assert!(!pipeline.refresh_due());

    std::thread::scope(|scope| {
        let refresher = scope.spawn(|| pipeline.run());
        pipeline.contribute(&device, &nets[0], 21.0).unwrap();
        pipeline.contribute(&device, &nets[1], 22.0).unwrap();
        // The backstop cycle runs on the refresher thread; give it a
        // generous-but-bounded window to refit and compact.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while pipeline.wal_records() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        pipeline.stop();
        refresher.join().unwrap();
    });
    assert_eq!(
        pipeline.wal_records(),
        0,
        "crossing the record cap must trigger a backstop compaction"
    );
    assert_eq!(pipeline.refreshes(), 1, "the backstop rides one refit");
    assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), 0);
    // The compaction snapshot carries the contributed rows (and a model
    // consistent with them — it reloads through the audit gate), so a
    // restart needs no replay at all.
    let reloaded = load_repository(&snapshot_path).unwrap();
    assert_eq!(reloaded.n_rows(), rows_before + 2);
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// An on-demand fit through the pipeline is made durable by compaction:
/// the WAL records rows, not models, so the pipeline re-snapshots after
/// the fit and a crash-restart serves the fitted model's exact bits.
#[test]
fn pipeline_fit_compacts_so_the_model_survives_a_restart() {
    let (repo, nets) = fitted_repository(40);
    let snapshot_path = scratch_path("fit_snapshot.json");
    let wal_path = scratch_path("fit.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let device = repo.device_names()[0].to_string();

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline =
        IngestPipeline::with_wal(&serving, wal, &snapshot_path, RefreshConfig::default());
    for (i, net) in nets.iter().take(3).enumerate() {
        pipeline.contribute(&device, net, 17.0 + i as f64).unwrap();
    }
    pipeline.fit().unwrap();
    assert_eq!(
        pipeline.wal_records(),
        0,
        "fit must compact the log into the snapshot"
    );

    // Crash here: the reloaded snapshot alone reproduces the acked
    // fit's predictions bit for bit.
    let reloaded = load_repository(&snapshot_path).unwrap();
    for net in &nets {
        let live = serving
            .with_repository(|r| r.predict(&device, net))
            .unwrap();
        assert_eq!(
            live.to_bits(),
            reloaded.predict(&device, net).unwrap().to_bits()
        );
    }
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}

/// The pipeline end to end: contributions cross the threshold, one
/// `refresh_once` fits + audits + swaps a new model (bumping the
/// epoch), and compaction folds the WAL into a fresh snapshot that
/// reloads with the new rows.
#[test]
fn refresh_swaps_a_new_model_and_compacts_the_wal() {
    let (repo, nets) = fitted_repository(35);
    let snapshot_path = scratch_path("refresh_snapshot.json");
    let wal_path = scratch_path("refresh.wal");
    std::fs::remove_file(&wal_path).ok();
    save_repository(&repo, &snapshot_path).unwrap();
    let rows_before = repo.n_rows();
    let device = repo.device_names()[0].to_string();

    let serving = ServingRepository::new(repo, ServeConfig::default());
    let (wal, _, _) = WriteAheadLog::open(&wal_path).unwrap();
    let pipeline = IngestPipeline::with_wal(
        &serving,
        wal,
        &snapshot_path,
        RefreshConfig {
            refresh_rows: 4,
            warm_boost: 8,
            ..RefreshConfig::default()
        },
    );
    let epoch_before = serving.model_epoch();

    for (i, net) in nets.iter().take(4).enumerate() {
        pipeline.contribute(&device, net, 20.0 + i as f64).unwrap();
    }
    assert_eq!(pipeline.pending_rows(), 4);
    assert_eq!(pipeline.wal_records(), 4);

    assert!(pipeline.refresh_once().unwrap());
    assert_eq!(pipeline.refreshes(), 1);
    assert_eq!(pipeline.pending_rows(), 0);
    assert_eq!(pipeline.wal_records(), 0, "WAL must compact after a swap");
    assert!(
        serving.model_epoch() > epoch_before,
        "a swapped refresh must advance the model epoch"
    );

    // The compacted snapshot alone (no WAL replay) carries all the
    // contributed rows and serves the refreshed model's exact bits.
    let reloaded = load_repository(&snapshot_path).unwrap();
    assert_eq!(reloaded.n_rows(), rows_before + 4);
    for net in &nets {
        let live = serving
            .with_repository(|r| r.predict(&device, net))
            .unwrap();
        let reread = reloaded.predict(&device, net).unwrap();
        assert_eq!(live.to_bits(), reread.to_bits());
    }
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}
