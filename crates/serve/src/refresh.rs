//! Streaming ingestion with durable logging and background model
//! refresh.
//!
//! [`IngestPipeline`] sits between the server's dispatch loop and the
//! [`ServingRepository`] for the mutating requests (`contribute`,
//! `onboard_device`, `re_enroll`, `fit`). The server always holds one:
//! the caller's, or an in-memory [`IngestPipeline::new`] it builds
//! itself, which applies each mutation directly.
//!
//! 1. **Durability first.** When a write-ahead log is attached
//!    ([`IngestPipeline::with_wal`]), the mutation is appended and
//!    fsynced ([`crate::wal`]) *before* it is applied — an acknowledged
//!    mutation survives a crash and is replayed on the next startup. A
//!    mutation the repository *rejects* is rolled back out of the log
//!    before the error returns, so rejected requests never accumulate
//!    as replay noise.
//! 2. **Threshold-triggered refresh.** Contributions are counted; once
//!    `GDCM_SERVE_REFRESH_ROWS` new rows accumulate, the background
//!    refresher (spawned by the server when refresh is enabled) clones
//!    the training data under a brief read lock, trains *off-lock* —
//!    warm-starting from the previous model's trees so refit cost
//!    scales with the residual rounds, not total rounds
//!    ([`gdcm_ml::GbdtRegressor::warm_fit`]) — runs the same audit +
//!    flatcheck gate the snapshot loader applies, and only then
//!    atomically installs the new model
//!    ([`ServingRepository::install_refit`]). Readers never wait on a
//!    fit: the write guard is held for the pointer swap only.
//! 3. **Compaction.** After a successful swap the repository is
//!    re-snapshotted (atomically — [`crate::snapshot::save_repository`])
//!    and the WAL truncated, bounding replay work at the next startup.
//!    Two paths keep the log bounded even without the contribution
//!    threshold: records recovered at open seed the refresh backlog,
//!    and once `wal_compact_records` accumulate the refresher runs a
//!    backstop cycle (compaction always rides a refit, because a
//!    snapshot whose model was fitted on fewer rows than it stores is
//!    rejected by the load-time flatcheck gate).
//!
//! The epoch guard in [`ServingRepository`] is what makes the swap safe
//! for in-flight readers: any prediction computed against the old model
//! is discarded rather than cached stale.

use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::serving::env_usize;
use crate::wal::{WalRecord, WriteAheadLog};
use crate::{snapshot, ServeError, ServingRepository};
use gdcm_dnn::Network;
use gdcm_ml::{BinnedMatrix, DenseMatrix, FrozenGbdt, GbdtRegressor};

/// Background-refresh configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshConfig {
    /// Contributions that trigger a background refit; 0 disables the
    /// refresher entirely.
    pub refresh_rows: usize,
    /// Boosting rounds to retrain on a warm-started refresh: the
    /// previous model's first `n_estimators - warm_boost` trees are
    /// reused and only `warm_boost` residual rounds are fitted. 0 means
    /// every refresh is a cold fit.
    pub warm_boost: usize,
    /// WAL records that force a backstop refresh cycle (refit + swap +
    /// compact — a compacted snapshot's model must match its rows, so
    /// compaction always rides a refit) even when the contribution
    /// threshold is disabled or far away, bounding the log's replay
    /// cost. 0 disables the backstop.
    pub wal_compact_records: usize,
}

/// Default residual rounds per warm refresh.
pub const DEFAULT_WARM_BOOST: usize = 8;

/// Default WAL-record cap before an inline compaction.
pub const DEFAULT_WAL_COMPACT_RECORDS: usize = 1024;

impl Default for RefreshConfig {
    fn default() -> Self {
        Self {
            refresh_rows: 0,
            warm_boost: DEFAULT_WARM_BOOST,
            wal_compact_records: DEFAULT_WAL_COMPACT_RECORDS,
        }
    }
}

impl RefreshConfig {
    /// Reads `GDCM_SERVE_REFRESH_ROWS` (contribution threshold, 0 or
    /// unset disables), `GDCM_SERVE_REFRESH_BOOST` (warm residual
    /// rounds), and `GDCM_SERVE_WAL_COMPACT_RECORDS` (inline-compaction
    /// backstop, 0 disables). Unparsable values fall back with a
    /// structured warning, like every other `GDCM_SERVE_*` knob.
    pub fn from_env() -> Self {
        Self {
            refresh_rows: env_usize("GDCM_SERVE_REFRESH_ROWS", 0),
            warm_boost: env_usize("GDCM_SERVE_REFRESH_BOOST", DEFAULT_WARM_BOOST),
            wal_compact_records: env_usize(
                "GDCM_SERVE_WAL_COMPACT_RECORDS",
                DEFAULT_WAL_COMPACT_RECORDS,
            ),
        }
    }
}

/// Durable ingestion + background-refresh controller over a
/// [`ServingRepository`].
#[derive(Debug)]
pub struct IngestPipeline<'a> {
    serving: &'a ServingRepository,
    /// The durability layer; `None` runs the pipeline in-memory (still
    /// counting toward the refresh threshold).
    wal: Option<Mutex<WriteAheadLog>>,
    /// Where compaction writes the post-refresh snapshot.
    snapshot_path: Option<PathBuf>,
    config: RefreshConfig,
    /// Contributions since the last completed refresh.
    pending_rows: Mutex<u64>,
    /// WAL record count at the last backstop-triggered cycle that did
    /// not compact (rejected or data-starved); the backstop re-arms
    /// only once the log grows past it, so a persistently failing
    /// refit cannot hot-loop.
    wal_backstop_mark: AtomicU64,
    /// Set when a refresh swapped but compaction was deferred because a
    /// mutation raced the swap; the refresher follows up with another
    /// cycle (which refits over the new state) instead of leaving the
    /// log to the record-cap backstop.
    compact_pending: AtomicBool,
    stop: AtomicBool,
    refreshes: AtomicU64,
    refreshes_rejected: AtomicU64,
}

impl<'a> IngestPipeline<'a> {
    /// An in-memory pipeline: no durability, but contributions still
    /// count toward the background-refresh threshold.
    pub fn new(serving: &'a ServingRepository, config: RefreshConfig) -> Self {
        Self {
            serving,
            wal: None,
            snapshot_path: None,
            config,
            pending_rows: Mutex::new(0),
            wal_backstop_mark: AtomicU64::new(0),
            compact_pending: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            refreshes: AtomicU64::new(0),
            refreshes_rejected: AtomicU64::new(0),
        }
    }

    /// A durable pipeline: mutations are WAL-logged before they are
    /// applied, and each completed refresh compacts the log into a
    /// fresh snapshot at `snapshot_path`. The log should already have
    /// been opened (and its records replayed into `serving`'s
    /// repository) by the caller — see [`WriteAheadLog::open`].
    ///
    /// Records recovered at open seed the refresh backlog: a crash
    /// backlog counts toward the threshold immediately, so the next
    /// refresh folds it into a snapshot instead of leaving it to be
    /// replayed on every start until enough *new* contributions arrive.
    pub fn with_wal(
        serving: &'a ServingRepository,
        wal: WriteAheadLog,
        snapshot_path: &Path,
        config: RefreshConfig,
    ) -> Self {
        let mut pipeline = Self::new(serving, config);
        let recovered = wal.pending();
        pipeline.wal = Some(Mutex::new(wal));
        pipeline.snapshot_path = Some(snapshot_path.to_path_buf());
        if pipeline.refresh_enabled() && recovered > 0 {
            let mut pending = pipeline.pending_rows.lock();
            *pending = recovered;
            gdcm_obs::gauge("serve/refresh_pending_rows").set(*pending as f64);
        }
        pipeline
    }

    /// Whether the background refresher should run at all.
    pub fn refresh_enabled(&self) -> bool {
        self.config.refresh_rows > 0
    }

    /// Whether the server must spawn the refresher thread: either the
    /// contribution threshold is active, or a WAL with a record-cap
    /// backstop needs the thread to bound the log.
    pub fn refresher_needed(&self) -> bool {
        self.refresh_enabled() || (self.wal.is_some() && self.config.wal_compact_records > 0)
    }

    /// Whether a refresh cycle is due right now: the contribution
    /// threshold is crossed, the WAL has grown past its record-cap
    /// backstop, or a deferred compaction needs a follow-up cycle. The
    /// latter two are gated on the log having grown past the mark of
    /// the last cycle that failed to compact, so failures re-arm on
    /// growth instead of hot-looping.
    pub fn refresh_due(&self) -> bool {
        if self.refresh_enabled() && *self.pending_rows.lock() >= self.config.refresh_rows as u64 {
            return true;
        }
        let records = self.wal_records();
        if records == 0 {
            return false;
        }
        let cap = self.config.wal_compact_records as u64;
        let over_cap = cap > 0 && records >= cap;
        (over_cap || self.compact_pending.load(Ordering::Acquire))
            && records > self.wal_backstop_mark.load(Ordering::Acquire)
    }

    /// Completed background refreshes.
    pub fn refreshes(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }

    /// Refreshes rejected by the audit + flatcheck gate.
    pub fn refreshes_rejected(&self) -> u64 {
        self.refreshes_rejected.load(Ordering::Relaxed)
    }

    /// Contributions accumulated toward the next refresh.
    pub fn pending_rows(&self) -> u64 {
        *self.pending_rows.lock()
    }

    /// WAL records awaiting compaction (0 when no WAL is attached).
    pub fn wal_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, |wal| wal.lock().pending())
    }

    /// Contributes one measurement durably: WAL append + fsync first,
    /// then apply, then count toward the refresh threshold.
    ///
    /// # Errors
    ///
    /// Propagates WAL I/O and repository validation errors. On an apply
    /// error the just-appended record is rolled back out of the log.
    pub fn contribute(
        &self,
        device: &str,
        network: &Network,
        latency_ms: f64,
    ) -> Result<(), ServeError> {
        self.logged_apply(
            || WalRecord::Contribute {
                device: device.to_string(),
                network: network.clone(),
                latency_ms,
            },
            || self.serving.contribute(device, network, latency_ms),
        )?;
        self.note_contribution();
        Ok(())
    }

    /// Enrolls a device durably (see [`ServingRepository::onboard_device`]).
    ///
    /// # Errors
    ///
    /// Propagates WAL I/O and repository validation errors.
    pub fn onboard_device(&self, device: &str, signature_ms: &[f64]) -> Result<(), ServeError> {
        self.logged_apply(
            || WalRecord::Onboard {
                device: device.to_string(),
                signature_ms: signature_ms.to_vec(),
            },
            || self.serving.onboard_device(device, signature_ms),
        )
    }

    /// Updates a device signature durably (see
    /// [`ServingRepository::re_enroll`]).
    ///
    /// # Errors
    ///
    /// Propagates WAL I/O and repository validation errors.
    pub fn re_enroll(&self, device: &str, signature_ms: &[f64]) -> Result<(), ServeError> {
        self.logged_apply(
            || WalRecord::ReEnroll {
                device: device.to_string(),
                signature_ms: signature_ms.to_vec(),
            },
            || self.serving.re_enroll(device, signature_ms),
        )
    }

    /// Appends the record (when a WAL is attached) and applies the
    /// mutation, holding the WAL lock across both so the log order is
    /// the apply order — compaction must never snapshot a mutation the
    /// log believes is still pending.
    ///
    /// A mutation the repository rejects is rolled back out of the log
    /// while the lock is still held: nothing was acknowledged, and a
    /// rejected record left durable would be replayed (and re-rejected,
    /// then skipped) on every subsequent startup. If the rollback
    /// itself fails the record stays put — replay's skip-and-warn path
    /// ([`crate::wal::replay_record`]) makes that harmless.
    fn logged_apply(
        &self,
        record: impl FnOnce() -> WalRecord,
        apply: impl FnOnce() -> Result<(), ServeError>,
    ) -> Result<(), ServeError> {
        match &self.wal {
            None => apply(),
            Some(wal) => {
                let mut wal = wal.lock();
                let mark = wal.mark();
                wal.append(&record())?;
                if let Err(e) = apply() {
                    if let Err(rollback) = wal.rollback_to(mark) {
                        gdcm_obs::event(
                            "wal_rollback_failed",
                            "serve",
                            &[("error", gdcm_obs::FieldValue::Str(rollback.to_string()))],
                        );
                    }
                    return Err(e);
                }
                Ok(())
            }
        }
    }

    /// Counts one contribution toward the refresh threshold.
    fn note_contribution(&self) {
        if !self.refresh_enabled() {
            return;
        }
        let mut pending = self.pending_rows.lock();
        *pending += 1;
        gdcm_obs::gauge("serve/refresh_pending_rows").set(*pending as f64);
    }

    /// Asks the refresher loop to exit after its current cycle.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// The background refresher loop: polls [`Self::refresh_due`] (the
    /// contribution threshold or the WAL record-cap backstop), then
    /// refits and swaps. Run on a dedicated thread by
    /// [`crate::server::serve_with_ingest`]. A gate-rejected refresh is
    /// logged and the loop keeps serving the old model. The poll
    /// interval (25 ms against an uncontended mutex) bounds refresh
    /// latency; the vendored `parking_lot` shim has no `Condvar`, and a
    /// refit takes orders of magnitude longer than a poll tick anyway.
    pub fn run(&self) {
        while !self.stop.load(Ordering::Acquire) {
            if !self.refresh_due() {
                std::thread::park_timeout(Duration::from_millis(25));
                continue;
            }
            let outcome = self.refresh_once();
            match &outcome {
                Ok(true) => {}
                Ok(false) => {
                    // Not enough rows to fit yet. An *unfitted*
                    // repository can still compact (a model-less
                    // snapshot loads without an audit gate), so a
                    // backstop-sized backlog of onboards does not sit
                    // in the log forever.
                    self.compact_unfitted_backlog();
                }
                Err(e) => gdcm_obs::event(
                    "refresh_rejected",
                    "serve",
                    &[("error", gdcm_obs::FieldValue::Str(e.to_string()))],
                ),
            }
            // A completed cycle resets the backstop; a failed one
            // re-arms it only once the log grows past where it stands
            // now, so a persistently failing refit cannot hot-loop.
            let mark = match outcome {
                Ok(true) => 0,
                _ => self.wal_records(),
            };
            self.wal_backstop_mark.store(mark, Ordering::Release);
        }
    }

    /// One refresh cycle: clone the training state under a brief read
    /// lock, (warm-)fit off-lock, audit, swap, compact. Returns
    /// `Ok(false)` when there is not yet enough data to fit.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AuditRejected`] when the refreshed model
    /// fails the audit + flatcheck gate (the old model keeps serving),
    /// and I/O errors from compaction.
    pub fn refresh_once(&self) -> Result<bool, ServeError> {
        let _span = gdcm_obs::span!("serve/refresh");
        let take = *self.pending_rows.lock();
        // Clone what training needs under the read lock; concurrent
        // readers share it, and the expensive work below runs off-lock.
        let (x_rows, y, gbdt, min_rows, prev) = self.serving.with_repository(|repo| {
            let (x_rows, y) = repo.training_data();
            (
                x_rows.to_vec(),
                y.to_vec(),
                repo.config().gbdt,
                repo.config().min_rows,
                repo.model().cloned(),
            )
        });
        if y.len() < min_rows {
            return Ok(false);
        }
        let started = Instant::now();
        let x = DenseMatrix::from_rows(&x_rows);
        // Warm-start only when the previous model is shaped like the
        // configured fit; any mismatch (hyper-parameter change, feature
        // width change after a signature-set change) falls back cold.
        let reuse = match &prev {
            Some(prev)
                if self.config.warm_boost > 0
                    && self.config.warm_boost < gbdt.n_estimators
                    && prev.n_trees() == gbdt.n_estimators
                    && prev.n_features() == x.n_cols() =>
            {
                gbdt.n_estimators - self.config.warm_boost
            }
            _ => 0,
        };
        let model = match (&prev, reuse) {
            (Some(prev), r) if r > 0 => GbdtRegressor::warm_fit(&x, &y, &gbdt, prev, r),
            _ => GbdtRegressor::fit(&x, &y, &gbdt),
        };
        let binned = BinnedMatrix::from_matrix(&x, gbdt.max_bins);
        // A freeze failure is handled exactly like an audit rejection —
        // count it, consume the pending rows, keep serving the old
        // model — rather than panicking the refresher thread (which
        // would propagate at scope join and take the server down).
        let frozen = match FrozenGbdt::freeze(&model, &binned) {
            Ok(frozen) => frozen,
            Err(e) => {
                return Err(self.reject_refresh(
                    take,
                    ServeError::AuditRejected {
                        diagnostics: vec![format!("freeze: {e}")],
                    },
                ));
            }
        };
        // The same gate the snapshot loader runs: a refreshed model
        // must clear the audit + flatcheck passes *before* it swaps in.
        if let Err(e) =
            snapshot::audit_model_artifacts("serve/refresh", &model, &gbdt, &x, &y, Some(&frozen))
        {
            return Err(self.reject_refresh(take, e));
        }
        let epoch = self.serving.install_refit(model, frozen)?;
        let fit_ms = started.elapsed().as_secs_f64() * 1e3;
        {
            let mut pending = self.pending_rows.lock();
            *pending = pending.saturating_sub(take);
            gdcm_obs::gauge("serve/refresh_pending_rows").set(*pending as f64);
        }
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        gdcm_obs::counter("serve/refreshes").incr();
        gdcm_obs::histogram("serve/refresh_fit_ms").record(fit_ms);
        self.compact_consistent(y.len(), epoch)?;
        gdcm_obs::event(
            "refresh_swapped",
            "serve",
            &[
                ("epoch", gdcm_obs::FieldValue::U64(epoch)),
                ("rows", gdcm_obs::FieldValue::U64(y.len() as u64)),
                ("reused_trees", gdcm_obs::FieldValue::U64(reuse as u64)),
                ("fit_ms", gdcm_obs::FieldValue::F64(fit_ms)),
            ],
        );
        Ok(true)
    }

    /// Bookkeeping for a refresh the gate (audit, flatcheck, or freeze)
    /// refused: count the rejection and consume the pending rows —
    /// retrying the same rows in a hot loop would reject the same way.
    /// Returns `error` back for propagation.
    fn reject_refresh(&self, take: u64, error: ServeError) -> ServeError {
        self.refreshes_rejected.fetch_add(1, Ordering::Relaxed);
        gdcm_obs::counter("serve/refreshes_rejected").incr();
        let mut pending = self.pending_rows.lock();
        *pending = pending.saturating_sub(take);
        gdcm_obs::gauge("serve/refresh_pending_rows").set(*pending as f64);
        error
    }

    /// Fits the repository's model on demand (see
    /// [`ServingRepository::fit`]), then folds the result into a fresh
    /// snapshot. The WAL records rows, not models, so without the
    /// compaction an acknowledged fit would silently revert to the
    /// snapshot's model on crash-and-replay. The WAL lock is held
    /// across fit + compact: every pipeline mutation also applies under
    /// it, so the snapshot captures exactly the state the fit trained
    /// on. A compaction failure is logged rather than returned: the fit
    /// is applied and serving, and its durability catches up at the
    /// next successful compaction.
    ///
    /// # Errors
    ///
    /// Propagates repository fit errors (e.g. not enough data).
    pub fn fit(&self) -> Result<(), ServeError> {
        let Some(wal) = &self.wal else {
            return self.serving.fit();
        };
        let mut wal = wal.lock();
        self.serving.fit()?;
        if let Err(e) = self.compact_locked(&mut wal) {
            gdcm_obs::event(
                "fit_snapshot_failed",
                "serve",
                &[("error", gdcm_obs::FieldValue::Str(e.to_string()))],
            );
        }
        Ok(())
    }

    /// Folds the WAL into a fresh snapshot — save (atomic) then
    /// truncate, under the WAL lock so no concurrent mutation lands
    /// between the snapshot capture and the truncation — but only if
    /// the repository still matches the state the refreshed model was
    /// trained on (`rows` rows, model epoch `epoch`). A mutation that
    /// landed between the model install and this lock acquisition would
    /// make the snapshot's model stale against its rows — exactly the
    /// mismatch the load-time flatcheck gate rejects — so compaction is
    /// deferred to the next cycle instead, which refits over the new
    /// state. (Device onboards don't invalidate the model, but they
    /// also apply under the WAL lock, so deferring on any drift is
    /// simplest and costs one extra cycle at worst.)
    fn compact_consistent(&self, rows: usize, epoch: u64) -> Result<(), ServeError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let mut wal = wal.lock();
        let current = self
            .serving
            .with_repository(|repo| (repo.n_rows(), repo.model_epoch()));
        if current != (rows, epoch) {
            self.compact_pending.store(true, Ordering::Release);
            gdcm_obs::counter("serve/compactions_deferred").incr();
            gdcm_obs::event(
                "compaction_deferred",
                "serve",
                &[
                    ("trained_rows", gdcm_obs::FieldValue::U64(rows as u64)),
                    ("rows", gdcm_obs::FieldValue::U64(current.0 as u64)),
                ],
            );
            return Ok(());
        }
        self.compact_locked(&mut wal)
    }

    /// An unfitted repository has no model for a snapshot to disagree
    /// with, so a backstop-sized backlog (e.g. onboards before the row
    /// minimum is met) can compact without a refit. No-op when the
    /// repository is fitted or the backlog is under the cap.
    fn compact_unfitted_backlog(&self) {
        let Some(wal) = &self.wal else { return };
        let cap = self.config.wal_compact_records as u64;
        if cap == 0 {
            return;
        }
        let mut wal = wal.lock();
        if wal.pending() < cap || self.serving.with_repository(|repo| repo.is_fitted()) {
            return;
        }
        if let Err(e) = self.compact_locked(&mut wal) {
            gdcm_obs::event(
                "backstop_compact_failed",
                "serve",
                &[("error", gdcm_obs::FieldValue::Str(e.to_string()))],
            );
        }
    }

    /// Snapshot + truncate with the WAL lock already held.
    fn compact_locked(&self, wal: &mut WriteAheadLog) -> Result<(), ServeError> {
        let Some(path) = &self.snapshot_path else {
            return Ok(());
        };
        self.serving.save_snapshot(path)?;
        wal.compact()?;
        self.compact_pending.store(false, Ordering::Release);
        Ok(())
    }
}
