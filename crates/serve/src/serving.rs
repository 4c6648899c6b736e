//! The cached, thread-safe serving façade over the repository.
//!
//! ## Bit-identity contract
//!
//! Every cached or batched answer is bit-identical to what the plain
//! `CollaborativeRepository::predict` single-row path returns for the
//! same inputs:
//!
//! * the encoding cache stores the exact `Vec<f32>` that
//!   `NetworkEncoder::encode` (a deterministic function) produces;
//! * the prediction cache stores the exact `f64` a cold call computed;
//! * misses go through `CollaborativeRepository::predict_rows`, whose
//!   `gdcm-par` chunked frozen predictor is an ordered map of the same
//!   per-row arithmetic the single-row path uses.
//!
//! Caches only skip work; they never change it.
//!
//! ## Cache keys
//!
//! Networks are keyed by a 64-bit FNV-1a hash of their structure
//! ([`network_hash`]) — a *content* hash, so structurally identical
//! networks share cache entries no matter how the caller built them.
//! Predictions are keyed by `(device name, network hash)` and
//! invalidated whenever the model or a device signature changes
//! ([`ServingRepository::fit`], [`ServingRepository::re_enroll`],
//! [`ServingRepository::install_refit`]).
//!
//! ## One predict routine, epoch-guarded inserts
//!
//! [`ServingRepository::predict`] is a one-network
//! [`ServingRepository::predict_batch`]: a single routine probes the
//! cache, computes the misses, and publishes them. A prediction is
//! computed under the repository *read* guard, which is released before
//! the cache insert (holding it across the insert would serialize
//! readers on the cache mutex). That leaves a window where a concurrent
//! fit/re-enroll can clear the cache *before* the insert lands — which
//! used to leave one permanently stale entry. Every computed value
//! therefore carries the model epoch it was computed under, and the
//! insert is discarded (counter `serve/pred_cache_stale_discard`)
//! unless the epoch still matches the cache's own epoch mirror at
//! publish time.

use gdcm_core::{CollaborativeRepository, RepositoryError};
use gdcm_dnn::Network;
use gdcm_ml::{DenseMatrix, FrozenGbdt, GbdtRegressor};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::{Entry, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::lru::LruCache;
use crate::{snapshot, ServeError};

/// Default encoding-cache capacity (entries).
pub const DEFAULT_ENC_CACHE: usize = 1024;
/// Default prediction-cache capacity (entries).
pub const DEFAULT_PRED_CACHE: usize = 8192;

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Encoding-cache capacity in entries; 0 disables the cache.
    pub encoding_cache: usize,
    /// Prediction-cache capacity in entries; 0 disables the cache.
    pub prediction_cache: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            encoding_cache: DEFAULT_ENC_CACHE,
            prediction_cache: DEFAULT_PRED_CACHE,
        }
    }
}

impl ServeConfig {
    /// Reads the cache knobs from `GDCM_SERVE_ENC_CACHE` and
    /// `GDCM_SERVE_PRED_CACHE` (entry counts; 0 disables; unset falls
    /// back to the defaults silently, set-but-unparsable falls back
    /// with a structured warning — see [`env_usize`]).
    pub fn from_env() -> Self {
        Self {
            encoding_cache: env_usize("GDCM_SERVE_ENC_CACHE", DEFAULT_ENC_CACHE),
            prediction_cache: env_usize("GDCM_SERVE_PRED_CACHE", DEFAULT_PRED_CACHE),
        }
    }
}

/// Reads one `usize` knob from the environment. Unset is the normal
/// case and stays silent; a *set but unparsable* value is an operator
/// mistake, so it emits a `config_warning` event naming the variable,
/// the rejected value, and the fallback used, and bumps the
/// `serve/config_env_invalid` counter before falling back.
pub(crate) fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(v) => v,
            Err(_) => {
                gdcm_obs::counter("serve/config_env_invalid").incr();
                gdcm_obs::event(
                    "config_warning",
                    "serve",
                    &[
                        ("var", gdcm_obs::FieldValue::Str(name.to_string())),
                        ("value", gdcm_obs::FieldValue::Str(raw)),
                        ("fallback", gdcm_obs::FieldValue::U64(default as u64)),
                    ],
                );
                default
            }
        },
    }
}

/// Monotonic cache counters, cheap enough to read per request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Encoding-cache hits.
    pub encoding_hits: u64,
    /// Encoding-cache misses (encodings computed).
    pub encoding_misses: u64,
    /// Prediction-cache hits.
    pub prediction_hits: u64,
    /// Prediction-cache misses (predictions computed).
    pub prediction_misses: u64,
}

/// A deterministic 64-bit FNV-1a [`std::hash::Hasher`]. The std
/// `DefaultHasher` is randomly seeded per process; cache keys need the
/// same bits for the same network on every run.
struct Fnv1a(u64);

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// 64-bit FNV-1a content hash over a network's structure (name, nodes,
/// operators, shapes, wiring) via the graph's `Hash` impl — orders of
/// magnitude cheaper than serializing the graph, which matters because
/// every cache lookup pays this cost.
pub fn network_hash(network: &Network) -> u64 {
    use std::hash::Hash;
    let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325);
    network.hash(&mut hasher);
    hasher.0
}

/// A thread-safe, caching wrapper around [`CollaborativeRepository`].
///
/// All methods take `&self`; reads share an `RwLock` read guard, writes
/// ([`ServingRepository::onboard_device`] …) take the write guard, so a
/// single instance can back every server worker thread.
#[derive(Debug)]
pub struct ServingRepository {
    repo: RwLock<CollaborativeRepository>,
    encodings: Mutex<LruCache<u64, Arc<Vec<f32>>>>,
    predictions: Mutex<LruCache<(String, u64), f64>>,
    /// Canonical-wire-byte hash → structural [`network_hash`]. The
    /// binary protocol's fast lane: a repeated `Predict` payload can be
    /// answered from the prediction cache without decoding the network
    /// at all. Unlike `predictions`, this never needs invalidation —
    /// equal bytes always decode to equal graphs, so the mapping is a
    /// pure function of the wire encoding.
    wire_index: Mutex<LruCache<u64, u64>>,
    /// Mirror of the repository's model epoch, advanced *under the
    /// `predictions` mutex* whenever a writer invalidates the cache.
    /// Readers compare the epoch they computed under (captured while
    /// holding the repository read guard) against this mirror before
    /// publishing — a mismatch means a fit/re-enroll landed in between
    /// and the value must be discarded, never inserted stale. A mirror
    /// is needed because reading the repository epoch while holding the
    /// `predictions` mutex would invert the writers' `repo → predictions`
    /// lock order and deadlock.
    cache_epoch: AtomicU64,
    enc_hits: AtomicU64,
    enc_misses: AtomicU64,
    pred_hits: AtomicU64,
    pred_misses: AtomicU64,
}

impl ServingRepository {
    /// Wraps a repository with the given cache configuration.
    pub fn new(repo: CollaborativeRepository, config: ServeConfig) -> Self {
        let epoch = repo.model_epoch();
        Self {
            repo: RwLock::new(repo),
            encodings: Mutex::new(LruCache::new(config.encoding_cache)),
            predictions: Mutex::new(LruCache::new(config.prediction_cache)),
            wire_index: Mutex::new(LruCache::new(config.prediction_cache)),
            cache_epoch: AtomicU64::new(epoch),
            enc_hits: AtomicU64::new(0),
            enc_misses: AtomicU64::new(0),
            pred_hits: AtomicU64::new(0),
            pred_misses: AtomicU64::new(0),
        }
    }

    /// Loads an audited snapshot from `path` and wraps it with the
    /// environment cache configuration ([`ServeConfig::from_env`]).
    ///
    /// # Errors
    ///
    /// See [`snapshot::load_repository`].
    pub fn from_snapshot_path(path: &Path) -> Result<Self, ServeError> {
        let repo = snapshot::load_repository(path)?;
        Ok(Self::new(repo, ServeConfig::from_env()))
    }

    /// Saves the current repository state as a snapshot at `path`.
    ///
    /// # Errors
    ///
    /// See [`snapshot::save_repository`].
    pub fn save_snapshot(&self, path: &Path) -> Result<(), ServeError> {
        snapshot::save_repository(&self.repo.read(), path)
    }

    /// Runs `f` against the wrapped repository under the read lock
    /// (uncached access, used by tests and the probe client).
    pub fn with_repository<T>(&self, f: impl FnOnce(&CollaborativeRepository) -> T) -> T {
        f(&self.repo.read())
    }

    /// Returns the cached encoding for `hash`, encoding `network` on a
    /// miss. The repository read guard is held by the caller so the
    /// encoder cannot change underneath the cache.
    fn cached_encoding(
        &self,
        repo: &CollaborativeRepository,
        hash: u64,
        network: &Network,
    ) -> Arc<Vec<f32>> {
        if let Some(enc) = self.encodings.lock().get(&hash) {
            self.enc_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(enc);
        }
        self.enc_misses.fetch_add(1, Ordering::Relaxed);
        let enc = Arc::new(repo.encoder().encode(network));
        self.encodings.lock().insert(hash, Arc::clone(&enc));
        enc
    }

    /// Predicts the latency (ms) of `network` on an enrolled device,
    /// serving from the prediction cache when possible: a one-network
    /// [`ServingRepository::predict_batch`], so both share cache entries
    /// and counters.
    ///
    /// # Errors
    ///
    /// Same contract as [`CollaborativeRepository::predict`].
    pub fn predict(&self, device: &str, network: &Network) -> Result<f64, ServeError> {
        let _span = gdcm_obs::span!("serve/predict");
        Ok(self.predict_batch_hooked(device, std::slice::from_ref(network), || {})?[0])
    }

    /// Answers a `Predict` straight from the prediction cache, keyed by
    /// a hash of the network's *canonical wire bytes* — the binary
    /// protocol's fast lane. Returns `Some` only when both the wire
    /// index and the prediction cache hit; any miss sends the caller
    /// down the ordinary decode-and-dispatch path, which repopulates
    /// both layers. Hits perform exactly the cache-hit accounting of
    /// [`ServingRepository::predict`], so telemetry cannot tell the
    /// lanes apart.
    pub fn predict_wire_hit(&self, device: &str, wire_hash: u64) -> Option<f64> {
        let hash = *self.wire_index.lock().get(&wire_hash)?;
        let _span = gdcm_obs::span!("serve/predict");
        let _stage = gdcm_obs::reqtrace::stage("cache_lookup");
        let key = (device.to_string(), hash);
        let value = *self.predictions.lock().get(&key)?;
        self.pred_hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Records that a canonical wire payload hashing to `wire_hash`
    /// decodes to `network`, so future [`predict_wire_hit`] probes for
    /// the same bytes can skip the decode. Called by the server after
    /// a successful slow-path decode; like the prediction cache, the
    /// index is LRU-bounded and disabled at capacity 0.
    ///
    /// [`predict_wire_hit`]: ServingRepository::predict_wire_hit
    pub fn index_wire_hash(&self, wire_hash: u64, network: &Network) {
        if self.wire_index.lock().capacity() == 0 {
            return;
        }
        let hash = network_hash(network);
        self.wire_index.lock().insert(wire_hash, hash);
    }

    /// Predicts many networks for one device in a single call, routed
    /// through the `gdcm-par` chunked batch predictor. Cache hits are
    /// served directly; only misses reach the model, in request order.
    ///
    /// # Errors
    ///
    /// Same contract as [`CollaborativeRepository::predict`]; the whole
    /// batch fails if the device is unknown or the model unfitted.
    pub fn predict_batch(
        &self,
        device: &str,
        networks: &[Network],
    ) -> Result<Vec<f64>, ServeError> {
        let _span = gdcm_obs::span!("serve/predict_batch");
        self.predict_batch_hooked(device, networks, || {})
    }

    /// The one predict routine behind [`ServingRepository::predict`] and
    /// [`ServingRepository::predict_batch`] — cache probe, compute of
    /// the misses, epoch-guarded publish — with a test hook invoked
    /// between releasing the repository read guard and publishing the
    /// computed values to the prediction cache: the window where a
    /// concurrent fit/re-enroll can make them stale. The race-regression
    /// tests force that interleaving here; production callers pass a
    /// no-op.
    #[doc(hidden)]
    pub fn predict_batch_hooked(
        &self,
        device: &str,
        networks: &[Network],
        between_compute_and_insert: impl FnOnce(),
    ) -> Result<Vec<f64>, ServeError> {
        let hashes: Vec<u64> = networks.iter().map(network_hash).collect();
        let mut out = vec![0f64; networks.len()];
        // Positions whose hash missed and was *first seen* there — each
        // unique network is computed (and counted as a miss) once.
        let mut misses: Vec<usize> = Vec::new();
        // `(position, index into misses)` of networks repeating a queued
        // miss; they reuse its value and count neither as hit nor miss.
        let mut dup_misses: Vec<(usize, usize)> = Vec::new();
        {
            // Request-trace stages are free when no context is active.
            let _stage = gdcm_obs::reqtrace::stage("cache_lookup");
            let mut queued: HashMap<u64, usize> = HashMap::new();
            // One reusable key for the whole probe loop: mutate the
            // hash half instead of re-allocating the device name per
            // network.
            let mut key = (device.to_string(), 0u64);
            let mut cache = self.predictions.lock();
            for (i, hash) in hashes.iter().enumerate() {
                key.1 = *hash;
                match cache.get(&key) {
                    Some(&value) => {
                        out[i] = value;
                        self.pred_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    None => match queued.entry(*hash) {
                        Entry::Occupied(first) => dup_misses.push((i, *first.get())),
                        Entry::Vacant(slot) => {
                            slot.insert(misses.len());
                            misses.push(i);
                            self.pred_misses.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                }
            }
        }
        // A cached value proves the device enrolled and the model fitted
        // (fit and re-enroll clear the cache), so an all-hit batch is
        // answered here. An empty batch proves nothing and falls through
        // to the device and model checks below.
        if misses.is_empty() && !networks.is_empty() {
            return Ok(out);
        }
        let (predicted, epoch) = {
            let _stage = gdcm_obs::reqtrace::stage("predict");
            let repo = self.repo.read();
            let hw = repo
                .device_signature(device)
                .ok_or_else(|| RepositoryError::UnknownDevice(device.to_string()))?
                .to_vec();
            let width = repo.encoder().len() + repo.signature_size();
            let mut rows = DenseMatrix::with_capacity(misses.len(), width);
            for &i in &misses {
                let enc = self.cached_encoding(&repo, hashes[i], &networks[i]);
                let mut row = (*enc).clone();
                row.extend_from_slice(&hw);
                rows.push_row(&row);
            }
            // Capture the epoch while still holding the read guard: it
            // names exactly the model these values came from.
            (repo.predict_rows(&rows)?, repo.model_epoch())
        };
        between_compute_and_insert();
        {
            let mut cache = self.predictions.lock();
            let fresh = self.cache_epoch.load(Ordering::Acquire) == epoch;
            if !fresh {
                gdcm_obs::counter("serve/pred_cache_stale_discard").incr();
            }
            for (&i, &value) in misses.iter().zip(&predicted) {
                out[i] = value;
                if fresh {
                    cache.insert((device.to_string(), hashes[i]), value);
                }
            }
        }
        for (i, first) in dup_misses {
            out[i] = predicted[first];
        }
        Ok(out)
    }

    /// Predicts for an unenrolled device from raw signature latencies.
    /// Never cached: the device has no stable identity to key on.
    ///
    /// # Errors
    ///
    /// Same contract as
    /// [`CollaborativeRepository::predict_for_new_device`].
    pub fn predict_for_new_device(
        &self,
        signature_latencies_ms: &[f64],
        network: &Network,
    ) -> Result<f64, ServeError> {
        Ok(self
            .repo
            .read()
            .predict_for_new_device(signature_latencies_ms, network)?)
    }

    /// Enrolls a new device (see
    /// [`CollaborativeRepository::onboard_device`]).
    ///
    /// # Errors
    ///
    /// Propagates the repository's validation errors.
    pub fn onboard_device(
        &self,
        name: &str,
        signature_latencies_ms: &[f64],
    ) -> Result<(), ServeError> {
        Ok(self
            .repo
            .write()
            .onboard_device(name, signature_latencies_ms)?)
    }

    /// Updates an enrolled device's signature, rewriting its
    /// contributed rows (see [`CollaborativeRepository::re_enroll`]).
    /// Drops every cached prediction: the device's feature vector — and
    /// after the next fit, potentially every prediction — changes.
    ///
    /// # Errors
    ///
    /// Propagates the repository's validation errors.
    pub fn re_enroll(&self, name: &str, signature_latencies_ms: &[f64]) -> Result<(), ServeError> {
        let epoch = {
            let mut repo = self.repo.write();
            repo.re_enroll(name, signature_latencies_ms)?;
            repo.model_epoch()
        };
        self.invalidate_predictions(epoch);
        Ok(())
    }

    /// Contributes one measurement (see
    /// [`CollaborativeRepository::contribute`]). The model — and thus
    /// the prediction cache — only changes at the next
    /// [`ServingRepository::fit`].
    ///
    /// # Errors
    ///
    /// Propagates the repository's validation errors.
    pub fn contribute(
        &self,
        device: &str,
        network: &Network,
        latency_ms: f64,
    ) -> Result<(), ServeError> {
        Ok(self.repo.write().contribute(device, network, latency_ms)?)
    }

    /// Refits the model on everything contributed so far and drops the
    /// now-stale prediction cache.
    ///
    /// # Errors
    ///
    /// See [`CollaborativeRepository::fit`].
    pub fn fit(&self) -> Result<(), ServeError> {
        let epoch = {
            let mut repo = self.repo.write();
            repo.fit()?;
            repo.model_epoch()
        };
        self.invalidate_predictions(epoch);
        Ok(())
    }

    /// Installs an externally fitted model pair — the background
    /// refresh's atomic swap. The expensive training happened off-lock;
    /// this only takes the write guard for the pointer swap plus the
    /// cache invalidation, so concurrent readers never block behind a
    /// refit. Returns the new model epoch.
    ///
    /// # Errors
    ///
    /// See [`CollaborativeRepository::install_model`].
    pub fn install_refit(
        &self,
        model: GbdtRegressor,
        frozen: FrozenGbdt,
    ) -> Result<u64, ServeError> {
        let epoch = {
            let mut repo = self.repo.write();
            repo.install_model(model, frozen)?;
            repo.model_epoch()
        };
        self.invalidate_predictions(epoch);
        Ok(epoch)
    }

    /// Drops every cached prediction and advances the cache-epoch
    /// mirror to `epoch` (the repository epoch the caller just
    /// produced under the write guard). `fetch_max`, not `store`: two
    /// concurrent writers release the write guard in a known order but
    /// may reach this point in the opposite one, and the mirror must
    /// never move backwards or a reader from the older model could
    /// publish a stale value.
    fn invalidate_predictions(&self, epoch: u64) {
        let mut cache = self.predictions.lock();
        self.cache_epoch.fetch_max(epoch, Ordering::AcqRel);
        cache.clear();
        gdcm_obs::counter("serve/pred_cache_invalidations").incr();
    }

    /// The wrapped repository's current model epoch (see
    /// [`CollaborativeRepository::model_epoch`]).
    pub fn model_epoch(&self) -> u64 {
        self.repo.read().model_epoch()
    }

    /// Number of enrolled devices.
    pub fn n_devices(&self) -> usize {
        self.repo.read().n_devices()
    }

    /// Number of contributed training rows.
    pub fn n_rows(&self) -> usize {
        self.repo.read().n_rows()
    }

    /// Whether a fitted model is available.
    pub fn is_fitted(&self) -> bool {
        self.repo.read().is_fitted()
    }

    /// Whether a compiled (frozen SoA) model backs the prediction
    /// paths. True exactly when [`ServingRepository::is_fitted`] is:
    /// every successful fit — and every accepted snapshot — carries the
    /// translation-validated frozen artifact.
    pub fn is_frozen(&self) -> bool {
        self.repo.read().frozen_model().is_some()
    }

    /// Names of enrolled devices, sorted.
    pub fn device_names(&self) -> Vec<String> {
        self.repo
            .read()
            .device_names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            encoding_hits: self.enc_hits.load(Ordering::Relaxed),
            encoding_misses: self.enc_misses.load(Ordering::Relaxed),
            prediction_hits: self.pred_hits.load(Ordering::Relaxed),
            prediction_misses: self.pred_misses.load(Ordering::Relaxed),
        }
    }
}
