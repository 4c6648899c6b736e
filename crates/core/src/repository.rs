//! The user-facing collaborative repository.
//!
//! Implements the workflow the paper recommends in its conclusion:
//!
//! 1. Maintain a repository keyed by a commonly agreed signature set.
//! 2. A new device joins by measuring the signature set (its
//!    representation) and optionally contributing a few more latencies.
//! 3. Anyone can query the shared cost model for *any* network on *any*
//!    enrolled device — or on a brand-new device given only its signature
//!    measurements.
//!
//! ## Ingestion validation policy
//!
//! Every latency that enters the repository — signature measurements in
//! [`CollaborativeRepository::onboard_device`] /
//! [`CollaborativeRepository::re_enroll`] and contributed measurements in
//! [`CollaborativeRepository::contribute`] — must be **finite, strictly
//! positive, and representable as a finite `f32`** (the storage and model
//! type). Anything else is rejected with
//! [`RepositoryError::InvalidLatency`] *before* it can poison a training
//! row: a single NaN label silently breaks GBDT gain computation, and a
//! large-but-finite `f64` such as `1e39` narrows to `f32::INFINITY` on
//! the old unchecked `as f32` cast.
//!
//! ## Re-enrollment policy
//!
//! [`CollaborativeRepository::onboard_device`] refuses to overwrite an
//! enrolled device ([`RepositoryError::AlreadyEnrolled`]). Overwriting
//! used to leave previously contributed rows carrying the *stale*
//! signature vector, so the training set disagreed with the features
//! `predict` builds for the same device. Deliberate signature updates go
//! through [`CollaborativeRepository::re_enroll`], which atomically
//! rewrites the hardware-feature tail of every row the device already
//! contributed so training data and prediction features stay consistent
//! (the model itself only picks the change up at the next
//! [`CollaborativeRepository::fit`]).

use gdcm_dnn::Network;
use gdcm_ml::{BinnedMatrix, DenseMatrix, FrozenGbdt, GbdtParams, GbdtRegressor, Regressor};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

use crate::encoding::NetworkEncoder;

/// Repository configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepositoryConfig {
    /// Regressor hyper-parameters used at (re)fit time.
    pub gbdt: GbdtParams,
    /// Minimum number of contributed rows before `fit` succeeds.
    pub min_rows: usize,
}

impl Default for RepositoryConfig {
    fn default() -> Self {
        Self {
            gbdt: GbdtParams::default(),
            min_rows: 20,
        }
    }
}

/// Errors surfaced by repository operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RepositoryError {
    /// A device name was not found in the repository.
    UnknownDevice(String),
    /// `onboard_device` was called for a device that is already enrolled
    /// (use [`CollaborativeRepository::re_enroll`] to update a signature).
    AlreadyEnrolled(String),
    /// A signature vector had the wrong length.
    SignatureLength {
        /// Expected signature-set size.
        expected: usize,
        /// Provided vector length.
        actual: usize,
    },
    /// A latency was NaN, infinite, non-positive, or too large to
    /// represent as a finite `f32`.
    InvalidLatency {
        /// The rejected value, as provided.
        value: f64,
    },
    /// `fit` was called with fewer rows than `min_rows`.
    NotEnoughData {
        /// Rows currently in the repository.
        rows: usize,
        /// Rows required.
        required: usize,
    },
    /// `predict` was called before any successful `fit`.
    NotFitted,
    /// [`RepositoryParts`] failed internal-consistency validation (e.g.
    /// a snapshot edited or corrupted outside this library).
    CorruptParts {
        /// Human-readable description of the first violated invariant.
        reason: String,
    },
}

impl fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepositoryError::UnknownDevice(name) => write!(f, "unknown device {name:?}"),
            RepositoryError::AlreadyEnrolled(name) => write!(
                f,
                "device {name:?} is already enrolled; use re_enroll to update its signature"
            ),
            RepositoryError::SignatureLength { expected, actual } => write!(
                f,
                "signature vector has {actual} entries but the repository uses {expected}"
            ),
            RepositoryError::InvalidLatency { value } => write!(
                f,
                "latency {value} ms is not a finite positive value representable as f32"
            ),
            RepositoryError::NotEnoughData { rows, required } => {
                write!(f, "repository has {rows} rows but needs {required} to fit")
            }
            RepositoryError::NotFitted => write!(f, "cost model has not been fitted yet"),
            RepositoryError::CorruptParts { reason } => {
                write!(f, "repository parts are inconsistent: {reason}")
            }
        }
    }
}

impl std::error::Error for RepositoryError {}

/// Validates one ingested latency and narrows it to the storage type.
///
/// Rejects NaN / ±Inf, non-positive values, and finite `f64`s that
/// overflow to `f32::INFINITY` when narrowed (e.g. `1e39`).
fn validate_latency_ms(value: f64) -> Result<f32, RepositoryError> {
    let narrowed = value as f32;
    if !value.is_finite() || value <= 0.0 || !narrowed.is_finite() {
        return Err(RepositoryError::InvalidLatency { value });
    }
    Ok(narrowed)
}

/// The serializable state of a [`CollaborativeRepository`].
///
/// Produced by [`CollaborativeRepository::to_parts`] and validated by
/// [`CollaborativeRepository::from_parts`]; `gdcm-serve` wraps this in a
/// versioned snapshot envelope for persistence. Devices are stored as a
/// name-sorted vector (not a map) so serialization is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepositoryParts {
    /// The fitted network encoder.
    pub encoder: NetworkEncoder,
    /// Agreed signature-set size.
    pub signature_size: usize,
    /// Fit-time configuration.
    pub config: RepositoryConfig,
    /// Enrolled devices, sorted by name: `(name, signature_latencies)`.
    pub devices: Vec<(String, Vec<f32>)>,
    /// Owning device of each training row (parallel to `x_rows`).
    pub row_devices: Vec<String>,
    /// Accumulated training rows (`encoder.len() + signature_size` wide).
    pub x_rows: Vec<Vec<f32>>,
    /// Training labels (ms).
    pub y: Vec<f32>,
    /// The fitted model, when `fit` has succeeded.
    pub model: Option<GbdtRegressor>,
    /// The compiled (frozen SoA) form of `model`. Defaults to `None`
    /// when absent so pre-freeze snapshots still deserialize;
    /// [`CollaborativeRepository::from_parts`] recompiles it from the
    /// training rows in that case.
    #[serde(default)]
    pub frozen: Option<FrozenGbdt>,
    /// Model epoch at snapshot time (see
    /// [`CollaborativeRepository::model_epoch`]). `default` so old
    /// snapshots deserialize with epoch 0.
    #[serde(default)]
    pub epoch: u64,
}

/// A growing, refittable collaborative cost-model repository.
#[derive(Debug, Clone)]
pub struct CollaborativeRepository {
    encoder: NetworkEncoder,
    signature_size: usize,
    config: RepositoryConfig,
    /// Device name -> measured signature latencies (ms).
    devices: HashMap<String, Vec<f32>>,
    /// Device that contributed each training row (parallel to `x_rows`);
    /// lets `re_enroll` rewrite the stale hardware tail of old rows.
    row_devices: Vec<String>,
    /// Accumulated training rows.
    x_rows: Vec<Vec<f32>>,
    y: Vec<f32>,
    model: Option<GbdtRegressor>,
    /// Compiled form of `model`, refreshed by every successful `fit` —
    /// the prediction paths run this; `model` is kept as the reference
    /// for auditing.
    frozen: Option<FrozenGbdt>,
    /// Monotonic model epoch: bumped by every mutation that changes
    /// what `predict` would answer (`fit`, `re_enroll`,
    /// `install_model`). Lets callers that cache predictions *outside*
    /// the repository detect that a value computed against an earlier
    /// model is stale before they publish it.
    epoch: u64,
}

impl CollaborativeRepository {
    /// Creates an empty repository over a fitted network encoder and a
    /// signature-set size agreed by all participants.
    ///
    /// # Panics
    ///
    /// Panics when `signature_size` is 0.
    pub fn new(encoder: NetworkEncoder, signature_size: usize, config: RepositoryConfig) -> Self {
        assert!(signature_size >= 1, "signature size must be >= 1");
        Self {
            encoder,
            signature_size,
            config,
            devices: HashMap::new(),
            row_devices: Vec::new(),
            x_rows: Vec::new(),
            y: Vec::new(),
            model: None,
            frozen: None,
            epoch: 0,
        }
    }

    /// Validates and narrows a full signature vector.
    fn validate_signature(
        &self,
        signature_latencies_ms: &[f64],
    ) -> Result<Vec<f32>, RepositoryError> {
        if signature_latencies_ms.len() != self.signature_size {
            return Err(RepositoryError::SignatureLength {
                expected: self.signature_size,
                actual: signature_latencies_ms.len(),
            });
        }
        signature_latencies_ms
            .iter()
            .map(|&v| validate_latency_ms(v))
            .collect()
    }

    /// Enrolls a *new* device with its measured signature-set latencies
    /// in milliseconds.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::SignatureLength`] when the vector does
    /// not match the agreed signature size,
    /// [`RepositoryError::InvalidLatency`] when any measurement is
    /// non-finite, non-positive, or overflows `f32`, and
    /// [`RepositoryError::AlreadyEnrolled`] when the device already has a
    /// signature (see the module-level re-enrollment policy).
    pub fn onboard_device(
        &mut self,
        name: impl Into<String>,
        signature_latencies_ms: &[f64],
    ) -> Result<(), RepositoryError> {
        let sig = self.validate_signature(signature_latencies_ms)?;
        let name = name.into();
        if self.devices.contains_key(&name) {
            return Err(RepositoryError::AlreadyEnrolled(name));
        }
        self.devices.insert(name, sig);
        Ok(())
    }

    /// Replaces the signature of an *already enrolled* device and
    /// rewrites the hardware-feature tail of every row it has
    /// contributed, so existing training data stays consistent with the
    /// features [`CollaborativeRepository::predict`] will build. Call
    /// [`CollaborativeRepository::fit`] afterwards to refresh the model.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::UnknownDevice`] when the device has
    /// never been onboarded, plus the same signature validation errors as
    /// [`CollaborativeRepository::onboard_device`].
    pub fn re_enroll(
        &mut self,
        name: &str,
        signature_latencies_ms: &[f64],
    ) -> Result<(), RepositoryError> {
        let sig = self.validate_signature(signature_latencies_ms)?;
        let slot = self
            .devices
            .get_mut(name)
            .ok_or_else(|| RepositoryError::UnknownDevice(name.to_string()))?;
        *slot = sig.clone();
        let hw_start = self.encoder.len();
        for (row, owner) in self.x_rows.iter_mut().zip(&self.row_devices) {
            if owner == name {
                row[hw_start..].copy_from_slice(&sig);
            }
        }
        // The model is unchanged but predictions for this device now use
        // the new signature, so anything cached against the old one is
        // stale.
        self.epoch += 1;
        Ok(())
    }

    /// Contributes one measured latency for an enrolled device.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::UnknownDevice`] when the device has not
    /// been onboarded and [`RepositoryError::InvalidLatency`] when the
    /// measurement is non-finite, non-positive, or overflows `f32`.
    pub fn contribute(
        &mut self,
        device: &str,
        network: &Network,
        latency_ms: f64,
    ) -> Result<(), RepositoryError> {
        let label = validate_latency_ms(latency_ms)?;
        let hw = self
            .devices
            .get(device)
            .ok_or_else(|| RepositoryError::UnknownDevice(device.to_string()))?;
        let mut row = self.encoder.encode(network);
        row.extend_from_slice(hw);
        self.x_rows.push(row);
        self.row_devices.push(device.to_string());
        self.y.push(label);
        Ok(())
    }

    /// (Re)fits the shared cost model on everything contributed so far.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::NotEnoughData`] below the configured
    /// row minimum.
    pub fn fit(&mut self) -> Result<(), RepositoryError> {
        if self.y.len() < self.config.min_rows {
            return Err(RepositoryError::NotEnoughData {
                rows: self.y.len(),
                required: self.config.min_rows,
            });
        }
        let x = DenseMatrix::from_rows(&self.x_rows);
        let model = GbdtRegressor::fit(&x, &self.y, &self.config.gbdt);
        // Compile for the prediction paths. Rebinning is deterministic,
        // so the grid is bitwise the one `fit` trained on and freezing a
        // fresh model on it cannot fail.
        let binned = BinnedMatrix::from_matrix(&x, self.config.gbdt.max_bins);
        self.frozen = Some(
            FrozenGbdt::freeze(&model, &binned)
                .expect("freshly fitted model freezes on its own training grid"),
        );
        self.model = Some(model);
        self.epoch += 1;
        Ok(())
    }

    /// Installs an externally fitted model pair (e.g. one trained by a
    /// background refresh off the repository lock) and bumps the model
    /// epoch. The caller is responsible for having trained and audited
    /// the pair on this repository's rows; only structural width parity
    /// is validated here.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::CorruptParts`] when either artifact's
    /// feature width disagrees with the repository's rows.
    pub fn install_model(
        &mut self,
        model: GbdtRegressor,
        frozen: FrozenGbdt,
    ) -> Result<(), RepositoryError> {
        let width = self.encoder.len() + self.signature_size;
        if model.n_features() != width {
            return Err(RepositoryError::CorruptParts {
                reason: format!(
                    "installed model expects {} features but rows have {width}",
                    model.n_features()
                ),
            });
        }
        if frozen.n_features() != width {
            return Err(RepositoryError::CorruptParts {
                reason: format!(
                    "installed frozen model expects {} features but rows have {width}",
                    frozen.n_features()
                ),
            });
        }
        self.model = Some(model);
        self.frozen = Some(frozen);
        self.epoch += 1;
        Ok(())
    }

    /// The monotonic model epoch: 0 at construction, incremented by
    /// every successful [`CollaborativeRepository::fit`],
    /// [`CollaborativeRepository::re_enroll`], and
    /// [`CollaborativeRepository::install_model`]. Two calls observing
    /// the same epoch are guaranteed to see bit-identical predictions
    /// for the same inputs.
    pub fn model_epoch(&self) -> u64 {
        self.epoch
    }

    /// Predicts the latency (ms) of `network` on an enrolled device.
    ///
    /// # Errors
    ///
    /// Fails when the device is unknown or the model is unfitted.
    pub fn predict(&self, device: &str, network: &Network) -> Result<f64, RepositoryError> {
        let hw = self
            .devices
            .get(device)
            .ok_or_else(|| RepositoryError::UnknownDevice(device.to_string()))?;
        self.predict_with_signature_f32(hw, network)
    }

    /// Predicts the latency (ms) of `network` on a *new* device described
    /// only by its signature-set latencies — no enrollment required.
    ///
    /// # Errors
    ///
    /// Fails on signature-length mismatch, invalid latencies, or when the
    /// model is unfitted.
    pub fn predict_for_new_device(
        &self,
        signature_latencies_ms: &[f64],
        network: &Network,
    ) -> Result<f64, RepositoryError> {
        let hw = self.validate_signature(signature_latencies_ms)?;
        self.predict_with_signature_f32(&hw, network)
    }

    fn predict_with_signature_f32(
        &self,
        hw: &[f32],
        network: &Network,
    ) -> Result<f64, RepositoryError> {
        let frozen = self.frozen.as_ref().ok_or(RepositoryError::NotFitted)?;
        let mut row = self.encoder.encode(network);
        row.extend_from_slice(hw);
        Ok(frozen.predict_row(&row) as f64)
    }

    /// Predicts the latency (ms) of many pre-built feature rows at once
    /// through the chunked `gdcm-par` batch predictor. Each row must be
    /// `encoder.len() + signature_size` wide (network encoding followed
    /// by the hardware signature); `gdcm-serve` uses this to serve
    /// batches from its encoding cache. Bit-identical to calling
    /// [`CollaborativeRepository::predict`] per row.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::NotFitted`] before the first
    /// successful fit.
    pub fn predict_rows(&self, rows: &DenseMatrix) -> Result<Vec<f64>, RepositoryError> {
        let frozen = self.frozen.as_ref().ok_or(RepositoryError::NotFitted)?;
        Ok(frozen.predict(rows).into_iter().map(f64::from).collect())
    }

    /// Number of enrolled devices.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Number of contributed training rows.
    pub fn n_rows(&self) -> usize {
        self.y.len()
    }

    /// Whether a fitted model is available.
    pub fn is_fitted(&self) -> bool {
        self.model.is_some()
    }

    /// Names of enrolled devices, sorted.
    pub fn device_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.devices.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The fitted network encoder.
    pub fn encoder(&self) -> &NetworkEncoder {
        &self.encoder
    }

    /// The agreed signature-set size.
    pub fn signature_size(&self) -> usize {
        self.signature_size
    }

    /// The repository configuration.
    pub fn config(&self) -> &RepositoryConfig {
        &self.config
    }

    /// The stored signature of an enrolled device, if any.
    pub fn device_signature(&self, name: &str) -> Option<&[f32]> {
        self.devices.get(name).map(Vec::as_slice)
    }

    /// The fitted model, when available.
    pub fn model(&self) -> Option<&GbdtRegressor> {
        self.model.as_ref()
    }

    /// The compiled (frozen SoA) form of the fitted model, when
    /// available. Present exactly when [`CollaborativeRepository::model`]
    /// is — every prediction path runs this artifact; auditors
    /// translation-validate it against the pointer-tree model.
    pub fn frozen_model(&self) -> Option<&FrozenGbdt> {
        self.frozen.as_ref()
    }

    /// The accumulated training rows and labels (for auditing).
    pub fn training_data(&self) -> (&[Vec<f32>], &[f32]) {
        (&self.x_rows, &self.y)
    }

    /// Extracts the full serializable state (devices sorted by name).
    pub fn to_parts(&self) -> RepositoryParts {
        let mut devices: Vec<(String, Vec<f32>)> = self
            .devices
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        devices.sort_by(|a, b| a.0.cmp(&b.0));
        RepositoryParts {
            encoder: self.encoder.clone(),
            signature_size: self.signature_size,
            config: self.config.clone(),
            devices,
            row_devices: self.row_devices.clone(),
            x_rows: self.x_rows.clone(),
            y: self.y.clone(),
            model: self.model.clone(),
            frozen: self.frozen.clone(),
            epoch: self.epoch,
        }
    }

    /// Rebuilds a repository from [`RepositoryParts`], re-validating
    /// every invariant the incremental API enforces (this is the
    /// snapshot-load path, so the parts may come from disk).
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::CorruptParts`] when any structural
    /// invariant is violated and [`RepositoryError::InvalidLatency`] /
    /// [`RepositoryError::SignatureLength`] when stored measurements
    /// fail ingestion validation.
    pub fn from_parts(parts: RepositoryParts) -> Result<Self, RepositoryError> {
        let corrupt = |reason: String| RepositoryError::CorruptParts { reason };
        if parts.signature_size == 0 {
            return Err(corrupt("signature_size is 0".into()));
        }
        let width = parts.encoder.len() + parts.signature_size;
        for (name, sig) in &parts.devices {
            if sig.len() != parts.signature_size {
                return Err(RepositoryError::SignatureLength {
                    expected: parts.signature_size,
                    actual: sig.len(),
                });
            }
            for &v in sig {
                validate_latency_ms(f64::from(v))?;
            }
            if parts.devices.iter().filter(|(n, _)| n == name).count() > 1 {
                return Err(corrupt(format!("device {name:?} appears twice")));
            }
        }
        if parts.x_rows.len() != parts.y.len() || parts.x_rows.len() != parts.row_devices.len() {
            return Err(corrupt(format!(
                "row arrays disagree: {} rows, {} labels, {} owners",
                parts.x_rows.len(),
                parts.y.len(),
                parts.row_devices.len()
            )));
        }
        let devices: HashMap<String, Vec<f32>> = parts.devices.into_iter().collect();
        for (i, (row, owner)) in parts.x_rows.iter().zip(&parts.row_devices).enumerate() {
            if row.len() != width {
                return Err(corrupt(format!(
                    "row {i} has {} features but the encoder + signature need {width}",
                    row.len()
                )));
            }
            if !row.iter().all(|v| v.is_finite()) {
                return Err(corrupt(format!("row {i} contains a non-finite feature")));
            }
            let sig = devices
                .get(owner)
                .ok_or_else(|| corrupt(format!("row {i} owner {owner:?} is not enrolled")))?;
            if row[parts.encoder.len()..] != sig[..] {
                return Err(corrupt(format!(
                    "row {i} hardware features disagree with the signature of {owner:?}"
                )));
            }
        }
        for &label in &parts.y {
            validate_latency_ms(f64::from(label))?;
        }
        if let Some(model) = &parts.model {
            if model.n_features() != width {
                return Err(corrupt(format!(
                    "model expects {} features but rows have {width}",
                    model.n_features()
                )));
            }
        }
        let frozen = match (&parts.model, parts.frozen) {
            (None, None) => None,
            (None, Some(_)) => {
                return Err(corrupt(
                    "frozen model present without its source model".into(),
                ));
            }
            // Pre-freeze snapshot: recompile from the stored rows, on the
            // same deterministic grid `fit` would build. Deep equivalence
            // checking (the flatcheck pass) is the snapshot loader's job;
            // here a failed freeze means the model cannot have come from
            // these rows.
            (Some(model), None) => {
                let x = DenseMatrix::from_rows(&parts.x_rows);
                let binned = BinnedMatrix::from_matrix(&x, parts.config.gbdt.max_bins);
                Some(FrozenGbdt::freeze(model, &binned).map_err(|e| {
                    corrupt(format!("stored model does not recompile on its rows: {e}"))
                })?)
            }
            // Structural width parity only — deep equivalence between
            // the pair (bijection, quantization, accumulation) is the
            // flatcheck audit pass's domain, and the snapshot loader
            // runs it before serving.
            (Some(_), Some(frozen)) => {
                if frozen.n_features() != width {
                    return Err(corrupt(format!(
                        "frozen model expects {} features but rows have {width}",
                        frozen.n_features()
                    )));
                }
                Some(frozen)
            }
        };
        Ok(Self {
            encoder: parts.encoder,
            signature_size: parts.signature_size,
            config: parts.config,
            devices,
            row_devices: parts.row_devices,
            x_rows: parts.x_rows,
            y: parts.y,
            model: parts.model,
            frozen,
            epoch: parts.epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CostDataset;
    use crate::signature::{MutualInfoSelector, SignatureSelector};
    use gdcm_ml::metrics::r2_score;

    fn build_repo(data: &CostDataset, sig: &[usize]) -> CollaborativeRepository {
        CollaborativeRepository::new(
            data.encoder.clone(),
            sig.len(),
            RepositoryConfig {
                gbdt: GbdtParams {
                    n_estimators: 40,
                    ..GbdtParams::default()
                },
                min_rows: 10,
            },
        )
    }

    #[test]
    fn end_to_end_repository_flow() {
        let data = CostDataset::tiny(17, 16, 25);
        let all: Vec<usize> = (0..data.n_devices()).collect();
        let sig = MutualInfoSelector::default().select(&data.db, &all, 4);
        let mut repo = build_repo(&data, &sig);

        // Enroll 20 devices; each contributes 8 measurements.
        let open: Vec<usize> = (0..data.n_networks())
            .filter(|n| !sig.contains(n))
            .collect();
        for d in 0..20 {
            let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(d, n)).collect();
            let name = data.devices[d].model.clone();
            repo.onboard_device(name.clone(), &lat)
                .expect("signature length matches the repository");
            for &n in open.iter().skip(d % 5).step_by(4).take(8) {
                repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                    .expect("device was onboarded above");
            }
        }
        assert_eq!(repo.n_devices(), 20);
        repo.fit()
            .expect("20 devices x 8 contributions is enough data");
        assert!(repo.is_fitted());

        // Predict every open network on a *new* 21st device from its
        // signature alone; accuracy should be solid.
        let target = 21;
        let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(target, n)).collect();
        let mut actual = Vec::new();
        let mut predicted = Vec::new();
        for &n in &open {
            actual.push(data.db.latency(target, n) as f32);
            predicted.push(
                repo.predict_for_new_device(&lat, &data.suite[n].network)
                    .expect("repository is fitted") as f32,
            );
        }
        let r2 = r2_score(&actual, &predicted);
        assert!(r2 > 0.5, "new-device R² {r2}");

        // Networks outside the suite (the NAS use case), including
        // deeper ones the encoder truncates, must predict too.
        let mut generator =
            gdcm_gen::RandomNetworkGenerator::new(gdcm_gen::SearchSpace::tiny(), 987);
        for i in 0..5 {
            let net = generator
                .generate(format!("fresh{i}"))
                .expect("generator emits only valid networks");
            let p = repo
                .predict_for_new_device(&lat, &net)
                .expect("repository is fitted");
            assert!(p.is_finite() && p > 0.0, "fresh{i}: {p}");
        }
    }

    #[test]
    fn error_paths() {
        let data = CostDataset::tiny(17, 4, 5);
        let mut repo = build_repo(&data, &[0, 1, 2]);
        assert_eq!(
            repo.onboard_device("x", &[1.0]).unwrap_err(),
            RepositoryError::SignatureLength {
                expected: 3,
                actual: 1
            }
        );
        assert!(matches!(
            repo.contribute("ghost", &data.suite[0].network, 1.0),
            Err(RepositoryError::UnknownDevice(_))
        ));
        assert!(matches!(
            repo.fit(),
            Err(RepositoryError::NotEnoughData { .. })
        ));
        assert!(matches!(
            repo.predict_for_new_device(&[1.0, 2.0, 3.0], &data.suite[0].network),
            Err(RepositoryError::NotFitted)
        ));
        repo.onboard_device("real", &[10.0, 20.0, 30.0])
            .expect("signature length matches the repository");
        assert!(matches!(
            repo.predict("ghost", &data.suite[0].network),
            Err(RepositoryError::UnknownDevice(_))
        ));
        assert_eq!(repo.device_names(), vec!["real"]);
    }

    #[test]
    fn non_finite_and_overflowing_latencies_are_rejected() {
        let data = CostDataset::tiny(17, 4, 5);
        let mut repo = build_repo(&data, &[0, 1]);

        // Signature ingestion: NaN, Inf, zero, negative, f32 overflow.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0, 1e39] {
            assert!(
                matches!(
                    repo.onboard_device("d", &[1.0, bad]),
                    Err(RepositoryError::InvalidLatency { .. })
                ),
                "onboard accepted {bad}"
            );
        }
        assert_eq!(repo.n_devices(), 0, "rejected onboarding must not enroll");

        // Contribution ingestion: same policy.
        repo.onboard_device("d", &[1.0, 2.0])
            .expect("valid signature");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0, 1e39] {
            assert!(
                matches!(
                    repo.contribute("d", &data.suite[0].network, bad),
                    Err(RepositoryError::InvalidLatency { .. })
                ),
                "contribute accepted {bad}"
            );
        }
        assert_eq!(repo.n_rows(), 0, "rejected contributions must not land");

        // predict_for_new_device also validates its signature input.
        assert!(matches!(
            repo.predict_for_new_device(&[1.0, f64::NAN], &data.suite[0].network),
            Err(RepositoryError::InvalidLatency { .. })
        ));

        // 1e39 is finite in f64 but narrows to +Inf in f32 — the exact
        // overflow the old unchecked cast let through.
        assert!((1e39f64).is_finite() && !(1e39f64 as f32).is_finite());
    }

    #[test]
    fn re_enrollment_rewrites_stale_rows() {
        let data = CostDataset::tiny(17, 4, 5);
        let mut repo = build_repo(&data, &[0, 1]);
        repo.onboard_device("d", &[10.0, 20.0])
            .expect("valid signature");

        // Double onboarding is refused outright.
        assert_eq!(
            repo.onboard_device("d", &[11.0, 21.0]).unwrap_err(),
            RepositoryError::AlreadyEnrolled("d".into())
        );

        repo.contribute("d", &data.suite[0].network, 5.0)
            .expect("device enrolled");
        repo.contribute("d", &data.suite[1].network, 6.0)
            .expect("device enrolled");
        repo.onboard_device("other", &[1.0, 2.0])
            .expect("valid signature");
        repo.contribute("other", &data.suite[0].network, 7.0)
            .expect("device enrolled");

        // Re-enroll rewrites d's rows (and only d's) in place.
        repo.re_enroll("d", &[30.0, 40.0]).expect("d is enrolled");
        assert_eq!(repo.device_signature("d").expect("enrolled"), &[30.0, 40.0]);
        let hw_start = repo.encoder().len();
        let (rows, _) = repo.training_data();
        assert_eq!(&rows[0][hw_start..], &[30.0, 40.0]);
        assert_eq!(&rows[1][hw_start..], &[30.0, 40.0]);
        assert_eq!(&rows[2][hw_start..], &[1.0, 2.0]);

        // Unknown devices cannot re-enroll; validation still applies.
        assert!(matches!(
            repo.re_enroll("ghost", &[1.0, 2.0]),
            Err(RepositoryError::UnknownDevice(_))
        ));
        assert!(matches!(
            repo.re_enroll("d", &[1.0, f64::NAN]),
            Err(RepositoryError::InvalidLatency { .. })
        ));
    }

    #[test]
    fn parts_round_trip_preserves_predictions() {
        let data = CostDataset::tiny(17, 8, 12);
        let sig = vec![0usize, 1, 2];
        let mut repo = build_repo(&data, &sig);
        for d in 0..8 {
            let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(d, n)).collect();
            let name = data.devices[d].model.clone();
            repo.onboard_device(name.clone(), &lat).expect("valid");
            for n in 3..data.n_networks() {
                repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                    .expect("enrolled");
            }
        }
        repo.fit().expect("enough rows");

        let rebuilt =
            CollaborativeRepository::from_parts(repo.to_parts()).expect("self-produced parts");
        let device = data.devices[0].model.as_str();
        for n in 3..data.n_networks() {
            let a = repo
                .predict(device, &data.suite[n].network)
                .expect("fitted");
            let b = rebuilt
                .predict(device, &data.suite[n].network)
                .expect("fitted");
            assert_eq!(a.to_bits(), b.to_bits(), "network {n}");
        }
    }

    #[test]
    fn model_epoch_tracks_prediction_changing_mutations() {
        let data = CostDataset::tiny(17, 8, 12);
        let sig = vec![0usize, 1, 2];
        let mut repo = build_repo(&data, &sig);
        assert_eq!(repo.model_epoch(), 0);

        for d in 0..8 {
            let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(d, n)).collect();
            let name = data.devices[d].model.clone();
            repo.onboard_device(name.clone(), &lat).expect("valid");
            for n in 3..data.n_networks() {
                repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                    .expect("enrolled");
            }
        }
        // Onboarding and contributing do not change what predict answers.
        assert_eq!(repo.model_epoch(), 0);

        repo.fit().expect("enough rows");
        assert_eq!(repo.model_epoch(), 1);

        let name = data.devices[0].model.clone();
        repo.re_enroll(&name, &[5.0, 6.0, 7.0]).expect("enrolled");
        assert_eq!(repo.model_epoch(), 2);

        // A failed fit must not bump.
        let fresh = build_repo(&data, &sig);
        let mut failing = fresh.clone();
        assert!(failing.fit().is_err());
        assert_eq!(failing.model_epoch(), 0);

        // install_model bumps and swaps both artifacts.
        let (model, frozen) = {
            let (rows, y) = repo.training_data();
            let x = DenseMatrix::from_rows(rows);
            let model = GbdtRegressor::fit(&x, y, &repo.config().gbdt);
            let binned = BinnedMatrix::from_matrix(&x, repo.config().gbdt.max_bins);
            let frozen = FrozenGbdt::freeze(&model, &binned).expect("fresh model");
            (model, frozen)
        };
        repo.install_model(model, frozen).expect("widths match");
        assert_eq!(repo.model_epoch(), 3);

        // Width mismatches are rejected without a bump.
        let narrow = {
            let x = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
            let y = [1.0, 2.0];
            let params = GbdtParams {
                n_estimators: 2,
                ..GbdtParams::default()
            };
            let model = GbdtRegressor::fit(&x, &y, &params);
            let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
            let frozen = FrozenGbdt::freeze(&model, &binned).expect("fresh model");
            (model, frozen)
        };
        assert!(matches!(
            repo.install_model(narrow.0, narrow.1),
            Err(RepositoryError::CorruptParts { .. })
        ));
        assert_eq!(repo.model_epoch(), 3);

        // The epoch survives a parts round-trip.
        let rebuilt =
            CollaborativeRepository::from_parts(repo.to_parts()).expect("self-produced parts");
        assert_eq!(rebuilt.model_epoch(), 3);
    }

    #[test]
    fn corrupt_parts_are_rejected() {
        let data = CostDataset::tiny(17, 4, 5);
        let mut repo = build_repo(&data, &[0, 1]);
        repo.onboard_device("d", &[10.0, 20.0]).expect("valid");
        repo.contribute("d", &data.suite[0].network, 5.0)
            .expect("enrolled");

        // Stale hardware tail (the pre-fix inconsistency) is now caught
        // at load time.
        let mut parts = repo.to_parts();
        let hw_start = parts.encoder.len();
        parts.x_rows[0][hw_start] = 999.0;
        assert!(matches!(
            CollaborativeRepository::from_parts(parts),
            Err(RepositoryError::CorruptParts { .. })
        ));

        // Mismatched row/label counts.
        let mut parts = repo.to_parts();
        parts.y.push(1.0);
        assert!(matches!(
            CollaborativeRepository::from_parts(parts),
            Err(RepositoryError::CorruptParts { .. })
        ));

        // Non-finite label.
        let mut parts = repo.to_parts();
        parts.y[0] = f32::NAN;
        assert!(matches!(
            CollaborativeRepository::from_parts(parts),
            Err(RepositoryError::InvalidLatency { .. })
        ));

        // Orphan row owner.
        let mut parts = repo.to_parts();
        parts.row_devices[0] = "ghost".into();
        assert!(matches!(
            CollaborativeRepository::from_parts(parts),
            Err(RepositoryError::CorruptParts { .. })
        ));
    }
}
