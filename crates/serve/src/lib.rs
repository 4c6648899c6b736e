//! # gdcm-serve — cached, persistent serving over the collaborative repository
//!
//! The paper's end state is a *collaborative characterization repository*
//! any device can query for any network's latency — a service, not a
//! batch script. [`gdcm_core::CollaborativeRepository`] is that service's
//! kernel; this crate wraps it in the serving machinery the kernel
//! deliberately does not carry:
//!
//! * [`ServingRepository`] — a thread-safe façade adding a
//!   content-hash-keyed LRU cache for network encodings (the repository
//!   used to re-encode the network on every `predict`), a
//!   `(device, network-hash)` LRU for finished predictions, and one
//!   predict routine ([`ServingRepository::predict`] is a one-network
//!   [`ServingRepository::predict_batch`]) routed through the `gdcm-par`
//!   chunked batch predictor instead of per-row calls.
//!   Cached and batched answers are **bit-identical** to the uncached
//!   single-row path — the caches only skip work, never change it.
//! * [`snapshot`] — versioned serde persistence of the full repository
//!   state (encoder config, devices, training rows, fitted
//!   [`gdcm_ml::GbdtRegressor`]). Loading replays `gdcm-core` ingestion
//!   validation **and** the `gdcm-audit` ensemble + dataset passes, so a
//!   corrupted or poisoned snapshot is rejected before it can serve.
//! * [`server`] — a dual-protocol TCP server (`std::net::TcpListener`,
//!   safe Rust only): one thread per connection, sleeping in the
//!   kernel on its own socket when idle, serves the legacy newline-JSON
//!   protocol and the length-prefixed, pipelined binary protocol
//!   ([`protocol::wire`]) on one listener, with per-request latency
//!   histograms, open-connection gauges, and graceful drain-then-exit
//!   shutdown.
//! * [`wal`] + [`refresh`] — streaming ingestion: a checksummed,
//!   fsync-before-ack write-ahead log for mutating requests, replayed
//!   over the latest snapshot on startup, and a background refresh
//!   controller that refits after `GDCM_SERVE_REFRESH_ROWS` new
//!   contributions (warm-starting from the previous model's trees),
//!   gates the result through the audit + flatcheck passes, atomically
//!   swaps it in without blocking readers, and compacts the log into a
//!   fresh snapshot.
//!
//! Environment knobs: `GDCM_SERVE_ENC_CACHE` / `GDCM_SERVE_PRED_CACHE`
//! (cache capacities in entries, 0 disables),
//! `GDCM_SERVE_REFRESH_ROWS` / `GDCM_SERVE_REFRESH_BOOST` (background
//! refresh threshold and warm residual rounds), `GDCM_THREADS` (worker
//! budget, via `gdcm-par`), `GDCM_OBS` (event sinks, via `gdcm-obs`).
//! Unparsable `GDCM_SERVE_*` values fall back to their defaults with a
//! structured `config_warning` event.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod client;
pub mod harness;
pub mod lru;
pub mod ops;
pub mod protocol;
pub mod refresh;
pub mod server;
pub mod serving;
pub mod snapshot;
pub mod wal;

pub use client::{BinClient, Client, OpsClient};
pub use lru::LruCache;
pub use protocol::{Request, RequestEnvelope, Response, ResponseEnvelope};
pub use refresh::{IngestPipeline, RefreshConfig};
pub use server::{serve, serve_with_ingest, serve_with_ops, ServerConfig, ServerSummary};
pub use serving::{network_hash, CacheStats, ServeConfig, ServingRepository};
pub use snapshot::{
    load_repository, save_repository, RepositorySnapshot, SNAPSHOT_FORMAT, SNAPSHOT_VERSION,
};
pub use wal::{replay_record, WalMark, WalRecord, WalRecovery, WriteAheadLog};

use gdcm_core::RepositoryError;
use std::fmt;

/// Errors surfaced by the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The wrapped repository rejected the operation.
    Repository(RepositoryError),
    /// Filesystem I/O failed.
    Io(std::io::Error),
    /// (De)serialization failed.
    Json(String),
    /// Binary wire (de)serialization or framing failed client-side.
    Wire(String),
    /// The snapshot envelope is not one this build can read.
    BadSnapshot {
        /// What was wrong with the envelope.
        reason: String,
    },
    /// The snapshot deserialized but the `gdcm-audit` passes found
    /// errors in the trained model or its dataset.
    AuditRejected {
        /// Rendered diagnostics, one per finding.
        diagnostics: Vec<String>,
    },
}

impl ServeError {
    /// Stable machine-readable code for this error, as carried by
    /// [`protocol::Response::Error`] on the wire (see
    /// [`protocol::codes`]). Codes never change once shipped; messages
    /// may.
    pub fn code(&self) -> &'static str {
        use crate::protocol::codes;
        match self {
            ServeError::Repository(e) => match e {
                RepositoryError::UnknownDevice(_) => codes::UNKNOWN_DEVICE,
                RepositoryError::AlreadyEnrolled(_) => codes::ALREADY_ENROLLED,
                RepositoryError::SignatureLength { .. } => codes::SIGNATURE_LENGTH,
                RepositoryError::InvalidLatency { .. } => codes::INVALID_LATENCY,
                RepositoryError::NotEnoughData { .. } => codes::NOT_ENOUGH_DATA,
                RepositoryError::NotFitted => codes::NOT_FITTED,
                RepositoryError::CorruptParts { .. } => codes::CORRUPT_PARTS,
                // RepositoryError is non_exhaustive: future variants
                // map to the generic repository code until classified.
                _ => codes::REPOSITORY,
            },
            ServeError::Io(_) => codes::IO,
            ServeError::Json(_) => codes::JSON,
            ServeError::Wire(_) => codes::WIRE,
            ServeError::BadSnapshot { .. } => codes::BAD_SNAPSHOT,
            ServeError::AuditRejected { .. } => codes::AUDIT_REJECTED,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Repository(e) => write!(f, "repository: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Json(e) => write!(f, "json: {e}"),
            ServeError::Wire(e) => write!(f, "wire: {e}"),
            ServeError::BadSnapshot { reason } => write!(f, "bad snapshot: {reason}"),
            ServeError::AuditRejected { diagnostics } => write!(
                f,
                "snapshot rejected by audit ({} finding(s)): {}",
                diagnostics.len(),
                diagnostics.join("; ")
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RepositoryError> for ServeError {
    fn from(e: RepositoryError) -> Self {
        ServeError::Repository(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<protocol::wire::WireError> for ServeError {
    fn from(e: protocol::wire::WireError) -> Self {
        ServeError::Wire(e.to_string())
    }
}
