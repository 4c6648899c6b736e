//! The fixed paper-scale world every workload runs against.
//!
//! The world does not depend on `--seed`: it is the paper's setting
//! (105 simulated devices, the 118-network suite, a 10-network
//! mutual-information signature, the default 100-tree GBDT), built
//! from [`WORLD_SEED`]. The run seed only chooses the request streams.
//!
//! A fixed share of the suite cells ([`HELD_OUT_EVERY`]) is held out of
//! the base repository so that contributions can add measured cells the
//! repository has not seen, as in the paper's collaborative scenario.

use std::path::{Path, PathBuf};

use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig, RepositoryParts};
use gdcm_dnn::Network;
use gdcm_ml::{FrozenGbdt, GbdtRegressor};

/// Seed of the simulated world (suite, fleet, measurement noise).
pub const WORLD_SEED: u64 = 2020;
/// Signature-set size (the paper's 10 networks).
pub const SIGNATURE_SIZE: usize = 10;
/// One open cell in this many is held out of the base repository.
pub const HELD_OUT_EVERY: usize = 10;

/// Dataset, signature, device names and the held-out pool.
pub struct World {
    pub data: CostDataset,
    /// Enrolled name of each device, by device index.
    pub names: Vec<String>,
    /// Signature latencies (ms) of each device, by device index.
    pub signature_ms: Vec<Vec<f64>>,
    /// Held-out `(device, suite network)` cells, in a fixed order.
    pub held_out: Vec<(usize, usize)>,
    /// Cells the base repository is fitted on, in contribution order.
    pub base_cells: Vec<(usize, usize)>,
}

impl World {
    pub fn build() -> Self {
        let data = CostDataset::paper(WORLD_SEED);
        let all: Vec<usize> = (0..data.n_devices()).collect();
        let signature = MutualInfoSelector::default().select(&data.db, &all, SIGNATURE_SIZE);
        let names = data
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| format!("{:03}:{}", i, d.model))
            .collect();
        let signature_ms = (0..data.n_devices())
            .map(|d| signature.iter().map(|&n| data.db.latency(d, n)).collect())
            .collect();
        let open: Vec<usize> = (0..data.n_networks())
            .filter(|n| !signature.contains(n))
            .collect();
        let mut held_out = Vec::new();
        let mut base_cells = Vec::new();
        let mut k = 0usize;
        for d in 0..data.n_devices() {
            for &n in &open {
                if k % HELD_OUT_EVERY == HELD_OUT_EVERY / 2 {
                    held_out.push((d, n));
                } else {
                    base_cells.push((d, n));
                }
                k += 1;
            }
        }
        Self {
            data,
            names,
            signature_ms,
            held_out,
            base_cells,
        }
    }

    pub fn n_devices(&self) -> usize {
        self.data.n_devices()
    }

    pub fn suite_network(&self, n: usize) -> &Network {
        &self.data.suite[n].network
    }

    /// Encoder row for `network` on device `d`: what the repository
    /// stores and predicts from.
    pub fn row(&self, network: &Network, d: usize) -> Vec<f32> {
        let mut row = self.data.encoder.encode(network);
        row.extend(self.signature_ms[d].iter().map(|&v| v as f32));
        row
    }

    /// The base repository: every device enrolled, every non-held-out
    /// open cell contributed, cold-fitted with the default config.
    pub fn fit_base(&self) -> CollaborativeRepository {
        let mut repo = CollaborativeRepository::new(
            self.data.encoder.clone(),
            SIGNATURE_SIZE,
            RepositoryConfig::default(),
        );
        for (d, name) in self.names.iter().enumerate() {
            repo.onboard_device(name.clone(), &self.signature_ms[d])
                .expect("fleet devices enroll");
        }
        for &(d, n) in &self.base_cells {
            repo.contribute(
                &self.names[d],
                self.suite_network(n),
                self.data.db.latency(d, n),
            )
            .expect("simulated latencies are valid");
        }
        repo.fit().expect("paper-scale repository has enough rows");
        repo
    }

    /// A model-only repository (no rows) that predicts exactly like a
    /// repository serving `model`/`frozen`: the uncached
    /// `CollaborativeRepository::predict` reference for the gate.
    pub fn model_repository(
        &self,
        config: &RepositoryConfig,
        model: GbdtRegressor,
        frozen: FrozenGbdt,
    ) -> CollaborativeRepository {
        let mut devices: Vec<(String, Vec<f32>)> = self
            .names
            .iter()
            .zip(&self.signature_ms)
            .map(|(n, s)| (n.clone(), s.iter().map(|&v| v as f32).collect()))
            .collect();
        devices.sort_by(|a, b| a.0.cmp(&b.0));
        CollaborativeRepository::from_parts(RepositoryParts {
            encoder: self.data.encoder.clone(),
            signature_size: SIGNATURE_SIZE,
            config: config.clone(),
            devices,
            row_devices: Vec::new(),
            x_rows: Vec::new(),
            y: Vec::new(),
            model: Some(model),
            frozen: Some(frozen),
            epoch: 0,
        })
        .expect("captured model matches the world's feature width")
    }
}

/// Path of the cached base snapshot under `work`, keyed by the running
/// binary so a rebuilt program never reuses a stale snapshot.
pub fn base_snapshot_path(work: &Path) -> PathBuf {
    let exe = std::env::current_exe().ok();
    let meta = exe.as_ref().and_then(|p| std::fs::metadata(p).ok());
    let stamp = meta
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{:x}", m.len(), mtime)
        })
        .unwrap_or_else(|| "unknown".to_string());
    work.join(format!("base-{WORLD_SEED}-{stamp}.snapshot.json"))
}

/// Builds (untimed) or reuses the cached base snapshot.
pub fn ensure_base_snapshot(world: &World, work: &Path) -> PathBuf {
    let path = base_snapshot_path(work);
    if !path.exists() {
        // Stale snapshots of earlier builds are dropped first.
        if let Ok(entries) = std::fs::read_dir(work) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().to_string();
                if name.starts_with("base-") && name.ends_with(".snapshot.json") {
                    let _ = std::fs::remove_file(e.path());
                }
            }
        }
        eprintln!("perfbench: fitting the base repository (cached after the first run)");
        let repo = world.fit_base();
        gdcm_serve::save_repository(&repo, &path).expect("base snapshot saves");
    }
    path
}
