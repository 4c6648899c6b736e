//! Seeded request streams. Every request a run sends is a pure function
//! of `(workload, seed, lane)`, so the correctness gate can regenerate
//! the stream after the timed window instead of keeping it in memory.

use gdcm_dnn::Network;
use gdcm_gen::{NamedNetwork, RandomNetworkGenerator, SearchSpace};
use gdcm_serve::protocol::wire;
use gdcm_serve::Request;
use gdcm_sim::{LatencyEngine, MeasurementConfig};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

use crate::world::{World, WORLD_SEED};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A NAS controller pricing never-seen mobile-space candidates.
    NasSweep,
    /// Zipf-distributed deployment traffic over the suite x fleet.
    ZooHot,
    /// Reads beside durable contributions, background refresh and a Fit.
    IngestRefit,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::NasSweep, Workload::ZooHot, Workload::IngestRefit];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::NasSweep => "nas_sweep",
            Workload::ZooHot => "zoo_hot",
            Workload::IngestRefit => "ingest_refit",
        }
    }

    /// Read stream style of this workload.
    pub fn reads(self) -> ReadKind {
        match self {
            Workload::ZooHot => ReadKind::Zipf,
            Workload::NasSweep | Workload::IngestRefit => ReadKind::Fresh,
        }
    }

    /// Contribution stream style of this workload.
    pub fn contributions(self) -> ContribKind {
        match self {
            Workload::NasSweep => ContribKind::Fresh,
            Workload::ZooHot => ContribKind::HeldOut,
            Workload::IngestRefit => ContribKind::Mixed,
        }
    }
}

/// How reads pick their networks and devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// Fresh `SearchSpace::mobile()` networks on uniform devices; one
    /// request in [`BATCH_EVERY`] is a `PredictBatch` of [`BATCH_LEN`].
    Fresh,
    /// `Predict` over suite x fleet keys, Zipf(s = [`ZIPF_S`]) ranked.
    Zipf,
}

/// How contributions pick their cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContribKind {
    /// Simulator-measured novel mobile-space networks.
    Fresh,
    /// Held-out suite cells of the simulated dataset.
    HeldOut,
    /// Alternating held-out cells and novel networks.
    Mixed,
}

pub const BATCH_EVERY: u32 = 8;
pub const BATCH_LEN: usize = 16;
pub const ZIPF_S: f64 = 1.0;

/// A network a request names: a suite member or a freshly generated one.
#[derive(Debug, Clone)]
pub enum Cand {
    Suite(usize),
    Fresh(Network),
}

impl Cand {
    pub fn network<'a>(&'a self, world: &'a World) -> &'a Network {
        match self {
            Cand::Suite(n) => world.suite_network(*n),
            Cand::Fresh(net) => net,
        }
    }

    fn into_network(self, world: &World) -> Network {
        match self {
            Cand::Suite(n) => world.suite_network(n).clone(),
            Cand::Fresh(net) => net,
        }
    }
}

/// One read request.
#[derive(Debug, Clone)]
pub struct Read {
    pub device: usize,
    pub batch: bool,
    pub cands: Vec<Cand>,
}

impl Read {
    pub fn into_request(self, world: &World) -> Request {
        let device = world.names[self.device].clone();
        if self.batch {
            Request::PredictBatch {
                device,
                networks: self
                    .cands
                    .into_iter()
                    .map(|c| c.into_network(world))
                    .collect(),
            }
        } else {
            let network = self
                .cands
                .into_iter()
                .next()
                .expect("a single read names one network")
                .into_network(world);
            Request::Predict { device, network }
        }
    }
}

/// One contribution.
#[derive(Debug, Clone)]
pub struct Contrib {
    pub device: usize,
    pub cand: Cand,
    pub latency_ms: f64,
}

impl Contrib {
    pub fn into_request(self, world: &World) -> Request {
        Request::Contribute {
            device: world.names[self.device].clone(),
            latency_ms: self.latency_ms,
            network: self.cand.into_network(world),
        }
    }
}

/// Derives an independent stream seed.
pub fn mix(seed: u64, tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finaliser
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Zipf(s) over every suite x fleet key, with a seeded rank -> key map.
pub struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<u32>,
    n_networks: usize,
}

impl Zipf {
    pub fn new(world: &World, seed: u64) -> Self {
        let n_networks = world.data.n_networks();
        let n = n_networks * world.n_devices();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut keys: Vec<u32> = (0..n as u32).collect();
        keys.shuffle(&mut ChaCha8Rng::seed_from_u64(mix(seed, "zipf-keys")));
        Self {
            cdf,
            keys,
            n_networks,
        }
    }

    /// `(device, suite network)` for a uniform draw `u` in `[0, 1)`.
    fn sample(&self, u: f64) -> (usize, usize) {
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.keys.len() - 1);
        let key = self.keys[rank] as usize;
        (key / self.n_networks, key % self.n_networks)
    }
}

/// A deterministic read stream for one lane of one run.
pub struct ReadStream<'w> {
    world: &'w World,
    kind: ReadKind,
    rng: ChaCha8Rng,
    gen: RandomNetworkGenerator,
    prefix: String,
    made: u64,
    zipf: Option<Arc<Zipf>>,
}

impl<'w> ReadStream<'w> {
    pub fn new(
        world: &'w World,
        kind: ReadKind,
        seed: u64,
        lane: &str,
        zipf: Option<Arc<Zipf>>,
    ) -> Self {
        assert!(
            kind != ReadKind::Zipf || zipf.is_some(),
            "zipf reads need a key ranking"
        );
        Self {
            world,
            kind,
            rng: ChaCha8Rng::seed_from_u64(mix(seed, &format!("reads/{lane}"))),
            gen: RandomNetworkGenerator::new(
                SearchSpace::mobile(),
                mix(seed, &format!("nets/{lane}")),
            ),
            prefix: format!("cand-{seed}-{lane}"),
            made: 0,
            zipf,
        }
    }

    fn fresh(&mut self) -> Network {
        let name = format!("{}-{}", self.prefix, self.made);
        self.made += 1;
        self.gen
            .generate(name)
            .expect("mobile search space generates valid networks")
    }
}

impl Iterator for ReadStream<'_> {
    type Item = Read;

    fn next(&mut self) -> Option<Read> {
        let n_devices = self.world.n_devices();
        Some(match self.kind {
            ReadKind::Fresh => {
                let device = self.rng.gen_range(0..n_devices);
                let batch = self.rng.gen_range(0..BATCH_EVERY) == 0;
                let len = if batch { BATCH_LEN } else { 1 };
                let cands = (0..len).map(|_| Cand::Fresh(self.fresh())).collect();
                Read {
                    device,
                    batch,
                    cands,
                }
            }
            ReadKind::Zipf => {
                let u: f64 = self.rng.gen();
                let (device, n) = self
                    .zipf
                    .as_ref()
                    .expect("checked at construction")
                    .sample(u);
                Read {
                    device,
                    batch: false,
                    cands: vec![Cand::Suite(n)],
                }
            }
        })
    }
}

/// A deterministic contribution stream. Held-out cells are drawn from a
/// seeded shuffle of the world's pool starting at `held_offset`, so
/// disjoint offsets never contribute the same cell twice.
pub struct ContribStream<'w> {
    world: &'w World,
    kind: ContribKind,
    rng: ChaCha8Rng,
    gen: RandomNetworkGenerator,
    held: Vec<(usize, usize)>,
    held_next: usize,
    prefix: String,
    made: u64,
    emitted: u64,
    engine: LatencyEngine,
}

impl<'w> ContribStream<'w> {
    pub fn new(
        world: &'w World,
        kind: ContribKind,
        seed: u64,
        lane: &str,
        held_offset: usize,
    ) -> Self {
        let mut held = world.held_out.clone();
        held.shuffle(&mut ChaCha8Rng::seed_from_u64(mix(seed, "held-out")));
        Self {
            world,
            kind,
            rng: ChaCha8Rng::seed_from_u64(mix(seed, &format!("contrib/{lane}"))),
            gen: RandomNetworkGenerator::new(
                SearchSpace::mobile(),
                mix(seed, &format!("novel/{lane}")),
            ),
            held,
            held_next: held_offset,
            prefix: format!("novel-{seed}-{lane}"),
            made: 0,
            emitted: 0,
            engine: LatencyEngine::new(),
        }
    }

    fn held_out(&mut self) -> Contrib {
        let (device, n) = self.held[self.held_next % self.held.len()];
        self.held_next += 1;
        Contrib {
            device,
            cand: Cand::Suite(n),
            latency_ms: self.world.data.db.latency(device, n),
        }
    }

    fn novel(&mut self) -> Contrib {
        let device = self.rng.gen_range(0..self.world.n_devices());
        let index = 1_000_000 + self.made as usize;
        let network = self
            .gen
            .generate(format!("{}-{}", self.prefix, self.made))
            .expect("mobile search space generates valid networks");
        self.made += 1;
        let named = NamedNetwork {
            index,
            network,
            predesigned: false,
        };
        let config = MeasurementConfig {
            runs: 30,
            seed: WORLD_SEED,
        };
        let m = gdcm_sim::measure(
            &self.engine,
            &named,
            &self.world.data.devices[device],
            &config,
        );
        Contrib {
            device,
            cand: Cand::Fresh(named.network),
            latency_ms: m.mean_ms,
        }
    }
}

impl Iterator for ContribStream<'_> {
    type Item = Contrib;

    fn next(&mut self) -> Option<Contrib> {
        let held = match self.kind {
            ContribKind::Fresh => false,
            ContribKind::HeldOut => true,
            ContribKind::Mixed => self.emitted.is_multiple_of(2),
        };
        self.emitted += 1;
        Some(if held { self.held_out() } else { self.novel() })
    }
}

/// Appends one binary-v1 frame for `request` tagged `id`.
pub fn append_frame(buf: &mut Vec<u8>, id: u64, request: &Request) {
    wire::fast::append_request_frame(buf, id, request).expect("benchmark requests fit a frame");
}
