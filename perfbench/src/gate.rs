//! The correctness gate: every answered prediction is checked bit for
//! bit against the uncached `CollaborativeRepository::predict` and
//! `gdcm_audit::reference_predict` (the recursive tree walker) under
//! the model that served it, and the ingest path is checked by a
//! restart from disk.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use gdcm_core::CollaborativeRepository;
use gdcm_ml::GbdtRegressor;
use gdcm_serve::protocol::wire;
use gdcm_serve::{Response, ServingRepository};

use crate::load::Clock;
use crate::stream::{Cand, Read};
use crate::world::World;

/// A model that served during the run, and when it was first seen.
pub struct EpochModel {
    pub epoch: u64,
    pub seen_ns: u64,
    pub model: GbdtRegressor,
    pub repo: CollaborativeRepository,
}

/// Captures the serving model and every later model swap.
pub struct EpochLog {
    pub models: Mutex<Vec<EpochModel>>,
}

/// How far (ns) a swap's first sighting may trail the swap itself.
const POLL_NS: u64 = 5_000_000;

impl EpochLog {
    pub fn capture(world: &World, serving: &ServingRepository, clock: Clock) -> Self {
        let log = Self {
            models: Mutex::new(Vec::new()),
        };
        log.record(world, serving, clock);
        log
    }

    fn record(&self, world: &World, serving: &ServingRepository, clock: Clock) {
        let (epoch, config, model, frozen) = serving.with_repository(|r| {
            (
                r.model_epoch(),
                r.config().clone(),
                r.model().cloned(),
                r.frozen_model().cloned(),
            )
        });
        let (Some(model), Some(frozen)) = (model, frozen) else {
            return;
        };
        let seen_ns = clock.now();
        let repo = world.model_repository(&config, model.clone(), frozen);
        self.models
            .lock()
            .expect("epoch log lock")
            .push(EpochModel {
                epoch,
                seen_ns,
                model,
                repo,
            });
    }

    fn last_epoch(&self) -> Option<u64> {
        self.models
            .lock()
            .expect("epoch log lock")
            .last()
            .map(|m| m.epoch)
    }

    /// Polls the serving model until `stop`, recording each new epoch.
    pub fn watch(
        &self,
        world: &World,
        serving: &ServingRepository,
        clock: Clock,
        stop: &AtomicBool,
    ) {
        while !stop.load(Ordering::Acquire) {
            if Some(serving.model_epoch()) != self.last_epoch() {
                self.record(world, serving, clock);
            }
            std::thread::sleep(Duration::from_nanos(POLL_NS));
        }
    }

    /// Indices of the models that may have answered a request in flight
    /// over `[sent_ns, recv_ns]`.
    pub fn candidates(&self, sent_ns: u64, recv_ns: u64) -> std::ops::RangeInclusive<usize> {
        let models = self.models.lock().expect("epoch log lock");
        let active_at = |t: u64| models.iter().rposition(|m| m.seen_ns <= t).unwrap_or(0);
        let lo = active_at(sent_ns.saturating_sub(POLL_NS));
        let hi = active_at(recv_ns + POLL_NS);
        lo..=hi
    }
}

/// Expected answer of `cand` on `device` under `m`, or `None` when the
/// two reference paths disagree with each other.
fn expected(world: &World, m: &EpochModel, device: usize, cand: &Cand) -> Option<u64> {
    let net = cand.network(world);
    let repo = m.repo.predict(&world.names[device], net).ok()?;
    let walker = f64::from(gdcm_audit::reference_predict(
        &m.model,
        &world.row(net, device),
    ));
    (repo.to_bits() == walker.to_bits()).then_some(repo.to_bits())
}

/// Memo of expected values for suite cells, keyed by
/// `(model index, device, suite network)`.
pub type SuiteMemo = Mutex<HashMap<(usize, usize, usize), Option<u64>>>;

/// Checks one answered read. `answer` is the response payload (`None`
/// when no answer arrived).
pub fn check_read(
    world: &World,
    log: &EpochLog,
    memo: &SuiteMemo,
    read: &Read,
    sent_ns: u64,
    answer: Option<(&[u8], u64)>,
) -> bool {
    let Some((payload, recv_ns)) = answer else {
        return false;
    };
    let Ok(resp) = wire::decode_value::<Response>(payload) else {
        return false;
    };
    let got: Vec<u64> = match (resp, read.batch) {
        (Response::Prediction { latency_ms }, false) => vec![latency_ms.to_bits()],
        (Response::Predictions { latency_ms }, true) => {
            latency_ms.iter().map(|v| v.to_bits()).collect()
        }
        _ => return false,
    };
    if got.len() != read.cands.len() {
        return false;
    }
    let range = log.candidates(sent_ns, recv_ns);
    let models = log.models.lock().expect("epoch log lock");
    range.into_iter().any(|k| {
        read.cands.iter().zip(&got).all(|(cand, &bits)| {
            let want = match cand {
                Cand::Suite(n) => *memo
                    .lock()
                    .expect("memo lock")
                    .entry((k, read.device, *n))
                    .or_insert_with(|| expected(world, &models[k], read.device, cand)),
                Cand::Fresh(_) => expected(world, &models[k], read.device, cand),
            };
            want == Some(bits)
        })
    })
}

/// Whether a write was acknowledged with `Ok`.
pub fn is_ok(payload: &[u8]) -> bool {
    matches!(wire::decode_value::<Response>(payload), Ok(Response::Ok))
}
