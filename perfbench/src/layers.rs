//! The traced run: times each layer from outside by wrapping spans
//! around calls into the layers' public functions, replaying the same
//! seeded inputs the end-to-end run sends.
//!
//! Spans record name, start, end, parent and request id; they are kept
//! in memory and written to the report at the end. A span's self-time
//! is its duration minus its children's.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gdcm_audit::DatasetLints;
use gdcm_core::CollaborativeRepository;
use gdcm_ml::{bin_code, BinnedMatrix, DenseMatrix, FrozenGbdt, GbdtRegressor, FROZEN_LEAF};
use gdcm_serve::harness::ConnHarness;
use gdcm_serve::protocol::wire;
use gdcm_serve::refresh::DEFAULT_WARM_BOOST;
use gdcm_serve::snapshot::RepositorySnapshot;
use gdcm_serve::{
    network_hash, replay_record, save_repository, serve, BinClient, IngestPipeline, Request,
    Response, ServeConfig, ServerConfig, ServingRepository, WalRecord, WriteAheadLog,
};

use crate::json::Json;
use crate::load::Clock;
use crate::run::{self, busy_rps, contrib_stream, refresh_config, Outcome, RunDirs, LANE_BUSY};
use crate::stats::{median, percentile};
use crate::stream::{append_frame, Read, Workload, Zipf};
use crate::world::World;

/// Per-layer metrics: name, unit, better, the end-to-end metric it
/// should move, and the workload that shows it.
pub const LAYER_METRICS: &[(&str, &str, &str, &str, &str)] = &[
    (
        "wire.fast_decode_us",
        "us",
        "lower",
        "p50_us, sat_rps",
        "nas_sweep",
    ),
    (
        "wire.request_bytes",
        "bytes",
        "lower",
        "p50_us, sat_rps",
        "nas_sweep",
    ),
    (
        "wire.generic_decode_us",
        "us",
        "lower",
        "p50_us (codec choice)",
        "nas_sweep",
    ),
    ("wire.wire_hash_us", "us", "lower", "sat_rps", "zoo_hot"),
    (
        "serving.network_hash_us",
        "us",
        "lower",
        "p50_us, sat_rps",
        "nas_sweep",
    ),
    (
        "serving.predict_miss_us",
        "us",
        "lower",
        "p50_us, sat_rps",
        "nas_sweep",
    ),
    (
        "serving.predict_hit_us",
        "us",
        "lower",
        "sat_rps",
        "zoo_hot",
    ),
    (
        "serving.pred_hit_ratio",
        "ratio",
        "higher",
        "sat_rps, p50_us",
        "zoo_hot",
    ),
    (
        "serving.enc_hit_ratio",
        "ratio",
        "higher",
        "sat_rps, p50_us",
        "zoo_hot",
    ),
    (
        "serving.wire_hit_ratio",
        "ratio",
        "higher",
        "sat_rps, p50_us",
        "zoo_hot",
    ),
    ("serving.fit_lock_s", "s", "lower", "p99_us", "ingest_refit"),
    (
        "serving.install_lock_ms",
        "ms",
        "lower",
        "p99_us",
        "ingest_refit",
    ),
    (
        "repository.device_lookup_us",
        "us",
        "lower",
        "p50_us, sat_rps",
        "nas_sweep",
    ),
    (
        "encoding.encode_us",
        "us",
        "lower",
        "p50_us, sat_rps",
        "nas_sweep",
    ),
    (
        "repository.predict_rows_us",
        "us",
        "lower",
        "p50_us, sat_rps",
        "nas_sweep",
    ),
    (
        "repository.contribute_us",
        "us",
        "lower",
        "contribute_p50_us",
        "ingest_refit",
    ),
    ("binning.bin_all_us", "us", "lower", "p50_us", "nas_sweep"),
    (
        "binning.features_read_ratio",
        "ratio",
        "higher",
        "p50_us",
        "nas_sweep",
    ),
    (
        "binning.from_matrix_s",
        "s",
        "lower",
        "fit_s",
        "ingest_refit",
    ),
    ("frozen.traverse_us", "us", "lower", "p50_us", "nas_sweep"),
    ("frozen.freeze_s", "s", "lower", "fit_s", "ingest_refit"),
    ("gbdt.fit_s", "s", "lower", "fit_s", "ingest_refit"),
    (
        "gbdt.warm_fit_s",
        "s",
        "lower",
        "p99_us (CPU contention)",
        "ingest_refit",
    ),
    (
        "gbdt.reported_total_ms",
        "ms",
        "lower",
        "fit_s (program-reported)",
        "ingest_refit",
    ),
    (
        "gbdt.reported_histogram_build_ms",
        "ms",
        "lower",
        "fit_s (program-reported)",
        "ingest_refit",
    ),
    (
        "gbdt.reported_split_search_ms",
        "ms",
        "lower",
        "fit_s (program-reported)",
        "ingest_refit",
    ),
    (
        "gbdt.reported_split_search_busy_ms",
        "ms",
        "lower",
        "fit_s (program-reported)",
        "ingest_refit",
    ),
    (
        "gbdt.reported_predict_update_ms",
        "ms",
        "lower",
        "fit_s (program-reported)",
        "ingest_refit",
    ),
    ("audit.model_s", "s", "lower", "setup_s", "all"),
    (
        "wal.append_p50_us",
        "us",
        "lower",
        "contribute_p50_us",
        "ingest_refit",
    ),
    (
        "wal.append_p99_us",
        "us",
        "lower",
        "contribute_p99_us",
        "ingest_refit",
    ),
    (
        "wal.record_bytes",
        "bytes",
        "lower",
        "contribute_p50_us",
        "ingest_refit",
    ),
    ("wal.replay_s", "s", "lower", "setup_s", "ingest_refit"),
    ("refresh.cycle_s", "s", "lower", "p99_us", "ingest_refit"),
    (
        "refresh.fail_ratio",
        "ratio",
        "lower",
        "refresh_fail_ratio (report)",
        "ingest_refit",
    ),
    ("snapshot.parse_s", "s", "lower", "setup_s", "all"),
    ("snapshot.validate_s", "s", "lower", "setup_s", "all"),
    ("snapshot.save_s", "s", "lower", "fit_s", "ingest_refit"),
    ("snapshot.bytes", "bytes", "lower", "setup_s, fit_s", "all"),
    ("server.dispatch_us", "us", "lower", "sat_rps", "zoo_hot"),
    ("server.idle_wakeup_us", "us", "lower", "idle_p50_us", "all"),
    (
        "reconcile.decomposed_us",
        "us",
        "lower",
        "p50_us",
        "nas_sweep",
    ),
    (
        "reconcile.residual_us",
        "us",
        "lower",
        "p50_us",
        "nas_sweep",
    ),
    ("trace.overhead_us", "us", "lower", "(tracing cost)", "all"),
];

/// Requests replayed through the read-path layers.
const READ_SAMPLE: usize = 4000;
/// Of those, requests timed call by call in the codec and core layers.
const MICRO_SAMPLE: usize = 1500;
/// Ping round trips for the idle-wakeup probe.
const WAKE_SAMPLES: usize = 150;
const WAKE_GAP: Duration = Duration::from_millis(10);

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span recorder.
struct Tracer {
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(clock: Clock) -> Self {
        Self {
            clock,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Times `f` as a span (a child of the innermost open span).
    fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.clock.now(),
            end: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.clock.now();
        out
    }

    fn leaf<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.span(name, req, |_| f())
    }

    /// Summed duration of each span's direct children; a span's
    /// self-time is its duration minus this.
    fn child_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                children[p] += c.end - c.start;
            }
        }
        children
    }

    /// Durations (µs) of every span named `name`.
    fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    fn total_s(&self, name: &str) -> f64 {
        self.us(name).iter().sum::<f64>() / 1e6
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::str(s.name),
                        Json::Int(s.start),
                        Json::Int(s.end),
                        s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        Json::Int(s.req),
                    ])
                })
                .collect(),
        )
    }
}

/// Longest time a reader waited on the repository lock while `f` ran.
fn reader_stall<R>(serving: &ServingRepository, f: impl FnOnce() -> R) -> (R, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let prober = s.spawn(|| {
            let mut worst = Duration::ZERO;
            while !stop.load(Ordering::Acquire) {
                let t = Instant::now();
                std::hint::black_box(serving.n_rows());
                worst = worst.max(t.elapsed());
                std::thread::sleep(Duration::from_micros(200));
            }
            worst
        });
        // Let the prober take its first samples before the call starts.
        std::thread::sleep(Duration::from_millis(5));
        let out = f();
        stop.store(true, Ordering::Release);
        let worst = prober.join().expect("stall prober");
        (out, worst.as_secs_f64())
    })
}

fn payload_of(request: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    append_frame(&mut buf, 0, request);
    buf.split_off(wire::FRAME_HEADER_LEN)
}

pub fn run(
    world: &World,
    w: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    base: PathBuf,
) -> Outcome {
    let clock = Clock::new();
    let mut tr = Tracer::new(clock);
    let dirs = RunDirs::new(work, base, &format!("{}-trace", w.name()));
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut notes: Vec<(String, Json)> = Vec::new();

    // ---- snapshot + audit (setup_s) ----
    let snapshot_bytes = std::fs::metadata(&dirs.base).map_or(0, |md| md.len());
    let snapshot: RepositorySnapshot = tr.leaf("snapshot.parse", 0, || {
        let text = std::fs::read_to_string(&dirs.base).expect("base snapshot reads");
        serde_json::from_str(&text).expect("base snapshot parses")
    });
    let repo: CollaborativeRepository = tr.leaf("snapshot.validate", 0, || {
        snapshot.into_repository().expect("base snapshot validates")
    });
    let model = repo.model().expect("base repository is fitted").clone();
    let frozen = repo
        .frozen_model()
        .expect("base repository is frozen")
        .clone();
    let gbdt = repo.config().gbdt;
    let audit_ok = tr.leaf("audit.model", 0, || {
        let (x_rows, y) = repo.training_data();
        let x = DenseMatrix::from_rows(x_rows);
        let mut report = gdcm_audit::audit_trained_model(
            "perfbench",
            &model,
            Some(&gbdt),
            &x,
            y,
            &DatasetLints::pipeline(),
        );
        let binned = BinnedMatrix::from_matrix(&x, gbdt.max_bins);
        gdcm_audit::check_frozen_gbdt(
            "perfbench",
            &model,
            &frozen,
            Some(&binned),
            &mut report.diagnostics,
        );
        report.error_count() == 0
    });
    attempted += 1;
    failed += u64::from(!audit_ok);
    m.push(("snapshot.parse_s", tr.total_s("snapshot.parse")));
    m.push(("snapshot.validate_s", tr.total_s("snapshot.validate")));
    m.push(("audit.model_s", tr.total_s("audit.model")));

    // ---- read path, call by call (the busy lane's seeded requests) ----
    let zipf = (w == Workload::ZooHot).then(|| std::sync::Arc::new(Zipf::new(world, seed)));
    let reads: Vec<Read> = run::read_stream(world, w, seed, LANE_BUSY, &zipf)
        .take(READ_SAMPLE)
        .collect();
    let requests: Vec<Request> = reads
        .iter()
        .map(|r| r.clone().into_request(world))
        .collect();
    let payloads: Vec<Vec<u8>> = requests.iter().map(payload_of).collect();
    m.push((
        "wire.request_bytes",
        median(&payloads.iter().map(|p| p.len() as f64).collect::<Vec<_>>()),
    ));
    for (i, p) in payloads.iter().take(MICRO_SAMPLE).enumerate() {
        let req = i as u64;
        let fast = tr.leaf("wire.fast_decode", req, || wire::fast::decode_request(p));
        let generic = tr.leaf("wire.generic_decode", req, || {
            wire::decode_value::<Request>(p)
        });
        attempted += 1;
        failed += u64::from(
            !(fast.as_ref().ok() == Some(&requests[i])
                && generic.as_ref().ok() == Some(&requests[i])),
        );
        if wire::fast::probe_predict(p).is_some() {
            tr.leaf("wire.wire_hash", req, || {
                wire::fast::probe_predict(p).map(|(_, bytes)| wire::fast::wire_hash(bytes))
            });
        }
    }
    let n_features = frozen.n_features();
    let read_features: std::collections::BTreeSet<u32> = frozen
        .nodes()
        .feature()
        .iter()
        .copied()
        .filter(|&f| f != FROZEN_LEAF)
        .collect();
    m.push(("wire.fast_decode_us", median(&tr.us("wire.fast_decode"))));
    m.push((
        "wire.generic_decode_us",
        median(&tr.us("wire.generic_decode")),
    ));
    m.push(("wire.wire_hash_us", median(&tr.us("wire.wire_hash"))));
    m.push((
        "binning.features_read_ratio",
        read_features.len() as f64 / n_features as f64,
    ));

    // Uncached predict, decomposed into its layers.
    let mut decomposed_ids = Vec::new();
    for (i, read) in reads.iter().take(MICRO_SAMPLE).enumerate() {
        let req = i as u64;
        let name = &world.names[read.device];
        for cand in &read.cands {
            let net = cand.network(world);
            let parent = tr.spans.len();
            let bits = tr.span("predict.decomposed", req, |tr| {
                tr.leaf("serving.network_hash", req, || {
                    std::hint::black_box(network_hash(net))
                });
                let hw = tr.leaf("repository.device_lookup", req, || {
                    repo.device_signature(name).map(<[f32]>::to_vec)
                });
                let mut row = tr.leaf("encoding.encode", req, || repo.encoder().encode(net));
                row.extend_from_slice(&hw.unwrap_or_default());
                let codes: Vec<u8> = tr.leaf("binning.bin_all", req, || {
                    (0..n_features)
                        .map(|f| bin_code(frozen.cuts(f), row[f]))
                        .collect()
                });
                f64::from(tr.leaf("frozen.traverse", req, || frozen.predict_binned(&codes)))
                    .to_bits()
            });
            decomposed_ids.push(parent);
            let want = repo.predict(name, net).map(f64::to_bits).ok();
            let walker = f64::from(gdcm_audit::reference_predict(
                &model,
                &world.row(net, read.device),
            ))
            .to_bits();
            attempted += 1;
            failed += u64::from(want != Some(bits) || walker != bits);
        }
        let rows: Vec<Vec<f32>> = read
            .cands
            .iter()
            .map(|c| world.row(c.network(world), read.device))
            .collect();
        let matrix = DenseMatrix::from_rows(&rows);
        let t = Instant::now();
        let _ = std::hint::black_box(repo.predict_rows(&matrix));
        tr.spans.push(Span {
            name: "repository.predict_rows_per_row",
            start: 0,
            end: (t.elapsed().as_nanos() as u64) / rows.len() as u64,
            parent: None,
            req,
        });
    }
    for (metric, span) in [
        ("serving.network_hash_us", "serving.network_hash"),
        ("repository.device_lookup_us", "repository.device_lookup"),
        ("encoding.encode_us", "encoding.encode"),
        ("binning.bin_all_us", "binning.bin_all"),
        ("frozen.traverse_us", "frozen.traverse"),
    ] {
        m.push((metric, median(&tr.us(span))));
    }
    m.push((
        "repository.predict_rows_us",
        median(&tr.us("repository.predict_rows_per_row")),
    ));
    // The children are leaves, so their self-times are their durations.
    let children = tr.child_ns();
    let decomposed: Vec<f64> = decomposed_ids
        .iter()
        .map(|&p| children[p] as f64 / 1e3)
        .collect();

    // ---- the serving façade, replayed like the binary frame handler ----
    let facade = |traced: Option<&mut Tracer>| -> (ServingRepository, f64, u64) {
        let serving = ServingRepository::new(repo.clone(), ServeConfig::default());
        let mut wire_hits = 0u64;
        let t = Instant::now();
        let mut tr = traced;
        for (i, p) in payloads.iter().enumerate() {
            let probed =
                wire::fast::probe_predict(p).map(|(d, bytes)| (d, wire::fast::wire_hash(bytes)));
            if let Some((device, hash)) = probed {
                if serving.predict_wire_hit(device, hash).is_some() {
                    wire_hits += 1;
                    continue;
                }
            }
            let request = wire::fast::decode_request(p).expect("benchmark requests decode");
            let before = serving.cache_stats();
            let call = || match &request {
                Request::Predict { device, network } => {
                    if let Some((_, hash)) = probed {
                        serving.index_wire_hash(hash, network);
                    }
                    let _ = serving.predict(device, network);
                }
                Request::PredictBatch { device, networks } => {
                    let _ = serving.predict_batch(device, networks);
                }
                _ => {}
            };
            match tr.as_deref_mut() {
                Some(tr) if matches!(request, Request::Predict { .. }) => {
                    let idx = tr.spans.len();
                    tr.leaf("serving.predict", i as u64, call);
                    let after = serving.cache_stats();
                    if after.prediction_hits > before.prediction_hits {
                        tr.spans[idx].name = "serving.predict_hit";
                    } else {
                        tr.spans[idx].name = "serving.predict_miss";
                    }
                }
                _ => call(),
            }
        }
        (serving, t.elapsed().as_secs_f64(), wire_hits)
    };
    // Interleaved untraced/traced replays; the faster of each pair.
    let untraced_s = facade(None).1;
    let (serving, traced_s, wire_hits) = facade(Some(&mut tr));
    let untraced_s = untraced_s.min(facade(None).1);
    let stats = serving.cache_stats();
    let ratio = |hit: u64, miss: u64| {
        if hit + miss == 0 {
            0.0
        } else {
            hit as f64 / (hit + miss) as f64
        }
    };
    let predicts = requests
        .iter()
        .filter(|r| matches!(r, Request::Predict { .. }))
        .count() as u64;
    m.push((
        "serving.pred_hit_ratio",
        ratio(stats.prediction_hits, stats.prediction_misses),
    ));
    m.push((
        "serving.enc_hit_ratio",
        ratio(stats.encoding_hits, stats.encoding_misses),
    ));
    m.push((
        "serving.wire_hit_ratio",
        ratio(wire_hits, predicts.saturating_sub(wire_hits)),
    ));
    // Hits need a warm entry: read the same single predicts once more.
    for (i, r) in requests.iter().enumerate().take(MICRO_SAMPLE) {
        if let Request::Predict { device, network } = r {
            tr.leaf("serving.predict_hit", i as u64, || {
                serving.predict(device, network).ok()
            });
        }
    }
    let miss_us = median(&tr.us("serving.predict_miss"));
    m.push(("serving.predict_miss_us", miss_us));
    m.push((
        "serving.predict_hit_us",
        median(&tr.us("serving.predict_hit")),
    ));
    let decomposed_us = median(&decomposed);
    m.push(("reconcile.decomposed_us", decomposed_us));
    m.push(("reconcile.residual_us", miss_us - decomposed_us));
    m.push((
        "trace.overhead_us",
        (traced_s - untraced_s) * 1e6 / payloads.len() as f64,
    ));
    drop(serving);

    // One framed Predict through the connection state machine, minus
    // the façade's own predict time for the same request.
    let harness_serving = ServingRepository::new(repo.clone(), ServeConfig::default());
    let bare_serving = ServingRepository::new(repo.clone(), ServeConfig::default());
    let mut harness = ConnHarness::new(&harness_serving);
    harness.deliver(&wire::preamble());
    harness.pump_until_quiet(8);
    let mut dispatch = Vec::new();
    for (i, r) in requests.iter().enumerate().take(MICRO_SAMPLE) {
        let Request::Predict { device, network } = r else {
            continue;
        };
        let mut frame = Vec::new();
        append_frame(&mut frame, i as u64, r);
        let t = Instant::now();
        harness.deliver(&frame);
        harness.pump_until_quiet(8);
        let out = harness.take_output();
        let framed_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let bare = bare_serving.predict(device, network);
        let bare_ns = t.elapsed().as_nanos() as f64;
        dispatch.push((framed_ns - bare_ns) / 1e3);
        let answered =
            wire::decode_value::<Response>(out.get(wire::FRAME_HEADER_LEN..).unwrap_or_default());
        attempted += 1;
        failed += u64::from(
            !matches!((answered, bare), (Ok(Response::Prediction { latency_ms }), Ok(b)) if latency_ms.to_bits() == b.to_bits()),
        );
    }
    m.push(("server.dispatch_us", median(&dispatch)));
    drop(harness);
    drop(harness_serving);
    drop(bare_serving);

    // ---- write path: the workload's seeded contributions ----
    let n_contrib = run::write_count(w, seconds);
    let contribs: Vec<_> = contrib_stream(world, w, seed).take(n_contrib).collect();
    let mut grown = repo.clone();
    for (i, c) in contribs.iter().enumerate() {
        let ok = tr.leaf("repository.contribute", i as u64, || {
            grown
                .contribute(&world.names[c.device], c.cand.network(world), c.latency_ms)
                .is_ok()
        });
        attempted += 1;
        failed += u64::from(!ok);
    }
    m.push((
        "repository.contribute_us",
        median(&tr.us("repository.contribute")),
    ));
    let wal_path = dirs.dir.join("trace.wal");
    {
        let (mut wal, ..) = WriteAheadLog::open(&wal_path).expect("trace WAL opens");
        for (i, c) in contribs.iter().enumerate() {
            let record = WalRecord::Contribute {
                device: world.names[c.device].clone(),
                latency_ms: c.latency_ms,
                network: c.cand.network(world).clone(),
            };
            tr.leaf("wal.append", i as u64, || wal.append(&record))
                .expect("trace WAL appends");
        }
    }
    let appends = tr.us("wal.append");
    m.push(("wal.append_p50_us", percentile(&appends, 0.5)));
    m.push(("wal.append_p99_us", percentile(&appends, 0.99)));
    let wal_len = std::fs::metadata(&wal_path).map_or(0, |md| md.len());
    m.push((
        "wal.record_bytes",
        wal_len as f64 / contribs.len().max(1) as f64,
    ));
    let mut replayed = repo.clone();
    let replay_ok = tr.leaf("wal.replay", 0, || {
        let (_, records, _) = WriteAheadLog::open(&wal_path).expect("trace WAL reopens");
        records.iter().all(|r| replay_record(&mut replayed, r))
    });
    attempted += 1;
    failed += u64::from(!(replay_ok && replayed.n_rows() == grown.n_rows()));
    drop(replayed);
    m.push(("wal.replay_s", tr.total_s("wal.replay")));

    // ---- refresh cycles over the contributions, as the pipeline runs them ----
    let serving = ServingRepository::new(repo.clone(), ServeConfig::default());
    let pipeline = IngestPipeline::new(&serving, refresh_config(w));
    let mut diagnostics = Vec::new();
    let mut rejected = 0u64;
    let mut cycles = 0u64;
    let mut cycle = |tr: &mut Tracer| {
        cycles += 1;
        if let Err(e) = tr.leaf("refresh.cycle", cycles, || pipeline.refresh_once()) {
            rejected += 1;
            diagnostics.push(Json::str(e.to_string()));
        }
    };
    for c in &contribs {
        pipeline
            .contribute(&world.names[c.device], c.cand.network(world), c.latency_ms)
            .expect("contributions apply");
        if pipeline.refresh_due() {
            cycle(&mut tr);
        }
    }
    // Workloads (or short runs) that never reach the threshold still
    // replay one cycle over everything they contributed.
    if tr.us("refresh.cycle").is_empty() {
        cycle(&mut tr);
    }
    m.push(("refresh.cycle_s", median(&tr.us("refresh.cycle")) / 1e6));
    m.push((
        "refresh.fail_ratio",
        if cycles == 0 {
            f64::NAN
        } else {
            rejected as f64 / cycles as f64
        },
    ));
    drop(pipeline);

    // ---- fit path on base + contributions ----
    let (x_rows, y) = grown.training_data();
    let x = DenseMatrix::from_rows(x_rows);
    let y = y.to_vec();
    let cold = tr.leaf("gbdt.fit", 0, || GbdtRegressor::fit(&x, &y, &gbdt));
    let binned = tr.leaf("binning.from_matrix", 0, || {
        BinnedMatrix::from_matrix(&x, gbdt.max_bins)
    });
    let cold_frozen = tr.leaf("frozen.freeze", 0, || FrozenGbdt::freeze(&cold, &binned));
    let reuse = gbdt.n_estimators.saturating_sub(DEFAULT_WARM_BOOST);
    tr.leaf("gbdt.warm_fit", 0, || {
        GbdtRegressor::warm_fit(&x, &y, &gbdt, &model, reuse)
    });
    m.push(("gbdt.fit_s", tr.total_s("gbdt.fit")));
    m.push(("binning.from_matrix_s", tr.total_s("binning.from_matrix")));
    m.push(("frozen.freeze_s", tr.total_s("frozen.freeze")));
    m.push(("gbdt.warm_fit_s", tr.total_s("gbdt.warm_fit")));
    let log = cold.training_log();
    for (metric, value) in [
        ("gbdt.reported_total_ms", log.map(|l| l.total_ms)),
        (
            "gbdt.reported_histogram_build_ms",
            log.map(|l| l.histogram_build_ms),
        ),
        (
            "gbdt.reported_split_search_ms",
            log.map(|l| l.split_search_ms),
        ),
        (
            "gbdt.reported_split_search_busy_ms",
            log.map(|l| l.split_search_busy_ms),
        ),
        (
            "gbdt.reported_predict_update_ms",
            log.map(|l| l.predict_update_ms),
        ),
    ] {
        m.push((metric, value.unwrap_or(f64::NAN)));
    }
    drop(binned);
    drop(x);

    // Reader stalls behind the façade's write lock.
    let (fitted, fit_stall_s) =
        reader_stall(&serving, || tr.leaf("serving.fit", 0, || serving.fit()));
    attempted += 1;
    failed += u64::from(fitted.is_err());
    m.push(("serving.fit_lock_s", fit_stall_s));
    let (installed, install_stall_s) = match cold_frozen {
        Ok(f) => reader_stall(&serving, || serving.install_refit(cold.clone(), f).is_ok()),
        Err(e) => {
            diagnostics.push(Json::str(format!("cold freeze: {e}")));
            (false, f64::NAN)
        }
    };
    attempted += 1;
    failed += u64::from(!installed);
    m.push(("serving.install_lock_ms", install_stall_s * 1e3));
    let saved = dirs.dir.join("trace.snapshot.json");
    let save_ok = serving
        .with_repository(|r| tr.leaf("snapshot.save", 0, || save_repository(r, &saved).is_ok()));
    attempted += 1;
    failed += u64::from(!save_ok);
    m.push(("snapshot.save_s", tr.total_s("snapshot.save")));
    m.push(("snapshot.bytes", snapshot_bytes as f64));

    // ---- idle wake-up: Ping round trips, back to back vs after a gap ----
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener binds");
    let addr = listener.local_addr().expect("listener has an address");
    let (hot, idle) = std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &serving, ServerConfig::default()));
        let mut client = BinClient::connect(addr).expect("client connects");
        let mut rtt = |gap: Option<Duration>| {
            (0..WAKE_SAMPLES)
                .map(|_| {
                    if let Some(g) = gap {
                        std::thread::sleep(g);
                    }
                    let t = Instant::now();
                    let ok = matches!(client.request(&Request::Ping), Ok(Response::Pong));
                    (t.elapsed().as_nanos() as f64 / 1e3, ok)
                })
                .collect::<Vec<_>>()
        };
        let hot = rtt(None);
        let idle = rtt(Some(WAKE_GAP));
        let _ = client.request(&Request::Shutdown);
        drop(client);
        let _ = server.join();
        (hot, idle)
    });
    for (_, ok) in hot.iter().chain(&idle) {
        attempted += 1;
        failed += u64::from(!ok);
    }
    let med = |v: &[(f64, bool)]| median(&v.iter().map(|(t, _)| *t).collect::<Vec<_>>());
    m.push(("server.idle_wakeup_us", med(&idle) - med(&hot)));

    notes.push(("refresh_diagnostics".to_string(), Json::Arr(diagnostics)));
    notes.push(("refresh_cycles".to_string(), Json::Int(cycles)));
    notes.push((
        "features_read".to_string(),
        Json::Int(read_features.len() as u64),
    ));
    notes.push(("features_binned".to_string(), Json::Int(n_features as u64)));
    notes.push(("read_sample".to_string(), Json::Int(payloads.len() as u64)));
    notes.push((
        "contributions".to_string(),
        Json::Int(contribs.len() as u64),
    ));
    notes.push(("offered_rps".to_string(), Json::Num(busy_rps(w))));

    // Order the emitted metrics as the table does.
    let mut metrics = Vec::new();
    for &(name, unit, ..) in LAYER_METRICS {
        let value = m
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v);
        metrics.push((name, value, unit));
    }
    let report = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Int(seed)),
        (
            "cpus_available",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "gdcm_threads",
            std::env::var("GDCM_THREADS").map_or(Json::Null, Json::Str),
        ),
        (
            "metrics",
            Json::Arr(
                LAYER_METRICS
                    .iter()
                    .zip(&metrics)
                    .map(|(&(name, unit, better, moves, workload), (_, value, _))| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better)),
                            ("moves", Json::str(moves)),
                            ("workload", Json::str(workload)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("notes", Json::Obj(notes)),
        (
            "peak_rss_kb",
            crate::stats::peak_rss_kb().map_or(Json::Null, Json::Int),
        ),
        ("spans", tr.to_json()),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
    ]);
    Outcome {
        metrics,
        attempted,
        failed,
        report,
    }
}
