//! The untraced end-to-end run: boot the server from disk (timed), drive
//! the workload's phases over binary-v1 TCP, then gate every answer.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdcm_gen::{RandomNetworkGenerator, SearchSpace};
use gdcm_serve::refresh::{DEFAULT_WAL_COMPACT_RECORDS, DEFAULT_WARM_BOOST};
use gdcm_serve::{
    load_repository, replay_record, serve_with_ingest, BinClient, IngestPipeline, RefreshConfig,
    Request, ServeConfig, ServerConfig, ServingRepository, WalRecord, WriteAheadLog,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::gate::{self, EpochLog, SuiteMemo};
use crate::json::Json;
use crate::load::{self, Clock, Frame, Lane, LoadConn, Resp, Sent};
use crate::stats::{
    peak_rss_kb, percentile, resolvable_percentile, steal_ticks, summary, windowed,
};
use crate::stream::{append_frame, mix, Cand, ContribStream, Read, ReadStream, Workload, Zipf};
use crate::world::World;

/// Fixed offered loads (requests/s), chosen from a capacity probe and
/// then frozen (see README.md for how).
pub const NAS_BUSY_RPS: f64 = 2000.0;
pub const ZOO_BUSY_RPS: f64 = 10000.0;
pub const INGEST_READ_RPS: f64 = 2000.0;
pub const IDLE_RPS: f64 = 100.0;
pub const INGEST_CONTRIB_RPS: f64 = 100.0;
/// Contribution rate of the write phase of the read-only workloads.
pub const PROBE_CONTRIB_RPS: f64 = 250.0;
/// Pipelining depth of the saturation phase.
pub const SAT_DEPTH: u64 = 32;
/// Closed-loop rounds of the saturation phase; `sat_rps` summarises them
/// (see [`BEST_QUARTER`]).
pub const SAT_ROUNDS: u64 = 8;
/// Untimed closed-loop rounds before them.
pub const SAT_WARMUP_ROUNDS: u64 = 3;
/// Open-loop rounds of the busy phase of `nas_sweep` and `zoo_hot`;
/// `p50_us` summarises them (see [`BEST_QUARTER`]).
pub const BUSY_ROUNDS: u64 = 12;
/// The result line's round statistics take this quantile of their
/// per-round values (its complement for `sat_rps`): the least-disturbed
/// quarter of a run's rounds, which moves least with host steal when a
/// whole run is disturbed.
pub const BEST_QUARTER: f64 = 0.25;
/// Rounds of the idle phase.
pub const IDLE_ROUNDS: u64 = 8;
/// Rounds of the write phase of `nas_sweep` and `zoo_hot`. Together
/// with its one spare round it stays under the WAL's 1,024-record
/// compaction backstop.
pub const WRITE_ROUNDS: u64 = 4;
/// Cold starts per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Contributions already in the WAL when `ingest_refit` starts.
pub const PRELOAD_RECORDS: usize = 128;
/// Background refresh threshold of `ingest_refit`.
pub const INGEST_REFRESH_ROWS: usize = 256;
/// Samples per window of the latency medians-of-windows (see
/// [`latency_windows`]).
const SAMPLES_PER_WINDOW: usize = 250;

/// Windows for a latency sample of `n`: enough samples in each for a
/// p99, at least 4 and at most 32 windows.
fn latency_windows(n: usize) -> usize {
    (n / SAMPLES_PER_WINDOW).clamp(4, 32)
}

/// A phase is invalid when its generator's p99 lateness exceeds this
/// (µs) and one request gap: the load was not offered on schedule.
pub const LATE_LIMIT_US: f64 = 1000.0;

/// `--seconds` when none is given (the benchmark's `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Shares of `--seconds` given to each open-loop phase (the saturation
/// rounds are sized in requests, see [`sat_round_len`]). `ingest_refit` writes
/// during its busy phase; the other workloads write in a phase of
/// their own after the reads.
const BUSY_SHARE: f64 = 0.3;
const INGEST_BUSY_SHARE: f64 = 0.4;
const IDLE_SHARE: f64 = 0.3;
const WRITE_SHARE: f64 = 0.16;

/// Request-id lanes: the id's top bits name the lane, the low bits the
/// position in that lane's seeded stream.
pub const LANE_PROBE: u64 = 1;
pub const LANE_SAT: u64 = 2;
pub const LANE_BUSY: u64 = 3;
pub const LANE_IDLE: u64 = 4;
pub const LANE_CONTRIB: u64 = 5;
pub const LANE_FIT: u64 = 6;
pub const LANE_IDLE_B: u64 = 7;
const LANE_SHIFT: u32 = 40;

pub fn request_id(lane: u64, index: u64) -> u64 {
    (lane << LANE_SHIFT) | index
}

fn lane_name(lane: u64) -> &'static str {
    match lane {
        LANE_SAT => "sat",
        LANE_BUSY => "busy",
        LANE_IDLE => "idle",
        LANE_IDLE_B => "idle-b",
        _ => "probe",
    }
}

pub fn busy_rps(w: Workload) -> f64 {
    match w {
        Workload::NasSweep => NAS_BUSY_RPS,
        Workload::ZooHot => ZOO_BUSY_RPS,
        Workload::IngestRefit => INGEST_READ_RPS,
    }
}

pub fn refresh_config(w: Workload) -> RefreshConfig {
    match w {
        Workload::IngestRefit => RefreshConfig {
            refresh_rows: INGEST_REFRESH_ROWS,
            warm_boost: DEFAULT_WARM_BOOST,
            wal_compact_records: DEFAULT_WAL_COMPACT_RECORDS,
        },
        _ => RefreshConfig::default(),
    }
}

/// The seeded read stream of one lane.
pub fn read_stream<'w>(
    world: &'w World,
    w: Workload,
    seed: u64,
    lane: u64,
    zipf: &Option<Arc<Zipf>>,
) -> ReadStream<'w> {
    ReadStream::new(world, w.reads(), seed, lane_name(lane), zipf.clone())
}

/// The seeded live contribution stream (after the WAL preload's cells).
pub fn contrib_stream(world: &World, w: Workload, seed: u64) -> ContribStream<'_> {
    ContribStream::new(world, w.contributions(), seed, "live", PRELOAD_RECORDS)
}

/// The WAL preload of `ingest_refit`.
pub fn preload_stream(world: &World, w: Workload, seed: u64) -> ContribStream<'_> {
    ContribStream::new(world, w.contributions(), seed, "preload", 0)
}

/// The fixed setup probe: one fresh network on device 0.
pub fn probe_read() -> Read {
    let net = RandomNetworkGenerator::new(SearchSpace::mobile(), mix(0, "setup-probe"))
        .generate("setup-probe")
        .expect("mobile search space generates valid networks");
    Read {
        device: 0,
        batch: false,
        cands: vec![Cand::Fresh(net)],
    }
}

pub fn frame_read(world: &World, id: u64, read: Read) -> Vec<u8> {
    let mut buf = Vec::new();
    append_frame(&mut buf, id, &read.into_request(world));
    buf
}

/// Files of one run, under the benchmark's work directory.
pub struct RunDirs {
    pub dir: PathBuf,
    pub snap: PathBuf,
    pub wal: PathBuf,
    pub wal_template: PathBuf,
    pub base: PathBuf,
}

impl RunDirs {
    pub fn new(work: &Path, base: PathBuf, tag: &str) -> Self {
        let dir = work.join(format!("run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("run directory is creatable");
        Self {
            snap: dir.join("repo.snapshot.json"),
            wal: dir.join("repo.wal"),
            wal_template: dir.join("preload.wal"),
            dir,
            base,
        }
    }
}

impl Drop for RunDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Writes the WAL every cold start of this run opens.
pub fn write_wal_template(world: &World, w: Workload, seed: u64, dirs: &RunDirs) {
    let (mut wal, ..) = WriteAheadLog::open(&dirs.wal_template).expect("WAL template opens");
    if w == Workload::IngestRefit {
        for c in preload_stream(world, w, seed).take(PRELOAD_RECORDS) {
            let record = WalRecord::Contribute {
                device: world.names[c.device].clone(),
                latency_ms: c.latency_ms,
                network: c.cand.network(world).clone(),
            };
            wal.append(&record).expect("WAL template appends");
        }
    }
}

/// A booted server and its first connection.
pub struct Live<'a> {
    pub serving: &'a ServingRepository,
    pub pipeline: &'a IngestPipeline<'a>,
    pub addr: SocketAddr,
    pub conn: LoadConn,
}

/// Cold-starts the server from the run's snapshot + WAL, times the
/// start up to the first answered request, hands the live server to
/// `body`, then shuts it down and waits for it.
pub fn session<R>(
    world: &World,
    dirs: &RunDirs,
    refresh: RefreshConfig,
    clock: Clock,
    body: impl FnOnce(Live<'_>) -> R,
) -> (f64, Option<Resp>, R) {
    std::fs::copy(&dirs.base, &dirs.snap).expect("snapshot copies");
    std::fs::copy(&dirs.wal_template, &dirs.wal).expect("WAL copies");
    let probe_id = request_id(LANE_PROBE, 0);
    let probe = frame_read(world, probe_id, probe_read());

    let t0 = Instant::now();
    let mut repo = load_repository(&dirs.snap).expect("snapshot loads and passes audit");
    let (wal, records, _) = WriteAheadLog::open(&dirs.wal).expect("WAL opens");
    for record in &records {
        replay_record(&mut repo, record);
    }
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let pipeline = IngestPipeline::with_wal(&serving, wal, &dirs.snap, refresh);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener binds");
    let addr = listener.local_addr().expect("listener has an address");
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_with_ingest(
                listener,
                None,
                &serving,
                Some(&pipeline),
                ServerConfig::default(),
            )
        });
        let mut conn = LoadConn::connect(addr, clock).expect("client connects");
        let answer = conn.round_trip(probe_id, probe, Duration::from_secs(60));
        let setup_s = t0.elapsed().as_secs_f64();
        let out = body(Live {
            serving: &serving,
            pipeline: &pipeline,
            addr,
            conn,
        });
        let mut stopper = BinClient::connect(addr).expect("shutdown client connects");
        let _ = stopper.request(&Request::Shutdown);
        drop(stopper);
        let _ = server.join();
        (setup_s, answer, out)
    })
}

/// Everything a run reports.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub report: Json,
}

/// The live phase results a workload body hands back.
struct Traffic {
    log: EpochLog,
    warmup: Vec<load::ClosedRound>,
    sat: Vec<(load::ClosedRound, bool)>,
    phases: Vec<PhaseRec>,
    responses: HashMap<u64, (u64, Vec<u8>)>,
    refreshes: u64,
    refreshes_rejected: u64,
    live_probe: Vec<(Read, Option<u64>)>,
}

fn collect(into: &mut HashMap<u64, (u64, Vec<u8>)>, resps: Vec<Resp>) {
    for r in resps {
        into.insert(r.id, (r.recv_ns, r.payload));
    }
}

fn secs(share: f64, seconds: f64) -> f64 {
    (share * seconds).max(0.05)
}

fn busy_secs(w: Workload, seconds: f64) -> f64 {
    secs(
        if w == Workload::IngestRefit {
            INGEST_BUSY_SHARE
        } else {
            BUSY_SHARE
        },
        seconds,
    )
}

/// Requests per saturation round: about a quarter second of the
/// saturated rate at the default `--seconds`.
pub fn sat_round_len(w: Workload, seconds: f64) -> u64 {
    let at_default = match w {
        Workload::ZooHot => 8000.0,
        Workload::NasSweep | Workload::IngestRefit => 1500.0,
    };
    (at_default * seconds / DEFAULT_SECONDS).max(64.0) as u64
}

/// Contributions one run of `w` sends.
pub fn write_count(w: Workload, seconds: f64) -> usize {
    match w {
        Workload::IngestRefit => (INGEST_CONTRIB_RPS * busy_secs(w, seconds)) as usize,
        _ => (PROBE_CONTRIB_RPS * secs(WRITE_SHARE, seconds)).max(WRITE_ROUNDS as f64) as usize,
    }
}

/// One lane of `count` requests at a mean `rps` from `start_s`, with
/// seeded Poisson arrivals (`seed` = `None` spaces them evenly).
fn lane<'s, F>(
    scope: &'s std::thread::Scope<'s, '_>,
    conn: usize,
    start_s: f64,
    rps: f64,
    count: u64,
    seed: Option<u64>,
    make: F,
) -> Lane
where
    F: FnMut(u64) -> Frame + Send + 's,
{
    let mean_ns = 1e9 / rps;
    let mut rng = seed.map(ChaCha8Rng::seed_from_u64);
    let mut t = start_s * 1e9;
    let due_ns = (0..count)
        .map(|_| {
            let due = t as u64;
            t += match rng.as_mut() {
                // Exponential gaps: -ln(U) * mean, U in (0, 1].
                Some(rng) => -(1.0 - rng.gen::<f64>()).ln() * mean_ns,
                None => mean_ns,
            };
            due
        })
        .collect();
    Lane {
        conn,
        due_ns,
        interval_ns: mean_ns as u64,
        frames: load::producer(scope, 512, count, make),
        direct: false,
    }
}

/// A round is clean when the hypervisor stole at most this many clock
/// ticks from the VM while it ran.
pub const STEAL_LIMIT_TICKS: u64 = 1;

/// Whether no more than [`STEAL_LIMIT_TICKS`] were stolen since `before`.
fn steal_clean(before: Option<u64>) -> bool {
    match (before, steal_ticks()) {
        (Some(a), Some(b)) => b.saturating_sub(a) <= STEAL_LIMIT_TICKS,
        _ => true,
    }
}

/// Runs `round(k)` until `base` rounds reported themselves clean
/// (complete, and timed without hypervisor steal) or `base + extra`
/// rounds ran. Every round's requests count and are gated; the
/// statistics use the clean rounds (see [`usable`]).
fn steal_rounds(base: u64, extra: u64, mut round: impl FnMut(u64) -> bool) {
    let mut clean = 0;
    let mut k = 0;
    while clean < base && k < base + extra {
        clean += u64::from(round(k));
        k += 1;
    }
}

/// The rounds a statistic uses: the clean ones when at least half the
/// planned rounds were clean, otherwise all of them.
fn usable<T>(rounds: &[(T, bool)], base: u64) -> Vec<&T> {
    let clean: Vec<&T> = rounds.iter().filter(|r| r.1).map(|r| &r.0).collect();
    if clean.len() as u64 * 2 >= base {
        clean
    } else {
        rounds.iter().map(|r| &r.0).collect()
    }
}

/// A lane of frames built beforehand, written on the generator thread.
fn prebuilt<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    conn: usize,
    rps: f64,
    arrivals: Option<u64>,
    frames: Vec<Frame>,
) -> Lane {
    let count = frames.len() as u64;
    let mut it = frames.into_iter();
    let mut l = lane(scope, conn, 0.0, rps, count, arrivals, move |_| {
        it.next().expect("pre-built frame")
    });
    // The server is reading throughout: no writer hand-off.
    l.direct = true;
    l
}

/// One open-loop phase as recorded: name, lanes, and whether it ran
/// clean of hypervisor steal.
pub struct PhaseRec {
    pub name: String,
    pub phase: load::OpenPhase,
    pub lanes: Vec<u64>,
    pub clean: bool,
}

fn workload_traffic(
    world: &World,
    w: Workload,
    seed: u64,
    seconds: f64,
    clock: Clock,
    zipf: &Option<Arc<Zipf>>,
    live: Live<'_>,
) -> Traffic {
    let Live {
        serving,
        pipeline,
        addr,
        conn: mut a,
    } = live;
    let mut b = LoadConn::connect(addr, clock).expect("write connection connects");
    let log = EpochLog::capture(world, serving, clock);
    let stop = AtomicBool::new(false);
    let mut responses = HashMap::new();
    let mut phases: Vec<PhaseRec> = Vec::new();
    let mut warmup = Vec::new();
    let drain = Duration::from_secs(120);
    let arrivals = |tag: &str| Some(mix(seed, &format!("arrivals/{tag}")));
    let read_frames =
        |stream: &mut ReadStream<'_>, lane_id: u64, from: u64, n: u64| -> Vec<Frame> {
            (from..from + n)
                .map(|i| {
                    let id = request_id(lane_id, i);
                    (
                        id,
                        frame_read(world, id, stream.next().expect("streams are endless")),
                    )
                })
                .collect()
        };
    let (sat, live_probe) = std::thread::scope(|s| {
        s.spawn(|| log.watch(world, serving, clock, &stop));

        // Saturation: closed loop, one connection, depth 32, in rounds
        // of frames built before each round starts, so building the
        // fresh networks never competes with the server being timed.
        let mut sat_stream = read_stream(world, w, seed, LANE_SAT, zipf);
        let per_round = sat_round_len(w, seconds);
        // Warm-up rounds first (answers gated, not timed): zoo_hot's
        // caches fill over the first tens of thousands of requests.
        let mut sat = Vec::new();
        for k in 0..SAT_WARMUP_ROUNDS {
            let frames = read_frames(&mut sat_stream, LANE_SAT, k * per_round, per_round);
            warmup.push(load::closed_round(clock, &mut a, SAT_DEPTH, frames, drain));
        }
        steal_rounds(SAT_ROUNDS, SAT_ROUNDS / 2, |k| {
            let frames = read_frames(
                &mut sat_stream,
                LANE_SAT,
                (SAT_WARMUP_ROUNDS + k) * per_round,
                per_round,
            );
            let before = steal_ticks();
            let round = load::closed_round(clock, &mut a, SAT_DEPTH, frames, drain);
            let clean = round.complete && steal_clean(before);
            sat.push((round, clean));
            clean
        });
        collect(&mut responses, a.take_responses());

        // Busy: open loop at the workload's fixed mean rate.
        let busy_s = busy_secs(w, seconds);
        let rps = busy_rps(w);
        let mut busy_stream = read_stream(world, w, seed, LANE_BUSY, zipf);
        let mut contrib = contrib_stream(world, w, seed);
        let mut contrib_frames = |from: u64, n: u64| -> Vec<Frame> {
            (from..from + n)
                .map(|i| {
                    let id = request_id(LANE_CONTRIB, i);
                    let mut buf = Vec::new();
                    append_frame(
                        &mut buf,
                        id,
                        &contrib
                            .next()
                            .expect("streams are endless")
                            .into_request(world),
                    );
                    (id, buf)
                })
                .collect()
        };
        let fit_lane = |s, start_s: f64| {
            let id = request_id(LANE_FIT, 0);
            lane(s, 1, start_s, 1.0, 1, None, move |_| {
                let mut buf = Vec::new();
                append_frame(&mut buf, id, &Request::Fit);
                (id, buf)
            })
        };
        if w == Workload::IngestRefit {
            // One continuous phase with the write lane and one Fit at 2/3
            // of it: the Fit's stall must land inside the phase. Reads
            // are built on the fly (the stall would pile up pre-built
            // frames) and queued to the writer threads, so the
            // generator never blocks on a stalled socket.
            let count = (rps * busy_s) as u64;
            let contribs = contrib_frames(0, write_count(w, seconds) as u64);
            let n_contribs = contribs.len() as u64;
            let mut contribs = contribs.into_iter();
            let lanes = vec![
                lane(s, 0, 0.0, rps, count, arrivals("busy"), move |i| {
                    let id = request_id(LANE_BUSY, i);
                    (
                        id,
                        frame_read(world, id, busy_stream.next().expect("streams are endless")),
                    )
                }),
                // Evenly spaced, so the refresh threshold is crossed at
                // the same times in every run.
                lane(s, 1, 0.0, INGEST_CONTRIB_RPS, n_contribs, None, move |_| {
                    contribs.next().expect("pre-built contribution")
                }),
                fit_lane(s, busy_s * 2.0 / 3.0),
            ];
            let before = steal_ticks();
            let busy = load::open_loop(clock, &mut [&mut a, &mut b], lanes);
            a.drain(drain);
            b.drain(drain);
            collect(&mut responses, a.take_responses());
            collect(&mut responses, b.take_responses());
            phases.push(PhaseRec {
                name: "busy".to_string(),
                phase: busy,
                lanes: vec![LANE_BUSY, LANE_CONTRIB, LANE_FIT],
                clean: steal_clean(before),
            });
        } else {
            // Rounds of frames built before each round starts; each
            // round is one window of the round statistics.
            let per_round = ((rps * busy_s) as u64 / BUSY_ROUNDS).max(1);
            steal_rounds(BUSY_ROUNDS, BUSY_ROUNDS / 2, |k| {
                let frames = read_frames(&mut busy_stream, LANE_BUSY, k * per_round, per_round);
                let l = prebuilt(s, 0, rps, arrivals(&format!("busy-{k}")), frames);
                let before = steal_ticks();
                let busy = load::open_loop(clock, &mut [&mut a, &mut b], vec![l]);
                let ok = a.drain(drain);
                let clean = steal_clean(before);
                collect(&mut responses, a.take_responses());
                phases.push(PhaseRec {
                    name: format!("busy-{k}"),
                    phase: busy,
                    lanes: vec![LANE_BUSY],
                    clean,
                });
                ok && clean
            });
        }

        // Idle: 100 req/s on each connection (one per event-loop shard),
        // so every shard parks between requests; in rounds.
        let per_round = ((IDLE_RPS * secs(IDLE_SHARE, seconds)) as u64 / IDLE_ROUNDS).max(1);
        let mut idle_a = read_stream(world, w, seed, LANE_IDLE, zipf);
        let mut idle_b = read_stream(world, w, seed, LANE_IDLE_B, zipf);
        steal_rounds(IDLE_ROUNDS, 0, |k| {
            let lanes = vec![
                prebuilt(
                    s,
                    0,
                    IDLE_RPS,
                    arrivals(&format!("idle-{k}")),
                    read_frames(&mut idle_a, LANE_IDLE, k * per_round, per_round),
                ),
                prebuilt(
                    s,
                    1,
                    IDLE_RPS,
                    arrivals(&format!("idle-b-{k}")),
                    read_frames(&mut idle_b, LANE_IDLE_B, k * per_round, per_round),
                ),
            ];
            let before = steal_ticks();
            let idle = load::open_loop(clock, &mut [&mut a, &mut b], lanes);
            let ok = a.drain(drain) & b.drain(drain);
            let clean = steal_clean(before);
            collect(&mut responses, a.take_responses());
            collect(&mut responses, b.take_responses());
            phases.push(PhaseRec {
                name: format!("idle-{k}"),
                phase: idle,
                lanes: vec![LANE_IDLE, LANE_IDLE_B],
                clean,
            });
            ok && clean
        });

        // Writes of the read-only workloads: contributions in rounds,
        // then a Fit.
        if w != Workload::IngestRefit {
            let per_round = (write_count(w, seconds) as u64 / WRITE_ROUNDS).max(1);
            steal_rounds(WRITE_ROUNDS, 1, |k| {
                let l = prebuilt(
                    s,
                    1,
                    PROBE_CONTRIB_RPS,
                    arrivals(&format!("contrib-{k}")),
                    contrib_frames(k * per_round, per_round),
                );
                let before = steal_ticks();
                let writes = load::open_loop(clock, &mut [&mut a, &mut b], vec![l]);
                let ok = b.drain(drain);
                let clean = steal_clean(before);
                collect(&mut responses, b.take_responses());
                phases.push(PhaseRec {
                    name: format!("writes-{k}"),
                    phase: writes,
                    lanes: vec![LANE_CONTRIB],
                    clean,
                });
                ok && clean
            });
            let fit = load::open_loop(clock, &mut [&mut a, &mut b], vec![fit_lane(s, 0.0)]);
            b.drain(drain);
            collect(&mut responses, b.take_responses());
            phases.push(PhaseRec {
                name: "fit".to_string(),
                phase: fit,
                lanes: vec![LANE_FIT],
                clean: true,
            });
        }

        // What the live server answers now, for the restart check.
        let live_probe: Vec<(Read, Option<u64>)> =
            ReadStream::new(world, w.reads(), seed, "restart-probe", zipf.clone())
                .take(32)
                .map(|r| {
                    let bits = r.cands.first().and_then(|c| {
                        serving
                            .predict(&world.names[r.device], c.network(world))
                            .ok()
                            .map(f64::to_bits)
                    });
                    (r, bits)
                })
                .collect();
        stop.store(true, std::sync::atomic::Ordering::Release);
        (sat, live_probe)
    });
    a.close();
    b.close();
    Traffic {
        log,
        warmup,
        sat,
        phases,
        responses,
        refreshes: pipeline.refreshes(),
        refreshes_rejected: pipeline.refreshes_rejected(),
        live_probe,
    }
}

/// `(due time, latency µs)` of each sent request that was answered,
/// latency counted from the due time.
fn latencies_us(sent: &[Sent], responses: &HashMap<u64, (u64, Vec<u8>)>) -> Vec<(u64, f64)> {
    sent.iter()
        .filter_map(|s| {
            responses
                .get(&s.id)
                .map(|(recv, _)| (s.due_ns, recv.saturating_sub(s.due_ns) as f64 / 1e3))
        })
        .collect()
}

fn values(samples: &[(u64, f64)]) -> Vec<f64> {
    samples.iter().map(|s| s.1).collect()
}

/// Checks every read of one lane against the regenerated stream.
fn gate_reads(
    world: &World,
    log: &EpochLog,
    memo: &SuiteMemo,
    mut stream: ReadStream<'_>,
    sent: &[Sent],
    responses: &HashMap<u64, (u64, Vec<u8>)>,
) -> u64 {
    let mut failed = 0;
    for chunk in sent.chunks(1024) {
        let reads: Vec<Read> = chunk
            .iter()
            .map(|_| stream.next().expect("streams are endless"))
            .collect();
        let half = chunk.len().div_ceil(2);
        let check = |rs: &[Read], ss: &[Sent]| {
            rs.iter()
                .zip(ss)
                .filter(|(r, s)| {
                    let answer = responses.get(&s.id).map(|(t, p)| (p.as_slice(), *t));
                    !gate::check_read(world, log, memo, r, s.sent_ns, answer)
                })
                .count() as u64
        };
        failed += std::thread::scope(|s| {
            let h = s.spawn(|| check(&reads[half..], &chunk[half..]));
            check(&reads[..half], &chunk[..half]) + h.join().expect("gate worker")
        });
    }
    failed
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
    let steal_before = steal_ticks();
    let dirs = RunDirs::new(work, base, w.name());
    write_wal_template(world, w, seed, &dirs);
    let zipf = (w == Workload::ZooHot).then(|| Arc::new(Zipf::new(world, seed)));
    let refresh = refresh_config(w);

    let mut setups = Vec::new();
    let mut probes = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let (setup_s, answer, ()) = session(world, &dirs, refresh, clock, |live| live.conn.close());
        setups.push(setup_s);
        probes.push(answer);
    }
    let (setup_s, answer, traffic) = session(world, &dirs, refresh, clock, |live| {
        workload_traffic(world, w, seed, seconds, clock, &zipf, live)
    });
    setups.push(setup_s);
    probes.push(answer);

    // ---- correctness gate ----
    let log = &traffic.log;
    let memo: SuiteMemo = Default::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let probe = probe_read();
    for answer in &probes {
        attempted += 1;
        let ok = answer.as_ref().is_some_and(|r| {
            gate::check_read(
                world,
                log,
                &memo,
                &probe,
                0,
                Some((r.payload.as_slice(), r.recv_ns)),
            )
        });
        failed += u64::from(!ok);
    }
    let responses = &traffic.responses;
    let sat_sent: Vec<Sent> = traffic
        .warmup
        .iter()
        .chain(traffic.sat.iter().map(|r| &r.0))
        .flat_map(|r| r.sent.iter().copied())
        .collect();
    attempted += sat_sent.len() as u64;
    failed += gate_reads(
        world,
        log,
        &memo,
        read_stream(world, w, seed, LANE_SAT, &zipf),
        &sat_sent,
        responses,
    );
    let mut by_lane: std::collections::BTreeMap<u64, Vec<Sent>> = Default::default();
    for rec in &traffic.phases {
        for (sent, &lane) in rec.phase.sent.iter().zip(&rec.lanes) {
            by_lane.entry(lane).or_default().extend_from_slice(sent);
        }
    }
    for (&lane, sent) in &by_lane {
        attempted += sent.len() as u64;
        failed += match lane {
            LANE_CONTRIB | LANE_FIT => sent
                .iter()
                .filter(|s| !responses.get(&s.id).is_some_and(|(_, p)| gate::is_ok(p)))
                .count() as u64,
            _ => gate_reads(
                world,
                log,
                &memo,
                read_stream(world, w, seed, lane, &zipf),
                sent,
                responses,
            ),
        };
    }
    let lane_sent = |lane: u64| by_lane.get(&lane).map_or(&[][..], Vec::as_slice);
    let contrib_sent = lane_sent(LANE_CONTRIB);
    let fit_sent = lane_sent(LANE_FIT);

    // Restart from disk: snapshot + WAL replay must rebuild exactly the
    // live state (every acked contribution applied once, in order).
    let mut restart = Json::Null;
    if w == Workload::IngestRefit {
        let (ok, detail) = restart_check(
            world,
            w,
            seed,
            &dirs,
            contrib_sent,
            responses,
            &traffic.live_probe,
        );
        attempted += 1;
        failed += u64::from(!ok);
        restart = detail;
    }

    // ---- metrics ----
    // Medians over rounds (or, for one continuous phase, over equal time
    // windows) resist what the host does to single stretches of time.
    // The tails of ingest_refit are the Fit stall itself, so there they
    // are taken over the whole phase, stall included.
    let busy_lat = latencies_us(lane_sent(LANE_BUSY), responses);
    let contrib_lat = latencies_us(contrib_sent, responses);
    let fit_lat = latencies_us(fit_sent, responses);
    let round_lat = |prefix: &str, base: u64| -> Vec<Vec<(u64, f64)>> {
        let rounds: Vec<(Vec<(u64, f64)>, bool)> = traffic
            .phases
            .iter()
            .filter(|r| r.name.starts_with(prefix))
            .map(|r| {
                (
                    r.phase
                        .sent
                        .iter()
                        .flat_map(|s| latencies_us(s, responses))
                        .collect(),
                    r.clean,
                )
            })
            .collect();
        usable(&rounds, base).into_iter().cloned().collect()
    };
    // `p` within each round, then quantile `q` across the rounds.
    let over_rounds = |rounds: &[Vec<(u64, f64)>], p: f64, q: f64| {
        percentile(
            &rounds
                .iter()
                .map(|r| percentile(&values(r), p))
                .collect::<Vec<_>>(),
            q,
        )
    };
    let whole = |lat: &[(u64, f64)], p: f64| percentile(&values(lat), p);
    let mid = |lat: &[(u64, f64)]| windowed(lat, latency_windows(lat.len()), 0.5);
    let idle_rounds = round_lat("idle-", IDLE_ROUNDS);
    let (busy_p50, busy_p99, contrib_p50, contrib_p99) = if w == Workload::IngestRefit {
        (
            mid(&busy_lat),
            whole(&busy_lat, 0.99),
            mid(&contrib_lat),
            whole(&contrib_lat, 0.99),
        )
    } else {
        let busy = round_lat("busy-", BUSY_ROUNDS);
        let writes = round_lat("writes-", WRITE_ROUNDS);
        (
            over_rounds(&busy, 0.5, BEST_QUARTER),
            over_rounds(&busy, 0.99, 0.5),
            over_rounds(&writes, 0.5, 0.5),
            over_rounds(&writes, 0.99, 0.5),
        )
    };
    let sat_rates: Vec<(f64, bool)> = traffic
        .sat
        .iter()
        .map(|(r, clean)| {
            (
                r.sent.len() as f64 / ((r.end_ns - r.start_ns) as f64 / 1e9),
                *clean,
            )
        })
        .collect();
    let sat_rps = percentile(
        &usable(&sat_rates, SAT_ROUNDS)
            .into_iter()
            .copied()
            .collect::<Vec<_>>(),
        1.0 - BEST_QUARTER,
    );
    let rounds_clean = |prefix: &str| {
        let all: Vec<&PhaseRec> = traffic
            .phases
            .iter()
            .filter(|r| r.name.starts_with(prefix))
            .collect();
        Json::obj([
            ("rounds", Json::Int(all.len() as u64)),
            (
                "clean",
                Json::Int(all.iter().filter(|r| r.clean).count() as u64),
            ),
        ])
    };
    let metrics = vec![
        ("setup_s", percentile(&setups, 0.5), "s"),
        ("sat_rps", sat_rps, "1/s"),
        ("p50_us", busy_p50, "us"),
        (
            "idle_p50_us",
            over_rounds(&idle_rounds, 0.5, BEST_QUARTER),
            "us",
        ),
        (
            "fit_s",
            fit_lat.first().map_or(f64::NAN, |s| s.1 / 1e6),
            "s",
        ),
    ];
    // Measured every run but kept out of the result line: on a shared
    // host these tails and the fsync-bound acks swing more between runs
    // than any useful regression bound (see README.md).
    let report_only = [
        ("p99_us", busy_p99),
        ("idle_p99_us", over_rounds(&idle_rounds, 0.99, 0.5)),
        ("contribute_p50_us", contrib_p50),
        ("contribute_p99_us", contrib_p99),
    ];

    // ---- open-loop validity ----
    let mut validity = Vec::new();
    for PhaseRec {
        name,
        phase,
        lanes,
        clean,
    } in &traffic.phases
    {
        let all: Vec<&Sent> = phase.sent.iter().flatten().collect();
        let late: Vec<f64> = all
            .iter()
            .map(|s| s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e3)
            .collect();
        let last_due = all.iter().map(|s| s.due_ns).max().unwrap_or(phase.end_ns);
        let backlog = all
            .iter()
            .filter(|s| {
                responses
                    .get(&s.id)
                    .is_none_or(|(recv, _)| *recv > last_due)
            })
            .count();
        let late_p99 = percentile(&late, 0.99);
        validity.push((
            name.clone(),
            Json::obj([
                (
                    "lanes",
                    Json::Arr(lanes.iter().map(|&l| Json::Int(l)).collect()),
                ),
                ("requests", Json::Int(all.len() as u64)),
                ("generator_late_p99_us", Json::Num(late_p99)),
                ("backlog_at_end", Json::Int(backlog as u64)),
                ("steal_clean", Json::Bool(*clean)),
                (
                    "valid",
                    Json::Bool(late_p99 <= LATE_LIMIT_US.max(phase.min_interval_ns as f64 / 1e3)),
                ),
            ]),
        ));
    }
    let refresh_total = traffic.refreshes + traffic.refreshes_rejected;
    let report = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        (
            "cpus_available",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "gdcm_threads",
            std::env::var("GDCM_THREADS").map_or(Json::Null, Json::Str),
        ),
        (
            "server_workers",
            Json::Int(ServerConfig::default().workers as u64),
        ),
        ("offered_rps", Json::Num(busy_rps(w))),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(n, v, _)| (*n, Json::Num(*v)))),
        ),
        (
            "report_only_metrics",
            Json::obj(report_only.iter().map(|(n, v)| (*n, Json::Num(*v)))),
        ),
        (
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "steal_ticks",
            match (steal_before, steal_ticks()) {
                (Some(a), Some(b)) => Json::Int(b.saturating_sub(a)),
                _ => Json::Null,
            },
        ),
        ("steal_limit_ticks_per_round", Json::Int(STEAL_LIMIT_TICKS)),
        ("peak_rss_kb", peak_rss_kb().map_or(Json::Null, Json::Int)),
        ("busy_latency_us", summary(&values(&busy_lat))),
        ("busy_before_fit_latency_us", {
            let fit_due = fit_sent.first().map_or(u64::MAX, |f| f.due_ns);
            summary(
                &busy_lat
                    .iter()
                    .filter(|l| l.0 < fit_due)
                    .map(|l| l.1)
                    .collect::<Vec<_>>(),
            )
        }),
        (
            "busy_window_p50_us",
            Json::Arr(
                crate::stats::per_window(&busy_lat, latency_windows(busy_lat.len()), 0.5)
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
            ),
        ),
        ("contribute_latency_us", summary(&values(&contrib_lat))),
        ("busy_rounds", rounds_clean("busy-")),
        ("idle_rounds", rounds_clean("idle-")),
        ("write_rounds", rounds_clean("writes-")),
        (
            "resolvable_percentile_per_window",
            Json::obj([
                (
                    "busy",
                    Json::Num(resolvable_percentile(busy_lat.len() / BUSY_ROUNDS as usize)),
                ),
                (
                    "idle",
                    Json::Num(resolvable_percentile(
                        idle_rounds.first().map_or(0, Vec::len),
                    )),
                ),
            ]),
        ),
        (
            "sat",
            Json::obj([
                ("depth", Json::Int(SAT_DEPTH)),
                ("requests_per_round", Json::Int(sat_round_len(w, seconds))),
                ("warmup_rounds", Json::Int(SAT_WARMUP_ROUNDS)),
                (
                    "complete",
                    Json::Bool(traffic.sat.iter().all(|r| r.0.complete)),
                ),
                (
                    "round_rps",
                    Json::Arr(sat_rates.iter().map(|&(v, _)| Json::Num(v)).collect()),
                ),
                (
                    "round_clean",
                    Json::Arr(sat_rates.iter().map(|&(_, c)| Json::Bool(c)).collect()),
                ),
            ]),
        ),
        ("phases", Json::Obj(validity)),
        (
            "refresh",
            Json::obj([
                ("refreshes", Json::Int(traffic.refreshes)),
                ("refreshes_rejected", Json::Int(traffic.refreshes_rejected)),
                (
                    "refresh_fail_ratio",
                    if refresh_total == 0 {
                        Json::Null
                    } else {
                        Json::Num(traffic.refreshes_rejected as f64 / refresh_total as f64)
                    },
                ),
            ]),
        ),
        (
            "model_epochs_seen",
            Json::Int(log.models.lock().expect("epoch log lock").len() as u64),
        ),
        ("restart", restart),
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

/// Reloads snapshot + WAL from disk and compares against the live run.
fn restart_check(
    world: &World,
    w: Workload,
    seed: u64,
    dirs: &RunDirs,
    contrib_sent: &[Sent],
    responses: &HashMap<u64, (u64, Vec<u8>)>,
    live_probe: &[(Read, Option<u64>)],
) -> (bool, Json) {
    let Ok(mut repo) = load_repository(&dirs.snap) else {
        return (false, Json::str("snapshot failed to load"));
    };
    let Ok((_, records, _)) = WriteAheadLog::open(&dirs.wal) else {
        return (false, Json::str("WAL failed to open"));
    };
    for record in &records {
        replay_record(&mut repo, record);
    }
    let initial = world.base_cells.len() + PRELOAD_RECORDS;
    let mut stream = contrib_stream(world, w, seed);
    let acked: Vec<_> = contrib_sent
        .iter()
        .map(|s| {
            (
                stream.next().expect("streams are endless"),
                responses.get(&s.id).is_some_and(|(_, p)| gate::is_ok(p)),
            )
        })
        .filter_map(|(c, ok)| ok.then_some(c))
        .collect();
    let (x_rows, y) = repo.training_data();
    let rows_ok = y.len() == initial + acked.len();
    let once_ok = rows_ok
        && acked.iter().enumerate().all(|(i, c)| {
            let net = c.cand.network(world);
            y[initial + i] == c.latency_ms as f32 && x_rows[initial + i] == world.row(net, c.device)
        });
    let predict_ok = live_probe.iter().all(|(r, bits)| {
        let again = r
            .cands
            .first()
            .and_then(|c| repo.predict(&world.names[r.device], c.network(world)).ok())
            .map(f64::to_bits);
        again.is_some() && again == *bits
    });
    let ok = rows_ok && once_ok && predict_ok;
    (
        ok,
        Json::obj([
            ("rows", Json::Int(y.len() as u64)),
            ("expected_rows", Json::Int((initial + acked.len()) as u64)),
            ("acked_contributions", Json::Int(acked.len() as u64)),
            ("wal_records_replayed", Json::Int(records.len() as u64)),
            ("applied_exactly_once", Json::Bool(once_ok)),
            ("predictions_match_live", Json::Bool(predict_ok)),
        ]),
    )
}
