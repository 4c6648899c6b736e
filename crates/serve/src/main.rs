//! `gdcm-serve` — build, serve, and probe repository snapshots.
//!
//! ```text
//! gdcm-serve --build-zoo PATH [--devices N] [--seed S] [--random K]
//! gdcm-serve --snapshot PATH --addr HOST:PORT [--workers W] [--ops-addr HOST:PORT]
//!            [--wal PATH]
//! gdcm-serve --probe HOST:PORT --snapshot PATH [--seed S] [--random K]
//!            [--ops HOST:PORT [--ops-out PATH]] [--refresh N]
//! ```
//!
//! * `--build-zoo` trains a collaborative repository on the simulated
//!   zoo-plus-random benchmark suite (deterministic in `--seed`) and
//!   writes a versioned snapshot.
//! * `--snapshot --addr` loads the snapshot **under audit** and serves
//!   it over newline-delimited JSON TCP until a client sends
//!   `Shutdown`. Prints `LISTENING <addr>` once the listener is bound
//!   so scripts can synchronize. With `--ops-addr` a second listener
//!   serves the ops endpoint (`health` / `metrics` / `slowlog` /
//!   `quiesce`) and per-request telemetry records; it prints
//!   `OPS LISTENING <addr>` too. With `--wal` mutating requests are
//!   write-ahead logged (fsync before ack) at the given path; any
//!   records already in the log are replayed over the snapshot before
//!   serving starts (`WAL REPLAY ...` is printed), and — when
//!   `GDCM_SERVE_REFRESH_ROWS` is set — a background refresher refits
//!   after that many new contributions, swaps the audited model in
//!   without blocking readers, and compacts the log back into the
//!   snapshot file.
//! * `--probe` is the scripted client the CI smoke job runs: it loads
//!   the same snapshot locally, queries the server (ping / predict /
//!   batch / cached re-predict / stats), asserts every prediction is
//!   bit-identical to the local uncached path — with every prediction
//!   wrapped in a trace envelope whose u64 id must echo back unchanged
//!   on success *and* error responses — then re-runs the predictions
//!   over the binary wire protocol (sequential and pipelined, asserting
//!   frame-id echo and the same bits) before asking the server to shut
//!   down. With `--ops` it additionally drives the ops endpoint,
//!   asserts the windowed metrics saw its own load, and writes the
//!   `metrics` snapshot to `--ops-out` (default
//!   `target/reports/ops_metrics.json`). With `--refresh N` (requires
//!   `--ops`) it additionally streams `N` contributions at the server
//!   and polls `health` until the model epoch advances and the
//!   write-ahead log compacts to empty — proving a live refresh swapped
//!   a new model in while the connection kept answering. Exits non-zero
//!   on any mismatch.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_gen::{benchmark_suite_with, SearchSpace};
use gdcm_ml::GbdtParams;
use gdcm_serve::protocol::{codes, Request, Response};
use gdcm_serve::{
    load_repository, replay_record, serve, serve_with_ingest, serve_with_ops, BinClient, Client,
    IngestPipeline, OpsClient, RefreshConfig, ServeConfig, ServerConfig, ServingRepository,
    WriteAheadLog,
};

const USAGE: &str = "usage:
  gdcm-serve --build-zoo PATH [--devices N] [--seed S] [--random K]
  gdcm-serve --snapshot PATH --addr HOST:PORT [--workers W] [--ops-addr HOST:PORT]
             [--wal PATH]
  gdcm-serve --probe HOST:PORT --snapshot PATH [--seed S] [--random K]
             [--ops HOST:PORT [--ops-out PATH]] [--refresh N]

  --build-zoo PATH  train on the simulated zoo suite and write a snapshot
  --snapshot PATH   snapshot to serve (audited on load) or to probe against
  --addr HOST:PORT  listen address for serving
  --ops-addr ADDR   also serve the ops endpoint (health/metrics/slowlog/quiesce)
  --wal PATH        write-ahead log mutating requests here (replayed on start;
                    GDCM_SERVE_REFRESH_ROWS enables background refresh)
  --workers W       idle connection threads that may spin at once (default: GDCM_THREADS budget)
  --probe ADDR      act as the scripted smoke client against ADDR
  --ops ADDR        probe the server's ops endpoint at ADDR too
  --ops-out PATH    where the probe writes the metrics snapshot
                    (default target/reports/ops_metrics.json)
  --refresh N       probe only, needs --ops: stream N contributions and wait
                    for a background refresh to swap a new model in
  --devices N       devices to enroll when building (default 16)
  --seed S          dataset seed (default 42); probe must match build
  --random K        random networks beside the zoo (default 8); probe must match build";

struct Args {
    build_zoo: Option<PathBuf>,
    snapshot: Option<PathBuf>,
    addr: Option<String>,
    ops_addr: Option<String>,
    wal: Option<PathBuf>,
    probe: Option<String>,
    ops: Option<String>,
    ops_out: Option<PathBuf>,
    refresh: Option<usize>,
    workers: Option<usize>,
    devices: usize,
    seed: u64,
    random: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        build_zoo: None,
        snapshot: None,
        addr: None,
        ops_addr: None,
        wal: None,
        probe: None,
        ops: None,
        ops_out: None,
        refresh: None,
        workers: None,
        devices: 16,
        seed: 42,
        random: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--build-zoo" => args.build_zoo = Some(PathBuf::from(value("--build-zoo")?)),
            "--snapshot" => args.snapshot = Some(PathBuf::from(value("--snapshot")?)),
            "--addr" => args.addr = Some(value("--addr")?),
            "--ops-addr" => args.ops_addr = Some(value("--ops-addr")?),
            "--wal" => args.wal = Some(PathBuf::from(value("--wal")?)),
            "--probe" => args.probe = Some(value("--probe")?),
            "--ops" => args.ops = Some(value("--ops")?),
            "--ops-out" => args.ops_out = Some(PathBuf::from(value("--ops-out")?)),
            "--refresh" => {
                args.refresh = Some(
                    value("--refresh")?
                        .parse()
                        .map_err(|e| format!("--refresh: {e}"))?,
                );
            }
            "--workers" => {
                args.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--devices" => {
                args.devices = value("--devices")?
                    .parse()
                    .map_err(|e| format!("--devices: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--random" => {
                args.random = value("--random")?
                    .parse()
                    .map_err(|e| format!("--random: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Trains a repository on the simulated suite — every enrolled device
/// measures the signature set and contributes a rotating share of the
/// open networks — and returns it fitted.
fn build_repository(seed: u64, random: usize, devices: usize) -> CollaborativeRepository {
    let data = CostDataset::tiny(seed, random, devices.max(4));
    let all: Vec<usize> = (0..data.n_devices()).collect();
    let signature = MutualInfoSelector::default().select(&data.db, &all, 4);
    let mut repo = CollaborativeRepository::new(
        data.encoder.clone(),
        signature.len(),
        RepositoryConfig {
            gbdt: GbdtParams {
                n_estimators: 40,
                ..GbdtParams::default()
            },
            min_rows: 10,
        },
    );
    let open: Vec<usize> = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();
    for d in 0..devices.min(data.n_devices()) {
        let lat: Vec<f64> = signature.iter().map(|&n| data.db.latency(d, n)).collect();
        let name = data.devices[d].model.clone();
        repo.onboard_device(name.clone(), &lat)
            .expect("fresh dataset devices have unique names and finite signatures");
        for &n in open.iter().cycle().skip(d % open.len().max(1)).take(12) {
            repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                .expect("device was onboarded above with simulator-finite latencies");
        }
    }
    repo.fit().expect("every device contributed 12 rows");
    repo
}

fn build_mode(args: &Args, out: &Path) -> Result<(), String> {
    let repo = build_repository(args.seed, args.random, args.devices);
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {parent:?}: {e}"))?;
    }
    gdcm_serve::save_repository(&repo, out).map_err(|e| e.to_string())?;
    println!(
        "wrote snapshot {} ({} devices, {} rows, fitted={})",
        out.display(),
        repo.n_devices(),
        repo.n_rows(),
        repo.is_fitted()
    );
    Ok(())
}

fn serve_mode(args: &Args, snapshot: &Path, addr: &str) -> Result<(), String> {
    // With a WAL, records already on disk (acked by a previous process
    // that never compacted) are replayed over the snapshot before the
    // listener binds — an acknowledged mutation is never lost.
    let (serving, wal) = match &args.wal {
        None => (
            ServingRepository::from_snapshot_path(snapshot).map_err(|e| e.to_string())?,
            None,
        ),
        Some(wal_path) => {
            let mut repo = load_repository(snapshot).map_err(|e| e.to_string())?;
            let (wal, records, recovery) =
                WriteAheadLog::open(wal_path).map_err(|e| e.to_string())?;
            let mut applied = 0usize;
            let mut skipped = 0usize;
            for record in &records {
                match replay_record(&mut repo, record) {
                    true => applied += 1,
                    false => skipped += 1,
                }
            }
            println!(
                "WAL REPLAY {} applied, {skipped} skipped, {} torn byte(s) dropped",
                applied, recovery.truncated_bytes
            );
            (
                ServingRepository::new(repo, ServeConfig::from_env()),
                Some(wal),
            )
        }
    };
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!("LISTENING {local}");
    let ops_listener = match &args.ops_addr {
        Some(ops_addr) => {
            let ops = TcpListener::bind(ops_addr).map_err(|e| format!("bind {ops_addr}: {e}"))?;
            let ops_local = ops.local_addr().map_err(|e| e.to_string())?;
            println!("OPS LISTENING {ops_local}");
            Some(ops)
        }
        None => None,
    };
    let config = ServerConfig {
        workers: args
            .workers
            .unwrap_or_else(|| ServerConfig::default().workers),
    };
    let ingest =
        wal.map(|wal| IngestPipeline::with_wal(&serving, wal, snapshot, RefreshConfig::from_env()));
    let summary = match (&ingest, ops_listener) {
        (Some(pipeline), ops) => serve_with_ingest(listener, ops, &serving, Some(pipeline), config),
        (None, Some(ops)) => serve_with_ops(listener, Some(ops), &serving, config),
        (None, None) => serve(listener, &serving, config),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "served {} request(s) over {} connection(s), {} error(s); shut down cleanly",
        summary.requests, summary.connections, summary.request_errors
    );
    let mut report = gdcm_obs::RunReport::new("gdcm-serve");
    report.set_dim("requests", summary.requests);
    report.set_dim("connections", summary.connections);
    report.set_dim("request_errors", summary.request_errors);
    report.collect();
    let _ = report.finalize_and_write();
    Ok(())
}

fn probe_mode(args: &Args, addr: &str, snapshot: &Path) -> Result<(), String> {
    // The local, audited copy provides the ground truth the server must
    // match bit for bit.
    let local = ServingRepository::from_snapshot_path(snapshot).map_err(|e| e.to_string())?;
    let devices = local.device_names();
    let device = devices.first().ok_or("snapshot has no enrolled devices")?;
    let suite = benchmark_suite_with(args.seed, SearchSpace::tiny(), args.random);
    let probe_nets: Vec<_> = suite.iter().take(6).map(|n| n.network.clone()).collect();

    let mut client = Client::connect_with_retry(addr, Duration::from_secs(30))
        .map_err(|e| format!("connect {addr}: {e}"))?;

    match client.request(&Request::Ping).map_err(|e| e.to_string())? {
        Response::Pong => {}
        other => return Err(format!("ping answered {other:?}")),
    }

    // Single-row predictions: bit-identical to the local uncached path,
    // each wrapped in a trace envelope whose id must echo back exactly.
    // Ids above 2^53 would corrupt in any float-typed decode path, so
    // round-tripping them proves the wire keeps u64 precision.
    for (i, net) in probe_nets.iter().enumerate() {
        let expected = local
            .with_repository(|r| r.predict(device, net))
            .map_err(|e| e.to_string())?;
        let trace_id = (1u64 << 60) | (i as u64 + 1);
        let (echo, resp) = client
            .request_traced(
                &Request::Predict {
                    device: device.clone(),
                    network: net.clone(),
                },
                trace_id,
            )
            .map_err(|e| e.to_string())?;
        if echo != Some(trace_id) {
            return Err(format!("trace id {trace_id} echoed back as {echo:?}"));
        }
        match resp {
            Response::Prediction { latency_ms } if latency_ms.to_bits() == expected.to_bits() => {}
            other => return Err(format!("predict mismatch: {other:?} vs {expected}")),
        }
    }

    // Error responses carry the trace id too, plus a stable error code.
    let (echo, resp) = client
        .request_traced(
            &Request::Predict {
                device: "no-such-device".to_string(),
                network: probe_nets[0].clone(),
            },
            u64::MAX,
        )
        .map_err(|e| e.to_string())?;
    if echo != Some(u64::MAX) {
        return Err(format!("error trace id u64::MAX echoed back as {echo:?}"));
    }
    match resp {
        Response::Error { ref code, .. } if code == codes::UNKNOWN_DEVICE => {}
        other => {
            return Err(format!(
                "unknown-device probe answered {other:?}, wanted code {:?}",
                codes::UNKNOWN_DEVICE
            ))
        }
    }

    let mut ask = |req: &Request| client.request(req).map_err(|e| e.to_string());

    // Batch path: same bits, in order.
    let expected: Vec<f64> = probe_nets
        .iter()
        .map(|n| local.with_repository(|r| r.predict(device, n)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    match ask(&Request::PredictBatch {
        device: device.clone(),
        networks: probe_nets.clone(),
    })? {
        Response::Predictions { latency_ms }
            if latency_ms.len() == expected.len()
                && latency_ms
                    .iter()
                    .zip(&expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits()) => {}
        other => return Err(format!("batch mismatch: {other:?} vs {expected:?}")),
    }

    // Cached re-ask: still the same bits.
    match ask(&Request::Predict {
        device: device.clone(),
        network: probe_nets[0].clone(),
    })? {
        Response::Prediction { latency_ms } if latency_ms.to_bits() == expected[0].to_bits() => {}
        other => return Err(format!("cached predict mismatch: {other:?}")),
    }

    match ask(&Request::Stats)? {
        Response::Stats {
            fitted: true,
            devices,
            rows,
            prediction_hits,
            ..
        } => {
            if devices == 0 || rows == 0 {
                return Err(format!(
                    "stats report an empty repository: {devices}/{rows}"
                ));
            }
            if prediction_hits == 0 {
                return Err("cached re-ask did not hit the prediction cache".into());
            }
        }
        other => return Err(format!("stats answered {other:?}")),
    }

    // The binary protocol on the same listener: sequential, pipelined,
    // and error paths must all answer the exact bits of the local path.
    probe_binary(addr, device, &probe_nets, &expected)?;

    // With an ops endpoint to talk to, verify the server's telemetry
    // actually saw the load this probe just generated.
    if let Some(ops_addr) = &args.ops {
        probe_ops(ops_addr, args.ops_out.as_deref())?;
    }

    // Stream contributions past the refresh threshold and wait for the
    // background refresher to swap a new model in and compact the WAL.
    if let Some(n) = args.refresh {
        let ops_addr = args
            .ops
            .as_deref()
            .ok_or("--refresh needs --ops to watch the model epoch")?;
        probe_refresh(&mut client, ops_addr, device, &probe_nets, n)?;
    }

    match client
        .request(&Request::Shutdown)
        .map_err(|e| e.to_string())?
    {
        Response::ShuttingDown => {}
        other => return Err(format!("shutdown answered {other:?}")),
    }
    println!(
        "probe OK: ping, {} traced predictions, traced error echo, batch, cache hit, stats, binary ping/predict/pipeline/error/hardening{}{}, shutdown",
        probe_nets.len(),
        if args.ops.is_some() { ", ops" } else { "" },
        if args.refresh.is_some() {
            ", refresh"
        } else {
            ""
        }
    );
    Ok(())
}

/// Streams `n` contributions at the server, then polls ops `health`
/// until the model epoch advances past its pre-contribution value *and*
/// the write-ahead log drains to empty — i.e. the background refresher
/// fitted, audited, swapped, and compacted — and finally asserts the
/// just-swapped model still answers predictions.
fn probe_refresh(
    client: &mut Client,
    ops_addr: &str,
    device: &str,
    probe_nets: &[gdcm_dnn::Network],
    n: usize,
) -> Result<(), String> {
    let mut ops = OpsClient::connect_with_retry(ops_addr, Duration::from_secs(30))
        .map_err(|e| format!("connect ops {ops_addr}: {e}"))?;
    let health = |ops: &mut OpsClient| -> Result<serde_json::Value, String> {
        let line = ops
            .query("health")
            .map_err(|e| format!("ops health: {e}"))?;
        serde_json::from_str(&line).map_err(|e| format!("ops health reply unparsable: {e}"))
    };
    let before = health(&mut ops)?;
    let epoch0 = json_u64(&before, "epoch")?;

    for i in 0..n {
        let net = &probe_nets[i % probe_nets.len()];
        // Synthetic but valid measurements; the value only needs to be
        // finite and positive for ingestion to accept it.
        let latency_ms = 5.0 + (i as f64) * 0.25;
        match client
            .request(&Request::Contribute {
                device: device.to_string(),
                network: net.clone(),
                latency_ms,
            })
            .map_err(|e| e.to_string())?
        {
            Response::Ok => {}
            other => return Err(format!("contribute {i} answered {other:?}")),
        }
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let now = health(&mut ops)?;
        let epoch = json_u64(&now, "epoch")?;
        let wal_records = json_u64(&now, "wal_records")?;
        let refreshes = json_u64(&now, "refreshes")?;
        if epoch > epoch0 && wal_records == 0 && refreshes > 0 {
            println!(
                "refresh OK: epoch {epoch0} -> {epoch}, {refreshes} refresh(es), WAL compacted"
            );
            break;
        }
        if std::time::Instant::now() > deadline {
            return Err(format!(
                "refresh did not land in 120s: epoch {epoch0} -> {epoch}, \
                 {wal_records} WAL record(s) pending, {refreshes} refresh(es)"
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // The swapped-in model must keep answering on the same connection.
    match client
        .request(&Request::Predict {
            device: device.to_string(),
            network: probe_nets[0].clone(),
        })
        .map_err(|e| e.to_string())?
    {
        Response::Prediction { latency_ms } if latency_ms.is_finite() => Ok(()),
        other => Err(format!("post-refresh predict answered {other:?}")),
    }
}

/// Drives the binary protocol against the same listener: framed ids
/// must echo exactly (including u64 extremes), sequential and pipelined
/// predictions must both match the local path bit for bit, and errors
/// must answer in-band with stable codes.
fn probe_binary(
    addr: &str,
    device: &str,
    probe_nets: &[gdcm_dnn::Network],
    expected: &[f64],
) -> Result<(), String> {
    let mut bin = BinClient::connect_with_retry(addr, Duration::from_secs(30))
        .map_err(|e| format!("binary connect {addr}: {e}"))?;
    match bin.request(&Request::Ping).map_err(|e| e.to_string())? {
        Response::Pong => {}
        other => return Err(format!("binary ping answered {other:?}")),
    }

    // Sequential predictions, checking each frame's id echo by hand.
    for (net, want) in probe_nets.iter().zip(expected) {
        let id = bin
            .send(&Request::Predict {
                device: device.to_string(),
                network: net.clone(),
            })
            .map_err(|e| e.to_string())?;
        let (echoed, resp) = bin.recv().map_err(|e| e.to_string())?;
        if echoed != id {
            return Err(format!("binary response tagged id {echoed}, wanted {id}"));
        }
        match resp {
            Response::Prediction { latency_ms } if latency_ms.to_bits() == want.to_bits() => {}
            other => return Err(format!("binary predict mismatch: {other:?} vs {want}")),
        }
    }

    // The full set pipelined: same bits, matched by id.
    let requests: Vec<Request> = probe_nets
        .iter()
        .map(|net| Request::Predict {
            device: device.to_string(),
            network: net.clone(),
        })
        .collect();
    let responses = bin.pipeline(&requests, 4).map_err(|e| e.to_string())?;
    for (resp, want) in responses.iter().zip(expected) {
        match resp {
            Response::Prediction { latency_ms } if latency_ms.to_bits() == want.to_bits() => {}
            other => {
                return Err(format!(
                    "binary pipelined predict mismatch: {other:?} vs {want}"
                ))
            }
        }
    }

    // Errors stay in-band with stable codes, connection intact.
    match bin
        .request(&Request::Predict {
            device: "no-such-device".to_string(),
            network: probe_nets[0].clone(),
        })
        .map_err(|e| e.to_string())?
    {
        Response::Error { ref code, .. } if code == codes::UNKNOWN_DEVICE => {}
        other => {
            return Err(format!(
                "binary unknown-device probe answered {other:?}, wanted code {:?}",
                codes::UNKNOWN_DEVICE
            ))
        }
    }
    match bin.request(&Request::Ping).map_err(|e| e.to_string())? {
        Response::Pong => {}
        other => return Err(format!("binary post-error ping answered {other:?}")),
    }

    probe_wire_hardening(addr)?;
    Ok(())
}

/// Wire-hardening smoke: a well-formed frame carrying a payload the
/// strict decoder must refuse — `"Ping"` spelled with a non-canonical
/// (zero-padded) varint string length — answers an in-band
/// `parse_error` on the same id, and a follow-up `Ping` still answers
/// `Pong`, proving the connection survives hostile payloads. The
/// exhaustive version of this check is `gdcm-wirecheck`; this is the
/// one-frame smoke the CI probe runs against a real server.
fn probe_wire_hardening(addr: &str) -> Result<(), String> {
    use gdcm_serve::protocol::wire;
    use std::io::{Read, Write};

    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("hardening connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .write_all(&wire::preamble())
        .map_err(|e| e.to_string())?;

    // Tag STR, length 4 encoded as the over-long varint [0x84, 0x00].
    let hostile = [wire::tags::STR, 0x84, 0x00, b'P', b'i', b'n', b'g'];
    let mut burst = Vec::new();
    wire::append_raw_frame(&mut burst, 7, &hostile).map_err(|e| e.to_string())?;
    wire::append_frame(&mut burst, 8, &Request::Ping).map_err(|e| e.to_string())?;
    stream.write_all(&burst).map_err(|e| e.to_string())?;
    stream.flush().map_err(|e| e.to_string())?;

    let mut read_frame = |want_id: u64| -> Result<Response, String> {
        let mut header = [0u8; wire::FRAME_HEADER_LEN];
        stream.read_exact(&mut header).map_err(|e| e.to_string())?;
        let header = wire::decode_frame_header(&header).map_err(|e| format!("{e:?}"))?;
        let mut payload = vec![0u8; header.payload_len];
        stream.read_exact(&mut payload).map_err(|e| e.to_string())?;
        if header.request_id != want_id {
            return Err(format!(
                "hardening frame tagged id {}, wanted {want_id}",
                header.request_id
            ));
        }
        wire::decode_value(&payload).map_err(|e| format!("{e:?}"))
    };

    match read_frame(7)? {
        Response::Error { ref code, .. } if code == codes::PARSE_ERROR => {}
        other => {
            return Err(format!(
                "non-canonical varint payload answered {other:?}, wanted code {:?}",
                codes::PARSE_ERROR
            ))
        }
    }
    match read_frame(8)? {
        Response::Pong => {}
        other => {
            return Err(format!(
                "ping behind the hostile frame answered {other:?} — connection did not survive"
            ))
        }
    }
    Ok(())
}

/// Reads a `u64` out of a parsed ops reply at `path` (dot-separated).
fn json_u64(value: &serde_json::Value, path: &str) -> Result<u64, String> {
    let mut cur = value;
    for key in path.split('.') {
        cur = cur.get(key).ok_or(format!("ops reply missing {path}"))?;
    }
    cur.as_u64().ok_or(format!("ops reply {path} is not a u64"))
}

/// Drives the ops endpoint after the load above: health must be `ok`,
/// the windowed metrics must have seen this probe's requests and cache
/// hits, the slow log must hold traced entries, and `quiesce` must flip
/// health to `draining`. Writes the raw metrics line to `out` for the
/// CI artifact.
fn probe_ops(ops_addr: &str, out: Option<&Path>) -> Result<(), String> {
    let mut ops = OpsClient::connect_with_retry(ops_addr, Duration::from_secs(30))
        .map_err(|e| format!("connect ops {ops_addr}: {e}"))?;
    fn query(ops: &mut OpsClient, verb: &str) -> Result<serde_json::Value, String> {
        let line = ops.query(verb).map_err(|e| format!("ops {verb}: {e}"))?;
        serde_json::from_str(&line).map_err(|e| format!("ops {verb} reply unparsable: {e}"))
    }

    let health = query(&mut ops, "health")?;
    match health.get("status").and_then(|s| s.as_str()) {
        Some("ok") => {}
        other => return Err(format!("ops health status {other:?}, wanted \"ok\"")),
    }
    if health.get("fitted").and_then(|f| f.as_bool()) != Some(true) {
        return Err("ops health reports an unfitted model".into());
    }
    if json_u64(&health, "requests_total")? == 0 {
        return Err("ops health saw zero requests after the probe load".into());
    }

    let metrics_line = ops
        .query("metrics")
        .map_err(|e| format!("ops metrics: {e}"))?;
    let metrics: serde_json::Value = serde_json::from_str(&metrics_line)
        .map_err(|e| format!("ops metrics reply unparsable: {e}"))?;
    let win_requests = json_u64(&metrics, "windowed.requests")?;
    if win_requests == 0 {
        return Err("windowed metrics saw zero requests inside the window".into());
    }
    if json_u64(&metrics, "windowed.latency.count")? == 0 {
        return Err("windowed latency histogram is empty after the probe load".into());
    }
    if json_u64(&metrics, "windowed.prediction_cache.hits")? == 0 {
        return Err("windowed metrics saw no prediction-cache hits".into());
    }
    for path in [
        "windowed.qps",
        "windowed.latency.p50_ms",
        "windowed.latency.p99_ms",
    ] {
        let mut cur = &metrics;
        for key in path.split('.') {
            cur = cur.get(key).ok_or(format!("ops metrics missing {path}"))?;
        }
        let v = cur
            .as_f64()
            .ok_or(format!("ops metrics {path} is not a number"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("ops metrics {path} = {v}, wanted > 0"));
        }
    }
    if json_u64(&metrics, "cumulative.requests")? == 0 {
        return Err("cumulative metrics saw zero requests".into());
    }
    let out = out.unwrap_or(Path::new("target/reports/ops_metrics.json"));
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {parent:?}: {e}"))?;
    }
    std::fs::write(out, format!("{metrics_line}\n"))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!(
        "ops metrics: {} windowed request(s) -> {}",
        win_requests,
        out.display()
    );

    let slowlog = query(&mut ops, "slowlog")?;
    let entries = slowlog
        .get("entries")
        .and_then(|e| e.as_array())
        .ok_or("ops slowlog reply missing entries")?;
    let first = entries
        .first()
        .ok_or("ops slowlog is empty after the probe load")?;
    if first
        .get("stages")
        .and_then(|s| s.as_array())
        .map(|s| s.is_empty())
        != Some(false)
    {
        return Err("slowlog entry has no stage breakdown".into());
    }

    let quiesce = query(&mut ops, "quiesce")?;
    if quiesce.get("status").and_then(|s| s.as_str()) != Some("draining") {
        return Err(format!("quiesce answered {quiesce:?}"));
    }
    let health = query(&mut ops, "health")?;
    if health.get("status").and_then(|s| s.as_str()) != Some("draining") {
        return Err("health did not report draining after quiesce".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Knobs reach the serving layer through ServeConfig::from_env at
    // construction; referencing it here keeps the dependency explicit.
    let _ = ServeConfig::from_env();
    let result = match (&args.build_zoo, &args.probe, &args.snapshot, &args.addr) {
        (Some(out), None, _, _) => build_mode(&args, out),
        (None, Some(addr), Some(snapshot), _) => probe_mode(&args, addr, snapshot),
        (None, None, Some(snapshot), Some(addr)) => serve_mode(&args, snapshot, addr),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gdcm-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
