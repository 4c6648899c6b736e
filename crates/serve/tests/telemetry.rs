//! End-to-end telemetry tests: trace-id propagation over the wire
//! (success, error, and malformed-request paths), and the ops endpoint
//! (`health` / `metrics` / `slowlog` / `quiesce`) under real load.

use gdcm_serve::protocol::{codes, wire};
use gdcm_serve::{
    serve, serve_with_ingest, Client, OpsClient, Request, Response, ResponseEnvelope, ServeConfig,
    ServerConfig, ServingRepository,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

mod common;
use common::fitted_repository;

/// Serializes the tests that attach an ops listener: windowed metrics
/// live in one process-wide registry, so one such test's load would
/// show up in the other's window.
static OPS_TELEMETRY: Mutex<()> = Mutex::new(());

fn ops_telemetry_lock() -> MutexGuard<'static, ()> {
    OPS_TELEMETRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sends `Shutdown` to the server on drop unless disarmed. An assertion
/// failure inside `thread::scope` unwinds through the scope's implicit
/// join; without this the panic would hang forever on a server that
/// never received its shutdown request, masking the real failure.
struct ShutdownGuard {
    addr: std::net::SocketAddr,
    armed: bool,
}

impl ShutdownGuard {
    fn new(addr: std::net::SocketAddr) -> Self {
        Self { addr, armed: true }
    }

    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut client) = Client::connect(self.addr) {
                let _ = client.request(&Request::Shutdown);
            }
        }
    }
}

/// Trace ids round-trip bit-stably through envelopes — on success AND
/// error responses, including ids that no f64 path could preserve —
/// while bare (un-enveloped) requests keep getting bare responses.
#[test]
fn trace_ids_round_trip_on_success_and_error() {
    let (repo, nets) = fitted_repository(41);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || serve(listener, serving, ServerConfig { workers: 1 }));
        let mut guard = ShutdownGuard::new(addr);
        let mut client = Client::connect_with_retry(addr, Duration::from_secs(10)).unwrap();

        let expected = serving
            .with_repository(|r| r.predict(&device, &nets[0]))
            .unwrap();
        // Every id class that could corrupt in a lossy decode path.
        for trace_id in [1u64, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let (echo, resp) = client
                .request_traced(
                    &Request::Predict {
                        device: device.clone(),
                        network: nets[0].clone(),
                    },
                    trace_id,
                )
                .unwrap();
            assert_eq!(echo, Some(trace_id), "id must echo back bit-stably");
            match resp {
                Response::Prediction { latency_ms } => {
                    assert_eq!(latency_ms.to_bits(), expected.to_bits());
                }
                other => panic!("traced predict answered {other:?}"),
            }
        }

        // Error responses carry the id and a stable machine code too.
        let (echo, resp) = client
            .request_traced(
                &Request::Predict {
                    device: "no-such-device".to_string(),
                    network: nets[0].clone(),
                },
                u64::MAX,
            )
            .unwrap();
        assert_eq!(echo, Some(u64::MAX));
        match resp {
            Response::Error { code, message } => {
                assert_eq!(code, codes::UNKNOWN_DEVICE);
                assert!(message.contains("no-such-device"));
            }
            other => panic!("traced error answered {other:?}"),
        }

        // A bare request on the same connection stays bare.
        assert!(matches!(
            client.request(&Request::Ping).unwrap(),
            Response::Pong
        ));

        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        guard.disarm();
        drop(client);
        server.join().expect("server thread").expect("serve result");
    });
}

/// An envelope whose inner request is bogus still gets its trace id
/// echoed on the parse error; raw garbage (no recoverable id) answers
/// with a bare error.
#[test]
fn parse_errors_keep_the_trace_id_when_one_was_sent() {
    use std::io::{BufRead, BufReader, Write};

    let (repo, _) = fitted_repository(42);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || serve(listener, serving, ServerConfig { workers: 1 }));
        let mut guard = ShutdownGuard::new(addr);

        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;

        // Valid envelope, bogus request: enveloped parse error, id kept.
        writer
            .write_all(b"{\"trace_id\":7,\"req\":{\"Bogus\":1}}\n")
            .unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let envelope: ResponseEnvelope = serde_json::from_str(&line).unwrap();
        assert_eq!(envelope.trace_id, Some(7));
        match envelope.resp {
            Response::Error { code, message } => {
                assert_eq!(code, codes::PARSE_ERROR);
                assert!(message.contains("unparsable"));
            }
            other => panic!("bogus envelope answered {other:?}"),
        }

        // Raw garbage: no id to recover, so the error answers bare.
        writer.write_all(b"this is not json\n").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(!line.contains("trace_id"), "bare error must stay bare");
        match serde_json::from_str::<Response>(&line).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, codes::PARSE_ERROR),
            other => panic!("garbage answered {other:?}"),
        }

        writer.write_all(b"\"Shutdown\"\n").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(matches!(
            serde_json::from_str::<Response>(&line).unwrap(),
            Response::ShuttingDown
        ));
        guard.disarm();
        let summary = server.join().expect("server thread").expect("serve result");
        assert_eq!(summary.request_errors, 2);
    });
}

/// Full ops-endpoint pass under real load: health, windowed metrics
/// with cache hit ratios and stage histograms, slow-log entries with
/// stage breakdowns, and quiesce flipping health to draining.
#[test]
fn ops_endpoint_reports_live_telemetry() {
    let _serial = ops_telemetry_lock();
    let (repo, nets) = fitted_repository(43);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let ops_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let ops_addr = ops_listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || {
            serve_with_ingest(
                listener,
                Some(ops_listener),
                serving,
                None,
                ServerConfig { workers: 2 },
            )
        });
        let mut guard = ShutdownGuard::new(addr);

        let mut client = Client::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        // Load: a miss, a hit, and one error — all traced.
        for _ in 0..2 {
            let (echo, resp) = client
                .request_traced(
                    &Request::Predict {
                        device: device.clone(),
                        network: nets[0].clone(),
                    },
                    99,
                )
                .unwrap();
            assert_eq!(echo, Some(99));
            assert!(matches!(resp, Response::Prediction { .. }));
        }
        let (_, resp) = client
            .request_traced(
                &Request::Predict {
                    device: "no-such-device".to_string(),
                    network: nets[0].clone(),
                },
                100,
            )
            .unwrap();
        assert!(matches!(resp, Response::Error { .. }));

        let mut ops = OpsClient::connect_with_retry(ops_addr, Duration::from_secs(10)).unwrap();

        let health: serde_json::Value =
            serde_json::from_str(&ops.query("health").unwrap()).unwrap();
        assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));
        assert_eq!(health.get("fitted").and_then(|f| f.as_bool()), Some(true));
        assert!(
            health
                .get("requests_total")
                .and_then(|r| r.as_u64())
                .unwrap()
                >= 3
        );

        // A request's windowed telemetry is recorded just *after* its
        // response is written, so the client can observe its own reply
        // before the matching records land. Poll until the whole load
        // is visible; each record trails its response by microseconds.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let metrics: serde_json::Value = loop {
            let m: serde_json::Value =
                serde_json::from_str(&ops.query("metrics").unwrap()).unwrap();
            let w = m.get("windowed").expect("windowed block");
            let at =
                |v: &serde_json::Value, key: &str| v.get(key).and_then(|x| x.as_u64()).unwrap_or(0);
            let converged = at(w, "requests") >= 3
                && at(w, "errors") >= 1
                && w.get("latency").map(|l| at(l, "count")).unwrap_or(0) >= 2
                && w.get("prediction_cache")
                    .map(|c| at(c, "hits"))
                    .unwrap_or(0)
                    >= 1;
            if converged || std::time::Instant::now() >= deadline {
                break m;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let windowed = metrics.get("windowed").expect("windowed block");
        assert!(windowed.get("requests").and_then(|r| r.as_u64()).unwrap() >= 3);
        assert!(windowed.get("qps").and_then(|q| q.as_f64()).unwrap() > 0.0);
        assert!(windowed.get("errors").and_then(|e| e.as_u64()).unwrap() >= 1);
        assert!(windowed.get("error_rate").and_then(|e| e.as_f64()).unwrap() > 0.0);
        let latency = windowed.get("latency").expect("latency block");
        assert!(latency.get("count").and_then(|c| c.as_u64()).unwrap() >= 2);
        assert!(latency.get("p50_ms").and_then(|p| p.as_f64()).unwrap() > 0.0);
        assert!(latency.get("p99_ms").and_then(|p| p.as_f64()).unwrap() > 0.0);
        let pred_cache = windowed.get("prediction_cache").expect("cache block");
        assert!(pred_cache.get("hits").and_then(|h| h.as_u64()).unwrap() >= 1);
        assert!(
            pred_cache
                .get("hit_ratio")
                .and_then(|h| h.as_f64())
                .unwrap()
                > 0.0,
            "the repeated predict must land as a windowed cache hit"
        );
        let cumulative = metrics.get("cumulative").expect("cumulative block");
        assert!(cumulative.get("requests").and_then(|r| r.as_u64()).unwrap() >= 3);
        let stages = cumulative
            .get("stages_us")
            .and_then(|s| s.as_array())
            .expect("stage histograms");
        assert!(
            !stages.is_empty(),
            "request traces must merge into serve/stage/* histograms"
        );

        let slowlog: serde_json::Value =
            serde_json::from_str(&ops.query("slowlog").unwrap()).unwrap();
        let entries = slowlog
            .get("entries")
            .and_then(|e| e.as_array())
            .expect("slowlog entries");
        assert!(!entries.is_empty(), "probe load must populate the slowlog");
        let stage_names: Vec<&str> = entries[0]
            .get("stages")
            .and_then(|s| s.as_array())
            .expect("stage breakdown")
            .iter()
            .filter_map(|s| s.get("stage").and_then(|n| n.as_str()))
            .collect();
        assert!(
            stage_names.contains(&"parse") && stage_names.contains(&"write"),
            "slowlog entries must carry the request's stage spans, got {stage_names:?}"
        );

        let quiesce: serde_json::Value =
            serde_json::from_str(&ops.query("quiesce").unwrap()).unwrap();
        assert_eq!(
            quiesce.get("status").and_then(|s| s.as_str()),
            Some("draining")
        );
        let health: serde_json::Value =
            serde_json::from_str(&ops.query("health").unwrap()).unwrap();
        assert_eq!(
            health.get("status").and_then(|s| s.as_str()),
            Some("draining")
        );
        drop(ops);

        // The serving path keeps answering while draining.
        assert!(matches!(
            client.request(&Request::Ping).unwrap(),
            Response::Pong
        ));
        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        guard.disarm();
        drop(client);
        let summary = server.join().expect("server thread").expect("serve result");
        assert!(summary.requests >= 5);
    });
}

/// An oversized binary frame is a request answered with an error, so
/// the ops endpoint counts it twice over: in the windowed `metrics`
/// (requests, errors) and in the lifetime `health` totals.
#[test]
fn oversized_frame_counts_in_windowed_and_lifetime_errors() {
    let _serial = ops_telemetry_lock();
    let (repo, _) = fitted_repository(45);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let ops_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let ops_addr = ops_listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || {
            serve_with_ingest(
                listener,
                Some(ops_listener),
                serving,
                None,
                ServerConfig { workers: 1 },
            )
        });
        let mut guard = ShutdownGuard::new(addr);
        let mut ops = OpsClient::connect_with_retry(ops_addr, Duration::from_secs(10)).unwrap();
        // (requests, errors) in the current window. The window is
        // process-wide, so the test compares against a baseline.
        let windowed = |ops: &mut OpsClient| {
            let metrics: serde_json::Value =
                serde_json::from_str(&ops.query("metrics").unwrap()).unwrap();
            let w = metrics.get("windowed").expect("windowed block");
            let at = |key: &str| w.get(key).and_then(|x| x.as_u64()).unwrap();
            (at("requests"), at("errors"))
        };
        let before = windowed(&mut ops);

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&wire::preamble()).unwrap();
        let declared = u32::try_from(wire::MAX_PAYLOAD + 1).unwrap();
        stream.write_all(&declared.to_le_bytes()).unwrap();
        stream.write_all(&5u64.to_le_bytes()).unwrap();
        // One frame_too_large answer tagged with the offending id, then
        // the server closes the connection.
        let mut answer = Vec::new();
        stream.read_to_end(&mut answer).unwrap();
        let header = wire::decode_frame_header(&answer).unwrap();
        assert_eq!(header.request_id, 5);
        match wire::decode_value::<Response>(&answer[wire::FRAME_HEADER_LEN..]).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, codes::FRAME_TOO_LARGE),
            other => panic!("oversized frame answered {other:?}"),
        }

        let deadline = Instant::now() + Duration::from_secs(10);
        let after = loop {
            let now = windowed(&mut ops);
            if now.1 > before.1 || Instant::now() >= deadline {
                break now;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        assert_eq!(
            (
                after.0.saturating_sub(before.0),
                after.1.saturating_sub(before.1)
            ),
            (1, 1),
            "the windowed metrics must count the oversized frame as one failed request"
        );
        let health: serde_json::Value =
            serde_json::from_str(&ops.query("health").unwrap()).unwrap();
        let total = |key: &str| health.get(key).and_then(|x| x.as_u64());
        assert_eq!(total("requests_total"), Some(1));
        assert_eq!(total("errors_total"), Some(1));
        drop(ops);

        let mut client = Client::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        guard.disarm();
        drop(client);
        let summary = server.join().expect("server thread").expect("serve result");
        assert_eq!((summary.requests, summary.request_errors), (2, 1));
    });
}
