//! End-to-end test of the TCP server: real sockets, the real protocol,
//! graceful shutdown, with responses checked bit-for-bit against the
//! uncached repository.

use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_dnn::Network;
use gdcm_ml::GbdtParams;
use gdcm_serve::{serve, Client, Request, Response, ServeConfig, ServerConfig, ServingRepository};
use std::net::TcpListener;
use std::time::Duration;

fn fitted_repository(seed: u64) -> (CollaborativeRepository, Vec<Network>) {
    let data = CostDataset::tiny(seed, 6, 6);
    let all: Vec<usize> = (0..data.n_devices()).collect();
    let signature = MutualInfoSelector::default().select(&data.db, &all, 3);
    let mut repo = CollaborativeRepository::new(
        data.encoder.clone(),
        signature.len(),
        RepositoryConfig {
            gbdt: GbdtParams {
                n_estimators: 20,
                ..GbdtParams::default()
            },
            min_rows: 8,
        },
    );
    let open: Vec<usize> = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();
    for d in 0..data.n_devices() {
        let lat: Vec<f64> = signature.iter().map(|&n| data.db.latency(d, n)).collect();
        let name = data.devices[d].model.clone();
        repo.onboard_device(name.clone(), &lat).unwrap();
        for &n in open.iter().cycle().skip(d % open.len()).take(8) {
            repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                .unwrap();
        }
    }
    repo.fit().unwrap();
    let nets = open
        .iter()
        .map(|&n| data.suite[n].network.clone())
        .collect();
    (repo, nets)
}

fn run_session(workers: usize, seed: u64) {
    let (repo, nets) = fitted_repository(seed);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let expected: Vec<f64> = nets
        .iter()
        .map(|n| serving.with_repository(|r| r.predict(&device, n)).unwrap())
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || serve(listener, serving, ServerConfig { workers }));

        let mut client = Client::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        assert!(matches!(
            client.request(&Request::Ping).unwrap(),
            Response::Pong
        ));

        // Single predictions over the wire: bit-identical to local.
        for (net, want) in nets.iter().zip(&expected) {
            match client
                .request(&Request::Predict {
                    device: device.clone(),
                    network: net.clone(),
                })
                .unwrap()
            {
                Response::Prediction { latency_ms } => {
                    assert_eq!(latency_ms.to_bits(), want.to_bits());
                }
                other => panic!("predict answered {other:?}"),
            }
        }

        // Errors answer in-band and keep the connection alive.
        match client
            .request(&Request::Predict {
                device: "no-such-device".to_string(),
                network: nets[0].clone(),
            })
            .unwrap()
        {
            Response::Error { code, message } => {
                assert_eq!(code, gdcm_serve::protocol::codes::UNKNOWN_DEVICE);
                assert!(message.contains("no-such-device"));
            }
            other => panic!("unknown device answered {other:?}"),
        }
        assert!(matches!(
            client.request(&Request::Ping).unwrap(),
            Response::Pong
        ));

        // End the first connection before opening the second, so the
        // batch below runs on a fresh connection thread.
        drop(client);

        // A batch from a second connection — still the same bits.
        let mut client2 = Client::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        match client2
            .request(&Request::PredictBatch {
                device: device.clone(),
                networks: nets.clone(),
            })
            .unwrap()
        {
            Response::Predictions { latency_ms } => {
                let got: Vec<u64> = latency_ms.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("batch answered {other:?}"),
        }
        match client2.request(&Request::Stats).unwrap() {
            Response::Stats {
                fitted,
                devices,
                prediction_hits,
                ..
            } => {
                assert!(fitted);
                assert!(devices > 0);
                assert!(prediction_hits > 0, "batch should have hit the warm cache");
            }
            other => panic!("stats answered {other:?}"),
        }

        assert!(matches!(
            client2.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(client2);
        let summary = server.join().expect("server thread").expect("serve result");
        assert!(summary.connections >= 2);
        assert!(summary.requests >= nets.len() as u64 + 5);
        assert_eq!(summary.request_errors, 1);
    });
}

#[test]
fn tcp_session_end_to_end_with_worker_pool() {
    run_session(2, 31);
}

#[test]
fn tcp_session_end_to_end_serial_inline_path() {
    run_session(1, 32);
}

#[test]
fn malformed_lines_answer_errors_without_dropping_the_connection() {
    use std::io::{BufRead, BufReader, Write};

    let (repo, _) = fitted_repository(33);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || serve(listener, serving, ServerConfig { workers: 1 }));

        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"this is not json\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match serde_json::from_str::<Response>(&line).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, gdcm_serve::protocol::codes::PARSE_ERROR);
                assert!(message.contains("unparsable"));
            }
            other => panic!("garbage answered {other:?}"),
        }

        // The same connection still works afterwards.
        writer.write_all(b"\"Ping\"\n").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(matches!(
            serde_json::from_str::<Response>(&line).unwrap(),
            Response::Pong
        ));

        writer.write_all(b"\"Shutdown\"\n").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(matches!(
            serde_json::from_str::<Response>(&line).unwrap(),
            Response::ShuttingDown
        ));
        let summary = server.join().expect("server thread").expect("serve result");
        assert_eq!(summary.request_errors, 1);
    });
}
