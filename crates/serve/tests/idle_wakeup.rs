//! Idle wake-up latency: a request that reaches a quiet server is
//! answered as soon as its bytes arrive, not when a timer next fires.

use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_serve::{
    serve, BinClient, Request, Response, ServeConfig, ServerConfig, ServingRepository,
};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const PINGS: usize = 100;

/// An unfitted repository: enough to answer `Ping`.
fn ping_only() -> ServingRepository {
    let data = CostDataset::tiny(7, 2, 2);
    let repo = CollaborativeRepository::new(data.encoder, 1, RepositoryConfig::default());
    ServingRepository::new(repo, ServeConfig::default())
}

/// SplitMix64: a seeded, dependency-free gap generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn quiet_server_answers_without_waiting_for_a_timer() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Not scoped: a failed assertion must not wait on a server that
    // never received its Shutdown.
    let server = std::thread::spawn(move || serve(listener, &ping_only(), ServerConfig::default()));

    let mut clients = [
        BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap(),
        BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap(),
    ];
    let mut rng = 0x1D1E_u64;
    let mut rtts_us = Vec::with_capacity(PINGS);
    for i in 0..PINGS {
        // 5–15 ms of silence: long enough for every connection thread
        // to have gone back to sleep.
        std::thread::sleep(Duration::from_micros(5_000 + next(&mut rng) % 10_001));
        let sent = Instant::now();
        let reply = clients[i % 2].request(&Request::Ping).unwrap();
        rtts_us.push(sent.elapsed().as_secs_f64() * 1e6);
        assert!(
            matches!(reply, Response::Pong),
            "ping {i} answered {reply:?}"
        );
    }
    assert!(matches!(
        clients[0].request(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    drop(clients);
    let summary = server.join().expect("server thread").expect("serve result");
    assert_eq!(summary.requests, PINGS as u64 + 1);

    rtts_us.sort_by(f64::total_cmp);
    let median = rtts_us[PINGS / 2];
    assert!(
        median < 500.0,
        "median idle round trip {median:.0} µs (sorted: {rtts_us:.0?})"
    );
}
