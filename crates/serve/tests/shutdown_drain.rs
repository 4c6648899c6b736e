//! Graceful shutdown of the blocking server: `Shutdown` stops new
//! connections, but every open one is served until its client leaves,
//! and `serve` returns promptly once the last one does — whatever
//! address the listener is bound to.

use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_serve::{
    serve, BinClient, Request, Response, ServeConfig, ServerConfig, ServerSummary,
    ServingRepository,
};
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Server = JoinHandle<std::io::Result<ServerSummary>>;

/// Starts `serve` over an unfitted repository (enough for `Ping` and
/// `Shutdown`). Not scoped: a failed assertion must not wait on a
/// server that never shuts down.
fn start(listener: TcpListener) -> Server {
    let data = CostDataset::tiny(11, 2, 2);
    let repo = CollaborativeRepository::new(data.encoder, 1, RepositoryConfig::default());
    let serving = ServingRepository::new(repo, ServeConfig::default());
    std::thread::spawn(move || serve(listener, &serving, ServerConfig::default()))
}

/// How long `server` took to finish, if it did within `limit`.
fn finish_time(server: &Server, limit: Duration) -> Option<Duration> {
    let start = Instant::now();
    while start.elapsed() < limit {
        if server.is_finished() {
            return Some(start.elapsed());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

fn ping(client: &mut BinClient) -> bool {
    matches!(client.request(&Request::Ping), Ok(Response::Pong))
}

#[test]
fn shutdown_drains_an_idle_connection_before_serve_returns() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = start(listener);

    let mut held = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
    // One round trip proves the held connection was accepted before the
    // Shutdown; it then sits idle on its thread.
    assert!(ping(&mut held));
    let mut stopper = BinClient::connect(addr).unwrap();
    assert!(matches!(
        stopper.request(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    drop(stopper);

    assert!(ping(&mut held), "a request after Shutdown goes unanswered");
    assert_eq!(
        finish_time(&server, Duration::from_millis(300)),
        None,
        "serve returned while a client was still connected"
    );

    drop(held);
    let waited = finish_time(&server, Duration::from_secs(5));
    assert!(
        waited.is_some_and(|w| w < Duration::from_secs(1)),
        "serve took {waited:?} to return after the last client closed"
    );
    let summary = server.join().expect("server thread").expect("serve result");
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.requests, 3);
    assert_eq!(summary.request_errors, 0);
}

#[test]
fn listener_on_an_unspecified_address_shuts_down_cleanly() {
    let listener = TcpListener::bind("0.0.0.0:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let server = start(listener);

    let mut client =
        BinClient::connect_with_retry(("127.0.0.1", port), Duration::from_secs(10)).unwrap();
    assert!(matches!(
        client.request(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    drop(client);

    let waited = finish_time(&server, Duration::from_secs(5));
    assert!(
        waited.is_some_and(|w| w < Duration::from_secs(1)),
        "serve took {waited:?} to return"
    );
    let summary = server.join().expect("server thread").expect("serve result");
    assert_eq!(summary.requests, 1);
}
