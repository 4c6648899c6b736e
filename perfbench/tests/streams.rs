//! The request stream is a pure function of the seed: the same seed
//! gives byte-identical frames, a different seed different ones.

use std::sync::Arc;

use perfbench::run::{self, LANE_BUSY, LANE_IDLE, LANE_SAT};
use perfbench::stream::{append_frame, Workload, Zipf};
use perfbench::world::World;

const READS: u64 = 48;
const CONTRIBUTIONS: usize = 12;

/// Every frame a run of `w` would send first, lane by lane.
fn stream_bytes(world: &World, w: Workload, seed: u64) -> Vec<u8> {
    let zipf = (w == Workload::ZooHot).then(|| Arc::new(Zipf::new(world, seed)));
    let mut bytes = Vec::new();
    for lane in [LANE_SAT, LANE_BUSY, LANE_IDLE] {
        for (i, read) in run::read_stream(world, w, seed, lane, &zipf)
            .take(READS as usize)
            .enumerate()
        {
            bytes.extend(run::frame_read(
                world,
                run::request_id(lane, i as u64),
                read,
            ));
        }
    }
    for (i, c) in run::contrib_stream(world, w, seed)
        .take(CONTRIBUTIONS)
        .enumerate()
    {
        append_frame(&mut bytes, i as u64, &c.into_request(world));
    }
    for (i, c) in run::preload_stream(world, w, seed)
        .take(CONTRIBUTIONS)
        .enumerate()
    {
        append_frame(&mut bytes, i as u64, &c.into_request(world));
    }
    bytes
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    let world = World::build();
    for w in Workload::ALL {
        let a = stream_bytes(&world, w, 7);
        let b = stream_bytes(&world, w, 7);
        let c = stream_bytes(&world, w, 8);
        assert!(!a.is_empty());
        assert!(
            a == b,
            "{}: the same seed must give byte-identical requests",
            w.name()
        );
        assert!(
            a != c,
            "{}: a different seed must give different requests",
            w.name()
        );
    }
}

#[test]
fn lanes_draw_different_candidates() {
    let world = World::build();
    let zipf = None;
    let head = |lane| -> Vec<u8> {
        run::read_stream(&world, Workload::NasSweep, 3, lane, &zipf)
            .take(4)
            .flat_map(|r| run::frame_read(&world, 0, r))
            .collect()
    };
    assert!(
        head(LANE_SAT) != head(LANE_BUSY),
        "fresh-network lanes must not repeat each other"
    );
}
