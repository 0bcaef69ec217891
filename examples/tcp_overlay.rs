//! The overlay over real TCP sockets, with mode-2 instantiation: the
//! internal tree comes up first, publishes per-leaf `host:port`
//! rendezvous addresses (§2.5's "information needed to connect to the
//! MRNet internal process tree"), and externally created back-ends
//! attach afterwards — the workflow used with job managers like POE.
//!
//! Run with: `cargo run --example tcp_overlay`

use std::time::Duration;

use mrnet::{Backend, NetworkBuilder, SyncMode, Value, WireTransport};
use mrnet_topology::{generator, HostPool};

fn main() {
    let topo = generator::balanced(2, 2, &mut HostPool::synthetic(64)).expect("topology");

    // Mode 2: internal processes only; every edge is a real localhost
    // TCP connection.
    let pending = NetworkBuilder::new(topo)
        .transport(WireTransport::Tcp)
        .launch_internal()
        .expect("internal tree");

    println!("internal tree up; published attach points:");
    let points = pending
        .collect_attach_points(Duration::from_secs(30))
        .expect("attach points");
    for ap in &points {
        println!("  back-end rank {} -> {}", ap.rank, ap.endpoint);
    }

    // "Job-manager-created" back-ends connect from their own threads.
    let backend_threads: Vec<_> = points
        .into_iter()
        .map(|ap| {
            std::thread::spawn(move || {
                let be = Backend::attach_tcp(&ap.endpoint, ap.rank).expect("attach");
                let (pkt, stream) = be.recv().expect("request");
                let base = pkt.get(0).and_then(Value::as_i32).unwrap_or(0);
                be.send(
                    stream,
                    0,
                    "%d",
                    vec![Value::Int32(base + i32::try_from(ap.rank).unwrap())],
                )
                .expect("reply");
            })
        })
        .collect();

    let net = pending.wait(Duration::from_secs(30)).expect("all attached");
    println!("all {} back-ends attached over TCP", net.num_backends());

    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(1000)]).unwrap();
    let total = stream
        .recv_timeout(Duration::from_secs(30))
        .unwrap()
        .get(0)
        .and_then(Value::as_i32)
        .unwrap();
    let expected: i32 = net
        .endpoints()
        .iter()
        .map(|&r| 1000 + i32::try_from(r).unwrap())
        .sum();
    println!("sum reduction over TCP overlay: {total} (expected {expected})");
    assert_eq!(total, expected);

    net.shutdown();
    for t in backend_threads {
        t.join().unwrap();
    }
    println!("done");
}
