//! End-to-end tests of the MRNet core: live thread trees exchanging
//! real frames over both transports and both instantiation modes.

use std::time::Duration;

use mrnet::{launch_local, Backend, MrnetError, NetworkBuilder, SyncMode, Value, WireTransport};
use mrnet_topology::{generator, HostPool};

fn pool() -> HostPool {
    HostPool::synthetic(1024)
}

const TIMEOUT: Duration = Duration::from_secs(20);

/// Drives every backend in its own thread with `f`, collecting results.
fn drive_backends<T: Send + 'static>(
    backends: Vec<Backend>,
    f: impl Fn(Backend) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let handles: Vec<_> = backends
        .into_iter()
        .map(|be| {
            let f = f.clone();
            std::thread::spawn(move || f(be))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn figure2_flow_on_4ary_tree() {
    let topo = generator::balanced(4, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    assert_eq!(net.num_backends(), 16);

    let comm = net.broadcast_communicator();
    let fmax = net.registry().id_of("f_max").unwrap();
    let stream = net.new_stream(&comm, fmax, SyncMode::WaitForAll).unwrap();
    stream.send(7, "%d", vec![Value::Int32(99)]).unwrap();

    drive_backends(dep.backends, |be| {
        let (pkt, sid) = be.recv().unwrap();
        assert_eq!(pkt.tag(), 7);
        assert_eq!(pkt.get(0).unwrap().as_i32(), Some(99));
        be.send(sid, 7, "%f", vec![Value::Float(be.rank() as f32)])
            .unwrap();
    });

    let result = stream.recv_timeout(TIMEOUT).unwrap();
    let max_rank = *net.endpoints().iter().max().unwrap();
    assert_eq!(result.get(0).unwrap().as_f32(), Some(max_rank as f32));
    net.shutdown();
}

#[test]
fn sum_on_flat_topology() {
    let topo = generator::flat(8, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let isum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, isum, SyncMode::WaitForAll).unwrap();
    stream.send(1, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 1, "%d", vec![Value::Int32(2)]).unwrap();
    });
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(16));
    net.shutdown();
}

#[test]
fn concat_collects_all_hostnames() {
    let topo = generator::balanced(2, 3, &mut pool()).unwrap(); // 8 BEs
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let concat = net.registry().id_of("concat_s").unwrap();
    let stream = net.new_stream(&comm, concat, SyncMode::WaitForAll).unwrap();
    stream.send(2, "%d", vec![Value::Int32(1)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        be.send(
            sid,
            2,
            "%s",
            vec![Value::Str(format!("host-{}", be.rank()))],
        )
        .unwrap();
    });
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    let names = result.get(0).unwrap().as_str_array().unwrap().to_vec();
    assert_eq!(names.len(), 8);
    for rank in net.endpoints() {
        assert!(names.contains(&format!("host-{rank}")));
    }
    net.shutdown();
}

#[test]
fn multiple_concurrent_streams() {
    // "Multiple logical streams of data … and multiple operations can
    // be active simultaneously" (§1).
    let topo = generator::balanced(3, 2, &mut pool()).unwrap(); // 9 BEs
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let reg = net.registry();
    let s_max = net
        .new_stream(&comm, reg.id_of("d_max").unwrap(), SyncMode::WaitForAll)
        .unwrap();
    let s_min = net
        .new_stream(&comm, reg.id_of("d_min").unwrap(), SyncMode::WaitForAll)
        .unwrap();
    let s_sum = net
        .new_stream(&comm, reg.id_of("d_sum").unwrap(), SyncMode::WaitForAll)
        .unwrap();
    for s in [&s_max, &s_min, &s_sum] {
        s.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    }
    drive_backends(dep.backends, |be| {
        // Answer all three requests, whatever order they arrive in.
        for _ in 0..3 {
            let (_, sid) = be.recv().unwrap();
            be.send(sid, 0, "%d", vec![Value::Int32(be.rank() as i32)])
                .unwrap();
        }
    });
    let ranks: Vec<i32> = net.endpoints().iter().map(|&r| r as i32).collect();
    assert_eq!(
        s_max
            .recv_timeout(TIMEOUT)
            .unwrap()
            .get(0)
            .unwrap()
            .as_i32(),
        ranks.iter().max().copied()
    );
    assert_eq!(
        s_min
            .recv_timeout(TIMEOUT)
            .unwrap()
            .get(0)
            .unwrap()
            .as_i32(),
        ranks.iter().min().copied()
    );
    assert_eq!(
        s_sum
            .recv_timeout(TIMEOUT)
            .unwrap()
            .get(0)
            .unwrap()
            .as_i32(),
        Some(ranks.iter().sum())
    );
    net.shutdown();
}

#[test]
fn subset_communicator_only_reaches_members() {
    let topo = generator::balanced(2, 2, &mut pool()).unwrap(); // 4 BEs
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let eps = net.endpoints().to_vec();
    let subset = net.communicator(eps[..2].iter().copied()).unwrap();
    let null = net.registry().id_of("null").unwrap();
    let stream = net.new_stream(&subset, null, SyncMode::DoNotWait).unwrap();
    stream.send(5, "%d", vec![Value::Int32(1)]).unwrap();

    let results = drive_backends(dep.backends, |be| {
        match be.recv_timeout(Duration::from_millis(600)) {
            Ok(Some((pkt, _))) => (be.rank(), Some(pkt.tag())),
            Ok(None) => (be.rank(), None),
            Err(_) => (be.rank(), None),
        }
    });
    for (rank, got) in results {
        if subset.endpoints().contains(&rank) {
            assert_eq!(got, Some(5), "member {rank} must receive");
        } else {
            assert_eq!(got, None, "non-member {rank} must not receive");
        }
    }
    net.shutdown();
}

#[test]
fn do_not_wait_streams_deliver_packets_individually() {
    let topo = generator::flat(3, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let null = net.registry().id_of("null").unwrap();
    let stream = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 0, "%ud", vec![Value::UInt32(be.rank())])
            .unwrap();
        be.send(sid, 0, "%ud", vec![Value::UInt32(be.rank() + 100)])
            .unwrap();
    });
    let mut got = Vec::new();
    for _ in 0..6 {
        got.push(
            stream
                .recv_timeout(TIMEOUT)
                .unwrap()
                .get(0)
                .unwrap()
                .as_u32()
                .unwrap(),
        );
    }
    got.sort_unstable();
    let mut expected: Vec<u32> = net.endpoints().iter().flat_map(|&r| [r, r + 100]).collect();
    expected.sort_unstable();
    assert_eq!(got, expected);
    net.shutdown();
}

#[test]
fn timeout_sync_releases_partial_waves() {
    let topo = generator::flat(4, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::TimeOut(0.3)).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    // Only two of four back-ends answer.
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        if be.rank() % 2 == 0 {
            be.send(sid, 0, "%d", vec![Value::Int32(10)]).unwrap();
        }
        be
    });
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(20));
    net.shutdown();
}

#[test]
fn stream_close_propagates() {
    let topo = generator::flat(2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let null = net.registry().id_of("null").unwrap();
    let stream = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();
    let sid = stream.id();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    let backends = dep.backends;
    // Both backends learn the stream.
    for be in &backends {
        let (_, s) = be.recv().unwrap();
        assert_eq!(s, sid);
    }
    stream.close().unwrap();
    // Deletion reaches the backends: their sends eventually fail with
    // UnknownStream once the DeleteStream control is processed.
    let be = &backends[0];
    let deadline = std::time::Instant::now() + TIMEOUT;
    loop {
        // Paces the loop: the back-end's sink edits its stream table
        // as the DeleteStream arrives, whether or not it receives.
        let _ = be.recv_timeout(Duration::from_millis(50));
        match be.send(sid, 0, "%d", vec![Value::Int32(1)]) {
            Err(MrnetError::UnknownStream(s)) => {
                assert_eq!(s, sid);
                break;
            }
            Ok(()) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "DeleteStream never reached the back-end"
                );
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    net.shutdown();
}

#[test]
fn shutdown_wakes_backends_and_frontend() {
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let backends = dep.backends;
    let waiters: Vec<_> = backends
        .into_iter()
        .map(|be| std::thread::spawn(move || be.recv()))
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    net.shutdown();
    for w in waiters {
        assert_eq!(w.join().unwrap().unwrap_err(), MrnetError::Shutdown);
    }
    assert!(net.is_down());
    // recv after shutdown fails immediately.
    assert!(matches!(net.recv_any(), Err(MrnetError::Shutdown)));
}

#[test]
fn recv_any_returns_stream_handles() {
    let topo = generator::flat(2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(3, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 3, "%d", vec![Value::Int32(1)]).unwrap();
    });
    let (pkt, s) = net.recv_any_timeout(TIMEOUT).unwrap();
    assert_eq!(s.id(), stream.id());
    assert_eq!(pkt.get(0).unwrap().as_i32(), Some(2));
    net.shutdown();
}

#[test]
fn custom_filter_via_registry() {
    use mrnet::{FnFilter, FormatString};
    use mrnet_packet::PacketBuilder;

    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let registry = mrnet::FilterRegistry::with_builtins();
    // A word-count-style filter: counts total packets seen across all
    // waves (exercising persistent filter state in internal processes).
    registry
        .register("wave_width", || {
            Box::new(FnFilter::new(
                "wave_width",
                Some(FormatString::parse("%ud").unwrap()),
                (),
                |_, inputs, _ctx| {
                    let total: u32 = inputs
                        .iter()
                        .map(|p| p.get(0).unwrap().as_u32().unwrap())
                        .sum();
                    let first = &inputs[0];
                    Ok(vec![PacketBuilder::new(first.stream_id(), first.tag())
                        .push(total)
                        .build()])
                },
            ))
        })
        .unwrap();
    let dep = NetworkBuilder::new(topo)
        .registry(registry)
        .launch()
        .unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let wid = net.registry().id_of("wave_width").unwrap();
    let stream = net.new_stream(&comm, wid, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 0, "%ud", vec![Value::UInt32(1)]).unwrap();
    });
    // Each back-end contributes 1; the tree sums them: 4 in total.
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(result.get(0).unwrap().as_u32(), Some(4));
    net.shutdown();
}

#[test]
fn mode2_attach_instantiation() {
    // §2.5 second mode: internal tree first, back-ends attach later.
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let pending = NetworkBuilder::new(topo).launch_internal().unwrap();
    let fabric = pending.fabric().clone();
    let points = pending.collect_attach_points(TIMEOUT).unwrap();
    assert_eq!(points.len(), 4);

    let be_threads: Vec<_> = points
        .into_iter()
        .map(|ap| {
            let fabric = fabric.clone();
            std::thread::spawn(move || {
                let be = Backend::attach(&fabric, &ap.endpoint, ap.rank).unwrap();
                let (pkt, sid) = be.recv().unwrap();
                assert_eq!(pkt.get(0).unwrap().as_i32(), Some(55));
                be.send(
                    sid,
                    0,
                    "%d",
                    vec![Value::Int32(i32::try_from(ap.rank).unwrap())],
                )
                .unwrap();
            })
        })
        .collect();

    let net = pending.wait(TIMEOUT).unwrap();
    assert_eq!(net.num_backends(), 4);
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(55)]).unwrap();
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    let expected: i32 = net.endpoints().iter().map(|&r| r as i32).sum();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(expected));
    for t in be_threads {
        t.join().unwrap();
    }
    net.shutdown();
}

/// Mode 2 on Figure 4b's shape, where the root has both internal
/// children, whose edges the launcher connects, and back-ends, which
/// attach at the root's listener: the root merges the two in child
/// order. Every node with back-end children has one endpoint, shared
/// by its back-ends, which attach in reverse rank order.
#[test]
fn mode2_mixed_node_merges_child_order() {
    let topo = generator::fig4_unbalanced(&mut pool()).unwrap();
    let parents: std::collections::HashSet<_> =
        topo.backends().iter().map(|&b| topo.parent(b)).collect();
    let pending = NetworkBuilder::new(topo).launch_internal().unwrap();
    let fabric = pending.fabric().clone();
    let points = pending.collect_attach_points(TIMEOUT).unwrap();
    let endpoints: std::collections::HashSet<_> = points.iter().map(|p| &p.endpoint).collect();
    assert_eq!(endpoints.len(), parents.len());
    let backends: Vec<Backend> = points
        .iter()
        .rev()
        .map(|ap| Backend::attach(&fabric, &ap.endpoint, ap.rank).unwrap())
        .collect();

    let net = pending.wait(TIMEOUT).unwrap();
    assert_eq!(net.num_backends(), points.len());
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(backends, |be| {
        let (_, sid) = be.recv().unwrap();
        let rank = i32::try_from(be.rank()).unwrap();
        be.send(sid, 0, "%d", vec![Value::Int32(rank)]).unwrap();
    });
    let expected: i32 = points.iter().map(|p| p.rank as i32).sum();
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(expected));
    net.shutdown();
}

#[test]
fn tcp_transport_end_to_end() {
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = NetworkBuilder::new(topo)
        .transport(WireTransport::Tcp)
        .launch()
        .unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let favg = net.registry().id_of("lf_sum").unwrap();
    let stream = net.new_stream(&comm, favg, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 0, "%lf", vec![Value::Double(2.5)]).unwrap();
    });
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(result.get(0).unwrap().as_f64(), Some(10.0));
    net.shutdown();
}

#[test]
fn repeated_reductions_pipeline() {
    let topo = generator::balanced(4, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    const ROUNDS: i32 = 50;
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        for round in 0..ROUNDS {
            be.send(sid, 0, "%d", vec![Value::Int32(round)]).unwrap();
        }
    });
    for round in 0..ROUNDS {
        let result = stream.recv_timeout(TIMEOUT).unwrap();
        assert_eq!(result.get(0).unwrap().as_i32(), Some(round * 16));
    }
    net.shutdown();
}

#[test]
fn communicator_validation() {
    let topo = generator::flat(2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    assert!(matches!(
        net.communicator(std::iter::empty()),
        Err(MrnetError::EmptyCommunicator)
    ));
    assert!(matches!(
        net.communicator([999u32]),
        Err(MrnetError::UnknownEndpoint(999))
    ));
    net.shutdown();
}

#[test]
fn backend_send_on_unknown_stream_fails() {
    let topo = generator::flat(2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let be = &dep.backends[0];
    assert!(matches!(
        be.send(42, 0, "%d", vec![Value::Int32(1)]),
        Err(MrnetError::UnknownStream(42))
    ));
    dep.network.shutdown();
}

#[test]
fn larger_tree_512_backends_instantiates_and_reduces() {
    // The paper's largest configuration, as threads.
    let topo = generator::balanced_for(8, 512, &mut HostPool::synthetic(4096)).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    assert_eq!(net.num_backends(), 512);
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 0, "%d", vec![Value::Int32(1)]).unwrap();
    });
    let result = stream.recv_timeout(Duration::from_secs(60)).unwrap();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(512));
    net.shutdown();
}

#[test]
fn stream_stats_count_traffic() {
    let topo = generator::flat(3, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    assert_eq!(stream.stats(), mrnet::StreamStats::default());
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(dep.backends, |be| {
        for _ in 0..2 {
            let (_, sid) = be.recv().unwrap();
            be.send(sid, 0, "%d", vec![Value::Int32(1)]).unwrap();
        }
    });
    for _ in 0..2 {
        stream.recv_timeout(TIMEOUT).unwrap();
    }
    let stats = stream.stats();
    assert_eq!(stats.sent, 2);
    assert_eq!(stats.received, 2, "two aggregated results");
    net.shutdown();
}

#[test]
fn downstream_transformation_filter_applies_at_internal_nodes() {
    // §2.4: "Transformation filters operate on input data packets
    // flowing either upstream or downstream." A doubling filter bound
    // downstream multiplies at every internal level: depth 2 ⇒ ×4 by
    // the time packets reach the back-ends.
    use mrnet::{FilterRegistry, FnFilter, FormatString, PacketBuilder};
    let registry = FilterRegistry::with_builtins();
    registry
        .register("double_down", || {
            Box::new(FnFilter::new(
                "double_down",
                Some(FormatString::parse("%d").unwrap()),
                (),
                |_, inputs, _| {
                    Ok(inputs
                        .into_iter()
                        .map(|p| {
                            let v = p.get(0).unwrap().as_i32().unwrap();
                            PacketBuilder::new(p.stream_id(), p.tag())
                                .push(v * 2)
                                .build()
                        })
                        .collect())
                },
            ))
        })
        .unwrap();
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = NetworkBuilder::new(topo)
        .registry(registry)
        .launch()
        .unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let up = net.registry().id_of("d_sum").unwrap();
    let down = net.registry().id_of("double_down").unwrap();
    let stream = net
        .new_stream_full(&comm, up, down, SyncMode::WaitForAll)
        .unwrap();
    stream.send(0, "%d", vec![Value::Int32(5)]).unwrap();
    let got = drive_backends(dep.backends, |be| {
        let (pkt, sid) = be.recv().unwrap();
        let v = pkt.get(0).unwrap().as_i32().unwrap();
        be.send(sid, 0, "%d", vec![Value::Int32(v)]).unwrap();
        v
    });
    // Root applies the downstream filter once, each internal level
    // once more: 5 × 2 (root) × 2 (level-1 internal) = 20.
    for v in got {
        assert_eq!(v, 20);
    }
    let total = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(total.get(0).unwrap().as_i32(), Some(80));
    net.shutdown();
}

#[test]
fn independent_networks_coexist_without_crosstalk() {
    // "each tool has its own MRNet network instantiation" (§2.1).
    let dep_a = launch_local(generator::flat(2, &mut pool()).unwrap()).unwrap();
    let dep_b = launch_local(generator::flat(3, &mut pool()).unwrap()).unwrap();
    let run = |dep: mrnet::Deployment, reply: i32| {
        let net = dep.network.clone();
        let comm = net.broadcast_communicator();
        let sum = net.registry().id_of("d_sum").unwrap();
        let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
        stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
        drive_backends(dep.backends, move |be| {
            let (_, sid) = be.recv().unwrap();
            be.send(sid, 0, "%d", vec![Value::Int32(reply)]).unwrap();
        });
        let out = stream
            .recv_timeout(TIMEOUT)
            .unwrap()
            .get(0)
            .unwrap()
            .as_i32()
            .unwrap();
        net.shutdown();
        out
    };
    // Interleave: create both, then run both.
    assert_eq!(run(dep_a, 10), 20);
    assert_eq!(run(dep_b, 100), 300);
}

#[test]
fn recv_any_interleaves_streams_fairly() {
    let topo = generator::flat(2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let null = net.registry().id_of("null").unwrap();
    let s1 = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();
    let s2 = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();
    s1.send(1, "%d", vec![Value::Int32(0)]).unwrap();
    s2.send(2, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(dep.backends, |be| {
        for _ in 0..2 {
            let (pkt, sid) = be.recv().unwrap();
            be.send(sid, pkt.tag(), "%d", vec![Value::Int32(1)])
                .unwrap();
        }
    });
    // Four packets total (2 backends × 2 streams), all via recv_any.
    let mut counts = std::collections::HashMap::new();
    for _ in 0..4 {
        let (_, stream) = net.recv_any_timeout(TIMEOUT).unwrap();
        *counts.entry(stream.id()).or_insert(0) += 1;
    }
    assert_eq!(counts.get(&s1.id()), Some(&2));
    assert_eq!(counts.get(&s2.id()), Some(&2));
    net.shutdown();
}

#[test]
fn tcp_mode2_attach() {
    // Mode-2 instantiation with TCP rendezvous endpoints.
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let pending = NetworkBuilder::new(topo)
        .transport(WireTransport::Tcp)
        .launch_internal()
        .unwrap();
    let points = pending.collect_attach_points(TIMEOUT).unwrap();
    let threads: Vec<_> = points
        .into_iter()
        .map(|ap| {
            std::thread::spawn(move || {
                let be = Backend::attach_tcp(&ap.endpoint, ap.rank).unwrap();
                let (_, sid) = be.recv().unwrap();
                be.send(sid, 0, "%d", vec![Value::Int32(2)]).unwrap();
            })
        })
        .collect();
    let net = pending.wait(TIMEOUT).unwrap();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    assert_eq!(
        stream
            .recv_timeout(TIMEOUT)
            .unwrap()
            .get(0)
            .unwrap()
            .as_i32(),
        Some(8)
    );
    net.shutdown();
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn unpack_api_on_live_traffic() {
    use mrnet::Unpack;
    let topo = generator::flat(2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let concat = net.registry().id_of("concat_s").unwrap();
    let stream = net.new_stream(&comm, concat, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (pkt, sid) = be.recv().unwrap();
        let (request,): (i32,) = pkt.unpack().unwrap();
        be.send(sid, 0, "%s", vec![Value::Str(format!("ack{request}"))])
            .unwrap();
    });
    let reply = stream.recv_timeout(TIMEOUT).unwrap();
    let (names,): (Vec<String>,) = reply.unpack().unwrap();
    assert_eq!(names, vec!["ack0", "ack0"]);
    net.shutdown();
}

#[test]
fn single_connection_front_end_offloads_aggregation() {
    // §1: "MRNet can off-load all data aggregation processing from a
    // tool's front-end by using a single connection between the
    // front-end and the top-most MRNet internal process" — the `1xK`
    // topology shape.
    let topo = generator::from_level_fanouts(&[1, 4, 4], &mut pool()).unwrap();
    assert_eq!(topo.root_fanout(), 1);
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    assert_eq!(net.num_backends(), 16);
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 0, "%d", vec![Value::Int32(3)]).unwrap();
    });
    // The top-most internal process delivers one fully aggregated
    // packet over the single front-end connection.
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(48));
    let stats = stream.stats();
    assert_eq!(stats.received, 1);
    net.shutdown();
}

/// Names of this process's threads, from `/proc/self/task/*/comm`.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect()
}

/// Connections deliver straight into the node inbox (§2.3: one event
/// loop per process): a live tree over either transport runs no thread
/// whose only job is moving frames between queues.
#[cfg(target_os = "linux")]
#[test]
fn live_trees_run_no_pump_threads() {
    for transport in [WireTransport::Channels, WireTransport::Tcp] {
        let topo = generator::balanced(2, 2, &mut pool()).unwrap();
        let dep = NetworkBuilder::new(topo)
            .transport(transport)
            .launch()
            .unwrap();
        let net = dep.network.clone();
        let comm = net.broadcast_communicator();
        let sum = net.registry().id_of("d_sum").unwrap();
        let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
        stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
        let backends = dep.backends;
        for be in &backends {
            let (_, sid) = be.recv_timeout(TIMEOUT).unwrap().expect("broadcast");
            be.send(sid, 0, "%d", vec![Value::Int32(1)]).unwrap();
        }
        let result = stream.recv_timeout(TIMEOUT).unwrap();
        assert_eq!(result.get(0).unwrap().as_i32(), Some(4));
        let pumps: Vec<String> = thread_names()
            .into_iter()
            .filter(|name| name.contains("pump"))
            .collect();
        assert!(pumps.is_empty(), "{transport:?}: pump threads {pumps:?}");
        net.shutdown();
    }
}

/// `Stream::try_recv` on an empty stream answers at once.
#[test]
fn try_recv_on_an_empty_stream_returns_at_once() {
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    let start = std::time::Instant::now();
    assert!(stream.try_recv().unwrap().is_none());
    assert!(start.elapsed() < Duration::from_secs(1));
    drop(dep.backends);
    net.shutdown();
}

/// A `TimeOut` wave that waits on a silent back-end is released on
/// time even while its sibling floods another stream through the same
/// interior node: the loop fires due timers after every inbox batch,
/// not only when its inbox runs dry.
#[test]
fn timeout_wave_is_released_under_steady_traffic() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    // The silent back-end and the flooder share one interior parent.
    let leaves = topo.backends();
    let silent = leaves[0];
    let flooder = *leaves
        .iter()
        .find(|&&b| b != silent && topo.parent(b) == topo.parent(silent))
        .expect("a sibling back-end");
    let (silent, flooder) = (silent.0 as mrnet::Rank, flooder.0 as mrnet::Rank);
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let sum = net.registry().id_of("d_sum").unwrap();
    let null = net.registry().id_of("null").unwrap();
    let pair = net.communicator([silent, flooder]).unwrap();
    let timed = net.new_stream(&pair, sum, SyncMode::TimeOut(0.2)).unwrap();
    let solo = net.communicator([flooder]).unwrap();
    let flood = net.new_stream(&solo, null, SyncMode::DoNotWait).unwrap();
    timed.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    flood.send(0, "%d", vec![Value::Int32(0)]).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // The flooder reports here once it has stopped sending, so the tree
    // is not shut down under a send that already passed its stop check.
    let (flood_done_tx, flood_done) = std::sync::mpsc::channel();
    let (timed_id, flood_id) = (timed.id(), flood.id());
    let handles: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| {
            let stop = stop.clone();
            let flood_done_tx = flood_done_tx.clone();
            std::thread::spawn(move || {
                if be.rank() == flooder {
                    be.recv().unwrap();
                    be.recv().unwrap();
                    be.send(timed_id, 0, "%d", vec![Value::Int32(5)]).unwrap();
                    // Bounded, so a starved timer fails the test rather
                    // than growing the queues without end.
                    let start = Instant::now();
                    let mut i = 0;
                    while !stop.load(Ordering::Relaxed) && start.elapsed() < Duration::from_secs(3)
                    {
                        be.send(flood_id, 0, "%d", vec![Value::Int32(i)]).unwrap();
                        i += 1;
                    }
                    let _ = flood_done_tx.send(());
                }
                // Everyone else stays silent on both streams; dropping a
                // back-end would declare it failed.
                be
            })
        })
        .collect();
    let drain = {
        let (flood, stop) = (flood.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut got = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if flood.recv_timeout(Duration::from_millis(50)).is_ok() {
                    got += 1;
                }
            }
            got
        })
    };

    // The interior's wave times out 0.2 s after the flooder's
    // contribution; allow generous slack for a loaded machine.
    let partial = timed.recv_timeout(Duration::from_secs(1));
    stop.store(true, Ordering::Relaxed);
    let flooded = drain.join().unwrap();
    let _ = flood_done.recv_timeout(Duration::from_secs(10));
    net.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    let partial = partial.expect("timed-out wave not released under flood");
    assert_eq!(partial.get(0).unwrap().as_i32(), Some(5));
    assert!(flooded > 0, "the flood reached the front-end");
}
