//! Failure injection: the network must degrade gracefully — not hang
//! or corrupt state — when back-ends die, when peers send garbage, and
//! when handles are dropped without ceremony. (Full fault *recovery*
//! is future work in the paper too; these tests pin down today's
//! containment behavior.)

use std::time::{Duration, Instant};

use mrnet::{launch_local, MrnetError, NetworkBuilder, SyncMode, TopologyEvent, Value};
use mrnet_packet::bytes::Bytes;
use mrnet_topology::{generator, HostPool};

fn pool() -> HostPool {
    HostPool::synthetic(256)
}

const TIMEOUT: Duration = Duration::from_secs(15);

#[test]
fn dead_backend_prunes_wait_for_all_and_fails_drained_streams() {
    let topo = generator::flat(4, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let mut backends = dep.backends;
    let victim_rank = backends.last().unwrap().rank();
    // Kill one back-end before it answers anything.
    drop(backends.pop());

    // The death surfaces as a topology event naming the victim...
    let TopologyEvent::RankFailed { subtree, .. } = net.next_event_timeout(TIMEOUT).unwrap();
    assert_eq!(subtree, vec![victim_rank]);
    // ...and in the cumulative failed set.
    assert_eq!(net.failed_ranks(), vec![victim_rank]);

    // A WaitForAll stream over the pre-death broadcast communicator
    // does not stall: its membership shrinks to the survivors and the
    // wave completes from their contributions alone.
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let all_stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    all_stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    for be in &backends {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 0, "%d", vec![Value::Int32(1)]).unwrap();
    }
    let agg = all_stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(agg.get(0).unwrap().as_i32(), Some(3));

    // Kill every remaining member: the stream reports that its
    // end-points are gone instead of blocking forever.
    backends.clear();
    assert_eq!(
        all_stream.recv_timeout(TIMEOUT),
        Err(MrnetError::AllEndpointsFailed)
    );
    net.shutdown();
}

/// A back-end learns of a sibling's death from the report relayed down
/// to it: the event and the failed set arrive while its tool thread
/// waits in `recv_timeout`.
#[test]
fn backend_hears_of_a_sibling_death_while_receiving() {
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let mut backends = dep.backends;
    let victim = backends.remove(0);
    let victim_rank = victim.rank();
    let sibling = &backends[0];
    assert_eq!(sibling.try_next_event(), None);
    assert!(sibling.failed_ranks().is_empty());
    drop(victim);

    let deadline = Instant::now() + TIMEOUT;
    let event = loop {
        assert!(matches!(
            sibling.recv_timeout(Duration::from_millis(20)),
            Ok(None)
        ));
        if let Some(event) = sibling.try_next_event() {
            break event;
        }
        assert!(
            Instant::now() < deadline,
            "no RankFailed reached the sibling"
        );
    };
    assert_eq!(
        event,
        TopologyEvent::RankFailed {
            rank: victim_rank,
            subtree: vec![victim_rank]
        }
    );
    assert_eq!(sibling.failed_ranks(), vec![victim_rank]);
    assert_eq!(sibling.try_next_event(), None);
    dep.network.shutdown();
}

/// The report of a sibling's death reaches a back-end whose tool
/// thread never receives: its sink takes the event on delivery.
#[test]
fn backend_hears_of_a_sibling_death_without_receiving() {
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let mut backends = dep.backends;
    let victim = backends.remove(0);
    let victim_rank = victim.rank();
    drop(victim);

    let sibling = &backends[0];
    let deadline = Instant::now() + TIMEOUT;
    let event = loop {
        if let Some(event) = sibling.try_next_event() {
            break event;
        }
        assert!(
            Instant::now() < deadline,
            "no RankFailed reached the sibling"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        event,
        TopologyEvent::RankFailed {
            rank: victim_rank,
            subtree: vec![victim_rank]
        }
    );
    assert_eq!(sibling.failed_ranks(), vec![victim_rank]);
    dep.network.shutdown();
}

/// A transform filter that rejects a wave drops that wave only: the
/// back-end that sent the bad packet is not severed, no failure event
/// is raised, and its next well-typed wave aggregates normally.
#[test]
fn filter_error_drops_the_wave_not_the_child() {
    const V: i32 = 5;
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    let sids: Vec<_> = dep.backends.iter().map(|be| be.recv().unwrap().1).collect();

    // Wave 1: the first back-end sends a string into a `%d` sum, so
    // its interior node's d_sum rejects the wave and drops it.
    for (i, (be, &sid)) in dep.backends.iter().zip(&sids).enumerate() {
        if i == 0 {
            be.send(sid, 1, "%s", vec![Value::Str("not an int".into())])
                .unwrap();
        } else {
            be.send(sid, 1, "%d", vec![Value::Int32(V)]).unwrap();
        }
    }
    assert_eq!(
        stream.recv_timeout(Duration::from_millis(300)),
        Err(MrnetError::Timeout),
        "a wave with a rejected subtree must not reach the front-end"
    );

    // Wave 2, correctly typed everywhere. The offending back-end is
    // still a member (a severed child would have been pruned and its
    // share lost). The root completes its next wave from the healthy
    // subtree's queued wave-1 aggregate and the offending subtree's
    // wave-2 aggregate; both carry 2×V.
    for (be, &sid) in dep.backends.iter().zip(&sids) {
        be.send(sid, 2, "%d", vec![Value::Int32(V)]).unwrap();
    }
    let agg = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(agg.get(0).unwrap().as_i32(), Some(4 * V));

    assert_eq!(
        net.next_event_timeout(Duration::from_millis(200)),
        Err(MrnetError::Timeout),
        "a filter error is not a rank failure"
    );
    assert!(net.failed_ranks().is_empty());
    net.shutdown();
}

/// Launches balanced(2,2) with a d_sum WaitForAll stream; back-end
/// `i` answers `i + 1` when `sends(i)`, then every back-end is dropped.
/// The front-end must receive the senders' full sum, then
/// `AllEndpointsFailed`: the last wave never loses the race against
/// the failure reports it precedes.
fn sum_then_all_endpoints_failed(sends: impl Fn(usize) -> bool) {
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    let mut expect = 0;
    for (i, be) in dep.backends.iter().enumerate() {
        let (_, sid) = be.recv_timeout(TIMEOUT).unwrap().expect("broadcast");
        if sends(i) {
            let v = i as i32 + 1;
            be.send(sid, 0, "%d", vec![Value::Int32(v)]).unwrap();
            expect += v;
        }
    }
    drop(dep.backends);
    let agg = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(agg.get(0).unwrap().as_i32(), Some(expect));
    assert_eq!(
        stream.recv_timeout(TIMEOUT),
        Err(MrnetError::AllEndpointsFailed)
    );
    net.shutdown();
}

/// Every back-end answers, then dies: waves complete on arrival and
/// must reach the front-end before the stream fails.
#[test]
fn final_wave_is_delivered_before_all_endpoints_failed() {
    for _ in 0..20 {
        sum_then_all_endpoints_failed(|_| true);
    }
}

/// Half the back-ends die without answering, so interior nodes release
/// their waves while pruning — inside the very failure handling whose
/// report must not overtake them.
#[test]
fn wave_released_by_a_death_precedes_its_failure_report() {
    for _ in 0..20 {
        sum_then_all_endpoints_failed(|i| i % 2 == 0);
    }
}

#[test]
fn garbage_frame_to_node_severs_only_that_peer() {
    // A raw TCP peer completes the attach handshake and then sends an
    // undecodable frame. The node must declare that peer failed (an
    // event reaches the front-end) while continuing to serve its other
    // child — no panic, no hang.
    use mrnet::proto::Control;
    use mrnet::WireTransport;
    use mrnet_transport::{Connection, TcpConnection};

    let topo = generator::flat(2, &mut pool()).unwrap();
    let pending = NetworkBuilder::new(topo)
        .transport(WireTransport::Tcp)
        .launch_internal()
        .unwrap();
    let points = pending.collect_attach_points(TIMEOUT).unwrap();
    assert_eq!(points.len(), 2);
    let good = points[0].clone();
    let good_be =
        std::thread::spawn(move || mrnet::Backend::attach_tcp(&good.endpoint, good.rank).unwrap());
    let impostor_rank = points[1].rank;
    let raw = TcpConnection::connect(&points[1].endpoint).unwrap();
    raw.send(
        Control::Attach {
            rank: impostor_rank,
        }
        .to_frame(),
    )
    .unwrap();
    raw.send(
        Control::SubtreeReport {
            endpoints: vec![impostor_rank],
        }
        .to_frame(),
    )
    .unwrap();
    let net = pending.wait(TIMEOUT).unwrap();
    let good_be = good_be.join().unwrap();

    // Valid framing, garbage contents.
    raw.send(Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]))
        .unwrap();
    let TopologyEvent::RankFailed { subtree, .. } = net.next_event_timeout(TIMEOUT).unwrap();
    assert_eq!(subtree, vec![impostor_rank]);

    // The surviving child still works end-to-end on the same node.
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    let (_, sid) = good_be.recv().unwrap();
    good_be.send(sid, 0, "%d", vec![Value::Int32(9)]).unwrap();
    let agg = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(agg.get(0).unwrap().as_i32(), Some(9));
    net.shutdown();
    drop(raw);
}

/// A rendezvous address is public, so anything may connect to it. Each
/// connection that botches the `Attach` handshake (garbage, a rank
/// nobody awaits, a second attach for a rank already taken) is dropped
/// on its own, and the real back-ends attach around them.
#[test]
fn hostile_attach_handshakes_are_dropped() {
    use mrnet::proto::Control;
    use mrnet::{Backend, WireTransport};
    use mrnet_transport::{Connection, TcpConnection};

    let topo = generator::flat(2, &mut pool()).unwrap();
    let pending = NetworkBuilder::new(topo)
        .transport(WireTransport::Tcp)
        .launch_internal()
        .unwrap();
    let points = pending.collect_attach_points(TIMEOUT).unwrap();
    let (first, second) = (&points[0], &points[1]);
    let garbage = TcpConnection::connect(&first.endpoint).unwrap();
    garbage
        .send(Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]))
        .unwrap();
    let unknown = TcpConnection::connect(&first.endpoint).unwrap();
    unknown
        .send(Control::Attach { rank: 999 }.to_frame())
        .unwrap();
    let be1 = Backend::attach_tcp(&first.endpoint, first.rank).unwrap();
    let twin = TcpConnection::connect(&first.endpoint).unwrap();
    twin.send(Control::Attach { rank: first.rank }.to_frame())
        .unwrap();
    let be2 = Backend::attach_tcp(&second.endpoint, second.rank).unwrap();
    let net = pending.wait(TIMEOUT).unwrap();

    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    for be in [&be1, &be2] {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 0, "%d", vec![Value::Int32(1)]).unwrap();
    }
    let agg = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(agg.get(0).unwrap().as_i32(), Some(2));
    for stray in [&garbage, &unknown, &twin] {
        assert!(stray.recv_timeout(TIMEOUT).is_err(), "stray closed");
    }
    net.shutdown();
}

/// A drained stream whose every end-point died reports the failure
/// from the non-blocking receive too, instead of "nothing yet" forever.
#[test]
fn try_recv_on_a_failed_empty_stream_is_all_endpoints_failed() {
    let topo = generator::flat(2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    drop(dep.backends);
    // The root fails the stream before it reports the last death.
    while net.failed_ranks().len() < 2 {
        net.next_event_timeout(TIMEOUT).unwrap();
    }
    assert_eq!(
        stream.try_recv().err(),
        Some(MrnetError::AllEndpointsFailed)
    );
    net.shutdown();
}

#[test]
fn timeout_streams_survive_dead_backends() {
    // The paper's TimeOut synchronization mode exists exactly for
    // stragglers; a dead back-end is the ultimate straggler.
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let mut backends = dep.backends;
    drop(backends.pop()); // kill one of four

    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::TimeOut(0.3)).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    for be in &backends {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 0, "%d", vec![Value::Int32(5)]).unwrap();
    }
    // Partial aggregate from the three survivors arrives after the
    // timeout despite the dead member.
    let mut total = 0;
    let deadline = std::time::Instant::now() + TIMEOUT;
    while total < 15 && std::time::Instant::now() < deadline {
        if let Ok(pkt) = stream.recv_timeout(Duration::from_millis(500)) {
            total += pkt.get(0).unwrap().as_i32().unwrap();
        }
    }
    assert_eq!(total, 15);
    net.shutdown();
}

#[test]
fn dropping_network_without_shutdown_releases_everything() {
    // Drop is the only cleanup: backends must still observe shutdown.
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let backends = dep.backends;
    let waiters: Vec<_> = backends
        .into_iter()
        .map(|be| std::thread::spawn(move || be.recv()))
        .collect();
    drop(dep.network);
    for w in waiters {
        assert_eq!(w.join().unwrap().unwrap_err(), MrnetError::Shutdown);
    }
}

#[test]
fn garbage_frames_do_not_poison_the_backend() {
    // A malformed frame is dropped at delivery and yields no packet;
    // the connection and later traffic keep working.
    use mrnet_transport::Listener;
    let fabric = mrnet_transport::LocalFabric::new();
    let listener = fabric.listen("leaf");
    let be = std::thread::spawn({
        let fabric = fabric.clone();
        move || mrnet::Backend::attach(&fabric, "leaf", 7).unwrap()
    });
    let server = listener.accept().unwrap();
    let be = be.join().unwrap();
    // Drain the handshake (Attach + SubtreeReport).
    server.recv().unwrap();
    server.recv().unwrap();
    // Garbage bytes.
    server
        .send(Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]))
        .unwrap();
    // Delivered in process, so handled before the send returned.
    assert!(be.recv_timeout(Duration::ZERO).unwrap().is_none());
    // A valid frame afterwards is still delivered.
    let pkt = mrnet::PacketBuilder::new(3, 1).push(42i32).build();
    // The stream must be known first: announce it.
    let def = mrnet::StreamDef {
        id: 3,
        endpoints: vec![7],
        up_filter: "null".into(),
        down_filter: "null".into(),
        sync: SyncMode::DoNotWait,
    };
    server.send(def.to_control().to_frame()).unwrap();
    server
        .send(mrnet::proto::encode_data_frame(&[pkt]))
        .unwrap();
    let (got, sid) = be.recv_timeout(TIMEOUT).unwrap().unwrap();
    assert_eq!(sid, 3);
    assert_eq!(got.get(0).unwrap().as_i32(), Some(42));
}

#[test]
fn instantiation_failure_surfaces_not_hangs() {
    // A mode-2 deployment whose back-ends never attach times out
    // cleanly in wait().
    let topo = generator::flat(2, &mut pool()).unwrap();
    let pending = NetworkBuilder::new(topo).launch_internal().unwrap();
    let err = pending
        .wait(Duration::from_millis(300))
        .err()
        .expect("timeout");
    assert!(matches!(err, MrnetError::Instantiation(_)));
}

#[test]
fn sends_after_shutdown_fail_fast() {
    let topo = generator::flat(2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let null = net.registry().id_of("null").unwrap();
    let stream = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();
    net.shutdown();
    assert!(matches!(
        stream.send(0, "%d", vec![Value::Int32(1)]),
        Err(MrnetError::Shutdown)
    ));
    assert!(matches!(
        net.new_stream(&comm, null, SyncMode::DoNotWait),
        Err(MrnetError::Shutdown)
    ));
    for be in &dep.backends {
        let r = be.send(stream.id(), 0, "%d", vec![Value::Int32(1)]);
        assert!(r.is_err());
    }
}
