//! End-to-end tests of the upstream fast path: lazy payload relay
//! through internal nodes (zero decodes, byte-identical wire data).

use std::sync::Arc;
use std::time::Duration;

use mrnet::internal::process::{Link, NodeLoop, Upstream};
use mrnet::proto::{decode_frame, encode_data_frame, Control, Frame};
use mrnet::{
    launch_local, FilterRegistry, MetricsSection, MrnetError, NetworkSnapshot, Packet,
    PacketBuilder, StreamDef, SyncMode, Value,
};
use mrnet_packet::encode_packet;
use mrnet_topology::{generator, HostPool};
use mrnet_transport::{Connection, LocalConnection, SharedConnection};

fn pool() -> HostPool {
    HostPool::synthetic(64)
}

const TIMEOUT: Duration = Duration::from_secs(20);

/// Sections for ranks in `ranks`, in snapshot order.
fn sections_for<'a>(
    snap: &'a NetworkSnapshot,
    ranks: &'a [u32],
) -> impl Iterator<Item = &'a MetricsSection> {
    snap.nodes.iter().filter(|s| ranks.contains(&s.rank))
}

/// A pure relay (null filter, no alignment) must never open a payload
/// at any interior node: `pkts.decoded` stays zero tree-wide, every
/// forwarded packet counts as `pkts.lazy_relayed`, and the bytes the
/// front-end receives are exactly the bytes each back-end encoded.
#[test]
fn passthrough_relay_never_decodes_and_preserves_bytes() {
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let backend_ranks: Vec<u32> = net.endpoints().to_vec();
    assert_eq!(backend_ranks.len(), 4);

    let comm = net.broadcast_communicator();
    let null = net.registry().id_of("null").unwrap();
    let stream = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();

    const WAVES: u64 = 8;
    stream.send(1, "%d", vec![Value::Int32(0)]).unwrap();

    let handles: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| {
            std::thread::spawn(move || {
                let (_, sid) = be.recv().unwrap();
                for w in 0..WAVES {
                    be.send(sid, 1, "%d", vec![Value::Int32(w as i32)]).unwrap();
                }
                loop {
                    match be.recv_timeout(Duration::from_millis(100)) {
                        Ok(_) => {}
                        Err(MrnetError::Shutdown) => return,
                        Err(e) => panic!("backend pump failed: {e}"),
                    }
                }
            })
        })
        .collect();

    let expected = WAVES * backend_ranks.len() as u64;
    let mut delivered: Vec<Packet> = Vec::with_capacity(expected as usize);
    for _ in 0..expected {
        delivered.push(stream.recv_timeout(TIMEOUT).unwrap());
    }

    // Every delivered packet is still in raw wire form: two relay hops
    // (internal node, front-end) and local delivery never touched the
    // payload.
    for p in &delivered {
        assert!(p.is_lazy(), "payload was materialized somewhere en route");
    }

    // Byte identity: the wire bytes handed to the tool are exactly what
    // the back-end's encoder produced. Reconstruct each packet from its
    // (now decoded) fields the same way `Backend::send` builds it and
    // compare encodings. Reading the values materializes the payload,
    // but `raw_wire` survives materialization.
    for p in &delivered {
        let wire = p
            .raw_wire()
            .expect("relayed packet kept its wire form")
            .clone();
        let rebuilt = Packet::with_fmt_str(
            p.stream_id(),
            p.tag(),
            "%d",
            vec![p.get(0).unwrap().clone()],
        )
        .unwrap()
        .with_src(p.src());
        assert_eq!(
            wire,
            encode_packet(&rebuilt),
            "relayed bytes differ from the back-end's encoding"
        );
    }

    let snap = net.metrics_snapshot(Duration::from_secs(5)).unwrap();
    let interior: Vec<&MetricsSection> = snap
        .nodes
        .iter()
        .filter(|s| !backend_ranks.contains(&s.rank))
        .collect();
    assert_eq!(interior.len(), 3);

    for node in &interior {
        // The acceptance bar for the fast path: relaying a passthrough
        // stream performs zero payload decodes.
        assert_eq!(
            node.get("pkts.decoded"),
            Some(0),
            "rank {} decoded a passthrough payload",
            node.rank
        );
    }
    // Each internal node lazily relayed its half of the upstream
    // traffic plus the one broadcast packet it forwarded downstream;
    // the front-end relayed every upstream packet into local delivery
    // (its own broadcast was built locally, so it was never lazy).
    let root = interior
        .iter()
        .find(|s| s.get("down.pkts.recv") == Some(0))
        .expect("exactly one node has no parent");
    assert_eq!(root.get("pkts.lazy_relayed"), Some(expected));
    for mid in interior.iter().filter(|s| s.rank != root.rank) {
        assert_eq!(mid.get("pkts.lazy_relayed"), Some(expected / 2 + 1));
    }
    // Back-ends received the broadcast in wire form too.
    for be in sections_for(&snap, &backend_ranks) {
        assert_eq!(be.get("pkts.decoded"), Some(0));
    }

    net.shutdown();
    for h in handles {
        h.join().unwrap();
    }
}

/// A data frame relayed through a null-filter interior node leaves it
/// byte-identical to the back-end's encoding: the interior copies each
/// packet's wire bytes into the outbound frame and rewrites nothing.
#[test]
fn relayed_frame_reaches_the_root_byte_identical() {
    let (up_near, up_far) = LocalConnection::pair("mid", "fe");
    let (down_near, down_far) = LocalConnection::pair("mid", "be");
    down_far
        .send(Control::SubtreeReport { endpoints: vec![5] }.to_frame())
        .unwrap();
    let mut node = NodeLoop::new(
        1,
        FilterRegistry::with_builtins(),
        Upstream::Parent(Link::new(Arc::new(up_near))),
        vec![(5, Arc::new(down_near) as SharedConnection)],
        NodeLoop::inbox(),
    );
    node.setup().unwrap();

    let def = StreamDef {
        id: 4,
        endpoints: vec![5],
        up_filter: "null".into(),
        down_filter: "null".into(),
        sync: SyncMode::DoNotWait,
    };
    up_far.send(def.to_control().to_frame()).unwrap();
    // A frame of every payload shape, built as a back-end builds it.
    let packets = [
        PacketBuilder::new(4, 1).src(5).push(7i32).build(),
        PacketBuilder::new(4, 2)
            .src(5)
            .push("relay")
            .push(vec![1.5f64; 3])
            .build(),
        PacketBuilder::new(4, 3).src(5).build(),
    ];
    let sent = encode_data_frame(&packets);
    down_far.send(sent.clone()).unwrap();
    up_far.send(Control::Shutdown.to_frame()).unwrap();
    node.run();

    loop {
        let frame = up_far.recv_timeout(TIMEOUT).unwrap().expect("a frame");
        if let Frame::Data(relayed) = decode_frame(frame.clone()).unwrap() {
            assert!(relayed.iter().all(Packet::is_lazy));
            assert_eq!(frame, sent, "relayed frame differs from the back-end's");
            return;
        }
    }
}
