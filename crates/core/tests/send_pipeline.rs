//! Encode-once multicast: a downstream flush wave to k children with
//! identical batches must encode the data frame exactly once and hand
//! the other k-1 children the same `Bytes` (a refcount bump), visible
//! in the `frames.encoded` / `frames.shared` introspection metrics.
//!
//! The root loop flushes once per drained inbox batch; the tests that
//! drive a `NodeLoop` directly queue their commands before `run`, so
//! they land in one batch.

use std::sync::Arc;
use std::time::Duration;

use mrnet::internal::process::{Command, FrontEnd, Inbound, NodeLoop, Upstream};
use mrnet::internal::sched::Inbox;
use mrnet::proto::{decode_frame, Control, Frame};
use mrnet::{
    launch_local, Delivery, FailureLedger, FilterRegistry, MrnetError, PacketBuilder, Rank,
    StreamDef, StreamId, SyncMode, TraceAssembler, Value,
};
use mrnet_topology::{generator, HostPool};
use mrnet_transport::chan::unbounded;
use mrnet_transport::{Connection, LocalConnection, SharedConnection};

const TIMEOUT: Duration = Duration::from_secs(20);

#[test]
fn multicast_wave_encodes_once_and_shares_with_siblings() {
    // Flat tree: the front-end fans out directly to 4 back-ends, all
    // of them on the broadcast stream's route.
    let topo = generator::flat(4, &mut HostPool::synthetic(8)).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();

    let comm = net.broadcast_communicator();
    let null = net.registry().id_of("null").unwrap();
    let stream = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();

    const WAVES: u64 = 5;
    // Back-ends acknowledge every wave, then keep pumping so the
    // introspection request gets answered.
    let handles: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| {
            std::thread::spawn(move || {
                for _ in 0..WAVES {
                    let (_, sid) = be.recv().unwrap();
                    be.send(sid, 2, "%d", vec![Value::Int32(1)]).unwrap();
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
    // One wave at a time: the next is sent only once all 4 back-ends
    // acknowledged this one, so each wave is its own flush.
    for w in 0..WAVES {
        stream.send(1, "%d", vec![Value::Int32(w as i32)]).unwrap();
        for _ in 0..4 {
            stream.recv_timeout(TIMEOUT).unwrap();
        }
    }

    let snap = net.metrics_snapshot(Duration::from_secs(5)).unwrap();
    let backend_ranks = net.endpoints().to_vec();
    let root = snap
        .nodes
        .iter()
        .find(|s| !backend_ranks.contains(&s.rank))
        .expect("front-end section");

    // Each wave reached all 4 children: one encode, three shares.
    let encoded = root.get("frames.encoded").unwrap_or(0);
    let shared = root.get("frames.shared").unwrap_or(0);
    assert_eq!(encoded, WAVES, "one encode per multicast flush wave");
    assert_eq!(shared, 3 * encoded, "k-1 children share each frame");
    // Sanity: the children did receive every wave (4 sends per wave).
    assert_eq!(root.get("down.pkts.sent"), Some(4 * WAVES));

    net.shutdown();
    for h in handles {
        h.join().unwrap();
    }
}

/// A root loop (its mailbox never read) over `n` in-process
/// children whose far ends the test holds: set up, each child having
/// reported itself as one back-end, but not yet running. Returned with
/// its inbox sender.
fn root_loop(n: usize) -> (NodeLoop, Inbox<Inbound>, Vec<LocalConnection>) {
    let mut near = Vec::new();
    let mut far = Vec::new();
    for i in 0..n {
        let (p, c) = LocalConnection::pair("fe", &format!("be{i}"));
        near.push(Arc::new(p) as SharedConnection);
        far.push(c);
    }
    let ranks: Vec<Rank> = (1..=n as Rank).collect();
    for (c, &rank) in far.iter().zip(&ranks) {
        c.send(
            Control::SubtreeReport {
                endpoints: vec![rank],
            }
            .to_frame(),
        )
        .unwrap();
    }
    let inbox = NodeLoop::inbox();
    let tx = inbox.0.clone();
    let front_end = FrontEnd::new(
        Arc::new(Delivery::new()),
        unbounded().0,
        Arc::new(FailureLedger::new()),
        Arc::new(TraceAssembler::new()),
    );
    let children = ranks.into_iter().zip(near).collect();
    let mut node = NodeLoop::new(
        0,
        FilterRegistry::with_builtins(),
        Upstream::FrontEnd(front_end),
        children,
        inbox,
    );
    node.setup().unwrap();
    (node, tx, far)
}

/// The command creating a null-filter `DoNotWait` stream.
fn new_null_stream(id: StreamId, endpoints: Vec<Rank>) -> Inbound {
    Inbound::Cmd(Command::NewStream(Box::new(StreamDef {
        id,
        endpoints,
        up_filter: "null".into(),
        down_filter: "null".into(),
        sync: SyncMode::DoNotWait,
    })))
}

/// Everything a child receives until the root's `Shutdown`, with the
/// clock pings left out.
fn frames_until_shutdown(child: &LocalConnection) -> Vec<Frame> {
    let mut frames = Vec::new();
    loop {
        let bytes = child.recv_timeout(TIMEOUT).unwrap().expect("frame");
        let frame = decode_frame(bytes).unwrap();
        if let Frame::Control(pkt) = &frame {
            match Control::from_packet(pkt).unwrap() {
                Control::Shutdown => return frames,
                Control::ClockPing { .. } => continue,
                _ => {}
            }
        }
        frames.push(frame);
    }
}

/// Waves queued together drain as one inbox batch, so they leave the
/// root in one multicast flush: fewer encodes than waves, each shared
/// with the three other children.
#[test]
fn queued_waves_share_one_flush() {
    const WAVES: u64 = 5;
    let (node, tx, children) = root_loop(4);
    let metrics = node.metrics();
    tx.send(new_null_stream(1, vec![1, 2, 3, 4])).unwrap();
    for w in 0..WAVES {
        let p = PacketBuilder::new(1, 1).push(w as i32).build();
        tx.send(Inbound::Cmd(Command::SendDown(p))).unwrap();
    }
    tx.send(Inbound::Cmd(Command::Shutdown)).unwrap();
    node.run();

    let encoded = metrics.frames_encoded.get();
    assert!(
        encoded < WAVES,
        "{encoded} encodes for {WAVES} queued waves"
    );
    assert_eq!(metrics.frames_shared.get(), 3 * encoded);
    assert_eq!(metrics.down_pkts_sent.get(), 4 * WAVES);
    for child in &children {
        let values: Vec<i32> = frames_until_shutdown(child)
            .into_iter()
            .filter_map(|f| match f {
                Frame::Data(pkts) => Some(pkts),
                _ => None,
            })
            .flatten()
            .map(|p| p.get(0).unwrap().as_i32().unwrap())
            .collect();
        assert_eq!(values, [0, 1, 2, 3, 4], "every wave, in order");
    }
}

/// A control frame never overtakes data batched before it on the same
/// connection: with `SendDown` and `DeleteStream` in one inbox batch,
/// the child must see the data frame before the delete (a child drops
/// data for a stream it has already deleted).
#[test]
fn delete_stream_does_not_overtake_batched_data() {
    let (node, tx, children) = root_loop(1);
    tx.send(new_null_stream(7, vec![1])).unwrap();
    let p = PacketBuilder::new(7, 1).push(42i32).build();
    tx.send(Inbound::Cmd(Command::SendDown(p))).unwrap();
    tx.send(Inbound::Cmd(Command::DeleteStream(7))).unwrap();
    tx.send(Inbound::Cmd(Command::Shutdown)).unwrap();
    node.run();

    let kinds: Vec<&str> = frames_until_shutdown(&children[0])
        .iter()
        .map(|f| match f {
            Frame::Data(_) | Frame::Traced(..) => "data",
            Frame::Control(pkt) => match Control::from_packet(pkt).unwrap() {
                Control::NewStream { .. } => "new",
                Control::DeleteStream { .. } => "delete",
                _ => "other control",
            },
        })
        .collect();
    assert_eq!(kinds, ["new", "data", "delete"]);
}

#[test]
fn divergent_routes_still_encode_separately() {
    // Two streams with disjoint single-back-end routes: their flushes
    // can never share a frame, so `frames.shared` stays zero while
    // `frames.encoded` counts each unicast flush.
    let topo = generator::flat(2, &mut HostPool::synthetic(4)).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();

    let ranks = net.endpoints().to_vec();
    let null = net.registry().id_of("null").unwrap();
    let solo_a = net.communicator([ranks[0]]).unwrap();
    let solo_b = net.communicator([ranks[1]]).unwrap();
    let sa = net.new_stream(&solo_a, null, SyncMode::DoNotWait).unwrap();
    let sb = net.new_stream(&solo_b, null, SyncMode::DoNotWait).unwrap();
    sa.send(1, "%d", vec![Value::Int32(1)]).unwrap();
    sb.send(1, "%d", vec![Value::Int32(2)]).unwrap();

    let handles: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| {
            std::thread::spawn(move || {
                be.recv().unwrap();
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

    let snap = net.metrics_snapshot(Duration::from_secs(5)).unwrap();
    let root = snap
        .nodes
        .iter()
        .find(|s| !ranks.contains(&s.rank))
        .expect("front-end section");
    assert_eq!(root.get("frames.encoded"), Some(2));
    assert_eq!(root.get("frames.shared"), Some(0));

    net.shutdown();
    for h in handles {
        h.join().unwrap();
    }
}
