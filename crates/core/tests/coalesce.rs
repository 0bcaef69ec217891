//! Combining back-end sends: a packet an in-process back-end sends
//! joins its node's inbox while the node has not drained it, appended
//! to the last message when that is the same child's open data frame.
//!
//! Each test attaches back-ends to an interior `NodeLoop` whose parent
//! connection the test holds, queues the sends before `run`, looks at
//! the inbox messages the loop is about to take, and then runs the loop
//! to see what it forwards upstream.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use mrnet::internal::process::{Inbound, Link, NodeLoop, Upstream};
use mrnet::internal::sched::Inbox;
use mrnet::introspect::{encode_request, METRICS_STREAM, TRACE_REPORT};
use mrnet::obs::tracectx::TraceEnvelope;
use mrnet::proto::{decode_frame, encode_data_frame, encode_traced_data_frame, Control, Frame};
use mrnet::{Backend, FilterRegistry, Packet, PacketBuilder, Rank, StreamId, SyncMode, Value};
use mrnet_packet::{MAX_BATCH_BYTES, MAX_BATCH_PACKETS};
use mrnet_transport::chan::Receiver;
use mrnet_transport::{Connection, Listener, LocalConnection, LocalFabric, SharedConnection};

const SID: StreamId = 3;
const TIMEOUT: Duration = Duration::from_secs(20);

/// An interior node over in-process back-ends, set up but not running.
struct Rig {
    node: NodeLoop,
    /// A second handle on the node's inbox, to look at what is queued.
    inbox: (Inbox<Inbound>, Receiver<Inbound>),
    /// The test's end of the node's parent connection.
    parent: LocalConnection,
    /// The node's ends of its child connections.
    children: Vec<SharedConnection>,
    backends: Vec<Backend>,
}

fn rank(child: usize) -> Rank {
    10 + child as Rank
}

/// Attaches `n` back-ends to a fresh node and announces a `null`
/// `DoNotWait` stream over all of them: to the node through its parent,
/// and to each back-end directly, so they can send before the loop
/// runs.
fn rig(n: usize) -> Rig {
    let fabric = LocalFabric::new();
    let listener = fabric.listen("leaf");
    let mut backends = Vec::new();
    let mut children = Vec::new();
    for i in 0..n {
        backends.push(Backend::attach(&fabric, "leaf", rank(i)).unwrap());
        let conn: SharedConnection = Arc::from(listener.accept().unwrap());
        // The attach handshake, which a leaf reads before its loop
        // takes the connection.
        let attach = decode_frame(conn.recv().unwrap()).unwrap();
        assert!(matches!(attach, Frame::Control(_)));
        children.push(conn);
    }
    let (parent, up) = LocalConnection::pair("parent", "node");
    let inbox = NodeLoop::inbox();
    let handle = (inbox.0.clone(), inbox.1.clone());
    let mut node = NodeLoop::new(
        1,
        FilterRegistry::with_builtins(),
        Upstream::Parent(Link::new(Arc::new(up))),
        (0..n).map(rank).zip(children.clone()).collect(),
        inbox,
    );
    node.setup().unwrap();
    let report = decode_frame(parent.recv().unwrap()).unwrap();
    assert!(matches!(report, Frame::Control(_)));

    let new_stream = Control::NewStream {
        stream_id: SID,
        endpoints: (0..n).map(rank).collect(),
        up_filter: "null".into(),
        down_filter: "null".into(),
        sync: SyncMode::DoNotWait,
    }
    .to_frame();
    parent.send(new_stream.clone()).unwrap();
    for (conn, be) in children.iter().zip(&backends) {
        conn.send(new_stream.clone()).unwrap();
        conn.send(encode_data_frame(&[value(-1)])).unwrap();
        let (_, sid) = be.recv().unwrap();
        assert_eq!(sid, SID);
    }
    Rig {
        node,
        inbox: handle,
        parent,
        children,
        backends,
    }
}

fn value(v: i32) -> Packet {
    PacketBuilder::new(SID, 1).push(v).build()
}

fn send(be: &Backend, v: i32) {
    be.send(SID, 1, "%d", vec![Value::Int32(v)]).unwrap();
}

/// One inbox message from a child, as the loop will take it.
#[derive(Debug)]
struct Queued {
    child: u32,
    /// Whether it is an open data frame that sends may have grown.
    open: bool,
    len: usize,
    packets: Vec<Packet>,
}

/// Takes every queued inbox message, describes the child frames among
/// them, and queues them all again, in order, for the loop.
fn peek(rig: &Rig) -> Vec<Queued> {
    let (tx, rx) = &rig.inbox;
    let mut all = VecDeque::new();
    rx.recv_all(&mut all).unwrap();
    let mut seen = Vec::new();
    for msg in all {
        let described = match &msg {
            Inbound::ChildData(i, frame) => Some((*i, true, frame.to_vec())),
            Inbound::Child(i, frame) => Some((*i, false, frame.to_vec())),
            _ => None,
        };
        if let Some((child, open, bytes)) = described {
            let len = bytes.len();
            let packets = match decode_frame(bytes.into()).unwrap() {
                Frame::Data(packets) => packets,
                other => panic!("unexpected frame from child {child}: {other:?}"),
            };
            seen.push(Queued {
                child,
                open,
                len,
                packets,
            });
        }
        tx.send(msg).unwrap();
    }
    seen
}

/// Shuts the node down through its parent, runs it, and returns what
/// it sent upstream.
fn run(rig: Rig) -> Vec<Result<Packet, Control>> {
    rig.parent.send(Control::Shutdown.to_frame()).unwrap();
    rig.node.run();
    upstream(&rig.parent)
}

/// Everything the node sent its parent until it hung up, in order: a
/// data packet, or a control message.
fn upstream(parent: &LocalConnection) -> Vec<Result<Packet, Control>> {
    let mut up = Vec::new();
    while let Ok(Some(bytes)) = parent.recv_timeout(TIMEOUT) {
        match decode_frame(bytes).unwrap() {
            Frame::Data(packets) | Frame::Traced(packets, _) => {
                up.extend(packets.into_iter().map(Ok));
            }
            Frame::Control(pkt) => up.push(Err(Control::from_packet(&pkt).unwrap())),
        }
    }
    up
}

/// The values of the user-stream packets among `up`, with the source
/// rank of each.
fn values(up: &[Result<Packet, Control>]) -> Vec<(Rank, i32)> {
    up.iter()
        .filter_map(|m| m.as_ref().ok())
        .filter(|p| p.stream_id() == SID)
        .map(|p| (p.src(), p.get(0).and_then(Value::as_i32).unwrap()))
        .collect()
}

/// (a) A burst from one back-end reaches the loop in as few frames as
/// the batch caps allow, in order; the receiving endpoint counts the
/// frames the loop takes and exactly the bytes in them.
#[test]
fn a_burst_reaches_the_loop_in_capped_frames() {
    const N: i32 = 200;
    let rig = rig(1);
    let before = rig.children[0].stats();
    for v in 0..N {
        send(&rig.backends[0], v);
    }
    let queued = peek(&rig);
    assert_eq!(queued.len(), (N as usize).div_ceil(MAX_BATCH_PACKETS));
    for q in &queued {
        assert!(q.open && q.child == 0);
        assert!(q.packets.len() <= MAX_BATCH_PACKETS && q.len <= MAX_BATCH_BYTES);
    }
    let stats = rig.children[0].stats();
    assert_eq!(stats.frames_recv - before.frames_recv, queued.len() as u64);
    assert_eq!(
        stats.bytes_recv - before.bytes_recv,
        queued.iter().map(|q| q.len as u64).sum::<u64>()
    );
    let sent = rig.backends[0].metrics();
    assert_eq!(sent.up_pkts_sent.get(), N as u64);

    let up = run(rig);
    let expected: Vec<_> = (0..N).map(|v| (rank(0), v)).collect();
    assert_eq!(values(&up), expected);
}

/// (b) A whole frame between two runs of data (a metrics reply, a trace
/// report) ends the open frame: nothing sent after it joins a frame
/// ahead of it, and the stream's order holds.
#[test]
fn a_whole_frame_ends_the_open_frame() {
    let rig = rig(1);
    let (be, conn) = (&rig.backends[0], &rig.children[0]);
    for v in 0..10 {
        send(be, v);
    }
    // A metrics request: the back-end answers it with a whole frame as
    // it receives the marker packet riding behind it.
    conn.send(encode_data_frame(&[encode_request(7, 1.0), value(-1)]))
        .unwrap();
    be.recv().unwrap();
    for v in 10..20 {
        send(be, v);
    }
    // A traced frame: the back-end ends the wave and reports it upstream.
    let env = TraceEnvelope::originate(0, SID);
    conn.send(encode_traced_data_frame(&[value(-1)], &[env]))
        .unwrap();
    be.recv().unwrap();
    for v in 20..30 {
        send(be, v);
    }

    let queued = peek(&rig);
    let shape: Vec<_> = queued
        .iter()
        .map(|q| (q.open, q.packets[0].stream_id(), q.packets.len()))
        .collect();
    assert_eq!(
        shape,
        [
            (true, SID, 10),
            (false, METRICS_STREAM, 1),
            (true, SID, 10),
            (false, METRICS_STREAM, 1),
            (true, SID, 10),
        ]
    );

    let up = run(rig);
    // The interior forwards the trace report verbatim and keeps the
    // data around it in order.
    let order: Vec<_> = up
        .iter()
        .filter_map(|m| m.as_ref().ok())
        .map(|p| match p.stream_id() {
            METRICS_STREAM => {
                assert_eq!(p.tag(), TRACE_REPORT);
                None
            }
            _ => p.get(0).and_then(Value::as_i32),
        })
        .collect();
    let mut expected: Vec<_> = (0..20).map(Some).collect();
    expected.push(None);
    expected.extend((20..30).map(Some));
    assert_eq!(order, expected);
}

/// (c) Two back-ends taking turns: a run from one never joins the
/// other's frame, and each back-end's packets keep their order.
#[test]
fn interleaved_back_ends_never_share_a_frame() {
    let rig = rig(2);
    let mut runs = 0;
    for round in 0..6 {
        for (i, be) in rig.backends.iter().enumerate() {
            for k in 0..3 {
                send(be, 100 * i as i32 + 3 * round + k);
            }
            runs += 1;
        }
    }
    let queued = peek(&rig);
    assert_eq!(queued.len(), runs, "one frame per run of sends");
    for q in &queued {
        let child = q.child as usize;
        assert!(q.open);
        assert!(
            q.packets.iter().all(|p| p.src() == rank(child)),
            "child {child}'s frame carries another child's packets"
        );
    }

    let up = run(rig);
    let got = values(&up);
    for i in 0..2 {
        let mine: Vec<i32> = got
            .iter()
            .filter(|(src, _)| *src == rank(i))
            .map(|&(_, v)| v)
            .collect();
        let expected: Vec<i32> = (0..18).map(|v| 100 * i as i32 + v).collect();
        assert_eq!(mine, expected, "back-end {i}'s order");
    }
}

/// (d) A back-end that drops right after a burst: the loop forwards
/// every packet of the burst before it reports the back-end failed.
///
/// Here the loop runs while the back-end sends; the next test queues
/// the same burst before `run`.
#[test]
fn a_burst_arrives_before_its_senders_failure() {
    const N: i32 = 100;
    let Rig {
        node,
        parent,
        mut backends,
        ..
    } = rig(2);
    let node = std::thread::spawn(move || node.run());
    // A packet multicast through the running loop: once it arrives, the
    // loop has the stream.
    parent.send(encode_data_frame(&[value(-2)])).unwrap();
    for be in &backends {
        let (pkt, _) = be.recv().unwrap();
        assert_eq!(pkt.get(0).and_then(Value::as_i32), Some(-2));
    }
    for v in 0..N {
        send(&backends[0], v);
    }
    drop(backends.remove(0));
    parent.send(Control::Shutdown.to_frame()).unwrap();
    node.join().unwrap();

    let up = upstream(&parent);
    let failed_at = up
        .iter()
        .position(|m| matches!(m, Err(Control::RankFailed { rank: r, .. }) if *r == rank(0)))
        .expect("a failure report upstream");
    let expected: Vec<_> = (0..N).map(|v| (rank(0), v)).collect();
    assert_eq!(values(&up[..failed_at]), expected);
    assert!(values(&up[failed_at..]).is_empty());
}

/// (e) Death in frame order: the burst and the back-end's drop are
/// queued before `run`, in one batch with two stream announcements
/// whose sends to the dropped back-end fail. A failed send does not
/// declare the back-end dead; its `ChildClosed`, queued after the
/// burst, does. So every packet of the burst still reaches the parent
/// ahead of the failure report.
#[test]
fn a_queued_burst_arrives_before_its_senders_failure() {
    const N: i32 = 100;
    let mut rig = rig(2);
    for v in 0..N {
        send(&rig.backends[0], v);
    }
    let stream_b = Control::NewStream {
        stream_id: SID + 1,
        endpoints: vec![rank(0), rank(1)],
        up_filter: "null".into(),
        down_filter: "null".into(),
        sync: SyncMode::DoNotWait,
    };
    rig.parent.send(stream_b.to_frame()).unwrap();
    drop(rig.backends.remove(0));

    let up = run(rig);
    let failed_at = up
        .iter()
        .position(|m| matches!(m, Err(Control::RankFailed { rank: r, .. }) if *r == rank(0)))
        .expect("a failure report upstream");
    let expected: Vec<_> = (0..N).map(|v| (rank(0), v)).collect();
    assert_eq!(values(&up[..failed_at]), expected);
    assert!(values(&up[failed_at..]).is_empty());
}

/// Announces a second `null` `DoNotWait` stream, `SID + 1`, over the
/// back-ends `members` to the node, through its parent.
fn second_stream(rig: &Rig, members: &[usize]) {
    let def = Control::NewStream {
        stream_id: SID + 1,
        endpoints: members.iter().copied().map(rank).collect(),
        up_filter: "null".into(),
        down_filter: "null".into(),
        sync: SyncMode::DoNotWait,
    };
    rig.parent.send(def.to_frame()).unwrap();
}

/// A packet on stream `sid` carrying `v`.
fn on(sid: StreamId, v: i32) -> Packet {
    PacketBuilder::new(sid, 1).push(v).build()
}

/// Queues one whole data frame of `packets` from child `child`, as its
/// connection would deliver it.
fn child_frame(rig: &Rig, child: u32, packets: &[Packet]) {
    let frame = encode_data_frame(packets);
    rig.inbox.0.send(Inbound::Child(child, frame)).unwrap();
}

/// The node's upstream counters: `up.pkts.recv`, each stream's
/// `up_pkts`, the `null` filter's `waves`, `pkts.lazy_relayed` and
/// `up.pkts.sent`.
fn up_counters(metrics: &mrnet::obs::NodeMetrics) -> [u64; 6] {
    [
        metrics.up_pkts_recv.get(),
        metrics.stream_counters(SID).up_pkts.get(),
        metrics.stream_counters(SID + 1).up_pkts.get(),
        metrics.filter_stats("null").waves.get(),
        metrics.pkts_lazy_relayed.get(),
        metrics.up_pkts_sent.get(),
    ]
}

/// (f) Runs of same-stream packets on two relay streams, split by an
/// introspection packet, forward upstream in input order, and every
/// counter reads what it would read had each packet been booked alone.
#[test]
fn relay_runs_forward_in_order_with_exact_counters() {
    let rig = rig(1);
    second_stream(&rig, &[0]);
    let (r1, r2) = (SID, SID + 1);
    child_frame(
        &rig,
        0,
        &[
            on(r1, 0),
            on(r1, 1),
            on(r2, 2),
            encode_request(7, 1.0),
            on(r1, 3),
        ],
    );
    let metrics = rig.node.metrics();
    let up = run(rig);
    let order: Vec<_> = up
        .iter()
        .filter_map(|m| m.as_ref().ok())
        .map(|p| (p.stream_id(), p.get(0).and_then(Value::as_i32).unwrap()))
        .collect();
    assert_eq!(order, [(r1, 0), (r1, 1), (r2, 2), (r1, 3)]);
    // Four routed packets (the introspection packet is not counted),
    // three on r1 and one on r2; four one-packet waves through `null`;
    // all four forwarded in their arrival bytes.
    assert_eq!(up_counters(&metrics), [4, 3, 1, 4, 4, 4]);
}

/// (g) A run on a stream its child does not take part in fails at its
/// first packet: the packets before it forward, the child is declared
/// failed, and the counters read what booking each packet alone left
/// (the node loop that booked relay packets one at a time measured
/// these same numbers).
#[test]
fn a_non_participant_run_fails_at_its_first_packet() {
    let rig = rig(2);
    // Child 0 is no member of the second stream.
    second_stream(&rig, &[1]);
    let (s, b) = (SID, SID + 1);
    child_frame(&rig, 0, &[on(s, 0), on(s, 1), on(b, 2), on(b, 3), on(s, 4)]);
    let metrics = rig.node.metrics();
    let up = run(rig);
    let failed_at = up
        .iter()
        .position(|m| matches!(m, Err(Control::RankFailed { rank: r, .. }) if *r == rank(0)))
        .expect("a failure report upstream");
    let before: Vec<_> = up[..failed_at]
        .iter()
        .filter_map(|m| m.as_ref().ok())
        .map(|p| (p.stream_id(), p.get(0).and_then(Value::as_i32).unwrap()))
        .collect();
    assert_eq!(before, [(s, 0), (s, 1)]);
    assert!(values(&up[failed_at..]).is_empty());
    // Three packets received: the two forwarded and the one the run
    // failed at; nothing booked on the second stream.
    assert_eq!(up_counters(&metrics), [3, 2, 0, 2, 2, 2]);
    assert_eq!(metrics.peer_deaths.get(), 1);
}
