//! Ordering of the root's mailbox hand-off. The root loop gathers the
//! packets it delivers during one drained inbox batch and hands them to
//! the front-end mailbox once, when the batch flushes. These tests
//! drive a root `NodeLoop` directly: every message is queued before
//! `run`, so the whole sequence lands in one batch.

use std::sync::Arc;
use std::time::Duration;

use mrnet::internal::process::{Command, FrontEnd, Inbound, NodeLoop, Upstream};
use mrnet::internal::sched::Inbox;
use mrnet::introspect;
use mrnet::proto::{encode_data_frame, Control};
use mrnet::{
    Delivery, FailureLedger, FilterRegistry, MrnetError, Packet, PacketBuilder, Rank, StreamDef,
    StreamId, SyncMode, TraceAssembler, TraceEnvelope, Value,
};
use mrnet_transport::chan::unbounded;
use mrnet_transport::{Connection, LocalConnection, SharedConnection};

const TIMEOUT: Duration = Duration::from_secs(10);

/// A root loop with a delivery mailbox over `n` in-process children
/// (back-end ranks 1..=n) whose far ends the test holds, set up but
/// not yet running.
fn root_loop(
    n: usize,
) -> (
    NodeLoop,
    Inbox<Inbound>,
    Arc<Delivery>,
    Vec<LocalConnection>,
) {
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
    let delivery = Arc::new(Delivery::new());
    let inbox = NodeLoop::inbox();
    let tx = inbox.0.clone();
    let front_end = FrontEnd::new(
        delivery.clone(),
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
    (node, tx, delivery, far)
}

fn new_stream(id: StreamId, endpoints: Vec<Rank>, up_filter: &str, sync: SyncMode) -> Inbound {
    Inbound::Cmd(Command::NewStream(Box::new(StreamDef {
        id,
        endpoints,
        up_filter: up_filter.into(),
        down_filter: "null".into(),
        sync,
    })))
}

/// A `%d` packet on `sid` from back-end `src`, as a back-end builds it.
fn int(sid: StreamId, src: Rank, v: i32) -> Packet {
    PacketBuilder::new(sid, 1).src(src).push(v).build()
}

fn value(p: &Packet) -> i32 {
    p.get(0).and_then(Value::as_i32).expect("%d payload")
}

/// A wave completed in a batch reaches the mailbox before the stream's
/// failure, even when the failure comes later in the same batch. A
/// receiver is parked on the stream when the batch runs: the
/// `fail_stream` wake-up must find the wave already queued.
#[test]
fn wave_is_delivered_before_all_endpoints_failed() {
    const SID: StreamId = 3;
    for _ in 0..5 {
        let (node, tx, delivery, _far) = root_loop(2);
        let receiver = {
            let d = delivery.clone();
            std::thread::spawn(move || d.recv_on(SID, Some(TIMEOUT)))
        };
        // Let the receiver park before the batch runs.
        std::thread::sleep(Duration::from_millis(20));

        tx.send(new_stream(SID, vec![1, 2], "d_sum", SyncMode::WaitForAll))
            .unwrap();
        tx.send(Inbound::Child(0, encode_data_frame(&[int(SID, 1, 20)])))
            .unwrap();
        tx.send(Inbound::Child(1, encode_data_frame(&[int(SID, 2, 22)])))
            .unwrap();
        tx.send(Inbound::ChildClosed(0)).unwrap();
        tx.send(Inbound::ChildClosed(1)).unwrap();
        // Later work in the same batch keeps the loop busy after the
        // failure, so a receiver woken by it has time to look.
        for _ in 0..10_000 {
            tx.send(Inbound::Cmd(Command::DeleteStream(99))).unwrap();
        }
        tx.send(Inbound::Cmd(Command::Shutdown)).unwrap();
        node.run();

        let wave = receiver.join().unwrap().expect("the wave, not the failure");
        assert_eq!(value(&wave), 42);
        assert_eq!(
            delivery.recv_on(SID, Some(TIMEOUT)),
            Err(MrnetError::AllEndpointsFailed)
        );
    }
}

/// One child frame interleaves a relay stream (null, `DoNotWait`), a
/// `WaitForAll` `d_sum` stream and a trace report. The relay packets
/// take the pass-through path, the `d_sum` packets the sync filter and
/// the trace report the introspection path; each stream still arrives
/// at the front-end in order.
#[test]
fn interleaved_streams_keep_per_stream_fifo() {
    const RELAY: StreamId = 1;
    const SUM: StreamId = 2;
    let (node, tx, delivery, _far) = root_loop(2);
    tx.send(new_stream(RELAY, vec![1, 2], "null", SyncMode::DoNotWait))
        .unwrap();
    tx.send(new_stream(SUM, vec![1, 2], "d_sum", SyncMode::WaitForAll))
        .unwrap();
    let report = introspect::encode_trace_report(&TraceEnvelope {
        trace_id: 7,
        stream: RELAY,
        hops: Vec::new(),
    });
    let first = [
        int(RELAY, 1, 0),
        int(SUM, 1, 1),
        report,
        int(RELAY, 1, 1),
        int(SUM, 1, 2),
        int(RELAY, 1, 2),
        int(SUM, 1, 3),
    ];
    let second = [
        int(SUM, 2, 10),
        int(RELAY, 2, 10),
        int(SUM, 2, 20),
        int(RELAY, 2, 11),
        int(SUM, 2, 30),
    ];
    tx.send(Inbound::Child(0, encode_data_frame(&first)))
        .unwrap();
    tx.send(Inbound::Child(1, encode_data_frame(&second)))
        .unwrap();
    tx.send(Inbound::Cmd(Command::Shutdown)).unwrap();
    node.run();

    let drain = |sid| {
        std::iter::from_fn(|| delivery.recv_on(sid, Some(Duration::ZERO)).ok())
            .map(|p| value(&p))
            .collect::<Vec<i32>>()
    };
    assert_eq!(drain(RELAY), [0, 1, 2, 10, 11]);
    assert_eq!(drain(SUM), [11, 22, 33]);
}
