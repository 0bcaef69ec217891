//! A back-end's sink over both transports: the bound on a TCP
//! back-end's mailbox, and a `Backend` dropped while its parent is
//! still sending data and control to it. Also what its typed send
//! puts on the edge.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use mrnet::proto::{decode_frame, encode_data_frame, Control, Frame};
use mrnet::{
    introspect, Backend, MrnetError, PacketBuilder, Rank, StreamDef, StreamId, SyncMode, Value,
};
use mrnet_packet::bytes::Bytes;
use mrnet_packet::PacketError;
use mrnet_transport::{
    BoxedConnection, FrameSink, Listener, LocalFabric, TcpTransportListener, INBOUND_DEPTH,
};

const TIMEOUT: Duration = Duration::from_secs(20);
const RANK: Rank = 7;
const SID: StreamId = 3;

/// The most packets one frame from a parent carries.
const FRAME_PACKETS: u64 = 64;

/// A parent endpoint's receiver that discards every frame after a
/// pause, as a node whose inbox never blocks does with the replies,
/// only slower.
struct Discard(Duration);

impl FrameSink for Discard {
    fn frame(&self, _: Bytes) -> bool {
        thread::sleep(self.0);
        true
    }

    fn closed(self: Box<Self>) {}
}

#[derive(Debug, Clone, Copy)]
enum Wire {
    Local,
    Tcp,
}

/// A back-end attached over `wire`, and its parent's end of the edge,
/// which has read the handshake and announced [`SID`].
fn attached(wire: Wire) -> (Backend, BoxedConnection) {
    let (be, parent) = match wire {
        Wire::Local => {
            let fabric = LocalFabric::new();
            let listener = fabric.listen("leaf");
            let be = thread::spawn(move || Backend::attach(&fabric, "leaf", RANK).unwrap());
            let parent = listener.accept().unwrap();
            (be.join().unwrap(), parent)
        }
        Wire::Tcp => {
            let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.addr();
            let be = thread::spawn(move || Backend::attach_tcp(&addr, RANK).unwrap());
            let parent = listener.accept().unwrap();
            (be.join().unwrap(), parent)
        }
    };
    // Attach, then the subtree report.
    parent.recv().unwrap();
    parent.recv().unwrap();
    let def = StreamDef {
        id: SID,
        endpoints: vec![RANK],
        up_filter: "null".into(),
        down_filter: "null".into(),
        sync: SyncMode::DoNotWait,
    };
    parent.send(def.to_control().to_frame()).unwrap();
    (be, parent)
}

fn data(v: i32) -> Bytes {
    encode_data_frame(&[PacketBuilder::new(SID, 1).push(v).build()])
}

/// Polls `cond` every millisecond until it holds, for at most
/// [`TIMEOUT`].
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// A TCP back-end that does not receive holds at most its mailbox's
/// bound plus one frame; the rest wait in the socket. Once it
/// receives, every packet arrives, in order.
#[test]
fn a_tcp_backend_that_never_receives_holds_a_bounded_mailbox() {
    const FRAMES: i32 = 4096;
    let (be, parent) = attached(Wire::Tcp);
    let sender = thread::spawn(move || {
        for v in 0..FRAMES {
            parent.send(data(v)).unwrap();
        }
        parent
    });
    let metrics = be.metrics();
    let taken = || metrics.down_pkts_recv.get();
    wait_for("a full mailbox", || taken() >= INBOUND_DEPTH as u64);
    thread::sleep(Duration::from_millis(100));
    let bound = INBOUND_DEPTH as u64 + FRAME_PACKETS;
    assert!(taken() <= bound, "took {} > {bound} packets", taken());
    for v in 0..FRAMES {
        let (pkt, sid) = be.recv_timeout(TIMEOUT).unwrap().expect("a packet");
        assert_eq!((sid, pkt.get(0).and_then(Value::as_i32)), (SID, Some(v)));
    }
    assert_eq!(taken(), FRAMES as u64);
    let _parent = sender.join().unwrap();
}

/// `Backend::send` checks the values against the format before
/// anything goes upstream, and the packet that does go carries the
/// back-end's rank as its source.
#[test]
fn send_rejects_a_mismatch_and_stamps_the_rank() {
    let (be, parent) = attached(Wire::Local);
    let err = be.send(SID, 1, "%d", vec![Value::Float(1.5)]).unwrap_err();
    assert!(
        matches!(err, MrnetError::Packet(PacketError::TypeMismatch { .. })),
        "{err}"
    );
    let err = be.send(SID, 1, "%d %d", vec![Value::Int32(1)]).unwrap_err();
    assert!(
        matches!(err, MrnetError::Packet(PacketError::ArityMismatch { .. })),
        "{err}"
    );
    assert_eq!(be.metrics().up_pkts_sent.get(), 0);
    be.send(SID, 2, "%d", vec![Value::Int32(42)]).unwrap();
    let packets = loop {
        let frame = parent.recv_timeout(TIMEOUT).unwrap().expect("a frame");
        match decode_frame(frame).unwrap() {
            Frame::Data(packets) | Frame::Traced(packets, _) => break packets,
            Frame::Control(_) => continue,
        }
    };
    assert_eq!(packets.len(), 1, "only the good send goes upstream");
    let p = &packets[0];
    assert_eq!(
        (p.stream_id(), p.tag(), p.src(), p.values()),
        (SID, 2, RANK, &[Value::Int32(42)][..])
    );
    assert_eq!(be.metrics().up_pkts_sent.get(), 1);
}

/// Runs `f` on a thread of its own and fails if it takes longer than
/// [`TIMEOUT`].
fn within_timeout(what: &str, f: impl FnOnce() + Send + 'static) {
    let (done_tx, done) = mpsc::channel();
    let h = thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    done.recv_timeout(TIMEOUT)
        .unwrap_or_else(|_| panic!("{what} hung"));
    h.join().unwrap();
}

/// One round: the parent sends data, metrics requests and clock pings
/// until its sends fail, and the back-end is dropped mid-stream. With
/// `full`, the drop waits until the mailbox is at its bound, so a TCP
/// reader is parked on it. Both the drop and the parent's noticing it
/// must finish in time.
fn drop_while_the_parent_sends(wire: Wire, round: u32, full: bool) {
    let (be, parent) = attached(wire);
    // In process, a slow parent holds each reply open in the back-end's
    // sink while the back-end drops.
    let pause = match wire {
        Wire::Local => Duration::from_micros(200),
        Wire::Tcp => Duration::ZERO,
    };
    parent.set_sink(Box::new(Discard(pause)));
    let (sent_tx, sent) = mpsc::channel();
    let sender = thread::spawn(move || {
        let mut i: u32 = 0;
        loop {
            let frame = match i % 3 {
                0 => data(i as i32),
                1 => encode_data_frame(&[introspect::encode_request(i, 1.0)]),
                _ => Control::ClockPing {
                    t0_us: u64::from(i),
                }
                .to_frame(),
            };
            if parent.send(frame).is_err() {
                break;
            }
            i = i.wrapping_add(1);
        }
        let _ = sent_tx.send(());
    });
    let metrics = be.metrics();
    if full {
        wait_for("a full mailbox", || {
            metrics.down_pkts_recv.get() >= INBOUND_DEPTH as u64
        });
    } else {
        thread::sleep(Duration::from_millis(u64::from(round % 4)));
    }
    let round = format!("{wire:?} round {round}");
    within_timeout(&format!("{round}: dropping the back-end"), move || drop(be));
    sent.recv_timeout(TIMEOUT)
        .unwrap_or_else(|_| panic!("{round}: the parent never saw the back-end go"));
    sender.join().unwrap();
}

/// Dropping a back-end never waits on its own sink: neither on a reply
/// the sink is sending in process, nor on a TCP reader parked on a full
/// mailbox.
#[test]
fn a_backend_dropped_while_its_parent_sends_never_hangs() {
    for round in 0..50 {
        drop_while_the_parent_sends(Wire::Local, round, false);
        drop_while_the_parent_sends(Wire::Tcp, round, round % 2 == 1);
    }
}
