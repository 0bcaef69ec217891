//! Send-pipeline backpressure tests: a peer that stops reading must
//! not stall the sender's thread until the bounded outbound queue
//! itself fills, and even then only for sends *to that peer* — sibling
//! connections keep flowing. Exercises the overflow policy (a full
//! queue blocks `send`, and the stall is counted) and writer-side
//! `PeerGone` detection.
//!
//! The queue depth is pinned small via `MRNET_SEND_QUEUE` so the tests
//! fill it quickly. The variable is read per-connection at
//! construction time; tests that need different depths therefore set
//! it before creating their connections. Serialise on a process-wide
//! lock so the env var never races between tests.

use std::net::TcpStream;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use mrnet_packet::bytes::Bytes;
use mrnet_transport::{
    Connection, Listener, TcpConnection, TcpTransportListener, TransportError, SEND_QUEUE_ENV,
};

/// The send-queue depth the tests pin through `MRNET_SEND_QUEUE`.
const DEPTH: u64 = 8;

fn env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A sender whose peer is a raw socket the test never reads from.
fn sender_with_silent_peer() -> (TcpConnection, TcpStream) {
    let std_listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = std_listener.local_addr().unwrap();
    let accept = std::thread::spawn(move || std_listener.accept().unwrap().0);
    let client = TcpConnection::connect(addr).unwrap();
    let raw = accept.join().unwrap();
    (client, raw)
}

/// Fills the silent peer's pipeline: the kernel socket buffers plus
/// the writer's bounded queue. Sends only while the queue is below
/// [`DEPTH`], so no send blocks: this thread is the only sender and the
/// writer only drains. Returns once the queue has stayed full three
/// times in a row, 20 ms apart: right after it first fills, bytes still
/// moving from the send buffer into the peer's receive buffer can let
/// the writer free a slot.
fn fill_pipeline(conn: &TcpConnection, frame: &Bytes) -> usize {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut queued = 0;
    let mut full = 0;
    while full < 3 {
        if conn.stats().queue_depth < DEPTH {
            conn.send(frame.clone())
                .unwrap_or_else(|e| panic!("unexpected send error while filling: {e}"));
            queued += 1;
            full = 0;
        } else {
            full += 1;
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            Instant::now() < deadline,
            "pipeline never filled after {queued} frames — is the queue unbounded?"
        );
    }
    queued
}

/// One slow child saturates only its own queue, which stays full, and
/// a sibling connection keeps sending and receiving the whole time.
#[test]
fn slow_reader_blocks_only_its_own_connection() {
    let _guard = env_lock();
    std::env::set_var(SEND_QUEUE_ENV, DEPTH.to_string());
    let (slow_conn, _slow_raw) = sender_with_silent_peer();
    // Sibling: a normal pair that reads promptly.
    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.addr();
    let sibling = TcpConnection::connect(&addr).unwrap();
    let sibling_peer = listener.accept().unwrap();
    std::env::remove_var(SEND_QUEUE_ENV);

    // Use frames big enough (64 KiB) that the kernel buffers fill in
    // a few hundred frames, then the 8-slot queue right after.
    let frame = Bytes::from(vec![0x5A; 64 << 10]);
    let queued = fill_pipeline(&slow_conn, &frame);
    assert!(queued > 0, "at least the queue itself must accept frames");

    // The pipeline is jammed: the queue is full, and no send stalled
    // filling it.
    assert_eq!(slow_conn.stats().queue_depth, DEPTH);
    assert_eq!(slow_conn.stats().enqueue_stalls, 0);

    // Sibling sends complete promptly despite the jammed neighbour:
    // the writer threads are independent.
    let start = Instant::now();
    for i in 0..100u32 {
        sibling
            .send(Bytes::copy_from_slice(&i.to_le_bytes()))
            .unwrap();
    }
    for i in 0..100u32 {
        let f = sibling_peer.recv().unwrap();
        assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "sibling traffic stalled behind the slow reader"
    );
    assert_eq!(slow_conn.stats().queue_depth, DEPTH);
}

/// A send into the jammed queue blocks, and is counted as a stall.
/// Once the silent peer finally reads, the queue drains, the blocked
/// send completes, and every frame arrives intact and in order:
/// backpressure delays, it never drops.
#[test]
fn jammed_queue_drains_when_peer_resumes() {
    let _guard = env_lock();
    std::env::set_var(SEND_QUEUE_ENV, DEPTH.to_string());
    let (conn, raw) = sender_with_silent_peer();
    std::env::remove_var(SEND_QUEUE_ENV);

    let frame = Bytes::from(vec![0xC3; 64 << 10]);
    let queued = fill_pipeline(&conn, &frame);

    std::thread::scope(|s| {
        let blocked = s.spawn(|| conn.send(frame.clone()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while conn.stats().enqueue_stalls == 0 {
            assert!(Instant::now() < deadline, "the send never stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!blocked.is_finished(), "a send into a full queue returned");

        // Peer wakes up: wrap the raw socket in a reader and drain.
        use std::io::Read;
        let mut raw = raw;
        let mut received = 0usize;
        let mut buf = Vec::new();
        while received < queued + 1 {
            let mut len_buf = [0u8; 4];
            raw.read_exact(&mut len_buf).unwrap();
            let len = u32::from_le_bytes(len_buf) as usize;
            buf.resize(len, 0);
            raw.read_exact(&mut buf).unwrap();
            assert_eq!(buf.len(), frame.len());
            assert!(buf.iter().all(|&b| b == 0xC3));
            received += 1;
        }
        blocked.join().unwrap().unwrap();
    });
    assert_eq!(conn.stats().enqueue_stalls, 1);
}

/// When the peer dies with frames still queued, a subsequent send
/// fails with the writer's `PeerGone` classification — not a panic,
/// not silence — and sent-frame accounting never counts the frames
/// that died in the queue.
#[test]
fn writer_detects_peer_gone_and_accounting_stays_honest() {
    let _guard = env_lock();
    std::env::set_var(SEND_QUEUE_ENV, DEPTH.to_string());
    let (conn, raw) = sender_with_silent_peer();
    std::env::remove_var(SEND_QUEUE_ENV);

    let frame = Bytes::from(vec![0x11; 64 << 10]);
    let queued = fill_pipeline(&conn, &frame) as u64;

    // Kill the peer outright. It dies with unread data in its receive
    // buffer, so the close goes out as a TCP reset (not a clean FIN);
    // the writer's next in-flight write fails, records PeerGone, and
    // shuts down.
    drop(raw);

    // Sends eventually report peer loss with the writer's diagnosis.
    let deadline = Instant::now() + Duration::from_secs(10);
    let err = loop {
        match conn.send(frame.clone()) {
            Ok(()) => assert!(
                Instant::now() < deadline,
                "sends kept succeeding after peer death"
            ),
            Err(e) => break e,
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        matches!(
            err,
            TransportError::Closed | TransportError::PeerGone(_) | TransportError::Io(_)
        ),
        "expected a peer-loss error, got {err:?}"
    );

    // Honest accounting: frames_sent only counts frames that reached
    // the socket, so it can never exceed what was queued.
    assert!(conn.stats().frames_sent <= queued);
}

/// A burst of frames enqueued faster than the writer drains them is
/// coalesced into multi-frame vectored writes, visible in the
/// `frames_coalesced` counter, with ordering preserved end-to-end.
#[test]
fn burst_coalesces_frames() {
    let _guard = env_lock();
    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.addr();
    let client = TcpConnection::connect(&addr).unwrap();
    let server = listener.accept().unwrap();

    const BURST: u32 = 2_000;
    for i in 0..BURST {
        client
            .send(Bytes::copy_from_slice(&i.to_le_bytes()))
            .unwrap();
    }
    for i in 0..BURST {
        let f = server.recv().unwrap();
        assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
    }
    // With 2000 tiny frames racing one writer thread, at least some
    // wake-ups must have found more than one frame queued.
    assert!(
        client.stats().frames_coalesced > 0,
        "no coalescing observed across a {BURST}-frame burst"
    );
    assert_eq!(client.stats().frames_sent, BURST as u64);
}
