//! Heartbeat-based silent-peer detection.
//!
//! These tests live in their own integration-test binary because they
//! set `MRNET_HEARTBEAT_SECS` process-wide; keeping them out of the
//! unit-test binary prevents the env var from leaking into unrelated
//! transport tests running in parallel threads.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use mrnet_packet::bytes::Bytes;
use mrnet_transport::{
    Connection, Listener, TcpConnection, TcpTransportListener, TransportError, HEARTBEAT_ENV,
};

const INTERVAL: f64 = 0.1;

fn enable_heartbeats() {
    std::env::set_var(HEARTBEAT_ENV, format!("{INTERVAL}"));
}

/// Two heartbeat-enabled endpoints stay healthy through an idle period
/// far longer than the death deadline: keepalives count as liveness.
#[test]
fn idle_heartbeating_peers_stay_alive() {
    enable_heartbeats();
    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let client = TcpConnection::connect(listener.addr()).unwrap();
    let server = listener.accept().unwrap();

    // Idle for 6 intervals — twice the 3-interval silence deadline.
    std::thread::sleep(Duration::from_secs_f64(INTERVAL * 6.0));

    // Both directions still work, and no heartbeat marker ever
    // surfaces as a frame.
    assert_eq!(server.recv_timeout(Duration::ZERO).unwrap(), None);
    client.send(Bytes::from_static(b"still here")).unwrap();
    assert_eq!(
        server.recv_timeout(Duration::from_secs(2)).unwrap(),
        Some(Bytes::from_static(b"still here"))
    );
    server.send(Bytes::from_static(b"ack")).unwrap();
    assert_eq!(
        client.recv_timeout(Duration::from_secs(2)).unwrap(),
        Some(Bytes::from_static(b"ack"))
    );
}

/// A raw peer that connects but never sends anything (no data, no
/// heartbeats) is declared dead after ~3 silent intervals even though
/// its socket stays open — the half-open/frozen-peer case EOF
/// detection cannot catch.
#[test]
fn silent_peer_is_declared_gone() {
    enable_heartbeats();
    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.addr();
    // Keep the raw socket alive (no FIN) but mute for the whole test.
    let raw = TcpStream::connect(&addr).unwrap();
    let server = listener.accept().unwrap();

    let start = std::time::Instant::now();
    let err = loop {
        match server.recv_timeout(Duration::from_millis(50)) {
            Ok(None) => {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "silent peer never declared dead"
                );
            }
            Ok(Some(frame)) => panic!("unexpected frame from silent peer: {frame:?}"),
            Err(e) => break e,
        }
    };
    match err {
        TransportError::PeerGone(reason) => {
            assert!(
                reason.contains("no data or heartbeat"),
                "unexpected reason: {reason}"
            );
        }
        other => panic!("expected PeerGone, got {other:?}"),
    }
    // Dead no earlier than the 3-interval deadline.
    assert!(start.elapsed() >= Duration::from_secs_f64(INTERVAL * 3.0));
    drop(raw);
}

/// A peer that stalls mid-frame (length prefix sent, payload never
/// completed) trips the mid-frame stall deadline.
#[test]
fn midframe_stall_is_declared_gone() {
    enable_heartbeats();
    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.addr();
    let mut raw = TcpStream::connect(&addr).unwrap();
    let server = listener.accept().unwrap();

    // Promise 64 bytes, deliver 8, then go quiet without closing.
    raw.write_all(&64u32.to_le_bytes()).unwrap();
    raw.write_all(&[7u8; 8]).unwrap();
    raw.flush().unwrap();

    let start = std::time::Instant::now();
    let err = loop {
        match server.recv_timeout(Duration::from_millis(50)) {
            Ok(None) => {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "stalled peer never declared dead"
                );
            }
            Ok(Some(frame)) => panic!("truncated frame surfaced: {frame:?}"),
            Err(e) => break e,
        }
    };
    assert!(
        matches!(err, TransportError::PeerGone(_)),
        "expected PeerGone, got {err:?}"
    );
    drop(raw);
}
