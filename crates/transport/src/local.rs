//! In-process transport: connections are channel pairs.
//!
//! This is the transport used when an entire MRNet tree runs as
//! threads in one OS process — the configuration used by the test
//! suite and the threaded examples. [`LocalFabric`] provides the named
//! rendezvous that stands in for "host:port" addressing, supporting
//! the paper's second instantiation mode where externally created
//! back-ends connect to already-running leaf internal processes
//! (§2.5).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mrnet_obs::Unpoisoned;
use mrnet_packet::bytes::Bytes;
use mrnet_packet::Packet;

use crate::chan::{unbounded, Receiver, RecvTimeoutError, Sender};
use crate::connection::{
    BoxedConnection, ConnCounters, ConnStats, Connection, FrameSink, Listener, PacketFrame,
};
use crate::error::{Result, TransportError};
use crate::incoming::Incoming;

/// One end of an in-process connection. A send pushes into the peer's
/// receive half: onto its queue, or through its sink on the sending
/// thread, so the transport runs no thread of its own.
pub struct LocalConnection {
    /// Frames the peer sends to this endpoint.
    incoming: Arc<Incoming>,
    /// The peer's receive half, which this endpoint's sends feed.
    outgoing: Arc<Incoming>,
    peer: String,
    counters: Arc<ConnCounters>,
}

impl LocalConnection {
    /// Creates a connected pair of local endpoints.
    ///
    /// `a_name` and `b_name` label the two sides for diagnostics: the
    /// first returned endpoint is held by `a_name` and reports its peer
    /// as `b_name`, and vice versa.
    pub fn pair(a_name: &str, b_name: &str) -> (LocalConnection, LocalConnection) {
        let a_counters = Arc::new(ConnCounters::default());
        let b_counters = Arc::new(ConnCounters::default());
        let a_in = Arc::new(Incoming::new(None, a_counters.clone()));
        let b_in = Arc::new(Incoming::new(None, b_counters.clone()));
        (
            LocalConnection {
                incoming: a_in.clone(),
                outgoing: b_in.clone(),
                peer: b_name.to_owned(),
                counters: a_counters,
            },
            LocalConnection {
                incoming: b_in,
                outgoing: a_in,
                peer: a_name.to_owned(),
                counters: b_counters,
            },
        )
    }
}

impl Drop for LocalConnection {
    fn drop(&mut self) {
        self.incoming.abandon();
        self.outgoing.end();
    }
}

impl Connection for LocalConnection {
    fn send(&self, frame: Bytes) -> Result<()> {
        let len = frame.len();
        if !self.outgoing.push(frame) {
            return Err(TransportError::Closed);
        }
        self.counters.note_sent(len);
        Ok(())
    }

    fn send_packet(&self, packet: &Packet, frame: PacketFrame) -> Result<()> {
        let took = self
            .outgoing
            .push_packet(packet, frame)
            .ok_or(TransportError::Closed)?;
        self.counters.note_sent_packet(took);
        Ok(())
    }

    fn recv(&self) -> Result<Bytes> {
        match self.incoming.recv(None) {
            Ok(Some(frame)) => Ok(frame),
            _ => Err(TransportError::Closed),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Bytes>> {
        self.incoming
            .recv(Instant::now().checked_add(timeout))
            .map_err(|_| TransportError::Closed)
    }

    fn set_sink(&self, sink: Box<dyn FrameSink>) {
        self.incoming.set_sink(sink);
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn stats(&self) -> ConnStats {
        self.counters.snapshot()
    }
}

type FabricMap = Mutex<HashMap<String, Sender<BoxedConnection>>>;

/// A named in-process rendezvous fabric.
///
/// Listeners register under a name (standing in for `host:port`);
/// connectors reach them by that name. Clones share the same fabric.
#[derive(Clone, Default)]
pub struct LocalFabric {
    listeners: Arc<FabricMap>,
}

impl LocalFabric {
    /// Creates an empty fabric.
    pub fn new() -> LocalFabric {
        LocalFabric::default()
    }

    /// Registers a listener under `name`. Re-registering a name
    /// replaces the previous listener (its `accept` starts failing).
    pub fn listen(&self, name: &str) -> LocalListener {
        let (tx, rx) = unbounded();
        self.listeners
            .lock()
            .unpoisoned()
            .insert(name.to_owned(), tx);
        LocalListener {
            name: name.to_owned(),
            inbound: rx,
        }
    }

    /// Connects to the listener registered under `name`, returning the
    /// connector-side endpoint. `from` labels the connecting process.
    pub fn connect(&self, name: &str, from: &str) -> Result<BoxedConnection> {
        let tx = {
            let map = self.listeners.lock().unpoisoned();
            map.get(name)
                .cloned()
                .ok_or_else(|| TransportError::UnknownEndpoint(name.to_owned()))?
        };
        let (mine, theirs) = LocalConnection::pair(from, name);
        tx.send(Box::new(theirs) as BoxedConnection)
            .map_err(|_| TransportError::UnknownEndpoint(name.to_owned()))?;
        Ok(Box::new(mine))
    }

    /// Removes a listener registration.
    pub fn unlisten(&self, name: &str) {
        self.listeners.lock().unpoisoned().remove(name);
    }

    /// Names currently registered, for diagnostics.
    pub fn registered(&self) -> Vec<String> {
        let mut names: Vec<_> = self.listeners.lock().unpoisoned().keys().cloned().collect();
        names.sort();
        names
    }
}

/// The accepting side of a [`LocalFabric`] registration.
pub struct LocalListener {
    name: String,
    inbound: Receiver<BoxedConnection>,
}

impl Listener for LocalListener {
    fn accept(&self) -> Result<BoxedConnection> {
        self.inbound.recv().map_err(|_| TransportError::Closed)
    }

    fn addr(&self) -> String {
        self.name.clone()
    }
}

impl LocalListener {
    /// Accepts with a timeout; `Ok(None)` when nothing arrived.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<Option<BoxedConnection>> {
        match self.inbound.recv_timeout(timeout) {
            Ok(conn) => Ok(Some(conn)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::testing::{expect_numbered_then_closed, numbered, recorder};
    use crate::connection::Took;
    use mrnet_packet::{encode_packet, PacketBuilder};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn pair_carries_frames_both_ways() {
        let (a, b) = LocalConnection::pair("fe", "be");
        a.send(Bytes::from_static(b"down")).unwrap();
        b.send(Bytes::from_static(b"up")).unwrap();
        assert_eq!(b.recv().unwrap(), Bytes::from_static(b"down"));
        assert_eq!(a.recv().unwrap(), Bytes::from_static(b"up"));
        assert_eq!(a.peer(), "be");
        assert_eq!(b.peer(), "fe");
    }

    #[test]
    fn frames_are_ordered() {
        let (a, b) = LocalConnection::pair("x", "y");
        for i in 0..100u8 {
            a.send(Bytes::copy_from_slice(&[i])).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(b.recv().unwrap()[0], i);
        }
    }

    #[test]
    fn zero_timeout_recv_is_nonblocking() {
        let (a, b) = LocalConnection::pair("x", "y");
        assert_eq!(b.recv_timeout(Duration::ZERO).unwrap(), None);
        a.send(Bytes::from_static(b"z")).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::ZERO).unwrap(),
            Some(Bytes::from_static(b"z"))
        );
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_a, b) = LocalConnection::pair("x", "y");
        let got = b.recv_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn drop_closes() {
        let (a, b) = LocalConnection::pair("x", "y");
        drop(a);
        assert_eq!(b.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(b.send(Bytes::new()).unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn buffered_frames_survive_peer_drop() {
        let (a, b) = LocalConnection::pair("x", "y");
        a.send(Bytes::from_static(b"last")).unwrap();
        drop(a);
        assert_eq!(b.recv().unwrap(), Bytes::from_static(b"last"));
        assert_eq!(b.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn stats_count_frames_and_bytes() {
        let (a, b) = LocalConnection::pair("x", "y");
        a.send(Bytes::from_static(b"12345")).unwrap();
        a.send(Bytes::from_static(b"678")).unwrap();
        assert_eq!(b.recv().unwrap().len(), 5);
        assert_eq!(b.recv_timeout(Duration::ZERO).unwrap().unwrap().len(), 3);
        let sa = a.stats();
        assert_eq!(sa.frames_sent, 2);
        assert_eq!(sa.bytes_sent, 8);
        assert_eq!(sa.frames_recv, 0);
        let sb = b.stats();
        assert_eq!(sb.frames_recv, 2);
        assert_eq!(sb.bytes_recv, 8);
        assert_eq!(sb.bytes_sent, 0);
    }

    const N: u32 = 100;

    #[test]
    fn frames_before_and_after_set_sink_arrive_in_order() {
        let (a, b) = LocalConnection::pair("x", "y");
        for i in 0..N {
            a.send(numbered(i)).unwrap();
        }
        let (sink, seen) = recorder();
        b.set_sink(sink);
        for i in N..2 * N {
            a.send(numbered(i)).unwrap();
        }
        assert_eq!(b.stats().frames_recv, u64::from(2 * N));
        drop(a);
        expect_numbered_then_closed(&seen, 2 * N);
    }

    #[test]
    fn drop_before_set_sink_gives_the_frames_then_one_close() {
        let (a, b) = LocalConnection::pair("x", "y");
        for i in 0..N {
            a.send(numbered(i)).unwrap();
        }
        drop(a);
        let (sink, seen) = recorder();
        b.set_sink(sink);
        expect_numbered_then_closed(&seen, N);
    }

    #[test]
    fn drop_after_set_sink_closes_once_after_the_last_frame() {
        let (a, b) = LocalConnection::pair("x", "y");
        let (sink, seen) = recorder();
        b.set_sink(sink);
        for i in 0..N {
            a.send(numbered(i)).unwrap();
        }
        drop(a);
        expect_numbered_then_closed(&seen, N);
    }

    #[test]
    fn sends_fail_once_the_sink_refuses() {
        let (a, b) = LocalConnection::pair("x", "y");
        let (sink, seen) = recorder();
        b.set_sink(sink);
        drop(seen);
        let packet = PacketBuilder::new(1, 1).build();
        assert_eq!(
            a.send_packet(&packet, encode_packet).unwrap_err(),
            TransportError::Closed
        );
        assert_eq!(a.send(numbered(0)).unwrap_err(), TransportError::Closed);
        assert_eq!(a.send(numbered(1)).unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn packet_sends_count_the_frames_the_sink_makes() {
        /// Reports the first packet as a new frame and the rest as merged
        /// into it.
        struct Merging(AtomicBool);
        impl FrameSink for Merging {
            fn frame(&self, _: Bytes) -> bool {
                true
            }
            fn packet(&self, packet: &Packet, frame: PacketFrame) -> Option<Took> {
                let len = frame(packet).len();
                Some(match self.0.swap(true, Ordering::Relaxed) {
                    false => Took::Frame(len),
                    true => Took::Merged(len),
                })
            }
            fn closed(self: Box<Self>) {}
        }

        let (a, b) = LocalConnection::pair("x", "y");
        let packet = PacketBuilder::new(1, 1).push(7i32).build();
        let len = encode_packet(&packet).len() as u64;
        // Before a sink, a packet queues as its own frame.
        a.send_packet(&packet, encode_packet).unwrap();
        assert_eq!(b.recv().unwrap(), encode_packet(&packet));
        b.set_sink(Box::new(Merging(AtomicBool::new(false))));
        for _ in 0..3 {
            a.send_packet(&packet, encode_packet).unwrap();
        }
        let (sent, recv) = (a.stats(), b.stats());
        assert_eq!((sent.frames_sent, sent.bytes_sent), (2, 4 * len));
        assert_eq!((recv.frames_recv, recv.bytes_recv), (2, 4 * len));
    }

    #[test]
    fn fabric_rendezvous() {
        let fabric = LocalFabric::new();
        let listener = fabric.listen("leaf0");
        let conn = fabric.connect("leaf0", "backend7").unwrap();
        let accepted = listener.accept().unwrap();
        conn.send(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(accepted.recv().unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(accepted.peer(), "backend7");
        assert_eq!(conn.peer(), "leaf0");
    }

    #[test]
    fn fabric_unknown_endpoint() {
        let fabric = LocalFabric::new();
        let err = fabric.connect("nope", "x").err().expect("must fail");
        assert_eq!(err, TransportError::UnknownEndpoint("nope".into()));
    }

    #[test]
    fn fabric_unlisten() {
        let fabric = LocalFabric::new();
        let _l = fabric.listen("a");
        assert_eq!(fabric.registered(), vec!["a".to_string()]);
        fabric.unlisten("a");
        assert!(fabric.registered().is_empty());
        assert!(fabric.connect("a", "x").is_err());
    }

    #[test]
    fn fabric_accept_timeout() {
        let fabric = LocalFabric::new();
        let listener = fabric.listen("quiet");
        assert!(listener
            .accept_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
    }

    #[test]
    fn fabric_cross_thread() {
        let fabric = LocalFabric::new();
        let listener = fabric.listen("root");
        let f2 = fabric.clone();
        let handle = std::thread::spawn(move || {
            let conn = f2.connect("root", "child").unwrap();
            conn.send(Bytes::from_static(b"report")).unwrap();
            conn.recv().unwrap()
        });
        let server_side = listener.accept().unwrap();
        assert_eq!(server_side.recv().unwrap(), Bytes::from_static(b"report"));
        server_side.send(Bytes::from_static(b"ack")).unwrap();
        assert_eq!(handle.join().unwrap(), Bytes::from_static(b"ack"));
    }
}
