//! TCP transport: length-prefixed frames over real sockets.
//!
//! This is the deployment transport — the overlay network actually
//! crosses process and host boundaries, exactly as the original
//! MRNet's socket layer does. Each frame is a `u32` little-endian
//! length followed by that many payload bytes. A reader thread per
//! connection reads whole frames off the socket. Until a
//! [`crate::FrameSink`] is installed it queues them (at most
//! `INBOUND_DEPTH`, then the socket pushes back) for `recv`; once one
//! is, the reader hands each frame straight to the sink.
//!
//! # Send pipeline
//!
//! Each connection owns a dedicated writer thread fed by a bounded
//! queue of encoded frames, so [`Connection::send`] is an enqueue, not
//! a socket write: a peer that stops reading exerts backpressure only
//! on its own queue, never on the caller's event loop or on sends to
//! sibling connections (until the queue itself fills — see
//! [`SEND_QUEUE_ENV`]). The writer drains the queue with a single
//! vectored write per wake-up — length prefix and payload of every
//! queued frame in one syscall, no intermediate copy, no per-frame
//! flush — and owns failure detection for the send direction.
//!
//! # Failure detection
//!
//! The reader thread classifies how a connection ended and records a
//! *death note* the receive paths surface to callers:
//!
//! - EOF at a frame boundary → [`TransportError::Closed`] (orderly).
//! - EOF mid-frame, socket error, or corrupt length prefix →
//!   [`TransportError::PeerGone`] with a diagnostic reason.
//! - With heartbeats enabled (`MRNET_HEARTBEAT_SECS`), a peer silent
//!   for three intervals → [`TransportError::PeerGone`] even when the
//!   socket never reports an error (half-open connections, frozen
//!   peers). Heartbeats are `u32::MAX` length prefixes carrying no
//!   payload, invisible to the frame stream.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mrnet_obs::Unpoisoned;
use mrnet_packet::bytes::Bytes;

use crate::chan::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use crate::connection::{
    BoxedConnection, ConnCounters, ConnStats, Connection, FrameSink, Listener,
};
use crate::error::{Result, TransportError};
use crate::incoming::Incoming;

/// Maximum accepted frame size; protects against corrupt length
/// prefixes.
pub const MAX_FRAME: u32 = 256 << 20;

/// Environment variable enabling keepalive heartbeats: a positive
/// float number of seconds between beats. Unset or non-positive
/// disables them (the default — EOF detection is then the only death
/// signal, which suffices for peers whose kernel closes their sockets).
pub const HEARTBEAT_ENV: &str = "MRNET_HEARTBEAT_SECS";

/// Length-prefix value reserved for heartbeat markers. Distinguishable
/// from real frames because it exceeds [`MAX_FRAME`].
const HEARTBEAT_MARKER: u32 = u32::MAX;

/// A peer is declared dead after this many silent heartbeat intervals.
const HEARTBEAT_MISSES: u32 = 3;

/// How many inbound frames may queue, while no sink is installed,
/// before the reader thread applies back-pressure to the socket.
const INBOUND_DEPTH: usize = 1024;

/// Environment variable overriding the outbound send-queue depth in
/// frames (default 1024). A blocking send only stalls
/// the caller once this many frames are queued behind the writer
/// thread.
pub const SEND_QUEUE_ENV: &str = "MRNET_SEND_QUEUE";

/// Default outbound send-queue depth, in frames.
const SEND_QUEUE_DEPTH: usize = 1024;

/// Upper bound on frames coalesced into one vectored write. Caps the
/// iovec array (well under the kernel's `IOV_MAX`, typically 1024:
/// each frame contributes a length-prefix slice and a payload slice).
const COALESCE_MAX: usize = 64;

fn send_queue_depth() -> usize {
    std::env::var(SEND_QUEUE_ENV)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&d| d > 0)
        .unwrap_or(SEND_QUEUE_DEPTH)
}

/// Shared slot where the reader thread records why the connection
/// died, read by `recv`/`recv_timeout` once the inbound queue ends.
type DeathNote = Arc<Mutex<Option<TransportError>>>;

fn heartbeat_interval() -> Option<Duration> {
    let raw = std::env::var(HEARTBEAT_ENV).ok()?;
    let secs: f64 = raw.trim().parse().ok()?;
    if secs > 0.0 && secs.is_finite() {
        Some(Duration::from_secs_f64(secs))
    } else {
        None
    }
}

/// One end of a TCP connection carrying length-prefixed frames.
pub struct TcpConnection {
    outbound: Sender<Bytes>,
    incoming: Arc<Incoming>,
    peer: String,
    counters: Arc<ConnCounters>,
    death: DeathNote,
}

enum ReadStep {
    /// The buffer was filled completely.
    Done,
    /// The read timed out before the buffer filled (heartbeat mode).
    Timeout,
    /// The peer closed the connection; `true` if mid-buffer.
    Eof(bool),
}

/// Reads into `buf[*filled..]`, advancing `filled` and stamping
/// `last_heard` whenever bytes arrive. Returns instead of blocking
/// when the socket read timeout fires.
fn read_into(
    stream: &mut TcpStream,
    buf: &mut [u8],
    filled: &mut usize,
    last_heard: &mut Instant,
) -> std::io::Result<ReadStep> {
    while *filled < buf.len() {
        match stream.read(&mut buf[*filled..]) {
            Ok(0) => return Ok(ReadStep::Eof(*filled > 0)),
            Ok(n) => {
                *filled += n;
                *last_heard = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(ReadStep::Timeout)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(ReadStep::Done)
}

struct ReaderLoop {
    stream: TcpStream,
    incoming: Arc<Incoming>,
    death: DeathNote,
    /// `Some` when heartbeats are enabled; the reader then uses a
    /// socket read timeout to poll the silence deadline.
    heartbeat: Option<Duration>,
}

impl ReaderLoop {
    fn die(&self, reason: TransportError) {
        // First classification wins: the writer thread may already have
        // recorded why the peer died, and its diagnosis precedes the
        // EOF our own shutdown then feeds this reader.
        self.death.lock().unpoisoned().get_or_insert(reason);
    }

    fn silence_limit(&self) -> Duration {
        // Unwrap is safe: only consulted in heartbeat mode.
        self.heartbeat.expect("heartbeat enabled") * HEARTBEAT_MISSES
    }

    fn run(mut self) {
        self.read_frames();
        // After any death note: a receiver that sees the end reads it.
        self.incoming.end();
    }

    fn read_frames(&mut self) {
        let mut last_heard = Instant::now();
        loop {
            // Length prefix. EOF with zero bytes here is an orderly
            // close; anything else is a peer death.
            let mut len_buf = [0u8; 4];
            let mut filled = 0;
            let len = loop {
                match read_into(&mut self.stream, &mut len_buf, &mut filled, &mut last_heard) {
                    Ok(ReadStep::Done) => break u32::from_le_bytes(len_buf),
                    Ok(ReadStep::Timeout) => {
                        if last_heard.elapsed() > self.silence_limit() {
                            return self.die(TransportError::PeerGone(format!(
                                "no data or heartbeat for {:?}",
                                self.silence_limit()
                            )));
                        }
                    }
                    Ok(ReadStep::Eof(false)) => return, // clean close
                    Ok(ReadStep::Eof(true)) => {
                        return self.die(TransportError::PeerGone(
                            "connection lost mid-frame (in length prefix)".to_owned(),
                        ))
                    }
                    Err(e) => return self.die(TransportError::PeerGone(e.to_string())),
                }
            };
            if len == HEARTBEAT_MARKER {
                continue; // keepalive only; never surfaced as a frame
            }
            if len > MAX_FRAME {
                return self.die(TransportError::PeerGone(format!(
                    "frame length {len} exceeds limit {MAX_FRAME}"
                )));
            }
            let mut payload = vec![0u8; len as usize];
            let mut filled = 0;
            loop {
                match read_into(&mut self.stream, &mut payload, &mut filled, &mut last_heard) {
                    Ok(ReadStep::Done) => break,
                    Ok(ReadStep::Timeout) => {
                        if last_heard.elapsed() > self.silence_limit() {
                            return self.die(TransportError::PeerGone(format!(
                                "stalled mid-frame for {:?}",
                                self.silence_limit()
                            )));
                        }
                    }
                    Ok(ReadStep::Eof(_)) => {
                        return self.die(TransportError::PeerGone(
                            "connection lost mid-frame (in payload)".to_owned(),
                        ))
                    }
                    Err(e) => return self.die(TransportError::PeerGone(e.to_string())),
                }
            }
            if !self.incoming.push(Bytes::from(payload)) {
                return; // nobody receives any more
            }
        }
    }
}

fn spawn_reader(reader: ReaderLoop) {
    std::thread::Builder::new()
        .name("mrnet-tcp-reader".to_owned())
        .spawn(move || reader.run())
        .expect("spawn tcp reader thread");
}

/// Writes a list of byte segments with as few vectored-write syscalls
/// as possible (one, absent partial writes), resuming after partials.
fn write_segments(stream: &mut TcpStream, segments: &[&[u8]]) -> std::io::Result<()> {
    let mut seg = 0; // first segment with unwritten bytes
    let mut off = 0; // bytes of `segments[seg]` already written
    while seg < segments.len() {
        let slices: Vec<IoSlice<'_>> = std::iter::once(IoSlice::new(&segments[seg][off..]))
            .chain(segments[seg + 1..].iter().map(|s| IoSlice::new(s)))
            .collect();
        let mut n = match stream.write_vectored(&slices) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Advance (seg, off) past the bytes just written; empty
        // segments fall through without a syscall of their own.
        while seg < segments.len() {
            let left = segments[seg].len() - off;
            if n < left {
                off += n;
                break;
            }
            n -= left;
            seg += 1;
            off = 0;
        }
    }
    Ok(())
}

/// Writes `frames` to the socket, each preceded by its length prefix,
/// coalesced into a single vectored write.
fn write_frames(stream: &mut TcpStream, frames: &[Bytes]) -> std::io::Result<()> {
    let headers: Vec<[u8; 4]> = frames
        .iter()
        .map(|f| (f.len() as u32).to_le_bytes())
        .collect();
    let mut segments: Vec<&[u8]> = Vec::with_capacity(frames.len() * 2);
    for (h, f) in headers.iter().zip(frames) {
        segments.push(h);
        segments.push(f);
    }
    write_segments(stream, &segments)
}

/// The dedicated per-connection writer: drains the outbound queue,
/// coalescing everything queued (up to [`COALESCE_MAX`]) into one
/// vectored write, emits keepalive markers when idle, and records the
/// death note when the send direction fails.
struct WriterLoop {
    stream: TcpStream,
    rx: Receiver<Bytes>,
    death: DeathNote,
    counters: Arc<ConnCounters>,
    heartbeat: Option<Duration>,
}

impl WriterLoop {
    fn die(&self, reason: TransportError) {
        self.death.lock().unpoisoned().get_or_insert(reason);
    }

    /// Blocks for the next frame, emitting heartbeats while idle.
    /// `None` once every sender has dropped (all queued frames were
    /// already drained by then: the channel only disconnects empty).
    fn next_frame(&mut self) -> Option<Bytes> {
        loop {
            let interval = match self.heartbeat {
                Some(interval) => interval,
                None => return self.rx.recv().ok(),
            };
            match self.rx.recv_timeout(interval) {
                Ok(frame) => return Some(frame),
                Err(RecvTimeoutError::Timeout) => {
                    // Idle: keep the peer's silence detector fed. A
                    // failure here is left for the next data write (or
                    // the reader) to classify.
                    if self
                        .stream
                        .write_all(&HEARTBEAT_MARKER.to_le_bytes())
                        .is_err()
                    {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    fn run(mut self) {
        let mut frames = Vec::with_capacity(COALESCE_MAX);
        while let Some(first) = self.next_frame() {
            frames.clear();
            frames.push(first);
            while frames.len() < COALESCE_MAX {
                match self.rx.try_recv() {
                    Ok(f) => frames.push(f),
                    Err(_) => break,
                }
            }
            if let Err(e) = write_frames(&mut self.stream, &frames) {
                self.die(TransportError::PeerGone(format!("send failed: {e}")));
                break;
            }
            // Transmission accounting happens here, after the bytes
            // actually reached the socket — frames queued toward a
            // peer that dies first are never counted as sent.
            for f in &frames {
                self.counters.note_sent(f.len());
            }
            if frames.len() > 1 {
                self.counters.note_coalesced(frames.len() as u64 - 1);
            }
        }
        // Both exit paths end the connection: shutting down the read
        // direction pops our own reader thread out of its blocking
        // read, and the write direction sends the peer its EOF.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

fn spawn_writer(writer: WriterLoop) {
    std::thread::Builder::new()
        .name("mrnet-tcp-writer".to_owned())
        .spawn(move || writer.run())
        .expect("spawn tcp writer thread");
}

impl TcpConnection {
    fn from_stream(stream: TcpStream) -> Result<TcpConnection> {
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_owned());
        let reader_stream = stream.try_clone()?;
        let heartbeat = heartbeat_interval();
        if let Some(interval) = heartbeat {
            // Poll often enough to notice silence well before the
            //3-interval deadline.
            reader_stream.set_read_timeout(Some((interval / 2).max(Duration::from_millis(5))))?;
        }
        let counters = Arc::new(ConnCounters::default());
        let incoming = Arc::new(Incoming::new(Some(INBOUND_DEPTH), counters.clone()));
        let death: DeathNote = Arc::new(Mutex::new(None));
        spawn_reader(ReaderLoop {
            stream: reader_stream,
            incoming: incoming.clone(),
            death: death.clone(),
            heartbeat,
        });
        let (out_tx, out_rx) = bounded(send_queue_depth());
        spawn_writer(WriterLoop {
            stream,
            rx: out_rx,
            death: death.clone(),
            counters: counters.clone(),
            heartbeat,
        });
        Ok(TcpConnection {
            outbound: out_tx,
            incoming,
            peer,
            counters,
            death,
        })
    }

    /// Connects to a listening MRNet process.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpConnection> {
        let stream = TcpStream::connect(addr)?;
        TcpConnection::from_stream(stream)
    }

    /// Why the connection ended: the death note recorded by whichever
    /// of the reader/writer threads diagnosed the failure first,
    /// defaulting to an orderly [`TransportError::Closed`].
    fn death_reason(&self) -> TransportError {
        self.death
            .lock()
            .unpoisoned()
            .clone()
            .unwrap_or(TransportError::Closed)
    }
}

// Dropping the connection abandons its receive half, which releases a
// reader waiting on a full queue, and drops the outbound sender, which
// disconnects the writer's channel; the writer drains whatever was
// already queued (in-flight shutdown frames must still reach the peer)
// and then shuts the socket down in both directions — giving the peer
// its EOF and popping our own reader thread out of its blocking read.
impl Drop for TcpConnection {
    fn drop(&mut self) {
        self.incoming.abandon();
    }
}

impl Connection for TcpConnection {
    fn send(&self, frame: Bytes) -> Result<()> {
        // Fast path: enqueue without blocking. Once the bounded queue
        // is full, count the stall and fall back to a blocking send —
        // that is the backpressure contract of `send`.
        match self.outbound.try_send(frame) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(frame)) => {
                self.counters.note_stall();
                self.outbound.send(frame).map_err(|_| self.death_reason())
            }
            Err(TrySendError::Disconnected(_)) => Err(self.death_reason()),
        }
    }

    fn recv(&self) -> Result<Bytes> {
        match self.incoming.recv(None) {
            Ok(Some(frame)) => Ok(frame),
            _ => Err(self.death_reason()),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Bytes>> {
        self.incoming
            .recv(Instant::now().checked_add(timeout))
            .map_err(|_| self.death_reason())
    }

    fn set_sink(&self, sink: Box<dyn FrameSink>) {
        self.incoming.set_sink(sink);
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn stats(&self) -> ConnStats {
        self.counters.snapshot_with_depth(self.outbound.len())
    }
}

/// A bound TCP listener accepting MRNet connections.
pub struct TcpTransportListener {
    listener: TcpListener,
    addr: String,
}

impl TcpTransportListener {
    /// Binds to `addr`; use port 0 to let the OS pick (the chosen
    /// address is available via [`Listener::addr`], which is how leaf
    /// processes publish their rendezvous points in mode-2
    /// instantiation).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<TcpTransportListener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?.to_string();
        Ok(TcpTransportListener { listener, addr })
    }
}

impl Listener for TcpTransportListener {
    fn accept(&self) -> Result<BoxedConnection> {
        let (stream, _) = self.listener.accept()?;
        Ok(Box::new(TcpConnection::from_stream(stream)?))
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::testing::{expect_numbered_then_closed, numbered, recorder};

    fn pair() -> (TcpConnection, BoxedConnection) {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let client = TcpConnection::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn frames_round_trip() {
        let (client, server) = pair();
        client.send(Bytes::from_static(b"hello overlay")).unwrap();
        assert_eq!(server.recv().unwrap(), Bytes::from_static(b"hello overlay"));
        server.send(Bytes::from_static(b"ack")).unwrap();
        assert_eq!(client.recv().unwrap(), Bytes::from_static(b"ack"));
    }

    #[test]
    fn empty_frames_allowed() {
        let (client, server) = pair();
        client.send(Bytes::new()).unwrap();
        assert_eq!(server.recv().unwrap(), Bytes::new());
    }

    #[test]
    fn large_frame() {
        let (client, server) = pair();
        let big = Bytes::from(vec![0xAB; 1 << 20]);
        client.send(big.clone()).unwrap();
        assert_eq!(server.recv().unwrap(), big);
    }

    #[test]
    fn many_ordered_frames() {
        let (client, server) = pair();
        for i in 0..200u32 {
            client
                .send(Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        for i in 0..200u32 {
            let f = server.recv().unwrap();
            assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
        }
    }

    #[test]
    fn stats_count_payload_bytes() {
        let (client, server) = pair();
        client.send(Bytes::from_static(b"abcd")).unwrap();
        assert_eq!(server.recv().unwrap().len(), 4);
        // Send accounting happens on the writer thread after the bytes
        // hit the socket; poll briefly for it to land.
        let deadline = Instant::now() + Duration::from_secs(5);
        let cs = loop {
            let cs = client.stats();
            if cs.frames_sent == 1 || Instant::now() > deadline {
                break cs;
            }
            std::thread::yield_now();
        };
        assert_eq!(cs.frames_sent, 1);
        assert_eq!(cs.bytes_sent, 4); // payload only, not the length prefix
        let ss = server.stats();
        assert_eq!(ss.frames_recv, 1);
        assert_eq!(ss.bytes_recv, 4);
    }

    #[test]
    fn close_detected() {
        let (client, server) = pair();
        drop(client);
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn timeout_and_zero_timeout_recv() {
        let (client, server) = pair();
        assert_eq!(server.recv_timeout(Duration::ZERO).unwrap(), None);
        assert_eq!(
            server.recv_timeout(Duration::from_millis(10)).unwrap(),
            None
        );
        client.send(Bytes::from_static(b"x")).unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(Bytes::from_static(b"x"))
        );
    }

    const N: u32 = 100;

    /// Waits until `conn`'s reader thread has exited, which it does
    /// only after ending the receive half.
    fn wait_reader_exit(conn: &TcpConnection) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&conn.incoming) > 1 {
            assert!(Instant::now() < deadline, "reader thread never exited");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn frames_before_and_after_set_sink_arrive_in_order() {
        let (receiver, sender) = pair();
        for i in 0..N {
            sender.send(numbered(i)).unwrap();
        }
        let (sink, seen) = recorder();
        receiver.set_sink(sink);
        for i in N..2 * N {
            sender.send(numbered(i)).unwrap();
        }
        drop(sender);
        expect_numbered_then_closed(&seen, 2 * N);
    }

    /// More frames than the inbound queue holds arrive before the sink:
    /// the reader is blocked on a full queue when the sink goes in, and
    /// the frame it holds must follow the queued ones, not be lost.
    #[test]
    fn set_sink_releases_a_reader_blocked_on_a_full_queue() {
        let (receiver, sender) = pair();
        let before = INBOUND_DEPTH as u32 + N;
        for i in 0..before {
            sender.send(numbered(i)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while receiver.stats().frames_recv < INBOUND_DEPTH as u64 {
            assert!(Instant::now() < deadline, "inbound queue never filled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (sink, seen) = recorder();
        receiver.set_sink(sink);
        for i in before..before + N {
            sender.send(numbered(i)).unwrap();
        }
        drop(sender);
        expect_numbered_then_closed(&seen, before + N);
    }

    #[test]
    fn drop_before_set_sink_gives_the_frames_then_one_close() {
        let (receiver, sender) = pair();
        for i in 0..N {
            sender.send(numbered(i)).unwrap();
        }
        drop(sender);
        wait_reader_exit(&receiver);
        let (sink, seen) = recorder();
        receiver.set_sink(sink);
        expect_numbered_then_closed(&seen, N);
    }

    #[test]
    fn drop_after_set_sink_closes_once_after_the_last_frame() {
        let (receiver, sender) = pair();
        let (sink, seen) = recorder();
        receiver.set_sink(sink);
        for i in 0..N {
            sender.send(numbered(i)).unwrap();
        }
        drop(sender);
        expect_numbered_then_closed(&seen, N);
    }

    #[test]
    fn connect_refused_is_io_error() {
        // Bind then immediately drop to get a (very likely) dead port.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = TcpConnection::connect(dead).err().expect("must fail");
        assert!(matches!(err, TransportError::Io(_)));
    }

    #[test]
    fn concurrent_senders_interleave_whole_frames() {
        let (client, server) = pair();
        let client = std::sync::Arc::new(client);
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let c = client.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u8 {
                    c.send(Bytes::from(vec![t, i])).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = [0u8; 4];
        for _ in 0..200 {
            let f = server.recv().unwrap();
            assert_eq!(f.len(), 2);
            // Frames from each thread arrive in order.
            assert_eq!(f[1], seen[f[0] as usize]);
            seen[f[0] as usize] += 1;
        }
        assert_eq!(seen, [50; 4]);
    }

    /// A raw peer that dies mid-frame is classified `PeerGone`, not a
    /// clean close: the survivor can tell crash from shutdown.
    #[test]
    fn midframe_death_is_peer_gone() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        // Claim a 100-byte frame but deliver only 10 bytes, then die.
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 10]).unwrap();
        raw.flush().unwrap();
        drop(raw);
        let err = server.recv().unwrap_err();
        assert!(
            matches!(err, TransportError::PeerGone(_)),
            "expected PeerGone, got {err:?}"
        );
    }

    /// A corrupt length prefix (beyond MAX_FRAME) marks the peer dead
    /// rather than silently dropping the connection.
    #[test]
    fn oversized_length_is_peer_gone() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        raw.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        raw.flush().unwrap();
        let err = server.recv().unwrap_err();
        match err {
            TransportError::PeerGone(reason) => {
                assert!(reason.contains("exceeds limit"), "reason: {reason}")
            }
            other => panic!("expected PeerGone, got {other:?}"),
        }
    }

    /// N frames handed to one coalesced vectored write arrive as N
    /// intact frames — framing survives the single-syscall path.
    #[test]
    fn coalesced_write_preserves_framing() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        let frames: Vec<Bytes> = (0..10u8)
            .map(|i| Bytes::from(vec![i; i as usize * 37]))
            .collect();
        write_frames(&mut raw, &frames).unwrap();
        for f in &frames {
            assert_eq!(&server.recv().unwrap(), f);
        }
    }

    /// Partial-write resumption in `write_segments` never drops or
    /// reorders bytes even when segments are tiny and numerous.
    #[test]
    fn segmented_write_is_byte_exact() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        // One big frame expressed as many odd-sized segments, with the
        // length prefix up front and an empty segment mixed in.
        let body: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let header = (body.len() as u32).to_le_bytes();
        let mut segments: Vec<&[u8]> = vec![&header, &[]];
        segments.extend(body.chunks(7));
        write_segments(&mut raw, &segments).unwrap();
        assert_eq!(server.recv().unwrap(), Bytes::from(body));
    }

    /// Buffered frames are still delivered after the peer dies; the
    /// death reason only surfaces once the queue drains.
    #[test]
    fn buffered_frames_before_death() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        // One complete frame, then a truncated one.
        raw.write_all(&3u32.to_le_bytes()).unwrap();
        raw.write_all(b"abc").unwrap();
        raw.write_all(&50u32.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        drop(raw);
        assert_eq!(server.recv().unwrap(), Bytes::from_static(b"abc"));
        assert!(matches!(
            server.recv().unwrap_err(),
            TransportError::PeerGone(_)
        ));
    }
}
