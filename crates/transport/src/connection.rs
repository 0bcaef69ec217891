//! The connection abstraction shared by all transports.
//!
//! MRNet processes exchange *frames*: opaque byte buffers that the core
//! library fills with encoded packet buffers or control messages. A
//! [`Connection`] is one bidirectional, ordered, reliable frame pipe —
//! the role a TCP socket plays in the original system. The local
//! (in-process) and TCP transports both implement this trait, so the
//! core's internal-process event loop is transport-agnostic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mrnet_packet::bytes::Bytes;
use mrnet_packet::Packet;

use crate::error::Result;

/// Point-in-time traffic totals for one connection, in frames and
/// payload bytes, from this endpoint's perspective.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Frames this endpoint sent.
    pub frames_sent: u64,
    /// Payload bytes this endpoint sent.
    pub bytes_sent: u64,
    /// Frames this endpoint received.
    pub frames_recv: u64,
    /// Payload bytes this endpoint received.
    pub bytes_recv: u64,
    /// Frames that shared a transmit syscall with at least one other
    /// frame: each vectored write carrying `b > 1` frames contributes
    /// `b - 1` (the writes it saved versus frame-at-a-time sending).
    pub frames_coalesced: u64,
    /// Sends that found the outbound queue at capacity and had to
    /// block until the writer made room.
    pub enqueue_stalls: u64,
    /// Frames currently queued behind the writer, sampled at snapshot
    /// time. Zero for transports without a send queue.
    pub queue_depth: u64,
}

/// Relaxed atomic traffic counters backing [`ConnStats`]; transports
/// embed one and bump it on every frame.
#[derive(Debug, Default)]
pub(crate) struct ConnCounters {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_recv: AtomicU64,
    bytes_recv: AtomicU64,
    frames_coalesced: AtomicU64,
    enqueue_stalls: AtomicU64,
}

impl ConnCounters {
    pub(crate) fn note_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_recv(&self, bytes: usize) {
        self.frames_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Counts one packet a sink took: a frame of its own, or bytes
    /// added to a frame that is already counted.
    pub(crate) fn note_sent_packet(&self, took: Took) {
        match took {
            Took::Frame(len) => self.note_sent(len),
            Took::Merged(len) => {
                self.bytes_sent.fetch_add(len as u64, Ordering::Relaxed);
            }
        }
    }

    /// The receiving side of [`ConnCounters::note_sent_packet`].
    pub(crate) fn note_recv_packet(&self, took: Took) {
        match took {
            Took::Frame(len) => self.note_recv(len),
            Took::Merged(len) => {
                self.bytes_recv.fetch_add(len as u64, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn note_coalesced(&self, saved_writes: u64) {
        self.frames_coalesced
            .fetch_add(saved_writes, Ordering::Relaxed);
    }

    pub(crate) fn note_stall(&self) {
        self.enqueue_stalls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ConnStats {
        self.snapshot_with_depth(0)
    }

    pub(crate) fn snapshot_with_depth(&self, queue_depth: usize) -> ConnStats {
        ConnStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            frames_coalesced: self.frames_coalesced.load(Ordering::Relaxed),
            enqueue_stalls: self.enqueue_stalls.load(Ordering::Relaxed),
            queue_depth: queue_depth as u64,
        }
    }
}

/// Encodes one data packet as a frame of its own. The frame format
/// belongs to the layer above the transport, which passes this along
/// with each packet-level send.
pub type PacketFrame = fn(&Packet) -> Bytes;

/// How a sink took one packet handed to [`FrameSink::packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Took {
    /// As a new frame of this many bytes.
    Frame(usize),
    /// Appended to a frame the receiver has not taken yet: this many
    /// more bytes, and no new frame.
    Merged(usize),
}

/// Where a connection delivers inbound frames once
/// [`Connection::set_sink`] has installed it.
///
/// Every method runs on the thread that produced the frame (the sending
/// thread for the in-process transport, the reader thread for TCP),
/// with the connection's receive lock held. A sink therefore never
/// touches its connection's receive half, nor drops its last handle.
/// It may send, and it may wait only on a TCP reader thread, where
/// waiting is the transport's backpressure.
pub trait FrameSink: Send {
    /// Takes one frame. Returns false once the receiver is gone; the
    /// connection then stops delivering.
    fn frame(&self, frame: Bytes) -> bool;

    /// Takes one data packet, which the sink may append to a frame it
    /// has not handed on yet. `None` once the receiver is gone. The
    /// default takes it as the one-packet frame `frame` encodes.
    fn packet(&self, packet: &Packet, frame: PacketFrame) -> Option<Took> {
        let frame = frame(packet);
        let len = frame.len();
        self.frame(frame).then_some(Took::Frame(len))
    }

    /// The connection ended. Called exactly once, after the last frame.
    fn closed(self: Box<Self>);
}

/// A bidirectional, ordered, reliable frame pipe between two processes.
///
/// Implementations are `Sync`: any thread may send, and frames are
/// received either by polling ([`Connection::recv`]) or by a
/// [`FrameSink`] the connection pushes into.
pub trait Connection: Send + Sync {
    /// Sends one frame. Enqueues without blocking while the transport's
    /// outbound buffer has room; once the buffer is at capacity the
    /// send applies backpressure (blocks) until space frees up. Fails
    /// once the peer has hung up.
    fn send(&self, frame: Bytes) -> Result<()>;

    /// Sends one data packet. The in-process transport hands it to the
    /// peer's sink, which may merge it into a frame still waiting
    /// there; the default sends the one-packet frame `frame` encodes.
    fn send_packet(&self, packet: &Packet, frame: PacketFrame) -> Result<()> {
        self.send(frame(packet))
    }

    /// Receives the next frame, blocking until one arrives or the peer
    /// hangs up. Returns `Err` only once the peer has hung up *and*
    /// all buffered frames have been received.
    fn recv(&self) -> Result<Bytes>;

    /// Receives the next frame, waiting at most `timeout` (a zero
    /// timeout only takes a frame already buffered).
    /// Returns `Ok(None)` on timeout.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Bytes>>;

    /// Switches this endpoint to push delivery. Frames already
    /// buffered go to `sink` first, in order; every later frame goes
    /// there directly, on the thread that produced it. If the peer has
    /// already hung up, `sink.closed()` follows the buffered frames at
    /// once. Call at most once; afterwards `recv` sees no frames.
    fn set_sink(&self, sink: Box<dyn FrameSink>);

    /// Human-readable description of the peer, for diagnostics.
    fn peer(&self) -> String;

    /// Traffic totals for this endpoint. Transports that do not count
    /// report all-zero stats (the default).
    fn stats(&self) -> ConnStats {
        ConnStats::default()
    }
}

/// A boxed connection, the form the core library passes around.
pub type BoxedConnection = Box<dyn Connection>;

/// A shared connection: one endpoint several threads send on.
pub type SharedConnection = std::sync::Arc<dyn Connection>;

/// Something that accepts inbound connections (a bound TCP port or a
/// named in-process rendezvous point).
pub trait Listener: Send {
    /// Blocks until the next inbound connection arrives.
    fn accept(&self) -> Result<BoxedConnection>;

    /// The address/name peers use to reach this listener.
    fn addr(&self) -> String;
}

/// A boxed listener.
pub type BoxedListener = Box<dyn Listener>;

/// A [`FrameSink`] that records what it sees, for the transports'
/// delivery tests.
#[cfg(test)]
pub(crate) mod testing {
    use std::time::Duration;

    use mrnet_packet::bytes::Bytes;

    use super::FrameSink;
    use crate::chan::{unbounded, Receiver, Sender};

    /// One delivery a recording sink saw.
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) enum Seen {
        Frame(Bytes),
        Closed,
    }

    struct Recorder(Sender<Seen>);

    impl FrameSink for Recorder {
        fn frame(&self, frame: Bytes) -> bool {
            self.0.send(Seen::Frame(frame)).is_ok()
        }

        fn closed(self: Box<Self>) {
            let _ = self.0.send(Seen::Closed);
        }
    }

    /// A recording sink and the receiver its deliveries land on.
    pub(crate) fn recorder() -> (Box<dyn FrameSink>, Receiver<Seen>) {
        let (tx, rx) = unbounded();
        (Box::new(Recorder(tx)), rx)
    }

    /// The frame carrying `i`, as the tests send it.
    pub(crate) fn numbered(i: u32) -> Bytes {
        Bytes::copy_from_slice(&i.to_le_bytes())
    }

    /// Asserts the sink saw frames `0..n` in order, then one close,
    /// then nothing more.
    pub(crate) fn expect_numbered_then_closed(seen: &Receiver<Seen>, n: u32) {
        let wait = Duration::from_secs(10);
        for i in 0..n {
            assert_eq!(seen.recv_timeout(wait), Ok(Seen::Frame(numbered(i))));
        }
        assert_eq!(seen.recv_timeout(wait), Ok(Seen::Closed));
        // The recorder went away with its one close.
        assert!(seen.recv_timeout(Duration::from_millis(50)).is_err());
    }
}
