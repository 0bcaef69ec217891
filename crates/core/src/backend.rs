//! The tool back-end API.
//!
//! Mirrors the back-end side of the paper's Figure 2: a back-end joins
//! the network (`MR_Network::init_backend`), performs stream-anonymous
//! receives that yield both the data and the stream it arrived on, and
//! sends scalar values upstream on those streams. Its connection's
//! [`FrameSink`] handles control as it is delivered, whether or not the
//! tool thread is receiving.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mrnet_obs::tracectx::{self, TraceEnvelope, TraceSampler};
use mrnet_obs::{log_warn, NodeMetrics, StreamCounters, Unpoisoned};
use mrnet_packet::bytes::Bytes;
use mrnet_packet::{Packet, Rank, StreamId, Value};
use mrnet_transport::{FrameSink, LocalFabric, RetryPolicy, SharedConnection, INBOUND_DEPTH};

use crate::delivery::Delivery;
use crate::error::{MrnetError, Result};
use crate::event::{FailureLedger, TopologyEvent};
use crate::intmap::IntMap;
use crate::introspect::{self, METRICS_REQUEST, METRICS_STREAM};
use crate::proto::{decode_frame, encode_data_frame, encode_traced_data_frame, Control, Frame};

/// A tool back-end (daemon) endpoint of the MRNet network.
pub struct Backend {
    inner: Arc<Inner>,
    conn: SharedConnection,
    /// Decides which upstream sends originate a sampled trace wave.
    sampler: TraceSampler,
}

/// A back-end's state, shared with the [`Sink`] that fills it.
struct Inner {
    rank: Rank,
    /// The streams this back-end has learned about, each with its packet
    /// counters cached so a send needs no registry lookup.
    streams: Mutex<IntMap<StreamId, Arc<StreamCounters>>>,
    /// Data packets from the parent, until the tool receives them.
    mailbox: Delivery,
    /// Read by every send, so an atomic beside the mailbox's own flag.
    down: AtomicBool,
    metrics: Arc<NodeMetrics>,
    /// Topology events relayed down the tree, queued until the tool
    /// polls [`Backend::try_next_event`], and every rank reported
    /// failed.
    ledger: FailureLedger,
    /// The connection the sink replies on. [`Backend`]'s drop takes it
    /// out, so the sink never drops the last handle: that drop would
    /// take the receive lock the sink runs under.
    reply: Mutex<Option<SharedConnection>>,
}

/// Hands the parent's frames to a back-end. A bad frame, or control a
/// back-end does not expect, is logged and dropped.
struct Sink(Arc<Inner>);

impl FrameSink for Sink {
    fn frame(&self, frame: Bytes) -> bool {
        if let Err(e) = self.0.handle_frame(frame) {
            log_warn!(self.0.rank, "dropping a frame from the parent: {e}");
        }
        true
    }

    fn closed(self: Box<Self>) {
        self.0.shut_down();
    }
}

impl Backend {
    /// Joins the network over an established connection to the parent
    /// process, announcing this back-end's rank via a subtree report
    /// (§2.5). Used by mode-1 instantiation; `cap` bounds the mailbox.
    pub(crate) fn new(rank: Rank, conn: SharedConnection, cap: Option<usize>) -> Result<Backend> {
        conn.send(
            Control::SubtreeReport {
                endpoints: vec![rank],
            }
            .to_frame(),
        )?;
        let inner = Arc::new(Inner {
            rank,
            streams: Mutex::default(),
            mailbox: Delivery::with_capacity(cap),
            down: AtomicBool::new(false),
            metrics: Arc::new(NodeMetrics::new()),
            ledger: FailureLedger::new(),
            reply: Mutex::new(Some(conn.clone())),
        });
        conn.set_sink(Box::new(Sink(inner.clone())));
        Ok(Backend {
            inner,
            conn,
            sampler: TraceSampler::new(),
        })
    }

    /// Mode-2 instantiation: an externally created back-end connects
    /// to a waiting leaf process through the in-process rendezvous
    /// fabric (the analogue of "the leaf processes' host names and
    /// connection port numbers … provided via the environment", §2.5).
    pub fn attach(fabric: &LocalFabric, endpoint: &str, rank: Rank) -> Result<Backend> {
        let conn = fabric.connect(endpoint, &format!("backend-{rank}"))?;
        let conn: SharedConnection = std::sync::Arc::from(conn);
        conn.send(Control::Attach { rank }.to_frame())?;
        Backend::new(rank, conn, None)
    }

    /// Mode-2 instantiation over TCP: connect to a leaf process's
    /// published address, retrying transient refusals (the §2.5
    /// connect-back race) per `MRNET_CONNECT_RETRIES`.
    pub fn attach_tcp(addr: &str, rank: Rank) -> Result<Backend> {
        let (conn, retries) = RetryPolicy::from_env()
            .connect(addr)
            .map_err(MrnetError::Transport)?;
        let conn: SharedConnection = std::sync::Arc::new(conn);
        conn.send(Control::Attach { rank }.to_frame())?;
        let be = Backend::new(rank, conn, Some(INBOUND_DEPTH))?;
        be.inner.metrics.connect_retries.add(u64::from(retries));
        Ok(be)
    }

    /// This back-end's rank (its end-point identity).
    pub fn rank(&self) -> Rank {
        self.inner.rank
    }

    /// This back-end's metrics instruments, reported upstream whenever
    /// an introspection request reaches this leaf.
    pub fn metrics(&self) -> Arc<NodeMetrics> {
        self.inner.metrics.clone()
    }

    /// Stream-anonymous blocking receive: the next data packet and the
    /// id of the stream it arrived on (Figure 2's
    /// `MR_Stream::recv(&val, &stream)`).
    pub fn recv(&self) -> Result<(Packet, StreamId)> {
        // No deadline: only a packet or shutdown ends the wait.
        self.recv_timeout(Duration::MAX)?.ok_or(MrnetError::Timeout)
    }

    /// Like [`Backend::recv`] but gives up after `timeout`, returning
    /// `Ok(None)`. A zero timeout takes a packet already delivered.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Packet, StreamId)>> {
        match self.inner.mailbox.recv_any(Some(timeout)) {
            Ok(p) => {
                let sid = p.stream_id();
                Ok(Some((p, sid)))
            }
            Err(MrnetError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Sends values upstream on `stream` (Figure 2's
    /// `stream->send("%f", value)`). The packet is made once:
    /// [`Backend::send_packet`] sets this back-end's rank on it in
    /// place.
    pub fn send(&self, stream: StreamId, tag: i32, fmt: &str, values: Vec<Value>) -> Result<()> {
        self.send_packet(Packet::with_fmt_str(stream, tag, fmt, values)?)
    }

    /// Sends a pre-built packet upstream. Besides the connection's
    /// own, the send takes one lock: the stream table's. In process, an
    /// untraced packet joins the frame the parent has not taken from
    /// its inbox yet, if there is one (see `InboxSink`). Counted once
    /// the connection has accepted it.
    pub fn send_packet(&self, packet: Packet) -> Result<()> {
        if self.is_down() {
            return Err(MrnetError::Shutdown);
        }
        let inner = &*self.inner;
        let sid = packet.stream_id();
        let counters = match inner.streams.lock().unpoisoned().get(&sid) {
            Some(counters) => counters.clone(),
            None => return Err(MrnetError::UnknownStream(sid)),
        };
        let packet = packet.with_src(inner.rank);
        // One in `MRNET_TRACE_SAMPLE` sends originates a traced
        // up-wave, a whole frame of its own; the rest pay zero trailer
        // bytes on the wire.
        if self.sampler.sample() {
            let env = TraceEnvelope::originate(inner.rank, sid);
            self.conn.send(encode_traced_data_frame(
                std::slice::from_ref(&packet),
                &[env],
            ))?;
            inner.metrics.trace_frames.inc();
            inner.metrics.trace_hops.inc();
        } else {
            self.conn
                .send_packet(&packet, |p| encode_data_frame(std::slice::from_ref(p)))?;
        }
        counters.up_pkts.inc();
        inner.metrics.up_pkts_sent.inc();
        inner
            .metrics
            .local_up_bytes
            .add(packet.encoded_size_hint() as u64);
        Ok(())
    }

    /// True once the network has shut down.
    pub fn is_down(&self) -> bool {
        self.inner.down.load(Ordering::Acquire)
    }

    /// The next queued topology event, if any.
    pub fn try_next_event(&self) -> Option<TopologyEvent> {
        self.inner.ledger.events().try_recv().ok()
    }

    /// Every rank this back-end has heard reported failed, sorted.
    pub fn failed_ranks(&self) -> Vec<Rank> {
        self.inner.ledger.failed_ranks()
    }
}

impl Drop for Backend {
    /// Takes the sink's reply handle, so the last handle drops here, not
    /// in the sink, and closes the mailbox before the connection drops:
    /// a reader parked on it holds the receive lock that drop takes.
    fn drop(&mut self) {
        self.inner.reply.lock().unpoisoned().take();
        self.inner.mailbox.close();
    }
}

impl Inner {
    fn shut_down(&self) {
        self.down.store(true, Ordering::Release);
        self.mailbox.close();
    }

    /// Sends `frame` to the parent unless the back-end is dropping,
    /// bypassing [`Backend::send_packet`]'s stream checks and counters.
    fn reply(&self, frame: Bytes) {
        if let Some(conn) = &*self.reply.lock().unpoisoned() {
            let _ = conn.send(frame);
        }
    }

    /// Answers an in-band metrics request with this back-end's own section.
    fn answer_metrics(&self, request: &Packet) {
        let Ok((req_id, _timeout)) = introspect::decode_request(request) else {
            log_warn!(self.rank, "dropping malformed metrics request");
            return;
        };
        let section = self.metrics.snapshot(self.rank);
        let reply = introspect::encode_reply(req_id, std::slice::from_ref(&section));
        self.reply(encode_data_frame(std::slice::from_ref(&reply)));
    }

    /// Puts a frame's data packets in the mailbox, answering any
    /// in-band metrics requests among them. A run of consecutive
    /// packets on one stream takes the stream's counters once.
    fn ingest_packets(&self, mut data: Vec<Packet>) {
        let requests: Vec<_> = data
            .extract_if(.., |p| p.stream_id() == METRICS_STREAM)
            .collect();
        for run in data.chunk_by(|a, b| a.stream_id() == b.stream_id()) {
            let sid = run[0].stream_id();
            // Cached in the stream table; from the registry for a
            // stream the table lacks (data racing its delete).
            let cached = self.streams.lock().unpoisoned().get(&sid).cloned();
            let counters = cached.unwrap_or_else(|| self.metrics.stream_counters(sid));
            counters.down_pkts.add(run.len() as u64);
        }
        self.metrics.down_pkts_recv.add(data.len() as u64);
        self.mailbox.push_many(data);
        for request in requests.iter().filter(|p| p.tag() == METRICS_REQUEST) {
            self.answer_metrics(request);
        }
    }

    fn handle_frame(&self, frame: Bytes) -> Result<()> {
        match decode_frame(frame)? {
            Frame::Data(packets) => self.ingest_packets(packets),
            Frame::Traced(packets, envelopes) => {
                // A sampled down-wave ends here: stamp the terminal hop
                // and report the completed envelope back up the tree so
                // the front-end's assembler can reconstruct the wave.
                let recv_us = tracectx::wall_us();
                self.metrics.trace_frames.inc();
                self.ingest_packets(packets);
                for mut env in envelopes {
                    env.add_hop(self.rank, recv_us, tracectx::wall_us());
                    self.metrics.trace_hops.inc();
                    let report = introspect::encode_trace_report(&env);
                    self.reply(encode_data_frame(std::slice::from_ref(&report)));
                }
            }
            Frame::Control(pkt) => match Control::from_packet(&pkt)? {
                Control::NewStream { stream_id, .. } => {
                    let counters = self.metrics.stream_counters(stream_id);
                    self.streams.lock().unpoisoned().insert(stream_id, counters);
                }
                Control::DeleteStream { stream_id } => {
                    self.streams.lock().unpoisoned().remove(&stream_id);
                }
                Control::RankFailed { rank, subtree } => {
                    // A failure elsewhere in the tree, relayed down so
                    // this back-end can adapt (e.g. note that a sibling
                    // will never contribute again).
                    self.metrics.events_delivered.inc();
                    self.ledger.report(rank, subtree);
                }
                Control::ClockPing { t0_us } => {
                    // NTP-style echo: timestamp arrival and departure
                    // so the parent can estimate this leaf's clock
                    // offset and the link RTT.
                    let t1_us = tracectx::wall_us();
                    self.reply(
                        Control::ClockPong {
                            t0_us,
                            t1_us,
                            t2_us: tracectx::wall_us(),
                        }
                        .to_frame(),
                    );
                }
                Control::Shutdown => self.shut_down(),
                other => {
                    return Err(MrnetError::Protocol(format!(
                        "unexpected control at back-end: {other:?}"
                    )))
                }
            },
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrnet_filters::SyncMode;
    use mrnet_packet::PacketBuilder;
    use mrnet_transport::{Connection, LocalConnection};

    const SID: StreamId = 5;

    /// A back-end over an in-process connection, whose parent end the
    /// test holds, after a `NewStream` for [`SID`] and one packet on it
    /// have reached it.
    fn backend_with_stream() -> (Backend, LocalConnection) {
        let (parent, child) = LocalConnection::pair("leaf", "be");
        let be = Backend::new(7, Arc::new(child), None).unwrap();
        let new_stream = Control::NewStream {
            stream_id: SID,
            endpoints: vec![7],
            up_filter: "null".into(),
            down_filter: "null".into(),
            sync: SyncMode::DoNotWait,
        };
        parent.send(new_stream.to_frame()).unwrap();
        parent.send(data(0)).unwrap();
        let (_, sid) = be.recv().unwrap();
        assert_eq!(sid, SID);
        (be, parent)
    }

    fn data(v: i32) -> Bytes {
        encode_data_frame(&[PacketBuilder::new(SID, 1).push(v).build()])
    }

    #[test]
    fn recv_timeout_without_a_representable_deadline_waits_for_the_packet() {
        let (be, parent) = backend_with_stream();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            parent.send(data(42)).unwrap();
            parent
        });
        let (pkt, sid) = be.recv_timeout(Duration::MAX).unwrap().expect("a packet");
        assert_eq!((pkt.get(0).and_then(Value::as_i32), sid), (Some(42), SID));
        sender.join().unwrap();
    }

    /// A packet delivered before a zero-timeout receive is returned
    /// by it.
    #[test]
    fn a_zero_timeout_receive_takes_a_delivered_packet() {
        let (be, parent) = backend_with_stream();
        // Delivered in process: handled before the send returns.
        parent.send(data(42)).unwrap();
        let (pkt, sid) = be.recv_timeout(Duration::ZERO).unwrap().expect("a packet");
        assert_eq!((pkt.get(0).and_then(Value::as_i32), sid), (Some(42), SID));
        assert!(be.recv_timeout(Duration::ZERO).unwrap().is_none());
    }

    /// One frame carrying runs on two streams, one of them announced
    /// and one not (data racing its stream's delete), counts every
    /// packet on its own stream and queues them all in order.
    #[test]
    fn one_frame_on_two_streams_counts_each_stream_exactly() {
        const OTHER: StreamId = SID + 1;
        let (be, parent) = backend_with_stream();
        let metrics = be.metrics();
        let sids = [SID, SID, OTHER, OTHER, OTHER, SID];
        let frame: Vec<Packet> = (sids.iter().zip(0..))
            .map(|(&sid, v)| PacketBuilder::new(sid, 1).push(v).build())
            .collect();
        parent.send(encode_data_frame(&frame)).unwrap();
        let got: Vec<_> = (0..sids.len())
            .map(|_| {
                let (p, sid) = be.recv().unwrap();
                (sid, p.get(0).and_then(Value::as_i32).unwrap())
            })
            .collect();
        let sent: Vec<_> = sids.iter().copied().zip(0..).collect();
        assert_eq!(got, sent);
        // The setup's packet and three of this frame's on SID.
        assert_eq!(metrics.stream_counters(SID).down_pkts.get(), 4);
        assert_eq!(metrics.stream_counters(OTHER).down_pkts.get(), 3);
        assert_eq!(metrics.down_pkts_recv.get(), 7);
    }

    /// A sink whose receiver is gone.
    struct Refusing;

    impl FrameSink for Refusing {
        fn frame(&self, _: Bytes) -> bool {
            false
        }

        fn closed(self: Box<Self>) {}
    }

    #[test]
    fn a_failed_send_is_not_counted() {
        let (be, parent) = backend_with_stream();
        let metrics = be.metrics();
        let stream = metrics.stream_counters(SID);
        let counted = || {
            (
                stream.up_pkts.get(),
                metrics.up_pkts_sent.get(),
                metrics.local_up_bytes.get(),
            )
        };
        let packet = PacketBuilder::new(SID, 1).src(7).push(1i32).build();
        let size = packet.encoded_size_hint() as u64;
        be.send_packet(packet.clone()).unwrap();
        assert_eq!(counted(), (1, 1, size));

        // A parent whose receiver is gone refuses the next frame, so the
        // send fails while the back-end is still up.
        parent.set_sink(Box::new(Refusing));
        assert!(matches!(
            be.send_packet(packet),
            Err(MrnetError::Transport(_))
        ));
        assert_eq!(counted(), (1, 1, size), "the failed send was counted");
    }
}
