//! The tool back-end API.
//!
//! Mirrors the back-end side of the paper's Figure 2: a back-end joins
//! the network (`MR_Network::init_backend`), performs stream-anonymous
//! receives that yield both the data and the stream it arrived on, and
//! sends scalar values upstream on those streams.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mrnet_obs::tracectx::{self, TraceEnvelope, TraceSampler};
use mrnet_obs::{log_warn, NodeMetrics, StreamCounters, Unpoisoned};
use mrnet_packet::bytes::Bytes;
use mrnet_packet::{Packet, Rank, StreamId, Value};
use mrnet_transport::{LocalFabric, RetryPolicy, SharedConnection};

use crate::error::{MrnetError, Result};
use crate::event::{FailureLedger, TopologyEvent};
use crate::intmap::IntMap;
use crate::introspect::{self, METRICS_REQUEST, METRICS_STREAM};
use crate::proto::{decode_frame, encode_data_frame, encode_traced_data_frame, Control, Frame};

/// A tool back-end (daemon) endpoint of the MRNet network.
pub struct Backend {
    rank: Rank,
    conn: SharedConnection,
    /// The streams this back-end has learned about, each with its packet
    /// counters cached so a send needs no registry lookup.
    streams: Mutex<IntMap<StreamId, Arc<StreamCounters>>>,
    pending: Mutex<VecDeque<Packet>>,
    down: AtomicBool,
    metrics: Arc<NodeMetrics>,
    /// Topology events relayed down the tree, queued until the tool
    /// polls [`Backend::try_next_event`], and every rank reported
    /// failed.
    ledger: FailureLedger,
    /// Decides which upstream sends originate a sampled trace wave.
    sampler: TraceSampler,
}

impl Backend {
    /// Joins the network over an established connection to the parent
    /// process, announcing this back-end's rank via a subtree report
    /// (§2.5). Used by mode-1 instantiation.
    pub(crate) fn new(rank: Rank, conn: SharedConnection) -> Result<Backend> {
        conn.send(
            Control::SubtreeReport {
                endpoints: vec![rank],
            }
            .to_frame(),
        )?;
        Ok(Backend {
            rank,
            conn,
            streams: Mutex::default(),
            pending: Mutex::new(VecDeque::new()),
            down: AtomicBool::new(false),
            metrics: Arc::new(NodeMetrics::new()),
            ledger: FailureLedger::new(),
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
        Backend::new(rank, conn)
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
        let be = Backend::new(rank, conn)?;
        be.metrics.connect_retries.add(u64::from(retries));
        Ok(be)
    }

    /// This back-end's rank (its end-point identity).
    pub fn rank(&self) -> Rank {
        self.rank
    }

    fn note_shutdown(&self) {
        self.down.store(true, Ordering::Release);
    }

    /// This back-end's metrics instruments. Updated as the tool thread
    /// pumps the connection; reported upstream automatically whenever
    /// an introspection request reaches this leaf.
    pub fn metrics(&self) -> Arc<NodeMetrics> {
        self.metrics.clone()
    }

    /// Answers an in-band metrics request with this back-end's own
    /// section. The reply bypasses [`Backend::send_packet`]'s stream
    /// checks and counters: introspection traffic reports the network,
    /// it is not part of it.
    fn answer_metrics(&self, request: &Packet) {
        let Ok((req_id, _timeout)) = introspect::decode_request(request) else {
            log_warn!(self.rank, "dropping malformed metrics request");
            return;
        };
        let section = self.metrics.snapshot(self.rank);
        let reply = introspect::encode_reply(req_id, std::slice::from_ref(&section));
        let _ = self
            .conn
            .send(encode_data_frame(std::slice::from_ref(&reply)));
    }

    /// Queues a frame's data packets for [`Backend::recv`], answering
    /// any in-band metrics requests among them. A run of consecutive
    /// packets on one stream takes the stream's counters once.
    fn ingest_packets(&self, packets: Vec<Packet>) {
        let mut requests = Vec::new();
        let mut recv = 0;
        let mut pending = self.pending.lock().unpoisoned();
        let mut packets = packets.into_iter().peekable();
        while let Some(p) = packets.next() {
            let sid = p.stream_id();
            if sid == METRICS_STREAM {
                if p.tag() == METRICS_REQUEST {
                    requests.push(p);
                }
                continue;
            }
            let start = pending.len();
            pending.push_back(p);
            pending.extend(std::iter::from_fn(|| {
                packets.next_if(|p| p.stream_id() == sid)
            }));
            let n = (pending.len() - start) as u64;
            recv += n;
            // Cached in the stream table; from the registry for a
            // stream the table lacks (data racing its delete).
            let cached = self.streams.lock().unpoisoned().get(&sid).cloned();
            let counters = cached.unwrap_or_else(|| self.metrics.stream_counters(sid));
            counters.down_pkts.add(n);
        }
        self.metrics.down_pkts_recv.add(recv);
        drop(pending);
        for request in &requests {
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
                    let _ = self
                        .conn
                        .send(encode_data_frame(std::slice::from_ref(&report)));
                }
            }
            Frame::Control(pkt) => {
                let control = Control::from_packet(&pkt)?;
                match control {
                    Control::NewStream { stream_id, .. } => {
                        let counters = self.metrics.stream_counters(stream_id);
                        self.streams.lock().unpoisoned().insert(stream_id, counters);
                    }
                    Control::DeleteStream { stream_id } => {
                        self.streams.lock().unpoisoned().remove(&stream_id);
                    }
                    Control::RankFailed { rank, subtree } => {
                        // A failure elsewhere in the tree, relayed down
                        // so this back-end can adapt (e.g. note that a
                        // sibling will never contribute again).
                        self.metrics.events_delivered.inc();
                        self.ledger.report(rank, subtree);
                    }
                    Control::ClockPing { t0_us } => {
                        // NTP-style echo: timestamp arrival and
                        // departure so the parent can estimate this
                        // leaf's clock offset and the link RTT.
                        let t1_us = tracectx::wall_us();
                        let _ = self.conn.send(
                            Control::ClockPong {
                                t0_us,
                                t1_us,
                                t2_us: tracectx::wall_us(),
                            }
                            .to_frame(),
                        );
                    }
                    Control::Shutdown => {
                        self.note_shutdown();
                        return Err(MrnetError::Shutdown);
                    }
                    other => {
                        return Err(MrnetError::Protocol(format!(
                            "unexpected control at back-end: {other:?}"
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Stream-anonymous blocking receive: the next data packet and the
    /// id of the stream it arrived on (Figure 2's
    /// `MR_Stream::recv(&val, &stream)`).
    pub fn recv(&self) -> Result<(Packet, StreamId)> {
        // No deadline: only a packet or shutdown ends the wait.
        self.recv_timeout(Duration::MAX)?.ok_or(MrnetError::Timeout)
    }

    /// Like [`Backend::recv`] but gives up after `timeout`, returning
    /// `Ok(None)`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Packet, StreamId)>> {
        // A deadline past what `Instant` can hold is no deadline.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(p) = self.pending.lock().unpoisoned().pop_front() {
                let sid = p.stream_id();
                return Ok(Some((p, sid)));
            }
            if self.is_down() {
                return Err(MrnetError::Shutdown);
            }
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                return Ok(None);
            }
            match self.conn.recv_timeout(left) {
                Ok(Some(frame)) => self.handle_frame(frame)?,
                Ok(None) => return Ok(None),
                Err(_) => {
                    self.note_shutdown();
                    return Err(MrnetError::Shutdown);
                }
            }
        }
    }

    /// Sends values upstream on `stream` (Figure 2's
    /// `stream->send("%f", value)`).
    pub fn send(&self, stream: StreamId, tag: i32, fmt: &str, values: Vec<Value>) -> Result<()> {
        let packet = Packet::with_fmt_str(stream, tag, fmt, values)?.with_src(self.rank);
        self.send_packet(packet)
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
        let sid = packet.stream_id();
        let counters = match self.streams.lock().unpoisoned().get(&sid) {
            Some(counters) => counters.clone(),
            None => return Err(MrnetError::UnknownStream(sid)),
        };
        let packet = packet.with_src(self.rank);
        // One in `MRNET_TRACE_SAMPLE` sends originates a traced
        // up-wave, a whole frame of its own; the rest pay zero trailer
        // bytes on the wire.
        if self.sampler.sample() {
            let env = TraceEnvelope::originate(self.rank, sid);
            self.conn.send(encode_traced_data_frame(
                std::slice::from_ref(&packet),
                &[env],
            ))?;
            self.metrics.trace_frames.inc();
            self.metrics.trace_hops.inc();
        } else {
            self.conn
                .send_packet(&packet, |p| encode_data_frame(std::slice::from_ref(p)))?;
        }
        counters.up_pkts.inc();
        self.metrics.up_pkts_sent.inc();
        self.metrics
            .local_up_bytes
            .add(packet.encoded_size_hint() as u64);
        Ok(())
    }

    /// True once the network has shut down.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// The next queued topology event, if any. Events are enqueued as
    /// the tool thread pumps the connection (via [`Backend::recv`] /
    /// [`Backend::recv_timeout`]); a back-end that never receives will
    /// not observe events.
    pub fn try_next_event(&self) -> Option<TopologyEvent> {
        self.ledger.events().try_recv().ok()
    }

    /// Every rank this back-end has heard reported failed, sorted.
    pub fn failed_ranks(&self) -> Vec<Rank> {
        self.ledger.failed_ranks()
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
        let be = Backend::new(7, Arc::new(child)).unwrap();
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

        drop(parent);
        assert!(matches!(
            be.send_packet(packet),
            Err(MrnetError::Transport(_))
        ));
        assert_eq!(counted(), (1, 1, size), "the failed send was counted");
    }
}
