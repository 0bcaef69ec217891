//! The tool front-end API: [`Network`], [`Communicator`], [`Stream`].
//!
//! Mirrors the front-end side of the paper's Figure 2:
//!
//! ```text
//! net    = new MR_Network(config_file);
//! comm   = net->get_broadcast_communicator();
//! stream = new MR_Stream(comm, FMAX_FIL);
//! stream->send("%d", FLOAT_MAX_INIT);
//! stream->recv("%f", result);
//! ```
//!
//! Streams are created and managed by the front-end; communication is
//! only between the front-end and its back-ends (§2.1).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use mrnet_filters::{FilterId, FilterRegistry, SyncMode, FILTER_NULL};
use mrnet_obs::{
    json_text, log_warn, prometheus_text, MetricsSection, NetworkSnapshot, TraceAssembler,
    Unpoisoned,
};
use mrnet_packet::{Packet, Rank, StreamId, Value};
use mrnet_transport::chan::bounded;

use crate::delivery::Delivery;
use crate::error::{MrnetError, Result};
use crate::event::{FailureLedger, TopologyEvent};
use crate::internal::process::{Command, Inbound};
use crate::internal::sched::Inbox;
use crate::intmap::IntMap;
use crate::proto::FIRST_USER_STREAM;
use crate::streams::StreamDef;

pub(crate) struct NetInner {
    pub(crate) cmd_tx: Inbox<Inbound>,
    pub(crate) delivery: Arc<Delivery>,
    pub(crate) endpoints: Vec<Rank>,
    pub(crate) registry: FilterRegistry,
    pub(crate) ledger: Arc<FailureLedger>,
    pub(crate) assembler: Arc<TraceAssembler>,
    next_stream: AtomicU32,
    next_metrics_req: AtomicU32,
    /// Each open stream's definition and its front-end sent counter,
    /// which every handle on the stream shares.
    streams: Mutex<IntMap<StreamId, (StreamDef, Arc<AtomicU64>)>>,
    joins: Mutex<Vec<JoinHandle<()>>>,
    down: AtomicBool,
}

/// The front-end's handle on an instantiated MRNet network.
///
/// Created by [`crate::NetworkBuilder`]. Cloning shares the underlying
/// network. Dropping the last handle shuts the network down.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

/// A group of end-points, the scope for stream communication (§2.1:
/// "MRNet uses communicators to represent groups of network
/// end-points").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Communicator {
    endpoints: Vec<Rank>,
}

impl Communicator {
    /// The end-point ranks in this communicator, sorted.
    pub fn endpoints(&self) -> &[Rank] {
        &self.endpoints
    }

    /// Number of end-points.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Communicators are never empty.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }
}

/// A logical data channel between the front-end and the end-points of
/// a communicator.
#[derive(Clone)]
pub struct Stream {
    def: StreamDef,
    /// Packets sent on this stream, shared by every handle on it.
    sent: Arc<AtomicU64>,
    net: Arc<NetInner>,
}

/// Front-end traffic counters for one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Packets multicast downstream by the front-end.
    pub sent: u64,
    /// Aggregated packets delivered to the front-end (whether or not
    /// they have been consumed by `recv` yet).
    pub received: u64,
    /// Delivered packets not yet consumed by `recv`.
    pub queued: usize,
    /// True once the network has shut down. `received`/`queued` stay
    /// meaningful after close, so a zeroed result with `closed` unset
    /// means "no data yet", not "network gone".
    pub closed: bool,
}

/// A full metrics export: the per-node snapshot, the front-end's
/// trace-assembly section, and both rendered as Prometheus text
/// exposition and JSON documents ready for scraping or archiving.
#[derive(Debug, Clone)]
pub struct MetricsExport {
    /// Per-node metric sections collected over the in-band
    /// introspection stream.
    pub snapshot: NetworkSnapshot,
    /// The front-end's distributed-tracing section: assembled wave
    /// counts, per-child clock offsets, and per-hop/per-edge latency
    /// histograms.
    pub trace: MetricsSection,
    /// Prometheus text exposition (metric names prefixed `mrnet_`,
    /// labelled by rank).
    pub prometheus: String,
    /// The same data as a JSON document.
    pub json: String,
}

impl Network {
    pub(crate) fn from_parts(
        cmd_tx: Inbox<Inbound>,
        delivery: Arc<Delivery>,
        endpoints: Vec<Rank>,
        registry: FilterRegistry,
        ledger: Arc<FailureLedger>,
        assembler: Arc<TraceAssembler>,
        joins: Vec<JoinHandle<()>>,
    ) -> Network {
        Network {
            inner: Arc::new(NetInner {
                cmd_tx,
                delivery,
                endpoints,
                registry,
                ledger,
                assembler,
                next_stream: AtomicU32::new(FIRST_USER_STREAM),
                next_metrics_req: AtomicU32::new(0),
                streams: Mutex::default(),
                joins: Mutex::new(joins),
                down: AtomicBool::new(false),
            }),
        }
    }

    /// All available end-points (back-end ranks), discovered from the
    /// instantiation subtree reports.
    pub fn endpoints(&self) -> &[Rank] {
        &self.inner.endpoints
    }

    /// Number of back-ends in the network.
    pub fn num_backends(&self) -> usize {
        self.inner.endpoints.len()
    }

    /// The auto-generated broadcast communicator containing every
    /// available end-point.
    pub fn broadcast_communicator(&self) -> Communicator {
        Communicator {
            endpoints: self.inner.endpoints.clone(),
        }
    }

    /// A communicator over a subset of end-points.
    pub fn communicator(&self, ranks: impl IntoIterator<Item = Rank>) -> Result<Communicator> {
        let mut endpoints: Vec<Rank> = ranks.into_iter().collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        if endpoints.is_empty() {
            return Err(MrnetError::EmptyCommunicator);
        }
        for &r in &endpoints {
            if !self.inner.endpoints.contains(&r) {
                return Err(MrnetError::UnknownEndpoint(r));
            }
        }
        Ok(Communicator { endpoints })
    }

    /// The filter registry, for registering custom filters
    /// (`load_filterFunc`, §2.4). Registrations are visible to every
    /// process in the network.
    pub fn registry(&self) -> &FilterRegistry {
        &self.inner.registry
    }

    /// Creates a stream over `comm` with an upstream transformation
    /// filter and synchronization mode (`new MR_Stream(comm, filter)`).
    pub fn new_stream(
        &self,
        comm: &Communicator,
        up_filter: FilterId,
        sync: SyncMode,
    ) -> Result<Stream> {
        self.new_stream_full(comm, up_filter, FILTER_NULL, sync)
    }

    /// Creates a stream specifying both upstream and downstream
    /// transformation filters.
    pub fn new_stream_full(
        &self,
        comm: &Communicator,
        up_filter: FilterId,
        down_filter: FilterId,
        sync: SyncMode,
    ) -> Result<Stream> {
        self.ensure_up()?;
        if comm.is_empty() {
            return Err(MrnetError::EmptyCommunicator);
        }
        let id = self.inner.next_stream.fetch_add(1, Ordering::Relaxed);
        let def = StreamDef {
            id,
            endpoints: comm.endpoints.clone(),
            up_filter: self.inner.registry.name_of(up_filter)?,
            down_filter: self.inner.registry.name_of(down_filter)?,
            sync,
        };
        let sent = Arc::new(AtomicU64::new(0));
        self.inner
            .streams
            .lock()
            .unpoisoned()
            .insert(id, (def.clone(), sent.clone()));
        self.send_cmd(Command::NewStream(Box::new(def.clone())))?;
        Ok(Stream {
            def,
            sent,
            net: self.inner.clone(),
        })
    }

    /// Looks up an existing stream by id.
    pub fn stream(&self, id: StreamId) -> Result<Stream> {
        let (def, sent) = self
            .inner
            .streams
            .lock()
            .unpoisoned()
            .get(&id)
            .cloned()
            .ok_or(MrnetError::UnknownStream(id))?;
        Ok(Stream {
            def,
            sent,
            net: self.inner.clone(),
        })
    }

    /// Blocking stream-anonymous receive: the next upstream packet on
    /// any stream, plus its stream handle.
    pub fn recv_any(&self) -> Result<(Packet, Stream)> {
        let packet = self.inner.delivery.recv_any(None)?;
        let stream = self.stream(packet.stream_id())?;
        Ok((packet, stream))
    }

    /// [`Network::recv_any`] with a timeout.
    pub fn recv_any_timeout(&self, timeout: Duration) -> Result<(Packet, Stream)> {
        let packet = self.inner.delivery.recv_any(Some(timeout))?;
        let stream = self.stream(packet.stream_id())?;
        Ok((packet, stream))
    }

    /// Collects a metrics snapshot from every node in the tree via the
    /// in-band introspection stream (§3's internal measurements, made
    /// available to tools): the request multicasts down, each process
    /// appends its own flattened section, and the sections reduce back
    /// up by concatenation. Blocks up to `timeout`; subtrees that miss
    /// the deadline are simply absent from the result, so a complete
    /// snapshot has one section per process plus one per back-end.
    pub fn metrics_snapshot(&self, timeout: Duration) -> Result<NetworkSnapshot> {
        self.ensure_up()?;
        let req_id = self.inner.next_metrics_req.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.send_cmd(Command::CollectMetrics {
            req_id,
            timeout_secs: timeout.as_secs_f64(),
            reply: tx,
        })?;
        // The root answers (possibly partially) at its own deadline;
        // the slack covers scheduling of the reply itself. A deadline
        // past what `Duration` can hold is no deadline.
        rx.recv_timeout(timeout.saturating_add(Duration::from_secs(2)))
            .map_err(|_| MrnetError::Timeout)
    }

    /// The front-end's trace assembler: reconstructed wave timelines,
    /// per-hop latency histograms, and per-child clock estimates from
    /// the distributed-tracing subsystem.
    pub fn trace_assembler(&self) -> &Arc<TraceAssembler> {
        &self.inner.assembler
    }

    /// Collects a metrics snapshot (as [`Network::metrics_snapshot`]),
    /// folds in the front-end's trace-assembly section, and renders
    /// both Prometheus text exposition and JSON.
    pub fn export_metrics(&self, timeout: Duration) -> Result<MetricsExport> {
        let snapshot = self.metrics_snapshot(timeout)?;
        Ok(self.render_export(snapshot))
    }

    fn render_export(&self, snapshot: NetworkSnapshot) -> MetricsExport {
        let mut trace = MetricsSection::new(0);
        self.inner.assembler.section_into(&mut trace);
        let mut full = snapshot.clone();
        full.nodes.push(trace.clone());
        MetricsExport {
            snapshot,
            trace,
            prometheus: prometheus_text(&full),
            json: json_text(&full),
        }
    }

    /// When `MRNET_METRICS_FILE` names a path, collects a final export
    /// and writes its JSON there. Called from [`Network::shutdown`]
    /// while the tree is still up; failures are logged, never fatal.
    fn dump_metrics_file(&self) {
        let Ok(path) = std::env::var("MRNET_METRICS_FILE") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        match self.export_metrics(Duration::from_secs(2)) {
            Ok(export) => {
                if let Err(e) = std::fs::write(&path, export.json) {
                    log_warn!(0, "failed to write metrics file {path}: {e}");
                }
            }
            Err(e) => log_warn!(0, "metrics dump for {path} failed: {e}"),
        }
    }

    /// Blocks up to `timeout` for the next topology event (MRNet's
    /// event queue): currently rank-failure notifications produced as
    /// the tree detects and propagates process deaths. Returns
    /// [`MrnetError::Timeout`] when nothing happens in time.
    pub fn next_event_timeout(&self, timeout: Duration) -> Result<TopologyEvent> {
        self.inner
            .ledger
            .events()
            .recv_timeout(timeout)
            .map_err(|_| MrnetError::Timeout)
    }

    /// Non-blocking poll of the topology event queue.
    pub fn try_next_event(&self) -> Option<TopologyEvent> {
        self.inner.ledger.events().try_recv().ok()
    }

    /// Every rank confirmed failed so far (cumulative, sorted), so a
    /// tool that missed events can still learn the surviving set.
    pub fn failed_ranks(&self) -> Vec<Rank> {
        self.inner.ledger.failed_ranks()
    }

    fn ensure_up(&self) -> Result<()> {
        if self.inner.down.load(Ordering::Relaxed) {
            Err(MrnetError::Shutdown)
        } else {
            Ok(())
        }
    }

    fn send_cmd(&self, cmd: Command) -> Result<()> {
        self.inner
            .cmd_tx
            .send(Inbound::Cmd(cmd))
            .map_err(|_| MrnetError::Shutdown)
    }

    /// Shuts the network down: tears down the process tree and wakes
    /// all blocked receivers. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.down.load(Ordering::SeqCst) {
            return;
        }
        // The final metrics dump needs the tree alive: collect before
        // flipping the down flag.
        self.dump_metrics_file();
        if self.inner.down.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.inner.cmd_tx.send(Inbound::Cmd(Command::Shutdown));
        let joins: Vec<JoinHandle<()>> = std::mem::take(&mut *self.inner.joins.lock().unpoisoned());
        for j in joins {
            let _ = j.join();
        }
        // The root loop closes delivery on exit; make sure even if the
        // loop already died.
        self.inner.delivery.close();
    }

    /// True after shutdown.
    pub fn is_down(&self) -> bool {
        self.inner.down.load(Ordering::Relaxed)
    }
}

impl Drop for NetInner {
    fn drop(&mut self) {
        // Last handle gone without an explicit shutdown: stop the tree.
        let _ = self.cmd_tx.send(Inbound::Cmd(Command::Shutdown));
        for j in std::mem::take(&mut *self.joins.lock().unpoisoned()) {
            let _ = j.join();
        }
        self.delivery.close();
    }
}

impl Stream {
    /// The stream id.
    pub fn id(&self) -> StreamId {
        self.def.id
    }

    /// The stream's end-point ranks.
    pub fn endpoints(&self) -> &[Rank] {
        &self.def.endpoints
    }

    /// The stream's definition (filters, sync mode).
    pub fn def(&self) -> &StreamDef {
        &self.def
    }

    /// Multicasts values downstream to all the stream's end-points
    /// (Figure 2's `stream->send("%d", ...)`).
    pub fn send(&self, tag: i32, fmt: &str, values: Vec<Value>) -> Result<()> {
        let packet = Packet::with_fmt_str(self.def.id, tag, fmt, values)?;
        self.send_packet(packet)
    }

    /// Multicasts a pre-built packet (retargeted onto this stream).
    pub fn send_packet(&self, packet: Packet) -> Result<()> {
        if self.net.down.load(Ordering::Relaxed) {
            return Err(MrnetError::Shutdown);
        }
        let packet = packet.with_stream(self.def.id);
        self.net
            .cmd_tx
            .send(Inbound::Cmd(Command::SendDown(packet)))
            .map_err(|_| MrnetError::Shutdown)?;
        self.sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Blocking receive of the next aggregated upstream packet on this
    /// stream (Figure 2's `stream->recv("%f", result)`).
    pub fn recv(&self) -> Result<Packet> {
        self.net.delivery.recv_on(self.def.id, None)
    }

    /// [`Stream::recv`] with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Packet> {
        self.net.delivery.recv_on(self.def.id, Some(timeout))
    }

    /// Non-blocking receive: `Ok(None)` when no packet is queued. One
    /// locked pop, so a concurrent receiver taking the last packet
    /// cannot leave this call blocked. Errors as [`Stream::recv`] does
    /// once the stream has failed or the network shut down.
    pub fn try_recv(&self) -> Result<Option<Packet>> {
        match self.net.delivery.recv_on(self.def.id, Some(Duration::ZERO)) {
            Ok(packet) => Ok(Some(packet)),
            Err(MrnetError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Number of aggregated packets queued for this stream.
    pub fn pending(&self) -> usize {
        self.net.delivery.stream_stats(self.def.id).queued
    }

    /// Front-end traffic counters for this stream.
    pub fn stats(&self) -> StreamStats {
        let d = self.net.delivery.stream_stats(self.def.id);
        StreamStats {
            sent: self.sent.load(Ordering::Relaxed),
            received: d.received,
            queued: d.queued,
            closed: d.closed,
        }
    }

    /// Tears the stream down across the network.
    pub fn close(self) -> Result<()> {
        self.net.streams.lock().unpoisoned().remove(&self.def.id);
        self.net
            .cmd_tx
            .send(Inbound::Cmd(Command::DeleteStream(self.def.id)))
            .map_err(|_| MrnetError::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch_local;
    use mrnet_topology::{generator, HostPool};

    /// Every handle on a stream shares one sent counter: sends through
    /// clones and through `Network::stream` handles, from several
    /// threads at once, all count, exactly once each.
    #[test]
    fn stream_stats_sent_is_exact_across_handles_and_threads() {
        const PER_THREAD: u64 = 500;
        let topo = generator::balanced(2, 1, &mut HostPool::synthetic(8)).unwrap();
        let dep = launch_local(topo).unwrap();
        let net = dep.network.clone();
        let null = net.registry().id_of("null").unwrap();
        let stream = net
            .new_stream(&net.broadcast_communicator(), null, SyncMode::DoNotWait)
            .unwrap();
        let other = net
            .new_stream(&net.broadcast_communicator(), null, SyncMode::DoNotWait)
            .unwrap();
        let handles = [stream.clone(), net.stream(stream.id()).unwrap()];
        std::thread::scope(|s| {
            for h in &handles {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.send(0, "%d", vec![Value::Int32(i as i32)]).unwrap();
                    }
                });
            }
        });
        other.send(0, "%d", vec![Value::Int32(0)]).unwrap();
        assert_eq!(stream.stats().sent, 2 * PER_THREAD);
        assert_eq!(
            net.stream(stream.id()).unwrap().stats().sent,
            2 * PER_THREAD
        );
        assert_eq!(other.stats().sent, 1);
        drop(dep.backends);
        net.shutdown();
        assert_eq!(stream.stats().sent, 2 * PER_THREAD);
    }
}
