//! The MRNet process event loop (`mrnet_commnode` and the front-end's
//! root router).
//!
//! Implements the functional layers of Figure 3: inbound packet
//! buffers are split into packets, demultiplexed by stream id to their
//! stream managers, synchronized and aggregated, then re-batched per
//! neighbor for transmission. Packets are manipulated by reference
//! throughout (cheap [`Packet`] handle clones), matching §2.3's
//! zero-copy paths.
//!
//! One [`NodeLoop`] drives one process. It keeps one `Child` record
//! per child connection and serves one [`Upstream`]: a parent process,
//! or, at the tree root, the tool's [`FrontEnd`], whose mailbox
//! receives fully aggregated packets and whose commands (stream
//! creation, downstream sends, shutdown) arrive on the same inbox as
//! network traffic. Clock sync and metrics collection are state
//! machines of their own (`internal/clock_sync.rs`,
//! `internal/collect.rs`).

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrnet_filters::FilterRegistry;
use mrnet_obs::tracectx::{self, TraceEnvelope, TraceSampler};
use mrnet_obs::{
    log_error, log_warn, ConnSendStats, NetworkSnapshot, NodeMetrics, TraceAssembler, TraceDir,
};
use mrnet_packet::bytes::{Bytes, BytesMut};
use mrnet_packet::{Batcher, Packet, Rank, StreamId};
use mrnet_transport::chan::{Receiver, Sender};
use mrnet_transport::{
    self as transport, ClockEstimate, FrameSink, PacketFrame, SharedConnection, Took,
};

use crate::delivery::Delivery;
use crate::error::{MrnetError, Result};
use crate::event::FailureLedger;
use crate::internal::clock_sync::{self, ChildClock, ClockEntry, PongStep};
use crate::internal::collect::{Collect, Collects};
use crate::internal::sched::{self, Inbox, Slot, Turns};
use crate::internal::stream_manager::StreamManager;
use crate::intmap::IntMap;
use crate::introspect::{self, METRICS_REPLY, METRICS_REQUEST, METRICS_STREAM, TRACE_REPORT};
use crate::proto::{
    append_to_data_frame, decode_frame, encode_data_frame, encode_traced_data_frame,
    start_data_frame, Control, Frame,
};
use crate::route::RoutingTable;
use crate::streams::StreamDef;

/// Up-wave envelopes held per stream while their wave synchronizes;
/// beyond this, the newest are dropped (sampling already made traced
/// waves rare — a backlog this deep means the stream is stuck).
const TRACE_PENDING_CAP: usize = 16;

/// Envelopes a neighbor's trace outbox may accumulate between
/// flushes.
const TRACE_OUTBOX_CAP: usize = 64;

/// Messages merged into a node's inbox. A child is named by a `u32`
/// index, which keeps a message at 32 bytes: a busy interior queues
/// thousands of them.
#[derive(Debug)]
pub enum Inbound {
    /// A frame from the parent connection.
    Parent(Bytes),
    /// The parent connection closed.
    ParentClosed,
    /// A frame from child `u32`.
    Child(u32, Bytes),
    /// A data frame from child `u32` that is still open: packets the
    /// child sends before the loop drains its inbox are appended to it
    /// while it is the inbox's last message (see `InboxSink`).
    ChildData(u32, BytesMut),
    /// Child `u32`'s connection closed.
    ChildClosed(u32),
    /// A user command (root only).
    Cmd(Command),
}

/// Front-end commands injected into the root loop.
#[derive(Debug)]
pub enum Command {
    /// Create a stream and announce it downstream. Boxed: every inbox
    /// message is as large as the largest variant, and the loop's
    /// drained batch and the channel each keep a buffer of them.
    NewStream(Box<StreamDef>),
    /// Send a packet downstream on its stream.
    SendDown(Packet),
    /// Tear down a stream.
    DeleteStream(StreamId),
    /// Collect a metrics snapshot from every node in the tree
    /// (in-band introspection, root only).
    CollectMetrics {
        /// Correlates replies with this collection.
        req_id: u32,
        /// How long to wait for straggler subtrees before answering
        /// with whatever sections have arrived.
        timeout_secs: f64,
        /// Where the merged snapshot is delivered.
        reply: Sender<NetworkSnapshot>,
    },
    /// Shut the whole network down.
    Shutdown,
}

/// The outbound side of a connection to a neighbor process: the
/// connection, the packets batched for it, and the trace envelopes
/// (with their local arrival stamps) riding its next data frame.
pub struct Link {
    conn: SharedConnection,
    batcher: Batcher,
    trace_outbox: Vec<(TraceEnvelope, u64)>,
}

impl Link {
    /// A link over `conn` with nothing pending.
    pub fn new(conn: SharedConnection) -> Link {
        Link {
            conn,
            batcher: Batcher::new(),
            trace_outbox: Vec::new(),
        }
    }

    /// Sends the pending batch as one data frame, if anything is
    /// pending. With trace envelopes waiting the frame is traced: this
    /// node's hop (arrival stamp kept from ingest, departure stamped
    /// now) goes onto every envelope, and they ride as the frame's
    /// trailer. A failed send is ignored: the neighbor's close, which
    /// trails the frames it sent first, declares its death.
    ///
    /// Returns an untraced frame with the packets it carries, for
    /// encode-once sharing. Traced frames differ per neighbor, so they
    /// are never shared.
    fn flush(&mut self, rank: Rank, metrics: &NodeMetrics) -> Option<(Bytes, Vec<Packet>)> {
        if self.batcher.is_empty() && self.trace_outbox.is_empty() {
            return None;
        }
        let packets = self.batcher.drain();
        if !self.trace_outbox.is_empty() {
            let now = tracectx::wall_us();
            let mut envs = Vec::with_capacity(self.trace_outbox.len());
            for (mut env, recv_us) in self.trace_outbox.drain(..) {
                env.add_hop(rank, recv_us, now);
                envs.push(env);
            }
            metrics.trace_hops.add(envs.len() as u64);
            metrics.trace_frames.inc();
            if !packets.is_empty() {
                metrics.batch_pkts.record_us(packets.len() as u64);
            }
            metrics.frames_encoded.inc();
            let _ = self.conn.send(encode_traced_data_frame(&packets, &envs));
            return None;
        }
        metrics.batch_pkts.record_us(packets.len() as u64);
        let frame = encode_data_frame(&packets);
        metrics.frames_encoded.inc();
        let _ = self.conn.send(frame.clone());
        Some((frame, packets))
    }
}

/// The root's upstream: the tool's front-end, which takes fully
/// aggregated packets, failure events, clock estimates and completed
/// traces in-process, with no wire between.
pub struct FrontEnd {
    delivery: Arc<Delivery>,
    /// Receives `(back-end rank, endpoint)` rendezvous advertisements
    /// harvested from AttachInfo messages during process instantiation.
    attach: Sender<(Rank, String)>,
    /// The failure record shared with the [`crate::Network`] handle.
    ledger: Arc<FailureLedger>,
    /// The skew-correcting wave assembler shared with the
    /// [`crate::Network`] handle.
    assembler: Arc<TraceAssembler>,
    /// Packets delivered during the current inbox batch, handed to the
    /// mailbox in one `push_many` by `flush_all`, or earlier by
    /// `flush_deliveries` before anything else the front-end can
    /// observe.
    deliveries: Vec<Packet>,
    /// Down-wave sampling decisions.
    sampler: TraceSampler,
}

impl FrontEnd {
    /// The front-end of a network whose handle holds `delivery`,
    /// `ledger` and `assembler`; `attach` receives rendezvous
    /// advertisements.
    pub fn new(
        delivery: Arc<Delivery>,
        attach: Sender<(Rank, String)>,
        ledger: Arc<FailureLedger>,
        assembler: Arc<TraceAssembler>,
    ) -> FrontEnd {
        FrontEnd {
            delivery,
            attach,
            ledger,
            assembler,
            deliveries: Vec::new(),
            sampler: TraceSampler::new(),
        }
    }

    /// Hands the packets delivered so far in this batch to the
    /// mailbox, under one lock and at most one wake-up. Besides
    /// `flush_all`, this runs before anything else the front-end can
    /// observe (a stream failure, a ledger event, a metrics snapshot,
    /// the close), so nothing overtakes a wave delivered before it.
    fn flush_deliveries(&mut self) {
        if !self.deliveries.is_empty() {
            self.delivery.push_many(self.deliveries.drain(..));
        }
    }
}

/// What a node serves above it (paper Figure 3).
pub enum Upstream {
    /// A parent process.
    Parent(Link),
    /// The tool's front-end: this node is the root.
    FrontEnd(FrontEnd),
}

/// One direct child and what the loop keeps for it.
struct Child {
    /// Its tree rank, which names it in
    /// [`crate::TopologyEvent::RankFailed`] and per-connection metrics.
    rank: Rank,
    link: Link,
    /// False once the child is declared dead. A dead child's link holds
    /// nothing, and its late frames are dropped.
    alive: bool,
    clock: ChildClock,
}

/// One MRNet process's event loop.
pub struct NodeLoop {
    rank: Rank,
    registry: FilterRegistry,
    up: Upstream,
    children: Vec<Child>,
    routes: RoutingTable,
    managers: IntMap<StreamId, StreamManager>,
    inbox: Receiver<Inbound>,
    /// The messages the current turn drained, kept to reuse its buffer.
    batch: VecDeque<Inbound>,
    /// Where this node's turns run (see [`sched`]).
    slot: Arc<Slot>,
    epoch: Instant,
    metrics: Arc<NodeMetrics>,
    collects: Collects,
    /// Every rank this node has confirmed dead (end-points and
    /// internal nodes alike).
    known_dead: BTreeSet<Rank>,
    /// Up-wave trace envelopes (with their local receive stamps) held
    /// per stream until the wave they rode synchronizes and forwards.
    trace_pending_up: IntMap<StreamId, Vec<(TraceEnvelope, u64)>>,
}

/// Delivers one connection's frames into the node inbox, on the
/// thread that produced them: the peer's sending thread in-process, the
/// TCP reader thread otherwise. The inbox is unbounded, so a delivery
/// never blocks.
///
/// A child's data packet (an in-process back-end's send) joins the
/// inbox's last message when that is this child's open data frame with
/// room left, and opens a new one otherwise. Only the last message is
/// ever appended to, and a whole frame is never open, so every packet
/// still reaches the loop in the order the child sent it.
struct InboxSink {
    inbox: Inbox<Inbound>,
    /// `None` for the parent connection, `Some(i)` for child `i`.
    child: Option<u32>,
}

impl FrameSink for InboxSink {
    fn frame(&self, frame: Bytes) -> bool {
        let msg = match self.child {
            None => Inbound::Parent(frame),
            Some(i) => Inbound::Child(i, frame),
        };
        self.inbox.send(msg).is_ok()
    }

    fn packet(&self, packet: &Packet, frame: PacketFrame) -> Option<Took> {
        let Some(i) = self.child else {
            let frame = frame(packet);
            let len = frame.len();
            return self.frame(frame).then_some(Took::Frame(len));
        };
        let mut took = Took::Merged(packet.encoded_size_hint());
        self.inbox
            .merge_or_send(
                |tail| match tail {
                    Inbound::ChildData(j, open) => *j == i && append_to_data_frame(open, packet),
                    _ => false,
                },
                || {
                    let open = start_data_frame(packet);
                    took = Took::Frame(open.len());
                    Inbound::ChildData(i, open)
                },
            )
            .ok()
            .map(|()| took)
    }

    fn closed(self: Box<Self>) {
        let msg = match self.child {
            None => Inbound::ParentClosed,
            Some(i) => Inbound::ChildClosed(i),
        };
        let _ = self.inbox.send(msg);
    }
}

impl NodeLoop {
    /// Creates the inbox for a node loop. The sender side is how the
    /// front-end injects [`Command`]s into its root loop; every push
    /// through it schedules a turn of the loop.
    pub fn inbox() -> (Inbox<Inbound>, Receiver<Inbound>) {
        sched::inbox(Arc::new(NodeMetrics::new()))
    }

    /// Builds a node loop and points every connection's inbound frames
    /// at its inbox.
    ///
    /// `children` pairs each child connection with the child's tree
    /// rank, in child order. `inbox` is the channel pair from
    /// [`NodeLoop::inbox`] (created by the caller so the front-end can
    /// keep a command sender before the loop thread starts).
    pub fn new(
        rank: Rank,
        registry: FilterRegistry,
        up: Upstream,
        children: Vec<(Rank, SharedConnection)>,
        inbox: (Inbox<Inbound>, Receiver<Inbound>),
    ) -> NodeLoop {
        let (tx, rx) = inbox;
        let slot = tx.slot().clone();
        if let Upstream::Parent(link) = &up {
            link.conn.set_sink(Box::new(InboxSink {
                inbox: tx.clone(),
                child: None,
            }));
        }
        let children = children
            .into_iter()
            .enumerate()
            .map(|(i, (rank, conn))| {
                let i = u32::try_from(i).expect("child count fits in u32");
                conn.set_sink(Box::new(InboxSink {
                    inbox: tx.clone(),
                    child: Some(i),
                }));
                Child {
                    rank,
                    link: Link::new(conn),
                    alive: true,
                    clock: ChildClock::default(),
                }
            })
            .collect();
        NodeLoop {
            rank,
            registry,
            up,
            children,
            routes: RoutingTable::new(),
            managers: IntMap::default(),
            inbox: rx,
            batch: VecDeque::new(),
            metrics: slot.metrics().clone(),
            slot,
            epoch: Instant::now(),
            collects: Collects::default(),
            known_dead: BTreeSet::new(),
            trace_pending_up: IntMap::default(),
        }
    }

    /// This node's metrics instruments. The loop owns and updates
    /// them; callers (the front-end, tests) keep a handle for local
    /// inspection without going through the introspection stream.
    pub fn metrics(&self) -> Arc<NodeMetrics> {
        self.metrics.clone()
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Collects one subtree report per child, then reports the
    /// subtree's end-points upstream (§2.5): to the parent, and as the
    /// return value (at the root, the network's end-point set). Must
    /// run before [`NodeLoop::run`].
    pub fn setup(&mut self) -> Result<Vec<Rank>> {
        let mut reported: Vec<Option<Vec<Rank>>> = vec![None; self.children.len()];
        let mut missing = self.children.len();
        while missing > 0 {
            let (i, frame) = match self.inbox.recv() {
                Ok(Inbound::Child(i, frame)) => (i as usize, frame),
                Ok(Inbound::ChildData(i, frame)) => (i as usize, frame.freeze()),
                Ok(Inbound::ChildClosed(i)) => {
                    return Err(MrnetError::Instantiation(format!(
                        "child {i} of rank {} died during instantiation",
                        self.rank
                    )))
                }
                Ok(other) => {
                    return Err(MrnetError::Protocol(format!(
                        "unexpected inbox message during setup: {other:?}"
                    )))
                }
                Err(_) => return Err(MrnetError::Shutdown),
            };
            match decode_frame(frame)? {
                Frame::Control(pkt) => match Control::from_packet(&pkt)? {
                    Control::SubtreeReport { endpoints } => {
                        if reported[i].replace(endpoints).is_none() {
                            missing -= 1;
                        }
                    }
                    // A subtree enters its loop (and starts clock sync)
                    // and advertises attach points as soon as it is up,
                    // while this node may still await other reports.
                    other => self.on_child_control(i, other)?,
                },
                Frame::Data(_) | Frame::Traced(..) => {
                    return Err(MrnetError::Protocol(
                        "data frame before instantiation finished".into(),
                    ))
                }
            }
        }
        for endpoints in reported.into_iter().map(Option::unwrap) {
            self.routes.add_child(endpoints);
        }
        let all = self.routes.all_endpoints();
        if let Upstream::Parent(_) = self.up {
            self.send_parent(
                Control::SubtreeReport {
                    endpoints: all.clone(),
                }
                .to_frame(),
            )?;
        }
        Ok(all)
    }

    /// Folds the transport connections' send-pipeline counters (queue
    /// depth behind the writer threads, coalesced frames, enqueue
    /// stalls) into the node's gauges, so snapshots expose them — in
    /// aggregate, plus per child connection keyed by the child's rank
    /// so a snapshot can name which subtree is backed up.
    fn refresh_send_metrics(&self) {
        let (mut depth, mut coalesced, mut stalls) = (0u64, 0u64, 0u64);
        if let Upstream::Parent(link) = &self.up {
            let s = link.conn.stats();
            depth += s.queue_depth;
            coalesced += s.frames_coalesced;
            stalls += s.enqueue_stalls;
        }
        for child in self.children.iter().filter(|c| c.alive) {
            let s = child.link.conn.stats();
            depth += s.queue_depth;
            coalesced += s.frames_coalesced;
            stalls += s.enqueue_stalls;
            self.metrics.set_conn_send_stats(
                child.rank,
                ConnSendStats {
                    queue_depth: s.queue_depth,
                    coalesced: s.frames_coalesced,
                    stalls: s.enqueue_stalls,
                },
            );
        }
        self.metrics.send_queue_depth.set(depth as i64);
        self.metrics.send_coalesced.set(coalesced as i64);
        self.metrics.send_stalls.set(stalls as i64);
    }

    /// The earliest pending timer (a sync-filter timeout or a metrics
    /// collection deadline), epoch-relative; infinite if none.
    fn next_deadline(&self) -> f64 {
        self.managers
            .values()
            .filter_map(StreamManager::deadline)
            .chain(self.collects.deadlines())
            .fold(f64::INFINITY, f64::min)
    }

    /// Runs the event loop until shutdown, on the calling thread, which
    /// becomes the node's owner (see [`sched`]). Consumes the node.
    ///
    /// The node's turns (`Turns::turn`) run on the owner, or on the
    /// thread of another node whose turn made this one ready. The owner
    /// fires the node's timers and runs its shutdown cleanup.
    pub fn run(mut self) {
        // Clock sync starts as the loop does: the whole subtree is in
        // its loop by then (setup completes bottom-up). The pong
        // handler drives the rest, one exchange at a time.
        for i in 0..self.children.len() {
            self.send_clock_ping(i);
        }
        let slot = self.slot.clone();
        slot.drive(Box::new(self));
    }

    /// Returns false when the loop should exit.
    fn dispatch(&mut self, msg: Inbound) -> bool {
        match msg {
            Inbound::Child(i, frame) => {
                let i = i as usize;
                if !self.children[i].alive {
                    // Late frames from a connection already declared
                    // dead (e.g. buffered before garbage): drop.
                    return true;
                }
                if let Err(e) = self.on_child_frame(i, frame) {
                    // A child speaking garbage (undecodable frame,
                    // protocol violation) is as gone as one that hung
                    // up: sever it and keep serving the others.
                    log_error!(self.rank, "child {i} frame error, declaring it failed: {e}");
                    self.handle_child_death(i);
                }
                true
            }
            Inbound::ChildData(i, frame) => self.dispatch(Inbound::Child(i, frame.freeze())),
            Inbound::Parent(frame) => match self.on_parent_frame(frame) {
                Ok(keep) => keep,
                Err(e) => {
                    log_error!(self.rank, "parent frame error: {e}");
                    true
                }
            },
            Inbound::Cmd(cmd) => self.on_command(cmd),
            Inbound::ChildClosed(i) => {
                self.handle_child_death(i as usize);
                true
            }
            // Parent vanished: treat as shutdown so the subtree exits.
            Inbound::ParentClosed => false,
        }
    }

    /// Confirms child `i` dead: computes the lost subtree, prunes local
    /// state, and announces the failure through the tree. EOF, garbage,
    /// and a propagated report can all name the same child; only the
    /// first counts.
    fn handle_child_death(&mut self, i: usize) {
        let child = &mut self.children[i];
        if !child.alive {
            return;
        }
        child.alive = false;
        child.link.batcher.drain();
        child.link.trace_outbox.clear();
        child.clock.forget();
        let failed_rank = child.rank;
        for (req_id, collect) in self.collects.forget_child(i) {
            self.finish_collect(req_id, collect);
        }
        self.metrics.peer_deaths.inc();
        // Everything only reachable through this child dies with it,
        // minus ranks already declared dead by earlier reports.
        let lost: Vec<Rank> = self
            .routes
            .reachable_via(i)
            .into_iter()
            .filter(|r| !self.known_dead.contains(r))
            .collect();
        self.on_ranks_failed(failed_rank, lost, Some(i));
    }

    /// Applies a confirmed failure everywhere it matters at this node:
    /// routing shrinks, every stream prunes its membership (forwarding
    /// waves the shrinkage released), and the report is forwarded to
    /// every neighbor except the one it came from: `from` names the
    /// child that reported it or was found dead, `None` the parent (the
    /// failure is in a sibling subtree). At the root the report
    /// lands in the failure ledger as a tool-visible event.
    fn on_ranks_failed(&mut self, failed_rank: Rank, subtree: Vec<Rank>, from: Option<usize>) {
        let fresh: Vec<Rank> = subtree
            .into_iter()
            .filter(|r| self.known_dead.insert(*r))
            .collect();
        let node_is_new = self.known_dead.insert(failed_rank);
        if fresh.is_empty() && !node_is_new {
            return; // Duplicate report: fully processed already.
        }
        let now = self.now();
        self.routes.remove_endpoints(&fresh);
        // Prune every stream; a wave stuck waiting on the dead subtree
        // completes from the survivors right here.
        let sids: Vec<StreamId> = self.managers.keys().copied().collect();
        for sid in sids {
            let mgr = self.managers.get_mut(&sid).expect("stream listed above");
            let before = mgr.live_endpoints().len();
            let (waves, all_dead) = mgr.prune(&fresh, now);
            if mgr.live_endpoints().len() < before {
                self.metrics.pruned_streams.inc();
            }
            let ready = self.run_released(sid, waves);
            self.forward_up_wave(ready);
            if all_dead {
                // Root: no packet can ever arrive on this stream
                // again; its receivers must unblock with an error
                // once the waves delivered above are drained.
                self.fail_stream(sid);
            }
        }
        self.forward_failure_report(failed_rank, &fresh, from);
    }

    /// Sends a `RankFailed` report everywhere except whence it came;
    /// at the root it lands in the failure ledger instead of a parent.
    fn forward_failure_report(&mut self, failed_rank: Rank, fresh: &[Rank], from: Option<usize>) {
        let report = Control::RankFailed {
            rank: failed_rank,
            subtree: fresh.to_vec(),
        }
        .to_frame();
        if from.is_some() {
            match &mut self.up {
                Upstream::Parent(_) => {
                    let _ = self.send_parent(report.clone());
                }
                Upstream::FrontEnd(fe) => {
                    // The event trails the waves delivered before it, as
                    // a report sent upstream trails the batcher.
                    fe.flush_deliveries();
                    self.metrics.events_delivered.inc();
                    fe.ledger.report(failed_rank, fresh.to_vec());
                }
            }
        }
        for i in 0..self.children.len() {
            if Some(i) != from && self.children[i].alive {
                let _ = self.send_child(i, report.clone());
            }
        }
    }

    fn send_clock_ping(&mut self, i: usize) {
        let ping = Control::ClockPing {
            t0_us: tracectx::wall_us(),
        }
        .to_frame();
        // A failed send just ends the handshake (the child's offset
        // stays unresolved, defaulting to zero skew). Declaring the
        // child dead here would jump ahead of its already-queued
        // inbound frames — death is only ever declared in frame order,
        // by EOF or garbage.
        let _ = self.send_child(i, ping);
    }

    /// Clock entries relative to *this* node's clock: feed the root's
    /// assembler directly, or relay them upstream for further
    /// chaining.
    fn apply_clock_entries(&mut self, entries: Vec<ClockEntry>) {
        if entries.is_empty() {
            return;
        }
        match &self.up {
            Upstream::FrontEnd(fe) => {
                for (rank, offset_us, rtt_us) in entries {
                    fe.assembler.set_clock(rank, offset_us, rtt_us);
                }
            }
            Upstream::Parent(_) => {
                let _ = self.send_parent(clock_sync::clock_info(entries).to_frame());
            }
        }
    }

    fn poll_timeouts(&mut self) {
        let now = self.now();
        for (req_id, collect) in self.collects.expire(now) {
            log_warn!(
                self.rank,
                "metrics collection {req_id} timed out with {} children outstanding",
                collect.outstanding.len()
            );
            self.finish_collect(req_id, collect);
        }
        let released: Vec<(StreamId, Vec<Vec<Packet>>)> = self
            .managers
            .iter_mut()
            .filter_map(|(&sid, mgr)| {
                let waves = mgr.poll(now);
                (!waves.is_empty()).then_some((sid, waves))
            })
            .collect();
        for (sid, waves) in released {
            let ready = self.run_released(sid, waves);
            self.forward_up_wave(ready);
        }
    }

    fn on_child_frame(&mut self, i: usize, frame: Bytes) -> Result<()> {
        match decode_frame(frame)? {
            Frame::Data(packets) => self.on_child_packets(i, packets),
            Frame::Traced(packets, envelopes) => {
                // Stamp arrival once per frame; the envelopes wait with
                // that stamp until their streams' waves forward.
                let recv_us = tracectx::wall_us();
                self.metrics.trace_frames.inc();
                for env in envelopes {
                    let pending = self.trace_pending_up.entry(env.stream).or_default();
                    if pending.len() < TRACE_PENDING_CAP {
                        pending.push((env, recv_us));
                    }
                }
                self.on_child_packets(i, packets)
            }
            Frame::Control(pkt) => self.on_child_control(i, Control::from_packet(&pkt)?),
        }
    }

    /// Handles a control from child `i`, during setup and in the loop
    /// alike.
    fn on_child_control(&mut self, i: usize, control: Control) -> Result<()> {
        match control {
            // Late subtree reports and attaches are instantiation
            // artifacts.
            Control::SubtreeReport { .. } | Control::Attach { .. } => {}
            // A rendezvous advertisement: to the front-end, or on up.
            Control::AttachInfo { ranks, endpoints } => match &self.up {
                Upstream::FrontEnd(fe) => {
                    for advert in ranks.into_iter().zip(endpoints) {
                        let _ = fe.attach.send(advert);
                    }
                }
                Upstream::Parent(_) => {
                    let _ = self.send_parent(Control::AttachInfo { ranks, endpoints }.to_frame());
                }
            },
            Control::RankFailed { rank, subtree } => {
                // A descendant deeper in this child's subtree died;
                // the child itself is alive (it told us).
                self.on_ranks_failed(rank, subtree, Some(i));
            }
            Control::ClockPong {
                t0_us,
                t1_us,
                t2_us,
            } => {
                let est = ClockEstimate::from_ping(t0_us, t1_us, t2_us, tracectx::wall_us());
                let child = &mut self.children[i];
                match child.clock.on_pong(child.rank, est) {
                    PongStep::Ping => self.send_clock_ping(i),
                    PongStep::Resolved(entries) => self.apply_clock_entries(entries),
                    PongStep::Stray => {}
                }
            }
            Control::ClockInfo {
                ranks,
                offsets_us,
                rtts_us,
            } => {
                let entries = self.children[i].clock.on_info(ranks, offsets_us, rtts_us);
                self.apply_clock_entries(entries);
            }
            other => {
                return Err(MrnetError::Protocol(format!(
                    "unexpected upstream control: {other:?}"
                )))
            }
        }
        Ok(())
    }

    /// Synchronizes and transforms one frame's packets, then forwards
    /// everything the frame released as one wave. A run of consecutive
    /// packets on one relay stream (see [`StreamManager::is_relay`])
    /// passes straight through, booked once for the whole run: one
    /// stream lookup, one participant check and one add per counter.
    /// Other streams take their packets one at a time; the clock is
    /// read only if one of them needs it. On a child-attributable error
    /// the packets released before it still forward.
    fn on_child_packets(&mut self, child: usize, packets: Vec<Packet>) -> Result<()> {
        let epoch = self.epoch;
        let mut now = None;
        let mut ready = Vec::with_capacity(packets.len());
        // The frame's `up.pkts.recv`, added once: every routed packet
        // up to and including the one an error stops at.
        let mut recv = 0;
        let mut result = Ok(());
        let mut packets = packets.into_iter().peekable();
        while let Some(packet) = packets.next() {
            let sid = packet.stream_id();
            if sid == METRICS_STREAM {
                // Introspection traffic: handled here, never routed or
                // counted. What the frame released before it forwards
                // first, so a report sent upstream trails it.
                self.forward_up_wave(std::mem::take(&mut ready));
                self.on_introspect_up(child, &packet);
                continue;
            }
            recv += 1;
            // Stream unknown (deleted or never created): drop, as the
            // original does for stale data.
            let Some(mgr) = self.managers.get_mut(&sid) else {
                continue;
            };
            if mgr.is_relay() {
                let start = ready.len();
                ready.push(packet);
                ready.extend(std::iter::from_fn(|| {
                    packets.next_if(|p| p.stream_id() == sid)
                }));
                let n = ready.len() - start;
                // The whole run shares the stream and the child: a
                // non-participant fails at the run's first packet.
                if let Err(e) = mgr.relay_run(child, n) {
                    ready.truncate(start);
                    result = Err(e);
                    break;
                }
                recv += n - 1;
                continue;
            }
            let now = *now.get_or_insert_with(|| epoch.elapsed().as_secs_f64());
            match mgr.up(child, packet, now) {
                Ok(waves) if waves.is_empty() => {}
                Ok(waves) => ready.extend(self.run_released(sid, waves)),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.metrics.up_pkts_recv.add(recv as u64);
        self.forward_up_wave(ready);
        result
    }

    /// Runs waves the sync filter released through the stream's
    /// upstream transformation filter, inline on the loop, and returns
    /// the packets ready to forward. A wave the filter rejects is
    /// logged and dropped on its own: the other waves still forward,
    /// and no child is severed — the failure belongs to the wave's
    /// contents, not to any one sender.
    fn run_released(&mut self, sid: StreamId, waves: Vec<Vec<Packet>>) -> Vec<Packet> {
        let mut ready = Vec::new();
        let Some(mgr) = self.managers.get_mut(&sid) else {
            return ready;
        };
        // The null filter cannot touch payloads, so a pure relay skips
        // the materialization bookkeeping.
        let null = mgr.up_filter_is_null();
        for wave in waves {
            // Handles stay shared with the wave's packets; after the
            // transform they reveal which raw payloads were
            // materialized.
            let handles: Vec<Packet> = if null {
                Vec::new()
            } else {
                wave.iter().filter(|p| p.is_lazy()).cloned().collect()
            };
            match mgr.transform_wave(wave) {
                Ok(out) => ready.extend(out),
                Err(e) => {
                    log_error!(self.rank, "filter error on stream {sid}, wave dropped: {e}");
                }
            }
            let decoded = handles.iter().filter(|p| !p.is_lazy()).count();
            self.metrics.pkts_decoded.add(decoded as u64);
        }
        ready
    }

    /// Dispatches upstream introspection packets by tag.
    fn on_introspect_up(&mut self, child: usize, packet: &Packet) {
        match packet.tag() {
            METRICS_REPLY => self.on_metrics_reply(child, packet),
            TRACE_REPORT => self.on_trace_report(packet),
            _ => {}
        }
    }

    /// A completed down-wave envelope riding up from the back-end that
    /// terminated it: ingest at the root, forward verbatim (in a frame
    /// of its own, like all introspection traffic) elsewhere.
    fn on_trace_report(&mut self, packet: &Packet) {
        match &self.up {
            Upstream::FrontEnd(fe) => match introspect::decode_trace_report(packet) {
                Ok(env) => {
                    fe.assembler.ingest(&env, TraceDir::Down);
                }
                Err(_) => log_warn!(self.rank, "dropping malformed trace report"),
            },
            Upstream::Parent(_) => {
                let _ = self.send_parent(encode_data_frame(std::slice::from_ref(packet)));
            }
        }
    }

    /// Moves pending up-wave envelopes for the forwarded streams to
    /// their next station: completed (with this root hop appended) into
    /// the assembler at the root, into the parent's trace outbox
    /// elsewhere. An aggregated wave keeps its envelope even when the
    /// filter collapsed the packets — the envelope describes the wave,
    /// not one packet.
    fn take_pending_up(&mut self, packets: &[Packet]) {
        if self.trace_pending_up.is_empty() {
            return;
        }
        let mut streams: Vec<StreamId> = packets.iter().map(Packet::stream_id).collect();
        streams.sort_unstable();
        streams.dedup();
        for sid in streams {
            let Some(pending) = self.trace_pending_up.remove(&sid) else {
                continue;
            };
            match &mut self.up {
                Upstream::FrontEnd(fe) => {
                    // Root: the wave terminates here.
                    let now = tracectx::wall_us();
                    for (mut env, recv_us) in pending {
                        env.add_hop(self.rank, recv_us, now);
                        self.metrics.trace_hops.inc();
                        fe.assembler.ingest(&env, TraceDir::Up);
                    }
                }
                Upstream::Parent(link) => {
                    for item in pending {
                        if link.trace_outbox.len() < TRACE_OUTBOX_CAP {
                            link.trace_outbox.push(item);
                        }
                    }
                }
            }
        }
    }

    fn forward_up_wave(&mut self, packets: Vec<Packet>) {
        if packets.is_empty() {
            return;
        }
        self.take_pending_up(&packets);
        self.metrics.up_pkts_sent.add(packets.len() as u64);
        // The fast path: a lazy packet moves on (or is delivered) as
        // the exact bytes it arrived in.
        let lazy = packets.iter().filter(|p| p.is_lazy()).count();
        self.metrics.pkts_lazy_relayed.add(lazy as u64);
        match &mut self.up {
            Upstream::FrontEnd(fe) => {
                // Root: "sent" upstream means delivered to user
                // threads; account the bytes here since no wire carries
                // them. The packets reach the mailbox when the batch
                // flushes.
                let bytes: usize = packets.iter().map(Packet::encoded_size_hint).sum();
                self.metrics.local_up_bytes.add(bytes as u64);
                fe.deliveries.extend(packets);
            }
            Upstream::Parent(link) => {
                for p in packets {
                    link.batcher.push(p);
                    if link.batcher.should_flush() {
                        link.flush(self.rank, &self.metrics);
                    }
                }
            }
        }
    }

    /// Returns false when the loop should exit (shutdown received).
    fn on_parent_frame(&mut self, frame: Bytes) -> Result<bool> {
        let packets = match decode_frame(frame)? {
            Frame::Data(packets) => packets,
            Frame::Traced(packets, envelopes) => {
                let recv_us = tracectx::wall_us();
                self.metrics.trace_frames.inc();
                // Spread the envelopes into child outboxes *before*
                // routing: a route-triggered flush then carries them on
                // the very frame their wave rides.
                for env in envelopes {
                    self.spread_down_envelope(env, recv_us);
                }
                packets
            }
            Frame::Control(pkt) => return self.on_parent_control(Control::from_packet(&pkt)?),
        };
        self.on_parent_packets(packets)?;
        Ok(true)
    }

    /// Returns false when the loop should exit (shutdown received).
    fn on_parent_control(&mut self, control: Control) -> Result<bool> {
        match &control {
            Control::NewStream { .. } => {
                let def = StreamDef::from_control(&control).expect("NewStream parses to a def");
                self.create_stream(def)?;
            }
            Control::DeleteStream { stream_id } => self.delete_stream(*stream_id),
            // A failure in a sibling subtree, relayed down.
            Control::RankFailed { rank, subtree } => {
                self.on_ranks_failed(*rank, subtree.clone(), None);
            }
            Control::ClockPing { t0_us } => {
                let t1_us = tracectx::wall_us();
                let pong = Control::ClockPong {
                    t0_us: *t0_us,
                    t1_us,
                    t2_us: tracectx::wall_us(),
                };
                let _ = self.send_parent(pong.to_frame());
            }
            Control::Shutdown => return Ok(false),
            other => {
                return Err(MrnetError::Protocol(format!(
                    "unexpected downstream control: {other:?}"
                )))
            }
        }
        Ok(true)
    }

    fn on_parent_packets(&mut self, packets: Vec<Packet>) -> Result<()> {
        for packet in packets {
            if packet.stream_id() == METRICS_STREAM {
                self.on_metrics_request(&packet);
                continue;
            }
            self.metrics.down_pkts_recv.inc();
            self.route_down(packet)?;
        }
        Ok(())
    }

    /// Copies a down-wave envelope (with its arrival stamp) into the
    /// trace outbox of every live child on its stream's route; each
    /// child's next flushed frame carries it onward.
    fn spread_down_envelope(&mut self, env: TraceEnvelope, recv_us: u64) {
        let Some(mgr) = self.managers.get(&env.stream) else {
            return; // Stream gone (racing a delete): drop the trace.
        };
        for &i in mgr.live_route() {
            let child = &mut self.children[i];
            if child.alive && child.link.trace_outbox.len() < TRACE_OUTBOX_CAP {
                child.link.trace_outbox.push((env.clone(), recv_us));
            }
        }
    }

    /// Returns false when the loop should exit (shutdown commanded).
    fn on_command(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::NewStream(def) => {
                if let Err(e) = self.create_stream(*def) {
                    log_error!(self.rank, "stream creation error: {e}");
                }
            }
            Command::SendDown(packet) => {
                // A sampled down-wave originates here: spread an
                // empty-hops envelope into the route's child outboxes
                // before routing so it rides the same flushed frame.
                // The root's own hop is stamped at flush time.
                if matches!(&self.up, Upstream::FrontEnd(fe) if fe.sampler.sample()) {
                    let env = TraceEnvelope {
                        trace_id: tracectx::next_trace_id(self.rank),
                        stream: packet.stream_id(),
                        hops: Vec::new(),
                    };
                    self.spread_down_envelope(env, tracectx::wall_us());
                }
                if let Err(e) = self.route_down(packet) {
                    log_error!(self.rank, "downstream send error: {e}");
                }
            }
            Command::DeleteStream(sid) => self.delete_stream(sid),
            Command::CollectMetrics {
                req_id,
                timeout_secs,
                reply,
            } => self.start_collect(req_id, timeout_secs, Some(reply)),
            Command::Shutdown => return false,
        }
        true
    }

    fn create_stream(&mut self, mut def: StreamDef) -> Result<()> {
        // Streams are born onto the *surviving* tree: ranks that died
        // before creation never join the membership (otherwise the
        // first WaitForAll wave would stall on them).
        if !self.known_dead.is_empty() {
            def.endpoints.retain(|r| !self.known_dead.contains(r));
        }
        if def.endpoints.is_empty() {
            self.fail_stream(def.id);
            return Ok(());
        }
        let frame = def.to_control().to_frame();
        let mgr = StreamManager::new(def, &self.routes, &self.registry, self.rank, &self.metrics)?;
        // Announce to participating children before any data can flow.
        // A child that died (possibly unnoticed until this send) must
        // not prevent the stream from existing for the survivors. Its
        // death is declared by its `ChildClosed`, in frame order, so
        // the frames it queued before dying are still read.
        for &i in mgr.participants() {
            if self.children[i].alive {
                let _ = self.send_child(i, frame.clone());
            }
        }
        self.managers.insert(mgr.def().id, mgr);
        Ok(())
    }

    fn delete_stream(&mut self, sid: StreamId) {
        if let Some(mgr) = self.managers.remove(&sid) {
            let frame = Control::DeleteStream { stream_id: sid }.to_frame();
            for &i in mgr.participants() {
                if self.children[i].alive {
                    let _ = self.send_child(i, frame.clone());
                }
            }
        }
    }

    fn route_down(&mut self, packet: Packet) -> Result<()> {
        let sid = packet.stream_id();
        let Some(mgr) = self.managers.get_mut(&sid) else {
            // Data for an unknown stream (e.g. racing a delete): drop.
            return Ok(());
        };
        let outs = mgr.down(packet)?;
        for out in &outs {
            if out.is_lazy() {
                // Counted once per packet, not per multicast replica:
                // the relay never opened this payload.
                self.metrics.pkts_lazy_relayed.inc();
            }
        }
        for out in outs {
            // The stream's fan-out is cached on its manager, and
            // borrowed: a flush needs all of `self`, so it is looked up
            // again per packet rather than copied.
            let Some(mgr) = self.managers.get(&sid) else {
                break;
            };
            // "A data packet flowing downstream may be placed in
            // multiple output packet buffers because the packet may be
            // destined for multiple back-ends" (§2.3) — by reference.
            let mut flush = false;
            for &i in mgr.live_route() {
                let child = &mut self.children[i];
                if child.alive {
                    self.metrics.down_pkts_sent.inc();
                    child.link.batcher.push(out.clone());
                    flush |= child.link.batcher.should_flush();
                }
            }
            // Flush only after every route member holds the packet:
            // children whose batches filled identically flush in the
            // same wave and share one encoded frame. A batch is flushed
            // as soon as it fills, so the full ones are on this route.
            if flush {
                for i in 0..self.children.len() {
                    if self.children[i].link.batcher.should_flush() {
                        self.flush_child(i);
                    }
                }
            }
        }
        Ok(())
    }

    /// Sends child `i` its pending batch. Encode-once multicast: a
    /// sibling whose pending batch holds these exact packet handles
    /// would produce a byte-identical frame — hand it this one (a
    /// refcount bump) instead of re-encoding. Divergent batches keep
    /// their own flush cycle. A sibling with pending trace envelopes is
    /// excluded: its frame must carry its own trailer.
    fn flush_child(&mut self, i: usize) {
        let Some((frame, packets)) = self.children[i].link.flush(self.rank, &self.metrics) else {
            return;
        };
        for (j, sib) in self.children.iter_mut().enumerate() {
            if j == i
                || !sib.link.trace_outbox.is_empty()
                || !sib.link.batcher.pending_matches(&packets)
            {
                continue;
            }
            sib.link.batcher.drain();
            self.metrics.batch_pkts.record_us(packets.len() as u64);
            self.metrics.frames_shared.inc();
            let _ = sib.link.conn.send(frame.clone());
        }
    }

    fn flush_all(&mut self) {
        for i in 0..self.children.len() {
            self.flush_child(i);
        }
        match &mut self.up {
            Upstream::Parent(link) => {
                link.flush(self.rank, &self.metrics);
            }
            Upstream::FrontEnd(fe) => fe.flush_deliveries(),
        }
    }

    /// Root only: marks `sid` as having lost every end-point, after
    /// the waves already delivered on it.
    fn fail_stream(&mut self, sid: StreamId) {
        if let Upstream::FrontEnd(fe) = &mut self.up {
            fe.flush_deliveries();
            fe.delivery.fail_stream(sid);
        }
    }

    /// Sends a frame that bypasses the batcher (control, introspection)
    /// to child `i`. Whatever is batched for that child is flushed
    /// first: the loop flushes once per inbox batch, and a frame sent
    /// around the batcher must never overtake packets the loop handled
    /// before it — a `DeleteStream` ahead of the stream's last data
    /// would make the child drop that data.
    fn send_child(&mut self, i: usize, frame: Bytes) -> transport::Result<()> {
        self.flush_child(i);
        self.children[i].link.conn.send(frame)
    }

    /// [`NodeLoop::send_child`]'s upstream twin: flushes the parent's
    /// batcher and trace outbox, then sends `frame`, so a report never
    /// overtakes a wave still waiting in the batcher. The front-end has
    /// no wire: nothing is sent there.
    fn send_parent(&mut self, frame: Bytes) -> transport::Result<()> {
        let Upstream::Parent(link) = &mut self.up else {
            return Ok(());
        };
        link.flush(self.rank, &self.metrics);
        link.conn.send(frame)
    }

    /// Begins a metrics collection at this node: snapshot ourselves,
    /// forward the request to every live child, and wait for their
    /// replies (or the deadline). Introspection frames go directly to
    /// the connections — never through the batchers — so they stay
    /// invisible to the packet counters they report. `reply` is the
    /// front-end channel at the root; interior nodes pass `None` and
    /// answer upstream instead.
    fn start_collect(
        &mut self,
        req_id: u32,
        timeout_secs: f64,
        reply: Option<Sender<NetworkSnapshot>>,
    ) {
        let timeout = timeout_secs.max(0.0);
        // Children get a slightly tighter deadline than ours so their
        // (possibly partial) replies land before we give up waiting.
        let request = introspect::encode_request(req_id, timeout * 0.9);
        let frame = encode_data_frame(std::slice::from_ref(&request));
        let mut outstanding = Vec::new();
        for i in 0..self.children.len() {
            // A child whose request send failed is not waited for; its
            // `ChildClosed` declares it dead in frame order.
            if self.children[i].alive && self.send_child(i, frame.clone()).is_ok() {
                outstanding.push(i);
            }
        }
        self.refresh_send_metrics();
        let own = self.metrics.snapshot(self.rank);
        let deadline = self.now() + timeout;
        if let Some((req_id, collect)) =
            self.collects
                .start(req_id, own, outstanding, deadline, reply)
        {
            self.finish_collect(req_id, collect);
        }
    }

    /// Handles a metrics request arriving from the parent: collect
    /// from the subtree, replying upstream when done.
    fn on_metrics_request(&mut self, packet: &Packet) {
        if packet.tag() != METRICS_REQUEST {
            return;
        }
        let Ok((req_id, timeout)) = introspect::decode_request(packet) else {
            log_warn!(self.rank, "dropping malformed metrics request");
            return;
        };
        self.start_collect(req_id, timeout, None);
    }

    /// Merges a child's metrics reply into the matching collection.
    fn on_metrics_reply(&mut self, child: usize, packet: &Packet) {
        let Ok((req_id, sections)) = introspect::decode_reply(packet) else {
            log_warn!(self.rank, "dropping malformed metrics reply");
            return;
        };
        if let Some((req_id, collect)) = self.collects.on_reply(req_id, child, sections) {
            self.finish_collect(req_id, collect);
        }
    }

    /// Delivers a finished (or expired) collection: to the front-end
    /// channel at the root, upstream as a reply packet elsewhere.
    fn finish_collect(&mut self, req_id: u32, collect: Collect) {
        match collect.reply {
            Some(tx) => {
                // The snapshot counts what was delivered; let the
                // mailbox hold it first.
                if let Upstream::FrontEnd(fe) = &mut self.up {
                    fe.flush_deliveries();
                }
                let _ = tx.send(introspect::snapshot_from_sections(collect.sections));
            }
            None => {
                let reply = introspect::encode_reply(req_id, &collect.sections);
                let _ = self.send_parent(encode_data_frame(std::slice::from_ref(&reply)));
            }
        }
    }
}

impl Turns for NodeLoop {
    /// Takes every queued inbox message under one lock, without
    /// waiting, dispatches them in order, fires the timers that are
    /// due, and then flushes every batcher once: packets that arrived
    /// together leave together, in as few frames as the batch caps
    /// ([`mrnet_packet::MAX_BATCH_PACKETS`],
    /// [`mrnet_packet::MAX_BATCH_BYTES`]) allow.
    fn turn(&mut self) -> bool {
        let mut batch = std::mem::take(&mut self.batch);
        if self.inbox.recv_all(&mut batch).is_err() {
            return false;
        }
        self.metrics.queue_depth.set(batch.len() as i64);
        let mut keep_going = true;
        for msg in batch.drain(..) {
            keep_going = self.dispatch(msg);
            if !keep_going {
                break;
            }
        }
        self.batch = batch;
        // Checked after every batch, not only when the inbox runs dry:
        // steady traffic on one stream must not hold back a timed-out
        // wave on another.
        if self.next_deadline() <= self.now() {
            self.poll_timeouts();
        }
        self.flush_all();
        keep_going
    }

    fn rank(&self) -> Rank {
        self.rank
    }

    fn wake_at(&self) -> Option<Instant> {
        Duration::try_from_secs_f64(self.next_deadline().max(0.0))
            .ok()
            .and_then(|d| self.epoch.checked_add(d))
    }

    /// The shutdown cleanup: tells the subtree and closes the mailbox.
    /// Dropping the inbox with the loop makes every later delivery
    /// into it fail.
    fn stop(&mut self) {
        let frame = Control::Shutdown.to_frame();
        for i in 0..self.children.len() {
            if self.children[i].alive {
                let _ = self.send_child(i, frame.clone());
            }
        }
        if let Upstream::FrontEnd(fe) = &mut self.up {
            fe.flush_deliveries();
            fe.delivery.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_message_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<Inbound>() <= 32);
    }
}
