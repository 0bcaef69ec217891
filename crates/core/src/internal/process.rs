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
//! One [`NodeLoop`] drives one process. At the tree root (the
//! front-end) there is no parent; fully aggregated packets are
//! deposited into a delivery mailbox for user threads, and user
//! commands (stream creation, downstream sends, shutdown) arrive on
//! the same inbox as network traffic.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrnet_filters::FilterRegistry;
use mrnet_obs::tracectx::{self, TraceEnvelope, TraceSampler};
use mrnet_obs::{
    log_error, log_warn, ConnSendStats, MetricsSection, NetworkSnapshot, NodeMetrics,
    TraceAssembler, TraceDir,
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
use crate::internal::sched::{self, Inbox, Slot, Turns};
use crate::internal::stream_manager::StreamManager;
use crate::introspect::{self, METRICS_REPLY, METRICS_REQUEST, METRICS_STREAM, TRACE_REPORT};
use crate::proto::{
    append_to_data_frame, decode_frame, encode_data_frame, encode_traced_data_frame,
    start_data_frame, Control, Frame,
};
use crate::route::RoutingTable;
use crate::streams::StreamDef;

/// Ping exchanges each parent runs per child connection before
/// resolving the clock estimate (minimum-RTT sample wins). Pings are
/// sequential — the next fires as the previous pong lands — so queuing
/// behind one exchange never inflates the next one's RTT.
const CLOCK_PINGS: u8 = 4;

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

/// In-flight state of one metrics collection at this node: the
/// sections gathered so far and which children still owe a reply.
struct MetricsCollect {
    /// Sections accumulated so far (own section plus decoded child
    /// replies, in arrival order).
    sections: Vec<MetricsSection>,
    /// Child indices whose replies are still outstanding.
    outstanding: Vec<usize>,
    /// Epoch-relative time after which the collection completes with
    /// partial results.
    deadline: f64,
    /// Root only: channel back to the blocked front-end caller.
    /// `None` at interior nodes, which reply upstream instead.
    reply: Option<Sender<NetworkSnapshot>>,
}

/// Per-child state of the connect-time clock-sync handshake.
#[derive(Debug, Default)]
struct ClockSync {
    /// Best (minimum-RTT) estimate so far.
    best: Option<ClockEstimate>,
    /// Completed ping exchanges.
    exchanged: u8,
    /// True once the estimate is final and has been applied/relayed.
    resolved: bool,
    /// `ClockInfo` entries from this child's subtree, buffered until
    /// the child's own offset resolves (chaining needs it).
    buffered: Vec<(Rank, i64, u64)>,
}

/// One MRNet process's event loop.
pub struct NodeLoop {
    rank: Rank,
    registry: FilterRegistry,
    parent: Option<SharedConnection>,
    children: Vec<SharedConnection>,
    child_alive: Vec<bool>,
    routes: RoutingTable,
    managers: HashMap<StreamId, StreamManager>,
    inbox: Receiver<Inbound>,
    /// The messages the current turn drained, kept to reuse its buffer.
    batch: VecDeque<Inbound>,
    /// Where this node's turns run (see [`sched`]).
    slot: Arc<Slot>,
    delivery: Option<Arc<Delivery>>,
    epoch: Instant,
    child_batchers: Vec<Batcher>,
    parent_batcher: Batcher,
    /// Root only: packets delivered during the current inbox batch,
    /// handed to the mailbox in one `push_many` by `flush_all`, or
    /// earlier by `flush_deliveries` before anything else the front-end
    /// can observe.
    deliveries: Vec<Packet>,
    ready_tx: Option<Sender<Vec<Rank>>>,
    /// Root only: receives `(backend rank, endpoint)` rendezvous
    /// advertisements harvested from AttachInfo messages during
    /// process instantiation.
    attach_tx: Option<Sender<(Rank, String)>>,
    metrics: Arc<NodeMetrics>,
    /// In-flight metrics collections keyed by request id.
    collects: HashMap<u32, MetricsCollect>,
    /// The tree rank of each direct child, in child order, so a dead
    /// connection can be named in [`crate::TopologyEvent::RankFailed`].
    child_ranks: Vec<Rank>,
    /// Whether each child's death has already been announced —
    /// EOF and a propagated report can both arrive for the same child.
    child_death_reported: Vec<bool>,
    /// Every rank this node has confirmed dead (end-points and
    /// internal nodes alike).
    known_dead: BTreeSet<Rank>,
    /// Root only: the failure record shared with the `Network` handle.
    ledger: Option<Arc<FailureLedger>>,
    /// Up-wave trace envelopes (with their local receive stamps) held
    /// per stream until the wave they rode synchronizes and forwards.
    trace_pending_up: HashMap<StreamId, Vec<(TraceEnvelope, u64)>>,
    /// Envelopes riding the next upstream data frame.
    parent_trace_outbox: Vec<(TraceEnvelope, u64)>,
    /// Envelopes riding each child's next downstream data frame.
    child_trace_outbox: Vec<Vec<(TraceEnvelope, u64)>>,
    /// Root only: down-wave sampling decisions.
    sampler: TraceSampler,
    /// Root only: the front-end's skew-correcting wave assembler.
    assembler: Option<Arc<TraceAssembler>>,
    /// Per-child clock-sync handshake state.
    clock_sync: Vec<ClockSync>,
}

/// Where a failure report entered this node, which determines where it
/// must be forwarded (everywhere except back toward the reporter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailureOrigin {
    /// Detected locally or reported by child `usize`.
    Child(usize),
    /// Reported by the parent (the failure is in a sibling subtree).
    Parent,
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
    /// `inbox` is the channel pair from [`NodeLoop::inbox`] (created by
    /// the caller so the front-end can keep a command sender before the
    /// loop thread starts). `delivery` is `Some` at the root;
    /// `ready_tx` (root only) receives the end-point set once subtree
    /// reports have been collected.
    pub fn new(
        rank: Rank,
        registry: FilterRegistry,
        parent: Option<SharedConnection>,
        children: Vec<SharedConnection>,
        delivery: Option<Arc<Delivery>>,
        ready_tx: Option<Sender<Vec<Rank>>>,
        inbox: (Inbox<Inbound>, Receiver<Inbound>),
    ) -> NodeLoop {
        let (tx, rx) = inbox;
        let slot = tx.slot().clone();
        if let Some(p) = &parent {
            p.set_sink(Box::new(InboxSink {
                inbox: tx.clone(),
                child: None,
            }));
        }
        for (i, c) in children.iter().enumerate() {
            let i = u32::try_from(i).expect("child count fits in u32");
            c.set_sink(Box::new(InboxSink {
                inbox: tx.clone(),
                child: Some(i),
            }));
        }
        let n = children.len();
        NodeLoop {
            rank,
            registry,
            parent,
            child_alive: vec![true; n],
            child_ranks: Vec::new(),
            child_death_reported: vec![false; n],
            known_dead: BTreeSet::new(),
            ledger: None,
            children,
            routes: RoutingTable::new(),
            managers: HashMap::new(),
            inbox: rx,
            batch: VecDeque::new(),
            metrics: slot.metrics().clone(),
            slot,
            delivery,
            epoch: Instant::now(),
            child_batchers: (0..n).map(|_| Batcher::new()).collect(),
            parent_batcher: Batcher::new(),
            deliveries: Vec::new(),
            ready_tx,
            attach_tx: None,
            collects: HashMap::new(),
            trace_pending_up: HashMap::new(),
            parent_trace_outbox: Vec::new(),
            child_trace_outbox: (0..n).map(|_| Vec::new()).collect(),
            sampler: TraceSampler::new(),
            assembler: None,
            clock_sync: (0..n).map(|_| ClockSync::default()).collect(),
        }
    }

    /// This node's metrics instruments. The loop owns and updates
    /// them; callers (the front-end, tests) keep a handle for local
    /// inspection without going through the introspection stream.
    pub fn metrics(&self) -> Arc<NodeMetrics> {
        self.metrics.clone()
    }

    /// Installs the root-side sink for AttachInfo advertisements
    /// (process instantiation). Must be called before
    /// [`NodeLoop::setup`].
    pub fn set_attach_sink(&mut self, tx: Sender<(Rank, String)>) {
        self.attach_tx = Some(tx);
    }

    /// Records the tree rank of each direct child (child order), so a
    /// dead connection can be attributed to a rank in failure events.
    pub fn set_child_ranks(&mut self, ranks: Vec<Rank>) {
        self.child_ranks = ranks;
    }

    /// Installs the root-side failure ledger shared with the
    /// [`crate::Network`] handle; confirmed deaths are reported there.
    pub fn set_failure_ledger(&mut self, ledger: Arc<FailureLedger>) {
        self.ledger = Some(ledger);
    }

    /// Installs the root-side trace assembler shared with the
    /// [`crate::Network`] handle. Completed waves and resolved clock
    /// estimates land there. Root only.
    pub fn set_trace_assembler(&mut self, assembler: Arc<TraceAssembler>) {
        self.assembler = Some(assembler);
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Routes an AttachInfo advertisement: deliver at the root, relay
    /// upstream elsewhere.
    fn relay_attach_info(&mut self, ranks: Vec<Rank>, endpoints: Vec<String>) -> Result<()> {
        if let Some(tx) = &self.attach_tx {
            for (rank, endpoint) in ranks.into_iter().zip(endpoints) {
                let _ = tx.send((rank, endpoint));
            }
            Ok(())
        } else if self.parent.is_some() {
            self.send_parent(Control::AttachInfo { ranks, endpoints }.to_frame())
                .map_err(MrnetError::Transport)
        } else {
            // Root without a sink: instantiation mode that doesn't use
            // advertisements; ignore.
            Ok(())
        }
    }

    /// Collects one subtree report per child, then reports upstream
    /// (§2.5). Must run before [`NodeLoop::run`].
    pub fn setup(&mut self) -> Result<()> {
        let mut reported: Vec<Option<Vec<Rank>>> = vec![None; self.children.len()];
        let mut missing = self.children.len();
        while missing > 0 {
            match self.inbox.recv() {
                Ok(Inbound::Child(i, frame)) => match decode_frame(frame)? {
                    Frame::Control(pkt) => match Control::from_packet(&pkt)? {
                        Control::SubtreeReport { endpoints } => {
                            if reported[i as usize].replace(endpoints).is_none() {
                                missing -= 1;
                            }
                        }
                        Control::AttachInfo { ranks, endpoints } => {
                            self.relay_attach_info(ranks, endpoints)?;
                        }
                        // Clock sync runs bottom-up as each subtree
                        // enters its loop; a child's table can arrive
                        // while this node still awaits other reports.
                        // Buffered until our own estimate of the child
                        // exists.
                        Control::ClockPong {
                            t0_us,
                            t1_us,
                            t2_us,
                        } => self.on_clock_pong(i as usize, t0_us, t1_us, t2_us),
                        Control::ClockInfo {
                            ranks,
                            offsets_us,
                            rtts_us,
                        } => self.on_clock_info(i as usize, ranks, offsets_us, rtts_us),
                        other => {
                            return Err(MrnetError::Protocol(format!(
                                "unexpected control during setup: {other:?}"
                            )))
                        }
                    },
                    Frame::Data(_) | Frame::Traced(..) => {
                        return Err(MrnetError::Protocol(
                            "data frame before instantiation finished".into(),
                        ))
                    }
                },
                Ok(Inbound::ChildData(..)) => {
                    return Err(MrnetError::Protocol(
                        "data frame before instantiation finished".into(),
                    ))
                }
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
            }
        }
        for endpoints in reported.into_iter().map(Option::unwrap) {
            self.routes.add_child(endpoints);
        }
        let all = self.routes.all_endpoints();
        if self.parent.is_some() {
            self.send_parent(Control::SubtreeReport { endpoints: all }.to_frame())?;
        } else if let Some(tx) = self.ready_tx.take() {
            let _ = tx.send(all);
        }
        Ok(())
    }

    /// Folds the transport connections' send-pipeline counters (queue
    /// depth behind the writer threads, coalesced frames, enqueue
    /// stalls) into the node's gauges, so snapshots expose them — in
    /// aggregate, plus per child connection keyed by the child's rank
    /// so a snapshot can name which subtree is backed up.
    fn refresh_send_metrics(&self) {
        let (mut depth, mut coalesced, mut stalls) = (0u64, 0u64, 0u64);
        if let Some(p) = &self.parent {
            let s = p.stats();
            depth += s.queue_depth;
            coalesced += s.frames_coalesced;
            stalls += s.enqueue_stalls;
        }
        for (i, c) in self.children.iter().enumerate() {
            if !self.child_alive[i] {
                continue;
            }
            let s = c.stats();
            depth += s.queue_depth;
            coalesced += s.frames_coalesced;
            stalls += s.enqueue_stalls;
            if let Some(&rank) = self.child_ranks.get(i) {
                self.metrics.set_conn_send_stats(
                    rank,
                    ConnSendStats {
                        queue_depth: s.queue_depth,
                        coalesced: s.frames_coalesced,
                        stalls: s.enqueue_stalls,
                    },
                );
            }
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
            .chain(self.collects.values().map(|c| c.deadline))
            .fold(f64::INFINITY, f64::min)
    }

    /// Runs the event loop until shutdown, on the calling thread, which
    /// becomes the node's owner (see [`sched`]). Consumes the node.
    ///
    /// The node's turns (`Turns::turn`) run on the owner, or on the
    /// thread of another node whose turn made this one ready. The owner
    /// fires the node's timers and runs its shutdown cleanup.
    pub fn run(mut self) {
        self.start_clock_sync();
        let slot = self.slot.clone();
        slot.drive(Box::new(self));
    }

    /// Returns false when the loop should exit.
    fn dispatch(&mut self, msg: Inbound) -> bool {
        match msg {
            Inbound::Child(i, frame) => {
                let i = i as usize;
                if !self.child_alive[i] {
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

    /// Confirms child `child` dead: computes the lost subtree, prunes
    /// local state, and announces the failure through the tree.
    /// Idempotent — EOF, garbage, and a propagated report can all name
    /// the same child.
    fn handle_child_death(&mut self, child: usize) {
        self.child_alive[child] = false;
        self.forget_collect_child(child);
        self.child_trace_outbox[child].clear();
        self.clock_sync[child].buffered.clear();
        if self.child_death_reported[child] {
            return;
        }
        self.child_death_reported[child] = true;
        self.metrics.peer_deaths.inc();
        // Everything only reachable through this child dies with it,
        // minus ranks already declared dead by earlier reports.
        let lost: Vec<Rank> = if child < self.routes.num_children() {
            self.routes
                .reachable_via(child)
                .into_iter()
                .filter(|r| !self.known_dead.contains(r))
                .collect()
        } else {
            Vec::new()
        };
        let failed_rank = self
            .child_ranks
            .get(child)
            .copied()
            .unwrap_or_else(|| lost.first().copied().unwrap_or(self.rank));
        self.on_ranks_failed(failed_rank, lost, FailureOrigin::Child(child));
    }

    /// Applies a confirmed failure everywhere it matters at this node:
    /// routing shrinks, every stream prunes its membership (forwarding
    /// waves the shrinkage released), and the report is forwarded to
    /// every neighbor except the one it came from. At the root the
    /// report lands in the failure ledger as a tool-visible event.
    fn on_ranks_failed(&mut self, failed_rank: Rank, subtree: Vec<Rank>, origin: FailureOrigin) {
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
            let before = self
                .managers
                .get(&sid)
                .map_or(0, |m| m.live_endpoints().len());
            let (waves, all_dead) = self.managers.get_mut(&sid).unwrap().prune(&fresh, now);
            let shrank = self
                .managers
                .get(&sid)
                .map_or(0, |m| m.live_endpoints().len())
                < before;
            if shrank {
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
        self.forward_failure_report(failed_rank, &fresh, origin);
    }

    /// Sends a `RankFailed` report everywhere except whence it came;
    /// at the root it lands in the failure ledger instead of a parent.
    fn forward_failure_report(&mut self, failed_rank: Rank, fresh: &[Rank], origin: FailureOrigin) {
        let report = Control::RankFailed {
            rank: failed_rank,
            subtree: fresh.to_vec(),
        }
        .to_frame();
        match origin {
            FailureOrigin::Child(from) => {
                if self.parent.is_some() {
                    let _ = self.send_parent(report.clone());
                } else {
                    // Root: the event trails the waves delivered before
                    // it, as a report sent upstream trails the batcher.
                    self.flush_deliveries();
                    if let Some(ledger) = &self.ledger {
                        self.metrics.events_delivered.inc();
                        ledger.report(failed_rank, fresh.to_vec());
                    }
                }
                for i in 0..self.children.len() {
                    if i != from && self.child_alive[i] {
                        let _ = self.send_child(i, report.clone());
                    }
                }
            }
            FailureOrigin::Parent => {
                for i in 0..self.children.len() {
                    if self.child_alive[i] {
                        let _ = self.send_child(i, report.clone());
                    }
                }
            }
        }
    }

    /// Fires the first clock ping at every child. Runs once, as the
    /// event loop starts (the whole subtree is in its loop by then —
    /// setup completes bottom-up). The rest of the handshake is driven
    /// by the pong handlers, one exchange at a time.
    fn start_clock_sync(&mut self) {
        for child in 0..self.children.len() {
            if self.child_alive[child] {
                self.send_clock_ping(child);
            }
        }
    }

    fn send_clock_ping(&mut self, child: usize) {
        let ping = Control::ClockPing {
            t0_us: tracectx::wall_us(),
        }
        .to_frame();
        // A failed send just ends the handshake (the child's offset
        // stays unresolved, defaulting to zero skew). Declaring the
        // child dead here would jump ahead of its already-queued
        // inbound frames — death is only ever declared in frame order,
        // by EOF or garbage.
        let _ = self.send_child(child, ping);
    }

    /// One ping exchange completed: fold the estimate in (minimum RTT
    /// wins), then either ping again or resolve the child's clock.
    fn on_clock_pong(&mut self, child: usize, t0_us: u64, t1_us: u64, t2_us: u64) {
        let t3_us = tracectx::wall_us();
        let est = ClockEstimate::from_ping(t0_us, t1_us, t2_us, t3_us);
        let sync = &mut self.clock_sync[child];
        if sync.resolved {
            return; // Stray duplicate pong.
        }
        if sync.best.is_none_or(|best| est.better_than(&best)) {
            sync.best = Some(est);
        }
        sync.exchanged += 1;
        if sync.exchanged < CLOCK_PINGS {
            self.send_clock_ping(child);
        } else {
            self.resolve_child_clock(child);
        }
    }

    /// Finalizes a child's estimate: apply it (and any buffered
    /// subtree entries, chained through it) at the root, or relay the
    /// lot upstream.
    fn resolve_child_clock(&mut self, child: usize) {
        let Some(est) = self.clock_sync[child].best else {
            return;
        };
        let Some(&rank) = self.child_ranks.get(child) else {
            return;
        };
        self.clock_sync[child].resolved = true;
        let buffered = std::mem::take(&mut self.clock_sync[child].buffered);
        let mut entries = vec![(rank, est.offset_us, est.rtt_us)];
        entries.extend(buffered.into_iter().map(|(r, offset_us, rtt_us)| {
            let chained = est.chain(&ClockEstimate { offset_us, rtt_us });
            (r, chained.offset_us, chained.rtt_us)
        }));
        self.apply_clock_entries(entries);
    }

    /// A subtree clock table arrived from `child`. Its offsets are
    /// relative to the child's clock; chain them through our estimate
    /// of the child before applying — or buffer them until that
    /// estimate exists.
    fn on_clock_info(&mut self, child: usize, ranks: Vec<Rank>, offsets: Vec<i64>, rtts: Vec<u64>) {
        let sync = &mut self.clock_sync[child];
        let items = ranks.into_iter().zip(offsets).zip(rtts);
        if !sync.resolved {
            sync.buffered
                .extend(items.map(|((r, off), rtt)| (r, off, rtt)));
            return;
        }
        let est = sync.best.unwrap_or_default();
        let entries: Vec<(Rank, i64, u64)> = items
            .map(|((r, offset_us), rtt_us)| {
                let chained = est.chain(&ClockEstimate { offset_us, rtt_us });
                (r, chained.offset_us, chained.rtt_us)
            })
            .collect();
        self.apply_clock_entries(entries);
    }

    /// Entries are relative to *this* node's clock: feed the root's
    /// assembler directly, or relay them upstream for further
    /// chaining.
    fn apply_clock_entries(&mut self, entries: Vec<(Rank, i64, u64)>) {
        if entries.is_empty() {
            return;
        }
        if let Some(assembler) = &self.assembler {
            for (rank, offset_us, rtt_us) in entries {
                assembler.set_clock(rank, offset_us, rtt_us);
            }
        } else if self.parent.is_some() {
            let mut ranks = Vec::with_capacity(entries.len());
            let mut offsets_us = Vec::with_capacity(entries.len());
            let mut rtts_us = Vec::with_capacity(entries.len());
            for (r, off, rtt) in entries {
                ranks.push(r);
                offsets_us.push(off);
                rtts_us.push(rtt);
            }
            let _ = self.send_parent(
                Control::ClockInfo {
                    ranks,
                    offsets_us,
                    rtts_us,
                }
                .to_frame(),
            );
        }
    }

    fn poll_timeouts(&mut self) {
        let now = self.now();
        self.expire_collects(now);
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

    fn on_child_frame(&mut self, child: usize, frame: Bytes) -> Result<()> {
        match decode_frame(frame)? {
            Frame::Data(packets) => self.on_child_packets(child, packets)?,
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
                self.on_child_packets(child, packets)?;
            }
            Frame::Control(pkt) => match Control::from_packet(&pkt)? {
                // Late subtree reports / attaches are instantiation
                // artifacts; ignore outside setup.
                Control::SubtreeReport { .. }
                | Control::Attach { .. }
                | Control::AttachInfo { .. } => {}
                Control::RankFailed { rank, subtree } => {
                    // A descendant deeper in this child's subtree died;
                    // the child itself is alive (it told us).
                    self.on_ranks_failed(rank, subtree, FailureOrigin::Child(child));
                }
                Control::ClockPong {
                    t0_us,
                    t1_us,
                    t2_us,
                } => self.on_clock_pong(child, t0_us, t1_us, t2_us),
                Control::ClockInfo {
                    ranks,
                    offsets_us,
                    rtts_us,
                } => self.on_clock_info(child, ranks, offsets_us, rtts_us),
                other => {
                    return Err(MrnetError::Protocol(format!(
                        "unexpected upstream control: {other:?}"
                    )))
                }
            },
        }
        Ok(())
    }

    /// Synchronizes and transforms one frame's packets, then forwards
    /// everything the frame released as one wave. A relay stream (see
    /// [`StreamManager::is_relay`]) passes each packet straight
    /// through; the clock is read only if some other stream needs it.
    /// On a child-attributable error the packets released before it
    /// still forward.
    fn on_child_packets(&mut self, child: usize, packets: Vec<Packet>) -> Result<()> {
        let epoch = self.epoch;
        let mut now = None;
        let mut ready = Vec::with_capacity(packets.len());
        let mut result = Ok(());
        for packet in packets {
            let sid = packet.stream_id();
            if sid == METRICS_STREAM {
                // Introspection traffic: handled here, never routed or
                // counted. What the frame released before it forwards
                // first, so a report sent upstream trails it.
                self.forward_up_wave(std::mem::take(&mut ready));
                self.on_introspect_up(child, &packet);
                continue;
            }
            self.metrics.up_pkts_recv.inc();
            // Stream unknown (deleted or never created): drop, as the
            // original does for stale data.
            let Some(mgr) = self.managers.get_mut(&sid) else {
                continue;
            };
            if mgr.is_relay() {
                match mgr.relay_up(child, packet) {
                    Ok(p) => ready.push(p),
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
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
        if let Some(assembler) = &self.assembler {
            match introspect::decode_trace_report(packet) {
                Ok(env) => {
                    assembler.ingest(&env, TraceDir::Down);
                }
                Err(_) => log_warn!(self.rank, "dropping malformed trace report"),
            }
        } else {
            let _ = self.send_parent(encode_data_frame(std::slice::from_ref(packet)));
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
            if let Some(assembler) = &self.assembler {
                // Root: the wave terminates here.
                let now = tracectx::wall_us();
                for (mut env, recv_us) in pending {
                    env.add_hop(self.rank, recv_us, now);
                    self.metrics.trace_hops.inc();
                    assembler.ingest(&env, TraceDir::Up);
                }
            } else if self.parent.is_some() {
                for item in pending {
                    if self.parent_trace_outbox.len() < TRACE_OUTBOX_CAP {
                        self.parent_trace_outbox.push(item);
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
        for p in &packets {
            if p.is_lazy() {
                // The fast path: this packet moves on (or is
                // delivered) as the exact bytes it arrived in.
                self.metrics.pkts_lazy_relayed.inc();
            }
        }
        if self.delivery.is_some() {
            // Root: "sent" upstream means delivered to user threads;
            // account the bytes here since no wire carries them. The
            // packets reach the mailbox when the batch flushes.
            let bytes: usize = packets.iter().map(Packet::encoded_size_hint).sum();
            self.metrics.local_up_bytes.add(bytes as u64);
            self.deliveries.extend(packets);
        } else {
            for p in packets {
                self.parent_batcher.push(p);
                if self.parent_batcher.should_flush() {
                    self.flush_parent();
                }
            }
        }
    }

    /// Returns false when the loop should exit (shutdown received).
    fn on_parent_frame(&mut self, frame: Bytes) -> Result<bool> {
        match decode_frame(frame)? {
            Frame::Data(packets) => {
                self.on_parent_packets(packets)?;
                Ok(true)
            }
            Frame::Traced(packets, envelopes) => {
                let recv_us = tracectx::wall_us();
                self.metrics.trace_frames.inc();
                // Spread the envelopes into child outboxes *before*
                // routing: a route-triggered flush then carries them on
                // the very frame their wave rides.
                for env in envelopes {
                    self.spread_down_envelope(env, recv_us);
                }
                self.on_parent_packets(packets)?;
                Ok(true)
            }
            Frame::Control(pkt) => {
                let control = Control::from_packet(&pkt)?;
                match &control {
                    Control::NewStream { .. } => {
                        let def =
                            StreamDef::from_control(&control).expect("NewStream parses to a def");
                        self.create_stream(def)?;
                        Ok(true)
                    }
                    Control::DeleteStream { stream_id } => {
                        self.delete_stream(*stream_id);
                        Ok(true)
                    }
                    Control::RankFailed { rank, subtree } => {
                        // A failure in a sibling subtree, relayed down.
                        self.on_ranks_failed(*rank, subtree.clone(), FailureOrigin::Parent);
                        Ok(true)
                    }
                    Control::ClockPing { t0_us } => {
                        let t1_us = tracectx::wall_us();
                        let _ = self.send_parent(
                            Control::ClockPong {
                                t0_us: *t0_us,
                                t1_us,
                                t2_us: tracectx::wall_us(),
                            }
                            .to_frame(),
                        );
                        Ok(true)
                    }
                    Control::Shutdown => Ok(false),
                    other => Err(MrnetError::Protocol(format!(
                        "unexpected downstream control: {other:?}"
                    ))),
                }
            }
        }
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
        for &child in mgr.live_route() {
            if self.child_alive[child] && self.child_trace_outbox[child].len() < TRACE_OUTBOX_CAP {
                self.child_trace_outbox[child].push((env.clone(), recv_us));
            }
        }
    }

    fn on_command(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::NewStream(def) => {
                if let Err(e) = self.create_stream(*def) {
                    log_error!(self.rank, "stream creation error: {e}");
                }
                true
            }
            Command::SendDown(packet) => {
                // A sampled down-wave originates here: spread an
                // empty-hops envelope into the route's child outboxes
                // before routing so it rides the same flushed frame.
                // The root's own hop is stamped at flush time.
                if self.sampler.sample() {
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
                true
            }
            Command::DeleteStream(sid) => {
                self.delete_stream(sid);
                true
            }
            Command::CollectMetrics {
                req_id,
                timeout_secs,
                reply,
            } => {
                self.start_collect(req_id, timeout_secs, Some(reply));
                true
            }
            Command::Shutdown => false,
        }
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
        for &child in mgr.participants() {
            if self.child_alive[child] {
                let _ = self.send_child(child, frame.clone());
            }
        }
        self.managers.insert(mgr.def().id, mgr);
        Ok(())
    }

    fn delete_stream(&mut self, sid: StreamId) {
        if let Some(mgr) = self.managers.remove(&sid) {
            let frame = Control::DeleteStream { stream_id: sid }.to_frame();
            for &child in mgr.participants() {
                if self.child_alive[child] {
                    let _ = self.send_child(child, frame.clone());
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
            for &child in mgr.live_route() {
                if self.child_alive[child] {
                    self.metrics.down_pkts_sent.inc();
                    self.child_batchers[child].push(out.clone());
                    flush |= self.child_batchers[child].should_flush();
                }
            }
            // Flush only after every route member holds the packet:
            // children whose batches filled identically flush in the
            // same wave and share one encoded frame. A batch is flushed
            // as soon as it fills, so the full ones are on this route.
            if flush {
                for child in 0..self.children.len() {
                    if self.child_alive[child] && self.child_batchers[child].should_flush() {
                        self.flush_child(child);
                    }
                }
            }
        }
        Ok(())
    }

    /// Sends child `child` its pending batch. A failed send is ignored:
    /// the child's `ChildClosed`, which trails the frames it sent
    /// first, declares its death.
    fn flush_child(&mut self, child: usize) {
        let packets = self.child_batchers[child].drain();
        if !self.child_alive[child] {
            self.child_trace_outbox[child].clear();
            return;
        }
        if !self.child_trace_outbox[child].is_empty() {
            // Traced flush: stamp this node's hop (arrival stamp kept
            // from ingest, departure stamped now) onto every pending
            // envelope and ship them as the frame's trailer. Traced
            // frames differ per child, so they never enter the
            // encode-once sharing path below.
            let now = tracectx::wall_us();
            let mut envs = Vec::with_capacity(self.child_trace_outbox[child].len());
            for (mut env, recv_us) in self.child_trace_outbox[child].drain(..) {
                env.add_hop(self.rank, recv_us, now);
                envs.push(env);
            }
            self.metrics.trace_hops.add(envs.len() as u64);
            self.metrics.trace_frames.inc();
            if !packets.is_empty() {
                self.metrics.batch_pkts.record_us(packets.len() as u64);
            }
            let frame = encode_traced_data_frame(&packets, &envs);
            self.metrics.frames_encoded.inc();
            let _ = self.children[child].send(frame);
            return;
        }
        if packets.is_empty() {
            return;
        }
        self.metrics.batch_pkts.record_us(packets.len() as u64);
        let frame = encode_data_frame(&packets);
        self.metrics.frames_encoded.inc();
        let _ = self.children[child].send(frame.clone());
        // Encode-once multicast: a sibling whose pending batch holds
        // these exact packet handles would produce a byte-identical
        // frame — hand it this one (a refcount bump) instead of
        // re-encoding. Divergent batches keep their own flush cycle.
        // A sibling with pending trace envelopes is excluded: its frame
        // must carry its own trailer.
        for sib in 0..self.children.len() {
            if sib == child
                || !self.child_alive[sib]
                || !self.child_trace_outbox[sib].is_empty()
                || !self.child_batchers[sib].pending_matches(&packets)
            {
                continue;
            }
            self.child_batchers[sib].drain();
            self.metrics.batch_pkts.record_us(packets.len() as u64);
            self.metrics.frames_shared.inc();
            let _ = self.children[sib].send(frame.clone());
        }
    }

    fn flush_parent(&mut self) {
        let packets = self.parent_batcher.drain();
        let Some(parent) = &self.parent else {
            self.parent_trace_outbox.clear();
            return;
        };
        if !self.parent_trace_outbox.is_empty() {
            let now = tracectx::wall_us();
            let mut envs = Vec::with_capacity(self.parent_trace_outbox.len());
            for (mut env, recv_us) in self.parent_trace_outbox.drain(..) {
                env.add_hop(self.rank, recv_us, now);
                envs.push(env);
            }
            self.metrics.trace_hops.add(envs.len() as u64);
            self.metrics.trace_frames.inc();
            if !packets.is_empty() {
                self.metrics.batch_pkts.record_us(packets.len() as u64);
            }
            let frame = encode_traced_data_frame(&packets, &envs);
            self.metrics.frames_encoded.inc();
            let _ = parent.send(frame);
            return;
        }
        if packets.is_empty() {
            return;
        }
        self.metrics.batch_pkts.record_us(packets.len() as u64);
        let frame = encode_data_frame(&packets);
        self.metrics.frames_encoded.inc();
        let _ = parent.send(frame);
    }

    /// Whether child `child` has packets or trace envelopes waiting
    /// for a flush.
    fn child_pending(&self, child: usize) -> bool {
        !self.child_batchers[child].is_empty() || !self.child_trace_outbox[child].is_empty()
    }

    /// Whether the parent has packets or trace envelopes waiting for a
    /// flush.
    fn parent_pending(&self) -> bool {
        !self.parent_batcher.is_empty() || !self.parent_trace_outbox.is_empty()
    }

    fn flush_all(&mut self) {
        for i in 0..self.children.len() {
            if self.child_pending(i) {
                self.flush_child(i);
            }
        }
        if self.parent_pending() {
            self.flush_parent();
        }
        self.flush_deliveries();
    }

    /// Root only: hands the packets delivered so far in this batch to
    /// the mailbox, under one lock and at most one wake-up. Besides
    /// `flush_all`, this runs before anything else the front-end can
    /// observe (a stream failure, a ledger event, a metrics snapshot,
    /// the close), so nothing overtakes a wave delivered before it.
    fn flush_deliveries(&mut self) {
        if self.deliveries.is_empty() {
            return;
        }
        if let Some(delivery) = &self.delivery {
            delivery.push_many(self.deliveries.drain(..));
        }
    }

    /// Root only: marks `sid` as having lost every end-point, after
    /// the waves already delivered on it.
    fn fail_stream(&mut self, sid: StreamId) {
        self.flush_deliveries();
        if let Some(delivery) = &self.delivery {
            delivery.fail_stream(sid);
        }
    }

    /// Sends a frame that bypasses the batcher (control, introspection)
    /// to child `child`. Whatever is batched for that child is flushed
    /// first: the loop flushes once per inbox batch, and a frame sent
    /// around the batcher must never overtake packets the loop handled
    /// before it — a `DeleteStream` ahead of the stream's last data
    /// would make the child drop that data.
    fn send_child(&mut self, child: usize, frame: Bytes) -> transport::Result<()> {
        if self.child_pending(child) {
            self.flush_child(child);
        }
        self.children[child].send(frame)
    }

    /// [`NodeLoop::send_child`]'s upstream twin: flushes the parent's
    /// batcher and trace outbox, then sends `frame`, so a report never
    /// overtakes a wave still waiting in the batcher. No-op at the
    /// root.
    fn send_parent(&mut self, frame: Bytes) -> transport::Result<()> {
        if self.parent_pending() {
            self.flush_parent();
        }
        match &self.parent {
            Some(parent) => parent.send(frame),
            None => Ok(()),
        }
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
            if !self.child_alive[i] {
                continue;
            }
            // A child whose request send failed is not waited for; its
            // `ChildClosed` declares it dead in frame order.
            if self.send_child(i, frame.clone()).is_ok() {
                outstanding.push(i);
            }
        }
        self.refresh_send_metrics();
        self.collects.insert(
            req_id,
            MetricsCollect {
                sections: vec![self.metrics.snapshot(self.rank)],
                outstanding,
                deadline: self.now() + timeout,
                reply,
            },
        );
        self.finish_if_complete(req_id);
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
    /// Replies for unknown request ids (stragglers past the deadline)
    /// are dropped.
    fn on_metrics_reply(&mut self, child: usize, packet: &Packet) {
        if packet.tag() != METRICS_REPLY {
            return;
        }
        let Ok((req_id, sections)) = introspect::decode_reply(packet) else {
            log_warn!(self.rank, "dropping malformed metrics reply");
            return;
        };
        let Some(collect) = self.collects.get_mut(&req_id) else {
            return;
        };
        collect.outstanding.retain(|&i| i != child);
        collect.sections.extend(sections);
        self.finish_if_complete(req_id);
    }

    fn finish_if_complete(&mut self, req_id: u32) {
        let done = self
            .collects
            .get(&req_id)
            .is_some_and(|c| c.outstanding.is_empty());
        if done {
            if let Some(collect) = self.collects.remove(&req_id) {
                self.finish_collect(req_id, collect);
            }
        }
    }

    /// Delivers a finished (or expired) collection: to the front-end
    /// channel at the root, upstream as a reply packet elsewhere.
    fn finish_collect(&mut self, req_id: u32, collect: MetricsCollect) {
        match collect.reply {
            Some(tx) => {
                // The snapshot counts what was delivered; let the
                // mailbox hold it first.
                self.flush_deliveries();
                let _ = tx.send(introspect::snapshot_from_sections(collect.sections));
            }
            None => {
                if self.parent.is_some() {
                    let reply = introspect::encode_reply(req_id, &collect.sections);
                    let _ = self.send_parent(encode_data_frame(std::slice::from_ref(&reply)));
                }
            }
        }
    }

    /// A child died: stop waiting for its reply in every in-flight
    /// collection.
    fn forget_collect_child(&mut self, child: usize) {
        if self.collects.is_empty() {
            return;
        }
        let ids: Vec<u32> = self.collects.keys().copied().collect();
        for req_id in ids {
            if let Some(collect) = self.collects.get_mut(&req_id) {
                collect.outstanding.retain(|&i| i != child);
            }
            self.finish_if_complete(req_id);
        }
    }

    /// Completes any collection whose deadline has passed with the
    /// sections gathered so far.
    fn expire_collects(&mut self, now: f64) {
        if self.collects.is_empty() {
            return;
        }
        let expired: Vec<u32> = self
            .collects
            .iter()
            .filter(|(_, c)| now >= c.deadline)
            .map(|(&id, _)| id)
            .collect();
        for req_id in expired {
            if let Some(collect) = self.collects.remove(&req_id) {
                log_warn!(
                    self.rank,
                    "metrics collection {req_id} timed out with {} children outstanding",
                    collect.outstanding.len()
                );
                self.finish_collect(req_id, collect);
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
            if self.child_alive[i] {
                let _ = self.send_child(i, frame.clone());
            }
        }
        self.flush_deliveries();
        if let Some(d) = &self.delivery {
            d.close();
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
