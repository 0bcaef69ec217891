//! Network instantiation (§2.5).
//!
//! Two modes, as in the paper:
//!
//! * **Mode 1** ([`NetworkBuilder::launch`]): MRNet creates the whole
//!   tree — internal processes *and* back-ends. Each parent creates its
//!   children (sequentially per parent, concurrently across branches),
//!   every new process connects back to its creator, and once a
//!   subtree is established its root reports the end-points reachable
//!   through it.
//! * **Mode 2** ([`NetworkBuilder::launch_internal`]): MRNet creates
//!   only the internal tree; tool back-ends are created externally (in
//!   the paper, by a job manager such as IBM POE) and attach to leaf
//!   processes using published rendezvous information.
//!
//! In this reproduction a "process" is a thread; the remote-creation
//! cost model lives in [`crate::simulate`]. Frames travel over
//! in-process channels or real TCP sockets, selected by
//! [`WireTransport`].

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mrnet_filters::FilterRegistry;
use mrnet_obs::{log_error, TraceAssembler};
use mrnet_packet::Rank;
use mrnet_topology::{Role, Topology};
use mrnet_transport::chan::{bounded, unbounded, Receiver};
use mrnet_transport::{
    Listener, LocalConnection, LocalFabric, RetryPolicy, SharedConnection, TcpTransportListener,
};

use crate::backend::Backend;
use crate::delivery::Delivery;
use crate::error::{MrnetError, Result};
use crate::event::FailureLedger;
use crate::internal::process::{FrontEnd, Inbound, Link, NodeLoop, Upstream};
use crate::internal::sched::Inbox;
use crate::network::Network;
use crate::proto::{decode_frame, Control, Frame};

/// Which wire carries frames between the thread-processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireTransport {
    /// In-process channels (fastest; the default).
    #[default]
    Channels,
    /// Real TCP sockets on localhost, exercising the full framing
    /// stack.
    Tcp,
}

/// A fully instantiated mode-1 network: the front-end handle plus the
/// back-end handles (in topology BFS leaf order).
pub struct Deployment {
    /// The front-end's network handle.
    pub network: Network,
    /// Back-end handles, one per leaf, in topology BFS order.
    pub backends: Vec<Backend>,
}

/// Where a mode-2 back-end should attach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttachPoint {
    /// The back-end rank this slot expects.
    pub rank: Rank,
    /// Rendezvous endpoint: a fabric name ([`WireTransport::Channels`])
    /// or a `host:port` address ([`WireTransport::Tcp`]).
    pub endpoint: String,
}

/// A mode-2 network whose internal tree is up but whose back-ends have
/// not all attached yet.
pub struct PendingNetwork {
    ready_rx: Receiver<Vec<Rank>>,
    cmd_tx: Inbox<Inbound>,
    delivery: Arc<Delivery>,
    registry: FilterRegistry,
    ledger: Arc<FailureLedger>,
    assembler: Arc<TraceAssembler>,
    joins: Vec<JoinHandle<()>>,
    attach_points: Vec<AttachPoint>,
    fabric: LocalFabric,
    /// OS pids of the commnode processes spawned directly by the
    /// front-end ([`launch_processes`] deployments only), for tools and
    /// tests that exercise failure injection.
    commnode_pids: Vec<u32>,
    /// Rendezvous advertisements harvested from the tree during
    /// process instantiation ([`launch_processes`]); thread-based
    /// instantiation fills `attach_points` statically instead.
    attach_rx: Option<Receiver<(Rank, String)>>,
    expected_backends: usize,
}

impl PendingNetwork {
    /// The rendezvous points back-ends must attach to, in topology BFS
    /// leaf order (the paper's "leaf processes' host names and
    /// connection port numbers"). Empty for [`launch_processes`]
    /// deployments, whose advertisements arrive dynamically — use
    /// [`PendingNetwork::collect_attach_points`] there.
    pub fn attach_points(&self) -> &[AttachPoint] {
        &self.attach_points
    }

    /// Waits until every back-end slot's rendezvous advertisement has
    /// flowed up from the (still-instantiating) tree, then returns all
    /// attach points sorted by rank. Works for both instantiation
    /// styles.
    pub fn collect_attach_points(&self, timeout: Duration) -> Result<Vec<AttachPoint>> {
        let mut points: Vec<AttachPoint> = self.attach_points.clone();
        if let Some(rx) = &self.attach_rx {
            // A deadline past what `Instant` can hold is no deadline.
            let deadline = std::time::Instant::now().checked_add(timeout);
            while points.len() < self.expected_backends {
                let left = deadline.map_or(Duration::MAX, |d| {
                    d.saturating_duration_since(std::time::Instant::now())
                });
                if left.is_zero() {
                    return Err(MrnetError::Instantiation(format!(
                        "only {} of {} attach points advertised before timeout",
                        points.len(),
                        self.expected_backends
                    )));
                }
                match rx.recv_timeout(left) {
                    Ok((rank, endpoint)) => points.push(AttachPoint { rank, endpoint }),
                    Err(_) => {
                        return Err(MrnetError::Instantiation(
                            "attach-point channel closed during instantiation".into(),
                        ))
                    }
                }
            }
        }
        points.sort_by_key(|p| p.rank);
        Ok(points)
    }

    /// Incremental rendezvous advertisements for [`launch_processes`]
    /// deployments. In topologies where an internal process has both
    /// internal children and directly attached back-ends, later
    /// advertisements can only flow once earlier back-ends have
    /// attached — consume this stream and attach back-ends as their
    /// points appear instead of calling
    /// [`PendingNetwork::collect_attach_points`]. Use one or the
    /// other: both drain the same channel.
    pub fn attach_events(&self) -> Option<Receiver<(Rank, String)>> {
        self.attach_rx.clone()
    }

    /// The in-process rendezvous fabric (mode-2 channels transport).
    pub fn fabric(&self) -> &LocalFabric {
        &self.fabric
    }

    /// OS pids of the commnode processes the front-end spawned
    /// directly ([`launch_processes`] deployments; empty otherwise).
    /// Deeper commnodes are spawned by their own parents and are not
    /// listed. Intended for failure-injection tests and supervisors.
    pub fn commnode_pids(&self) -> &[u32] {
        &self.commnode_pids
    }

    /// Waits until every back-end has attached and subtree reports have
    /// propagated, then returns the operational network.
    pub fn wait(self, timeout: Duration) -> Result<Network> {
        let endpoints = self
            .ready_rx
            .recv_timeout(timeout)
            .map_err(|_| MrnetError::Instantiation("timed out waiting for back-ends".into()))?;
        Ok(Network::from_parts(
            self.cmd_tx,
            self.delivery,
            endpoints,
            self.registry,
            self.ledger,
            self.assembler,
            self.joins,
        ))
    }
}

/// One side of an edge handed to a node thread.
enum ChildSlot {
    /// Connection already established (mode 1).
    Ready(SharedConnection),
    /// Wait for a back-end to attach (mode 2); carries the expected
    /// rank and the listener.
    Accept(Rank, Box<dyn Listener>),
}

/// What `launch_inner` produced.
enum Launched {
    Full(Deployment),
    Pending(PendingNetwork),
}

/// Builds and launches MRNet networks from a topology.
pub struct NetworkBuilder {
    topology: Topology,
    registry: FilterRegistry,
    transport: WireTransport,
    ready_timeout: Duration,
}

impl NetworkBuilder {
    /// Starts a builder over `topology` with the built-in filter set
    /// and channel transport.
    pub fn new(topology: Topology) -> NetworkBuilder {
        NetworkBuilder {
            topology,
            registry: FilterRegistry::with_builtins(),
            transport: WireTransport::Channels,
            ready_timeout: Duration::from_secs(60),
        }
    }

    /// Uses a custom filter registry (it is shared with every process
    /// in the tree, mirroring a shared object visible on all hosts).
    pub fn registry(mut self, registry: FilterRegistry) -> NetworkBuilder {
        self.registry = registry;
        self
    }

    /// Selects the wire transport.
    pub fn transport(mut self, transport: WireTransport) -> NetworkBuilder {
        self.transport = transport;
        self
    }

    /// Overrides the instantiation timeout.
    pub fn ready_timeout(mut self, timeout: Duration) -> NetworkBuilder {
        self.ready_timeout = timeout;
        self
    }

    /// Mode-1 instantiation: create every process in the tree and
    /// return the front-end plus all back-end handles.
    pub fn launch(self) -> Result<Deployment> {
        match self.launch_inner(false)? {
            Launched::Full(d) => Ok(d),
            Launched::Pending(_) => unreachable!("mode 1 yields a full deployment"),
        }
    }

    /// Mode-2 instantiation: create only the internal tree; leaves of
    /// the topology become attach points for externally created
    /// back-ends.
    pub fn launch_internal(self) -> Result<PendingNetwork> {
        match self.launch_inner(true)? {
            Launched::Pending(p) => Ok(p),
            Launched::Full(_) => unreachable!("mode 2 yields a pending network"),
        }
    }

    fn make_edge(
        &self,
        parent_label: &str,
        child_label: &str,
    ) -> Result<(SharedConnection, SharedConnection)> {
        match self.transport {
            WireTransport::Channels => {
                let (p, c) = LocalConnection::pair(parent_label, child_label);
                Ok((Arc::new(p), Arc::new(c)))
            }
            WireTransport::Tcp => {
                let listener =
                    TcpTransportListener::bind("127.0.0.1:0").map_err(MrnetError::Transport)?;
                let addr = listener.addr();
                // Backoff-retried connect: tolerates the transient
                // refusals of a loaded host mid-instantiation.
                let (child, _retries) = RetryPolicy::from_env()
                    .connect(&addr)
                    .map_err(MrnetError::Transport)?;
                let parent = listener.accept().map_err(MrnetError::Transport)?;
                Ok((Arc::from(parent), Arc::new(child) as SharedConnection))
            }
        }
    }

    fn launch_inner(self, attach_mode: bool) -> Result<Launched> {
        let topo = &self.topology;
        if topo.num_backends() == 0 {
            return Err(MrnetError::Instantiation(
                "topology has no back-ends".into(),
            ));
        }
        let fabric = LocalFabric::new();
        let n = topo.len();
        let mut parent_side: Vec<Option<SharedConnection>> = (0..n).map(|_| None).collect();
        let mut child_side: Vec<Option<SharedConnection>> = (0..n).map(|_| None).collect();
        let mut leaf_listener: Vec<Option<Box<dyn Listener>>> = (0..n).map(|_| None).collect();
        let mut attach_points = Vec::new();

        for id in topo.bfs() {
            for &child in topo.children(id) {
                let is_backend = topo.role(child) == Role::BackEnd;
                if attach_mode && is_backend {
                    let rank = child.0 as Rank;
                    let (listener, endpoint): (Box<dyn Listener>, String) = match self.transport {
                        WireTransport::Channels => {
                            let name = format!("mrnet-be-{rank}");
                            (Box::new(fabric.listen(&name)), name)
                        }
                        WireTransport::Tcp => {
                            let l = TcpTransportListener::bind("127.0.0.1:0")
                                .map_err(MrnetError::Transport)?;
                            let addr = l.addr();
                            (Box::new(l), addr)
                        }
                    };
                    leaf_listener[child.0] = Some(listener);
                    attach_points.push(AttachPoint { rank, endpoint });
                } else {
                    let (p, c) = self.make_edge(&topo.label(id), &topo.label(child))?;
                    parent_side[child.0] = Some(p);
                    child_side[child.0] = Some(c);
                }
            }
        }

        let mut joins = Vec::new();
        let delivery = Arc::new(Delivery::new());
        let ledger = Arc::new(FailureLedger::new());
        let assembler = Arc::new(TraceAssembler::new());
        let (ready_tx, ready_rx) = bounded(1);
        let root_inbox = NodeLoop::inbox();
        let cmd_tx = root_inbox.0.clone();

        for id in topo.bfs() {
            let role = topo.role(id);
            if role == Role::BackEnd {
                continue;
            }
            let rank = id.0 as Rank;
            let registry = self.registry.clone();
            let child_ranks: Vec<Rank> = topo.children(id).iter().map(|c| c.0 as Rank).collect();
            let (up, inbox, ready) = if role == Role::FrontEnd {
                // No commnode process runs here, so no rendezvous
                // advertisement ever arrives: `attach` has no receiver.
                let front_end = FrontEnd::new(
                    delivery.clone(),
                    unbounded().0,
                    ledger.clone(),
                    assembler.clone(),
                );
                let ready = Some(ready_tx.clone());
                (Upstream::FrontEnd(front_end), root_inbox.clone(), ready)
            } else {
                // This node's upward link is the child side of the
                // edge between it and its parent.
                let parent = child_side[id.0].take().expect("edge created");
                (Upstream::Parent(Link::new(parent)), NodeLoop::inbox(), None)
            };
            let mut slots: Vec<ChildSlot> = Vec::new();
            for &child in topo.children(id) {
                if let Some(listener) = leaf_listener[child.0].take() {
                    slots.push(ChildSlot::Accept(child.0 as Rank, listener));
                } else {
                    slots.push(ChildSlot::Ready(
                        parent_side[child.0].take().expect("edge created"),
                    ));
                }
            }
            let label = topo.label(id);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("mrnet-{label}"))
                    .spawn(move || {
                        let children = match resolve_slots(slots) {
                            Ok(c) => c,
                            Err(e) => {
                                log_error!(rank, "attach failed: {e}");
                                return;
                            }
                        };
                        let children = child_ranks.into_iter().zip(children).collect();
                        let mut node = NodeLoop::new(rank, registry, up, children, inbox);
                        match node.setup() {
                            Ok(endpoints) => {
                                if let Some(ready) = ready {
                                    let _ = ready.send(endpoints);
                                }
                            }
                            Err(e) => {
                                log_error!(rank, "setup failed: {e}");
                                return;
                            }
                        }
                        node.run();
                    })
                    .map_err(|e| MrnetError::Instantiation(e.to_string()))?,
            );
        }

        if attach_mode {
            return Ok(Launched::Pending(PendingNetwork {
                ready_rx,
                cmd_tx,
                delivery,
                registry: self.registry,
                ledger,
                assembler,
                joins,
                attach_points,
                fabric,
                commnode_pids: Vec::new(),
                attach_rx: None,
                expected_backends: 0,
            }));
        }

        // Mode 1: create the back-end handles (each announces itself
        // with a subtree report).
        let mut backends = Vec::new();
        for id in topo.bfs() {
            if topo.role(id) != Role::BackEnd {
                continue;
            }
            let conn = child_side[id.0].take().expect("edge created");
            backends.push(Backend::new(id.0 as Rank, conn)?);
        }

        let endpoints = ready_rx
            .recv_timeout(self.ready_timeout)
            .map_err(|_| MrnetError::Instantiation("instantiation timed out".into()))?;
        let network = Network::from_parts(
            cmd_tx,
            delivery,
            endpoints,
            self.registry,
            ledger,
            assembler,
            joins,
        );
        Ok(Launched::Full(Deployment { network, backends }))
    }
}

/// Resolves pending child slots: mode-2 slots block until their
/// back-end attaches and its `Attach` handshake is validated.
fn resolve_slots(slots: Vec<ChildSlot>) -> Result<Vec<SharedConnection>> {
    let mut conns = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            ChildSlot::Ready(c) => conns.push(c),
            ChildSlot::Accept(expected_rank, listener) => {
                let conn: SharedConnection =
                    Arc::from(listener.accept().map_err(MrnetError::Transport)?);
                let frame = conn.recv().map_err(MrnetError::Transport)?;
                match decode_frame(frame)? {
                    Frame::Control(pkt) => match Control::from_packet(&pkt)? {
                        Control::Attach { rank } if rank == expected_rank => {}
                        Control::Attach { rank } => {
                            return Err(MrnetError::Instantiation(format!(
                                "back-end rank {rank} attached to slot expecting {expected_rank}"
                            )))
                        }
                        other => {
                            return Err(MrnetError::Protocol(format!(
                                "expected Attach, got {other:?}"
                            )))
                        }
                    },
                    Frame::Data(_) | Frame::Traced(..) => {
                        return Err(MrnetError::Protocol(
                            "data frame before Attach handshake".into(),
                        ))
                    }
                }
                conns.push(conn);
            }
        }
    }
    Ok(conns)
}

/// Convenience: mode-1 instantiation over in-process channels with the
/// built-in filters — the common test/example path.
pub fn launch_local(topology: Topology) -> Result<Deployment> {
    NetworkBuilder::new(topology).launch()
}

/// Multi-process instantiation: internal nodes run as real
/// `mrnet_commnode` OS processes connected over TCP, created
/// recursively per §2.5 (each parent launches its children
/// sequentially; branches proceed concurrently in their own
/// processes). The front-end runs in the calling process; back-ends
/// attach afterwards with [`crate::Backend::attach_tcp`] at the points
/// returned by [`PendingNetwork::collect_attach_points`].
///
/// The commnode binary registers the built-in filter set; custom
/// filters require extending that binary (the analogue of installing a
/// filter shared object on every host).
pub fn launch_processes(
    topology: Topology,
    commnode_exe: &std::path::Path,
) -> Result<PendingNetwork> {
    launch_processes_with_registry(topology, commnode_exe, FilterRegistry::with_builtins())
}

/// [`launch_processes`] with a custom front-end filter registry. The
/// commnode binary must register the same filters (see
/// [`crate::commnode::run`]) — the analogue of installing the filter
/// shared object on every host.
pub fn launch_processes_with_registry(
    topology: Topology,
    commnode_exe: &std::path::Path,
    registry: FilterRegistry,
) -> Result<PendingNetwork> {
    use crate::procspawn::{accept_children, plan_children, spawn_internal_children};
    use crate::slice::SubtreeSlice;

    let expected_backends = topology.num_backends();
    if expected_backends == 0 {
        return Err(MrnetError::Instantiation(
            "topology has no back-ends".into(),
        ));
    }
    let delivery = Arc::new(Delivery::new());
    let ledger = Arc::new(FailureLedger::new());
    let assembler = Arc::new(TraceAssembler::new());
    let (ready_tx, ready_rx) = bounded(1);
    let (attach_tx, attach_rx) = unbounded();
    let root_inbox = NodeLoop::inbox();
    let cmd_tx = root_inbox.0.clone();

    let listener = TcpTransportListener::bind("127.0.0.1:0")?;
    let view = SubtreeSlice::of(&topology, topology.root()).view()?;
    let plan = plan_children(&view, &listener.addr());
    // Back-ends attached directly to the front-end rendezvous here.
    for (rank, endpoint) in plan.advertise.clone() {
        let _ = attach_tx.send((rank, endpoint));
    }
    let mut spawned = spawn_internal_children(&plan, commnode_exe, &listener.addr())?;
    let commnode_pids: Vec<u32> = spawned.iter().map(std::process::Child::id).collect();

    let reg = registry.clone();
    let deliv = delivery.clone();
    let root_ledger = ledger.clone();
    let root_assembler = assembler.clone();
    let root_join = std::thread::Builder::new()
        .name("mrnet-fe-root".to_owned())
        .spawn(move || {
            let children = match accept_children(&listener, &view, &plan) {
                Ok(c) => plan.order.iter().copied().zip(c).collect(),
                Err(e) => {
                    log_error!("fe", "child gather failed: {e}");
                    return;
                }
            };
            let front_end = FrontEnd::new(deliv, attach_tx, root_ledger, root_assembler);
            let up = Upstream::FrontEnd(front_end);
            let mut node = NodeLoop::new(0, reg, up, children, root_inbox);
            match node.setup() {
                Ok(endpoints) => {
                    let _ = ready_tx.send(endpoints);
                }
                Err(e) => {
                    log_error!("fe", "setup failed: {e}");
                    return;
                }
            }
            node.run();
            for child in &mut spawned {
                let _ = child.wait();
            }
        })
        .map_err(|e| MrnetError::Instantiation(e.to_string()))?;

    Ok(PendingNetwork {
        ready_rx,
        cmd_tx,
        delivery,
        registry,
        ledger,
        assembler,
        joins: vec![root_join],
        attach_points: Vec::new(),
        fabric: LocalFabric::new(),
        commnode_pids,
        attach_rx: Some(attach_rx),
        expected_backends,
    })
}
