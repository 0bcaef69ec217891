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
//! Every launch brings each internal node up the same way
//! (`bring_up`) and publishes its attach points on one channel
//! ([`PendingNetwork::collect_attach_points`]).
//!
//! In this reproduction a "process" is a thread; the remote-creation
//! cost model lives in [`crate::simulate`]. Frames travel over
//! in-process channels or real TCP sockets, selected by
//! [`WireTransport`].

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mrnet_filters::FilterRegistry;
use mrnet_obs::{log_error, NodeMetrics, TraceAssembler};
use mrnet_packet::Rank;
use mrnet_topology::{NodeId, Role, Topology};
use mrnet_transport::chan::{bounded, unbounded, Receiver, Sender};
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
use crate::procspawn::{accept_children, plan_children, spawn_internal_children};
use crate::proto::Control;
use crate::slice::{SubtreeSlice, SubtreeView};

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

/// How long mode 1 waits for the whole tree to report.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);

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
    fabric: LocalFabric,
    /// OS pids of the commnode processes spawned directly by the
    /// front-end ([`launch_processes`] deployments only), for tools and
    /// tests that exercise failure injection.
    commnode_pids: Vec<u32>,
    /// Rendezvous advertisements: the ones the launch published, then
    /// the ones commnode processes relay up the tree as they come up.
    attach_rx: Receiver<(Rank, String)>,
    expected_backends: usize,
}

impl PendingNetwork {
    /// The front-end's side of a launch of `topology`, and the start
    /// of its root node, with no children yet. `published` go into the
    /// attach channel at once.
    fn new(
        registry: FilterRegistry,
        topology: &Topology,
        published: Vec<(Rank, String)>,
    ) -> Result<(PendingNetwork, NodeStart)> {
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
        for point in published {
            let _ = attach_tx.send(point);
        }
        let front_end = FrontEnd::new(
            delivery.clone(),
            attach_tx,
            ledger.clone(),
            assembler.clone(),
        );
        let up = Upstream::FrontEnd(front_end);
        let mut root = NodeStart::new(topology.root().0 as Rank, registry.clone(), up);
        root.ready = Some(ready_tx);
        let pending = PendingNetwork {
            ready_rx,
            cmd_tx: root.inbox.0.clone(),
            delivery,
            registry,
            ledger,
            assembler,
            joins: Vec::new(),
            fabric: LocalFabric::new(),
            commnode_pids: Vec::new(),
            attach_rx,
            expected_backends,
        };
        Ok((pending, root))
    }

    /// Waits until every back-end slot's rendezvous advertisement has
    /// arrived, then returns all attach points sorted by rank (the
    /// paper's "leaf processes' host names and connection port
    /// numbers"). Sibling back-ends share their parent's endpoint.
    pub fn collect_attach_points(&self, timeout: Duration) -> Result<Vec<AttachPoint>> {
        // A deadline past what `Instant` can hold is no deadline.
        let deadline = Instant::now().checked_add(timeout);
        let mut points = Vec::with_capacity(self.expected_backends);
        while points.len() < self.expected_backends {
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            let (rank, endpoint) = self.attach_rx.recv_timeout(left).map_err(|_| {
                MrnetError::Instantiation(format!(
                    "only {} of {} attach points advertised",
                    points.len(),
                    self.expected_backends
                ))
            })?;
            points.push(AttachPoint { rank, endpoint });
        }
        points.sort_by_key(|p| p.rank);
        Ok(points)
    }

    /// The rendezvous advertisements as they arrive. In process mode,
    /// where an internal process has both internal children and
    /// directly attached back-ends, later advertisements can only flow
    /// once earlier back-ends have attached: consume this stream and
    /// attach back-ends as their points appear instead of calling
    /// [`PendingNetwork::collect_attach_points`]. Use one or the other:
    /// both drain the same channel.
    pub fn attach_events(&self) -> Receiver<(Rank, String)> {
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

/// A node as its launcher hands it over to [`bring_up`].
pub(crate) struct NodeStart {
    rank: Rank,
    registry: FilterRegistry,
    up: Upstream,
    inbox: (Inbox<Inbound>, Receiver<Inbound>),
    /// The children in child order, each with the edge its launcher
    /// connected, or `None` if it attaches on `listener`.
    children: Vec<(Rank, Option<SharedConnection>)>,
    listener: Option<Box<dyn Listener>>,
    /// Process mode: the configuration each internal child is handed
    /// once it has attached.
    launch: Option<SubtreeView>,
    /// The root's: where the network's end-points go once it is set up.
    ready: Option<Sender<Vec<Rank>>>,
}

impl NodeStart {
    /// A node with no children yet under `up`.
    pub(crate) fn new(rank: Rank, registry: FilterRegistry, up: Upstream) -> NodeStart {
        NodeStart {
            rank,
            registry,
            up,
            inbox: NodeLoop::inbox(),
            children: Vec::new(),
            listener: None,
            launch: None,
            ready: None,
        }
    }

    /// Process mode: every child of `view`'s root attaches on
    /// `listener`, and each internal one is then handed its slice of
    /// `view`.
    pub(crate) fn attached(
        mut self,
        listener: TcpTransportListener,
        view: SubtreeView,
    ) -> NodeStart {
        self.children = view
            .children()
            .into_iter()
            .map(|(rank, _)| (rank, None))
            .collect();
        self.listener = Some(Box::new(listener));
        self.launch = Some(view);
        self
    }

    /// This node's metrics instruments.
    pub(crate) fn metrics(&self) -> &NodeMetrics {
        self.inbox.0.slot().metrics()
    }
}

/// Brings a node up, the same way in every launch mode (§2.5): accepts
/// the children that attach, hands internal children their
/// configuration (process mode), builds the node's loop, collects the
/// subtree reports, gives the end-points to the launcher at the root,
/// then runs the loop until shutdown.
pub(crate) fn bring_up(start: NodeStart) -> Result<()> {
    let attaching: Vec<Rank> = start
        .children
        .iter()
        .filter(|(_, edge)| edge.is_none())
        .map(|&(rank, _)| rank)
        .collect();
    let mut accepted = match start.listener {
        Some(listener) => accept_children(listener.as_ref(), &attaching)?,
        None => Vec::new(),
    }
    .into_iter();
    let children: Vec<(Rank, SharedConnection)> = start
        .children
        .into_iter()
        .map(|(rank, edge)| {
            let conn = edge.or_else(|| accepted.next());
            (rank, conn.expect("a listener for every attaching child"))
        })
        .collect();
    if let Some(view) = &start.launch {
        for ((rank, is_backend), (_, conn)) in view.children().into_iter().zip(&children) {
            if !is_backend {
                let slice = view.slice_for(rank)?;
                let (ranks, parents) = (slice.ranks, slice.parents);
                conn.send(Control::Launch { ranks, parents }.to_frame())?;
            }
        }
    }
    let mut node = NodeLoop::new(start.rank, start.registry, start.up, children, start.inbox);
    let endpoints = node.setup()?;
    if let Some(ready) = start.ready {
        let _ = ready.send(endpoints);
    }
    node.run();
    Ok(())
}

/// Runs [`bring_up`] on a new thread named `name`, then `after` once
/// the node has shut down.
fn spawn_node(
    name: String,
    start: NodeStart,
    after: impl FnOnce() + Send + 'static,
) -> Result<JoinHandle<()>> {
    let rank = start.rank;
    std::thread::Builder::new()
        .name(name)
        .spawn(move || match bring_up(start) {
            Ok(()) => after(),
            Err(e) => log_error!(rank, "bring-up failed: {e}"),
        })
        .map_err(|e| MrnetError::Instantiation(e.to_string()))
}

/// Builds and launches MRNet networks from a topology.
pub struct NetworkBuilder {
    topology: Topology,
    registry: FilterRegistry,
    transport: WireTransport,
}

impl NetworkBuilder {
    /// Starts a builder over `topology` with the built-in filter set
    /// and channel transport.
    pub fn new(topology: Topology) -> NetworkBuilder {
        NetworkBuilder {
            topology,
            registry: FilterRegistry::with_builtins(),
            transport: WireTransport::Channels,
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

    /// Mode-1 instantiation: create every process in the tree and
    /// return the front-end plus all back-end handles.
    pub fn launch(self) -> Result<Deployment> {
        // A TCP back-end's mailbox keeps its reader's bound.
        let cap = (self.transport == WireTransport::Tcp).then_some(mrnet_transport::INBOUND_DEPTH);
        let (pending, edges) = self.launch_tree(false)?;
        let backends = edges
            .into_iter()
            .map(|(rank, conn)| Backend::new(rank, conn, cap))
            .collect::<Result<_>>()?;
        let network = pending.wait(LAUNCH_TIMEOUT)?;
        Ok(Deployment { network, backends })
    }

    /// Mode-2 instantiation: create only the internal tree; leaves of
    /// the topology become attach points for externally created
    /// back-ends.
    pub fn launch_internal(self) -> Result<PendingNetwork> {
        Ok(self.launch_tree(true)?.0)
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

    /// Starts one thread per internal node. In mode 2 (`attach`), each
    /// node with back-end children listens for them and publishes its
    /// endpoint as their attach point; in mode 1 the launcher connects
    /// every back-end's edge and returns the back-end ends, in topology
    /// BFS order.
    fn launch_tree(self, attach: bool) -> Result<(PendingNetwork, Vec<(Rank, SharedConnection)>)> {
        let topo = &self.topology;
        let fabric = LocalFabric::new();
        // Each node's end of the edge to its parent.
        let mut up_edge: Vec<Option<SharedConnection>> = vec![None; topo.len()];
        let mut nodes = Vec::new();
        let mut points = Vec::new();
        let bfs = topo.bfs();
        for &id in bfs.iter().filter(|&&id| topo.role(id) != Role::BackEnd) {
            let is_backend = |&c: &NodeId| topo.role(c) == Role::BackEnd;
            // In mode 2, where the node's back-ends attach.
            let listener: Option<Box<dyn Listener>> = match self.transport {
                _ if !attach || !topo.children(id).iter().any(is_backend) => None,
                WireTransport::Channels => {
                    Some(Box::new(fabric.listen(&format!("mrnet-node-{}", id.0))))
                }
                WireTransport::Tcp => Some(Box::new(TcpTransportListener::bind("127.0.0.1:0")?)),
            };
            let mut children = Vec::new();
            for &child in topo.children(id) {
                let rank = child.0 as Rank;
                match &listener {
                    Some(listener) if is_backend(&child) => {
                        points.push((rank, listener.addr()));
                        children.push((rank, None));
                    }
                    _ => {
                        let (p, c) = self.make_edge(&topo.label(id), &topo.label(child))?;
                        up_edge[child.0] = Some(c);
                        children.push((rank, Some(p)));
                    }
                }
            }
            nodes.push((id, children, listener));
        }

        let (mut pending, root) = PendingNetwork::new(self.registry.clone(), topo, points)?;
        pending.fabric = fabric;
        let mut root = Some(root);
        for (id, children, listener) in nodes {
            let mut start = match up_edge[id.0].take() {
                Some(parent) => {
                    let up = Upstream::Parent(Link::new(parent));
                    NodeStart::new(id.0 as Rank, self.registry.clone(), up)
                }
                None => root.take().expect("one root"),
            };
            start.children = children;
            start.listener = listener;
            let name = format!("mrnet-{}", topo.label(id));
            pending.joins.push(spawn_node(name, start, || {})?);
        }
        let edges = bfs
            .iter()
            .filter_map(|id| Some((id.0 as Rank, up_edge[id.0].take()?)))
            .collect();
        Ok((pending, edges))
    }
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
    let listener = TcpTransportListener::bind("127.0.0.1:0")?;
    let view = SubtreeSlice::of(&topology, topology.root()).view()?;
    let plan = plan_children(&view, &listener.addr());
    // The root's own back-ends attach at the front-end's listener.
    let (mut pending, root) = PendingNetwork::new(registry, &topology, plan.advertise.clone())?;
    let mut spawned = spawn_internal_children(&plan, commnode_exe, &listener.addr())?;
    pending.commnode_pids = spawned.iter().map(std::process::Child::id).collect();
    let root = root.attached(listener, view);
    let reap = move || {
        for child in &mut spawned {
            let _ = child.wait();
        }
    };
    pending
        .joins
        .push(spawn_node("mrnet-fe-root".to_owned(), root, reap)?);
    Ok(pending)
}
