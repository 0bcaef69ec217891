//! # mrnet
//!
//! A from-scratch Rust reproduction of **MRNet** (Roth, Arnold &
//! Miller, SC 2003): a software-based multicast/reduction overlay
//! network for scalable parallel tools.
//!
//! An MRNet-based tool interposes a tree of internal processes between
//! its front-end and its many back-ends. Logical [`Stream`]s carry
//! typed packets downstream (multicast) and upstream (reduction);
//! filters bound to each stream synchronize and aggregate data in
//! parallel as it flows through the tree.
//!
//! ```
//! use mrnet::{launch_local, SyncMode, Value};
//! use mrnet_topology::{generator, HostPool};
//!
//! // A 2-level 2-ary tree with four back-ends.
//! let topo = generator::balanced(2, 2, &mut HostPool::synthetic(16)).unwrap();
//! let deployment = launch_local(topo).unwrap();
//! let net = &deployment.network;
//!
//! // Figure 2: broadcast an init, reduce the float maximum.
//! let comm = net.broadcast_communicator();
//! let fmax = net.registry().id_of("f_max").unwrap();
//! let stream = net.new_stream(&comm, fmax, SyncMode::WaitForAll).unwrap();
//! stream.send(1, "%d", vec![Value::Int32(42)]).unwrap();
//!
//! // Each back-end answers with one float.
//! for (i, be) in deployment.backends.iter().enumerate() {
//!     let (pkt, sid) = be.recv().unwrap();
//!     assert_eq!(pkt.get(0).unwrap().as_i32(), Some(42));
//!     be.send(sid, 1, "%f", vec![Value::Float(i as f32)]).unwrap();
//! }
//!
//! // The front-end receives a single aggregated maximum.
//! let result = stream.recv().unwrap();
//! assert_eq!(result.get(0).unwrap().as_f32(), Some(3.0));
//! net.shutdown();
//! ```

#![forbid(unsafe_code)]

mod backend;
pub mod commnode;
mod delivery;
mod error;
mod event;
mod instantiate;
pub mod internal;
mod intmap;
pub mod introspect;
mod network;
pub mod procspawn;
pub mod proto;
mod route;
pub mod simulate;
pub mod simulate_des;
pub mod slice;
mod streams;

pub use backend::Backend;
pub use delivery::{Delivery, DeliveryStreamStats};
pub use error::{MrnetError, Result};
pub use event::{FailureLedger, TopologyEvent};
pub use instantiate::{
    launch_local, launch_processes, launch_processes_with_registry, AttachPoint, Deployment,
    NetworkBuilder, PendingNetwork, WireTransport,
};
pub use network::{Communicator, MetricsExport, Network, Stream, StreamStats};
pub use route::RoutingTable;
pub use slice::{SubtreeSlice, SubtreeView};
pub use streams::StreamDef;

// Re-export the pieces tools use alongside the core API.
pub use mrnet_filters::{
    FilterContext, FilterId, FilterRegistry, FnFilter, MeanPairFilter, ScalarOp, SyncMode,
    Transform, FILTER_NULL,
};
/// The observability layer (metrics, tracing, logging), re-exported so
/// tools can read [`mrnet_obs::NetworkSnapshot`]s and tune
/// `MRNET_LOG`/`MRNET_TRACE` programmatically.
pub use mrnet_obs as obs;
pub use mrnet_obs::{MetricsSection, NetworkSnapshot, TraceAssembler, TraceEnvelope, WaveTimeline};
pub use mrnet_packet::{
    FormatString, Packet, PacketBuilder, Rank, StreamId, Tag, TypeCode, Unpack, Value,
};
