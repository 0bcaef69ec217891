//! # mrnet-topology
//!
//! MRNet process-tree topologies: specification, configuration-file
//! parsing, standard-topology generators, host pools, and LogP cost
//! analysis (paper §2.1, §2.6, Figure 4).
//!
//! ```
//! use mrnet_topology::{generator, HostPool, TreeStats};
//!
//! let mut pool = HostPool::synthetic(128);
//! let topo = generator::balanced(4, 2, &mut pool).unwrap();
//! let stats = TreeStats::of(&topo);
//! assert_eq!(stats.backends, 16);
//!
//! // Round-trip through the configuration-file format.
//! let cfg = mrnet_topology::write_config(&topo);
//! let reparsed = mrnet_topology::parse_config(&cfg).unwrap();
//! assert_eq!(reparsed.num_backends(), 16);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
mod error;
pub mod generator;
mod hosts;
mod parser;
mod spec;

pub use analysis::{
    broadcast_latency, fig4_comparison, pipeline_interval, pipeline_throughput, reduction_latency,
    roundtrip_latency, Fig4Row, TreeStats,
};
pub use error::{Result, TopologyError};
pub use hosts::{HostPool, PlacementPolicy};
pub use parser::{parse_config, write_config};
pub use spec::{NodeId, Placement, Role, Topology, TopologyBuilder};
