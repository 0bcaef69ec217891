//! # mrnet-transport
//!
//! The communication substrate beneath the MRNet overlay: a
//! transport-agnostic [`Connection`]/[`Listener`] abstraction with two
//! implementations — an in-process channel transport ([`LocalFabric`],
//! used when a whole tree runs as threads) and a real TCP transport
//! ([`TcpConnection`]) carrying length-prefixed frames across process
//! and host boundaries, as the original MRNet's socket layer does.

#![forbid(unsafe_code)]

pub mod chan;
mod clock;
mod connection;
mod error;
mod incoming;
mod local;
mod retry;
mod tcp;

pub use clock::ClockEstimate;
pub use connection::{
    BoxedConnection, BoxedListener, ConnStats, Connection, FrameSink, Listener, PacketFrame,
    SharedConnection, Took,
};
pub use error::{Result, TransportError};
pub use local::{LocalConnection, LocalFabric, LocalListener};
pub use retry::{RetryPolicy, CONNECT_RETRIES_ENV};
pub use tcp::INBOUND_DEPTH;
pub use tcp::{TcpConnection, TcpTransportListener, HEARTBEAT_ENV, MAX_FRAME, SEND_QUEUE_ENV};
