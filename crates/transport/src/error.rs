//! Error types for the transport substrate.

use std::fmt;

/// Errors produced by transport connections and listeners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer closed the connection (or the channel was dropped).
    Closed,
    /// An operating-system I/O error, stringified for cloneability.
    Io(String),
    /// A blocking receive timed out.
    Timeout,
    /// No listener is registered under the requested rendezvous name.
    UnknownEndpoint(String),
    /// A received frame violated the wire protocol.
    Protocol(String),
    /// The peer is confirmed dead: the connection failed mid-frame,
    /// errored at the socket level, or missed its heartbeat deadline.
    /// Unlike [`TransportError::Closed`] (an orderly shutdown at a
    /// frame boundary) this carries a diagnostic reason.
    PeerGone(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed by peer"),
            TransportError::Io(e) => write!(f, "I/O error: {e}"),
            TransportError::Timeout => write!(f, "receive timed out"),
            TransportError::UnknownEndpoint(name) => {
                write!(f, "no listener registered for endpoint `{name}`")
            }
            TransportError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            TransportError::PeerGone(reason) => write!(f, "peer gone: {reason}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}

/// Convenient result alias for transport operations.
pub type Result<T> = std::result::Result<T, TransportError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(
            TransportError::Closed.to_string(),
            "connection closed by peer"
        );
        assert!(TransportError::Io("boom".into())
            .to_string()
            .contains("boom"));
        assert!(TransportError::UnknownEndpoint("leaf3".into())
            .to_string()
            .contains("leaf3"));
    }

    #[test]
    fn from_io_error() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "reset");
        let e: TransportError = io.into();
        assert!(matches!(e, TransportError::Io(_)));
    }
}
