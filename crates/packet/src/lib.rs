//! # mrnet-packet
//!
//! The data representation substrate of the MRNet reproduction: typed
//! values, printf-style format strings, the [`Packet`] type, the packed
//! binary wire codec, and packet-buffer batching.
//!
//! This corresponds to the "Data Encoding / Data Decoding" and "Packet
//! Batching/Unbatching" layers of an MRNet internal process (paper
//! Figure 3) and to the packet/format-string model of §2.1 and §2.4.
//!
//! ```
//! use mrnet_packet::{FormatString, Packet, Value, encode_packet, decode_packet};
//!
//! let fmt = FormatString::parse("%d %f %s").unwrap();
//! let pkt = Packet::new(1, 100, fmt, vec![
//!     Value::Int32(7),
//!     Value::Float(3.5),
//!     Value::Str("backend-0".into()),
//! ]).unwrap();
//! let wire = encode_packet(&pkt);
//! assert_eq!(decode_packet(wire).unwrap(), pkt);
//! ```

#![forbid(unsafe_code)]

mod batch;
pub mod bytes;
mod codec;
mod error;
mod format;
mod packet;
pub mod trace;
mod unpack;
mod value;

pub use batch::{
    append_to_batch, decode_batch, decode_batch_lazy, decode_batch_lazy_with, decode_batch_with,
    encode_batch, encode_batch_into, encoded_batch_len, Batcher, MAX_BATCH_BYTES,
    MAX_BATCH_PACKETS,
};
pub use bytes::Reader;
pub use codec::{
    decode_packet, decode_packet_from, encode_packet, encode_packet_into, parse_decode_max,
    DecodeLimits, DEFAULT_DECODE_MAX_BYTES, DEFAULT_DECODE_MAX_ELEMS, MAX_DECODE_MAX,
    MIN_DECODE_MAX,
};
pub use error::{PacketError, Result};
pub use format::FormatString;
pub use packet::{Packet, PacketBuilder, Rank, StreamId, Tag};
pub use unpack::{FromValue, Unpack, UnpackTuple};
pub use value::{TypeCode, Value};
