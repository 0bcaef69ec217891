//! The MRNet data packet.
//!
//! Packets are the unit of communication on streams. Each carries the
//! id of the stream it belongs to (used to demultiplex at internal
//! processes, §2.3), an application-defined integer tag, the rank of
//! the originating process, and a typed payload described by a
//! [`FormatString`].
//!
//! Internal processes pass packets "by reference whenever possible …
//! to avoid unnecessary copying" (§2.3): [`Packet`] is a cheap
//! reference-counted handle, so routing a packet to multiple output
//! buffers (downstream multicast) clones only the handle, never the
//! payload.
//!
//! ## Lazy payloads
//!
//! A packet decoded from the wire keeps its payload as the raw wire
//! bytes; the typed `FormatString` + `Vec<Value>` form is materialized
//! at most once, on first access ([`Packet::fmt`], [`Packet::values`],
//! `unpack`, …). A commnode that only relays a packet never touches
//! the payload, so the decode (and the re-encode: see
//! [`crate::encode_packet`]'s raw fast path) is skipped entirely. The
//! wire form is structurally validated *before* a lazy packet is
//! built, so materialization cannot fail and hostile frames are still
//! rejected at the network boundary.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::bytes::Bytes;
use crate::codec::{self, PACKET_HEADER_LEN};
use crate::error::Result;
use crate::format::FormatString;
use crate::value::Value;

/// Identifies the logical stream a packet travels on.
pub type StreamId = u32;

/// Identifies the process (front-end, internal, or back-end) that
/// originated a packet. Rank 0 is conventionally the front-end.
pub type Rank = u32;

/// Application-defined message tag.
pub type Tag = i32;

/// A materialized payload: the format string and the typed values,
/// built together at most once per packet.
#[derive(Debug, PartialEq)]
pub(crate) struct Decoded {
    pub(crate) fmt: FormatString,
    pub(crate) values: Vec<Value>,
}

/// How a packet stores its payload.
#[derive(Debug)]
enum PayloadRepr {
    /// Constructed in this process: the typed form is the only form.
    Eager(Decoded),
    /// Decoded from the wire: the raw bytes are authoritative and the
    /// typed form is materialized on demand. `wire` is the packet's
    /// full, structurally validated wire form (header included). The
    /// cache is boxed so a packet that is only relayed stays small.
    Raw {
        wire: Bytes,
        cache: OnceLock<Box<Decoded>>,
    },
}

/// The immutable interior of a packet, shared between handles.
#[derive(Debug)]
struct PacketInner {
    stream_id: StreamId,
    tag: Tag,
    src: Rank,
    payload: PayloadRepr,
}

impl PacketInner {
    /// The typed payload, materializing (and caching) it if this is
    /// the first access to a wire-decoded packet.
    fn decoded(&self) -> &Decoded {
        match &self.payload {
            PayloadRepr::Eager(d) => d,
            PayloadRepr::Raw { wire, cache } => {
                cache.get_or_init(|| Box::new(codec::decode_payload_validated(wire)))
            }
        }
    }
}

/// A typed MRNet data packet. Cloning is O(1) (reference counted).
#[derive(Debug, Clone)]
pub struct Packet {
    inner: Arc<PacketInner>,
}

impl Packet {
    /// Creates a packet, validating `values` against `fmt`.
    pub fn new(
        stream_id: StreamId,
        tag: Tag,
        fmt: FormatString,
        values: Vec<Value>,
    ) -> Result<Packet> {
        fmt.check(&values)?;
        Ok(Packet::from_decoded(
            stream_id,
            tag,
            0,
            Decoded { fmt, values },
        ))
    }

    /// Builds a packet around a typed payload whose format is known to
    /// match its values.
    pub(crate) fn from_decoded(
        stream_id: StreamId,
        tag: Tag,
        src: Rank,
        decoded: Decoded,
    ) -> Packet {
        Packet {
            inner: Arc::new(PacketInner {
                stream_id,
                tag,
                src,
                payload: PayloadRepr::Eager(decoded),
            }),
        }
    }

    /// Creates a packet from a textual format string, validating the
    /// values against it. Mirrors `stream->send("%d", value)` from the
    /// paper's Figure 2.
    pub fn with_fmt_str(
        stream_id: StreamId,
        tag: Tag,
        fmt: &str,
        values: Vec<Value>,
    ) -> Result<Packet> {
        Packet::new(stream_id, tag, FormatString::parse(fmt)?, values)
    }

    /// Creates a payload-free control packet.
    pub fn control(stream_id: StreamId, tag: Tag) -> Packet {
        Packet::new(stream_id, tag, FormatString::default(), Vec::new())
            .expect("empty payload always matches empty format")
    }

    /// Builds a packet around a structurally validated wire form
    /// (header + tagged values). The payload stays raw until first
    /// touched. Callers must have run the wire bytes through the
    /// codec's validation pass; materialization assumes they decode.
    pub(crate) fn from_validated_wire(
        stream_id: StreamId,
        tag: Tag,
        src: Rank,
        wire: Bytes,
    ) -> Packet {
        Packet {
            inner: Arc::new(PacketInner {
                stream_id,
                tag,
                src,
                payload: PayloadRepr::Raw {
                    wire,
                    cache: OnceLock::new(),
                },
            }),
        }
    }

    /// Returns a copy of this packet with the originating rank set.
    ///
    /// If this handle is the sole owner the interior is reused without
    /// copying the payload. Changing the rank of a wire-decoded packet
    /// materializes its payload (the raw bytes would carry the stale
    /// rank).
    pub fn with_src(self, src: Rank) -> Packet {
        if self.inner.src == src {
            return self;
        }
        self.rebuild(|inner| inner.src = src)
    }

    /// Returns a copy of this packet retargeted to a different stream.
    ///
    /// Like [`Packet::with_src`], retargeting a wire-decoded packet
    /// materializes its payload.
    pub fn with_stream(self, stream_id: StreamId) -> Packet {
        if self.inner.stream_id == stream_id {
            return self;
        }
        self.rebuild(|inner| inner.stream_id = stream_id)
    }

    /// Clones-on-write the interior with a header edit applied,
    /// converting any raw payload to its typed form first so the raw
    /// bytes never disagree with the header.
    fn rebuild(self, edit: impl FnOnce(&mut PacketInner)) -> Packet {
        let mut inner = match Arc::try_unwrap(self.inner) {
            Ok(inner) => PacketInner {
                stream_id: inner.stream_id,
                tag: inner.tag,
                src: inner.src,
                payload: PayloadRepr::Eager(match inner.payload {
                    PayloadRepr::Eager(d) => d,
                    PayloadRepr::Raw { wire, cache } => cache
                        .into_inner()
                        .map_or_else(|| codec::decode_payload_validated(&wire), |d| *d),
                }),
            },
            Err(shared) => {
                let d = shared.decoded();
                PacketInner {
                    stream_id: shared.stream_id,
                    tag: shared.tag,
                    src: shared.src,
                    payload: PayloadRepr::Eager(Decoded {
                        fmt: d.fmt.clone(),
                        values: d.values.clone(),
                    }),
                }
            }
        };
        edit(&mut inner);
        Packet {
            inner: Arc::new(inner),
        }
    }

    /// The id of the stream this packet belongs to.
    pub fn stream_id(&self) -> StreamId {
        self.inner.stream_id
    }

    /// The application-defined tag.
    pub fn tag(&self) -> Tag {
        self.inner.tag
    }

    /// The rank of the originating process.
    pub fn src(&self) -> Rank {
        self.inner.src
    }

    /// The payload's format string (materializes a lazy payload).
    pub fn fmt(&self) -> &FormatString {
        &self.inner.decoded().fmt
    }

    /// The payload values (materializes a lazy payload).
    pub fn values(&self) -> &[Value] {
        &self.inner.decoded().values
    }

    /// The value at position `i`, if present (materializes a lazy
    /// payload).
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.inner.decoded().values.get(i)
    }

    /// Number of payload values, read from the wire header for a raw
    /// packet — this never materializes the payload.
    pub fn arity(&self) -> usize {
        match &self.inner.payload {
            PayloadRepr::Eager(d) => d.values.len(),
            PayloadRepr::Raw { wire, .. } => {
                u16::from_le_bytes([wire[PACKET_HEADER_LEN - 2], wire[PACKET_HEADER_LEN - 1]])
                    as usize
            }
        }
    }

    /// True while this packet's payload is still raw wire bytes —
    /// nothing has forced the `FormatString` + `Values` form yet.
    /// Relay-only nodes keep this true end to end.
    pub fn is_lazy(&self) -> bool {
        matches!(&self.inner.payload, PayloadRepr::Raw { cache, .. } if cache.get().is_none())
    }

    /// The packet's original wire form, when it was decoded from the
    /// wire and its header has not been rewritten since. Re-encoding
    /// such a packet hands these bytes back without touching the
    /// payload (materialization does not invalidate them — values are
    /// immutable, so the bytes stay authoritative).
    pub fn raw_wire(&self) -> Option<&Bytes> {
        match &self.inner.payload {
            PayloadRepr::Raw { wire, .. } => Some(wire),
            PayloadRepr::Eager(_) => None,
        }
    }

    /// The exact length of this packet's wire form, computed without
    /// encoding or allocating: the fixed header plus, per value, its
    /// type tag byte and body.
    pub fn encoded_size_hint(&self) -> usize {
        match &self.inner.payload {
            PayloadRepr::Raw { wire, .. } => wire.len(),
            PayloadRepr::Eager(d) => {
                PACKET_HEADER_LEN
                    + d.values
                        .iter()
                        .map(|v| 1 + v.encoded_size_hint())
                        .sum::<usize>()
            }
        }
    }

    /// True when two handles share the same interior allocation (used
    /// by tests to verify zero-copy routing).
    pub fn ptr_eq(&self, other: &Packet) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl PartialEq for Packet {
    /// Logical equality: header fields plus the typed payload.
    /// Comparing a lazy packet materializes it.
    fn eq(&self, other: &Packet) -> bool {
        if self.ptr_eq(other) {
            return true;
        }
        self.inner.stream_id == other.inner.stream_id
            && self.inner.tag == other.inner.tag
            && self.inner.src == other.inner.src
            && self.inner.decoded() == other.inner.decoded()
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner.payload {
            PayloadRepr::Raw { wire, cache, .. } if cache.get().is_none() => write!(
                f,
                "Packet{{stream={}, tag={}, src={}, {} value(s), lazy ({} wire bytes)}}",
                self.inner.stream_id,
                self.inner.tag,
                self.inner.src,
                self.arity(),
                wire.len(),
            ),
            _ => {
                let d = self.inner.decoded();
                write!(
                    f,
                    "Packet{{stream={}, tag={}, src={}, fmt=\"{}\", {} value(s)}}",
                    self.inner.stream_id,
                    self.inner.tag,
                    self.inner.src,
                    d.fmt,
                    d.values.len()
                )
            }
        }
    }
}

/// Builder for assembling packets value by value.
///
/// ```
/// use mrnet_packet::{PacketBuilder, Value};
/// let pkt = PacketBuilder::new(7, 100)
///     .push(42i32)
///     .push(2.5f32)
///     .push("hello")
///     .build();
/// assert_eq!(pkt.fmt().to_string(), "%d %f %s");
/// assert_eq!(pkt.get(0), Some(&Value::Int32(42)));
/// ```
#[derive(Debug)]
pub struct PacketBuilder {
    stream_id: StreamId,
    tag: Tag,
    src: Rank,
    values: Vec<Value>,
}

impl PacketBuilder {
    /// Starts a packet for the given stream and tag.
    pub fn new(stream_id: StreamId, tag: Tag) -> PacketBuilder {
        PacketBuilder {
            stream_id,
            tag,
            src: 0,
            values: Vec::new(),
        }
    }

    /// Sets the originating rank.
    pub fn src(mut self, src: Rank) -> PacketBuilder {
        self.src = src;
        self
    }

    /// Appends a value; the format string is derived from the values.
    pub fn push(mut self, value: impl Into<Value>) -> PacketBuilder {
        self.values.push(value.into());
        self
    }

    /// Finalizes the packet. The format is derived, so this cannot fail.
    pub fn build(self) -> Packet {
        let codes: Vec<_> = self.values.iter().map(Value::type_code).collect();
        let fmt = FormatString::from_codes(codes);
        Packet::from_decoded(
            self.stream_id,
            self.tag,
            self.src,
            Decoded {
                fmt,
                values: self.values,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_packet;
    use crate::error::PacketError;

    fn sample() -> Packet {
        Packet::with_fmt_str(
            3,
            17,
            "%d %f %s",
            vec![Value::Int32(1), Value::Float(2.0), Value::Str("x".into())],
        )
        .unwrap()
    }

    fn lazy(p: &Packet) -> Packet {
        crate::batch::decode_batch_lazy(crate::batch::encode_batch(std::slice::from_ref(p)))
            .unwrap()
            .remove(0)
    }

    #[test]
    fn construction_validates_format() {
        let err = Packet::with_fmt_str(0, 0, "%d", vec![Value::Float(1.0)]).unwrap_err();
        assert!(matches!(err, PacketError::TypeMismatch { .. }));
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert_eq!(p.stream_id(), 3);
        assert_eq!(p.tag(), 17);
        assert_eq!(p.src(), 0);
        assert_eq!(p.fmt().to_string(), "%d %f %s");
        assert_eq!(p.get(0), Some(&Value::Int32(1)));
        assert_eq!(p.get(3), None);
        assert_eq!(p.values().len(), 3);
        assert_eq!(p.arity(), 3);
        assert!(!p.is_lazy());
        assert!(p.raw_wire().is_none());
    }

    #[test]
    fn clone_is_shallow() {
        let p = sample();
        let q = p.clone();
        assert!(p.ptr_eq(&q));
        assert_eq!(p, q);
    }

    #[test]
    fn with_src_rewrites_rank() {
        let p = sample().with_src(9);
        assert_eq!(p.src(), 9);
        // Unchanged rank returns the same allocation.
        let q = p.clone().with_src(9);
        assert!(p.ptr_eq(&q));
        // Changing a shared packet copies rather than mutating the
        // other handle.
        let r = p.clone().with_src(10);
        assert_eq!(p.src(), 9);
        assert_eq!(r.src(), 10);
    }

    #[test]
    fn with_stream_retargets() {
        let p = sample().with_stream(44);
        assert_eq!(p.stream_id(), 44);
        assert_eq!(p.tag(), 17);
        let q = p.clone().with_stream(44);
        assert!(p.ptr_eq(&q));
    }

    #[test]
    fn control_packets_are_empty() {
        let p = Packet::control(5, -1);
        assert!(p.fmt().is_empty());
        assert!(p.values().is_empty());
        assert_eq!(p.tag(), -1);
    }

    #[test]
    fn builder_derives_format() {
        let p = PacketBuilder::new(1, 2)
            .src(7)
            .push(5i32)
            .push(vec![1.0f64, 2.0])
            .push("s")
            .build();
        assert_eq!(p.fmt().to_string(), "%d %alf %s");
        assert_eq!(p.src(), 7);
    }

    #[test]
    fn size_hint_is_the_wire_length() {
        let p = PacketBuilder::new(1, 2).src(3).push(5i32).build();
        assert_eq!(p.encoded_size_hint(), 19);
        assert_eq!(p.encoded_size_hint(), encode_packet(&p).len());
        assert_eq!(sample().encoded_size_hint(), encode_packet(&sample()).len());
        assert_eq!(Packet::control(0, 0).encoded_size_hint(), PACKET_HEADER_LEN);
    }

    #[test]
    fn lazy_packet_fits_in_one_cache_line() {
        assert!(std::mem::size_of::<PacketInner>() <= 64);
    }

    #[test]
    fn size_hint_tracks_payload() {
        let small = PacketBuilder::new(0, 0).push(1i32).build();
        let big = PacketBuilder::new(0, 0).push(vec![0i64; 100]).build();
        assert!(big.encoded_size_hint() > small.encoded_size_hint() + 700);
    }

    #[test]
    fn display_is_informative() {
        let msg = sample().to_string();
        assert!(msg.contains("stream=3"));
        assert!(msg.contains("%d %f %s"));
    }

    #[test]
    fn lazy_packet_stays_raw_until_touched() {
        let p = lazy(&sample().with_src(6));
        assert!(p.is_lazy());
        // Header accessors and arity never materialize.
        assert_eq!(p.stream_id(), 3);
        assert_eq!(p.tag(), 17);
        assert_eq!(p.src(), 6);
        assert_eq!(p.arity(), 3);
        assert_eq!(p.encoded_size_hint(), p.raw_wire().unwrap().len());
        assert!(p.is_lazy());
        // First payload touch materializes, exactly once.
        assert_eq!(p.get(0), Some(&Value::Int32(1)));
        assert!(!p.is_lazy());
        // Raw bytes remain available after materialization.
        assert!(p.raw_wire().is_some());
    }

    #[test]
    fn lazy_display_does_not_materialize() {
        let p = lazy(&sample());
        let msg = p.to_string();
        assert!(msg.contains("lazy"), "got: {msg}");
        assert!(p.is_lazy());
        p.values();
        assert!(p.to_string().contains("%d %f %s"));
    }

    #[test]
    fn header_edit_on_lazy_packet_drops_raw_bytes() {
        let p = lazy(&sample());
        let q = p.with_stream(99);
        assert_eq!(q.stream_id(), 99);
        assert!(q.raw_wire().is_none(), "stale wire header must not leak");
        assert_eq!(q.values(), sample().values());
        // Same for a shared handle (copy-on-write path).
        let p = lazy(&sample());
        let keep = p.clone();
        let q = p.with_src(31);
        assert_eq!(q.src(), 31);
        assert!(q.raw_wire().is_none());
        assert_eq!(keep.src(), 0);
    }

    #[test]
    fn unchanged_header_edit_keeps_lazy_packet_raw() {
        let p = lazy(&sample().with_src(5));
        let q = p.clone().with_src(5).with_stream(3);
        assert!(q.ptr_eq(&p));
        assert!(q.is_lazy());
    }

    #[test]
    fn lazy_and_eager_compare_equal() {
        let e = sample().with_src(2);
        let l = lazy(&e);
        assert_eq!(l, e);
        assert_eq!(e, l);
        let other = sample().with_src(3);
        assert_ne!(l, other);
    }

    #[test]
    fn reencoding_untouched_packet_is_byte_identical() {
        let p = lazy(&sample().with_src(4));
        let wire = p.raw_wire().unwrap().clone();
        let reenc = encode_packet(&p);
        assert_eq!(reenc, wire);
        assert!(p.is_lazy(), "re-encode must not materialize");
    }
}
