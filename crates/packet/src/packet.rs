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
//! bytes; the typed values are materialized at most once, on first
//! access ([`Packet::values`], [`Packet::get`], `unpack`, …). A
//! commnode that only relays a packet never touches the payload, so
//! the decode (and the re-encode: see [`crate::encode_packet`]'s raw
//! fast path) is skipped entirely. The wire form is structurally
//! validated *before* a lazy packet is built, so materialization cannot
//! fail and hostile frames are still rejected at the network boundary.
//!
//! A typed payload is its values only: the format is determined by
//! them ([`Value::type_code`]), so [`Packet::fmt`] derives it on each
//! call. A single value is held inline, so a one-value packet costs one
//! allocation when built (its shared interior) and one more when a
//! lazy one is first read (the boxed cache), besides what the value
//! itself owns.

use std::fmt;
use std::ops::Deref;
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

/// A typed payload: one value held inline, or any other count in a
/// `Vec`. Derefs to the values in order; which variant holds them does
/// not change what they are.
#[derive(Debug, Clone)]
pub(crate) enum Values {
    One(Value),
    Many(Vec<Value>),
}

impl Values {
    /// An empty payload that will not allocate for its first value and
    /// reserves `n` slots up front when more than one is coming.
    pub(crate) fn with_capacity(n: usize) -> Values {
        Values::Many(Vec::with_capacity(if n > 1 { n } else { 0 }))
    }

    /// Appends a value: the first into an unreserved payload goes
    /// inline, the second moves both into a `Vec`.
    pub(crate) fn push(&mut self, value: Value) {
        *self = match std::mem::take(self) {
            Values::Many(vs) if vs.capacity() == 0 => Values::One(value),
            Values::Many(mut vs) => {
                vs.push(value);
                Values::Many(vs)
            }
            Values::One(first) => Values::Many(vec![first, value]),
        };
    }
}

impl Default for Values {
    fn default() -> Values {
        Values::Many(Vec::new())
    }
}

impl Deref for Values {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match self {
            Values::One(v) => std::slice::from_ref(v),
            Values::Many(vs) => vs,
        }
    }
}

impl From<Vec<Value>> for Values {
    fn from(vs: Vec<Value>) -> Values {
        match <[Value; 1]>::try_from(vs) {
            Ok([v]) => Values::One(v),
            Err(vs) => Values::Many(vs),
        }
    }
}

/// How a packet stores its payload.
#[derive(Debug)]
enum PayloadRepr {
    /// Constructed in this process: the typed form is the only form.
    Eager(Values),
    /// Decoded from the wire: the raw bytes are authoritative and the
    /// typed form is materialized on demand. `wire` is the packet's
    /// full, structurally validated wire form (header included). The
    /// cache is boxed so a packet that is only relayed stays small.
    Raw {
        wire: Bytes,
        cache: OnceLock<Box<Values>>,
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
    fn values(&self) -> &Values {
        match &self.payload {
            PayloadRepr::Eager(vs) => vs,
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
    /// Creates a packet, validating `values` against `fmt`. The
    /// packet keeps the values only; its format is derived from them.
    pub fn new(
        stream_id: StreamId,
        tag: Tag,
        fmt: FormatString,
        values: Vec<Value>,
    ) -> Result<Packet> {
        fmt.check(&values)?;
        Ok(Packet::from_values(stream_id, tag, 0, values.into()))
    }

    /// Builds a packet around a typed payload.
    pub(crate) fn from_values(stream_id: StreamId, tag: Tag, src: Rank, values: Values) -> Packet {
        Packet {
            inner: Arc::new(PacketInner {
                stream_id,
                tag,
                src,
                payload: PayloadRepr::Eager(values),
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
        Packet::from_values(stream_id, tag, 0, Values::default())
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
    /// If this handle is the sole owner the interior is edited in
    /// place, with no allocation and no copy of the payload. Changing
    /// the rank of a wire-decoded packet materializes its payload (the
    /// raw bytes would carry the stale rank).
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
    /// bytes never disagree with the header. A sole owner's interior
    /// is edited in place.
    fn rebuild(mut self, edit: impl FnOnce(&mut PacketInner)) -> Packet {
        if let Some(inner) = Arc::get_mut(&mut self.inner) {
            if let PayloadRepr::Raw { wire, cache } = &mut inner.payload {
                let values = cache
                    .take()
                    .map_or_else(|| codec::decode_payload_validated(wire), |vs| *vs);
                inner.payload = PayloadRepr::Eager(values);
            }
            edit(inner);
            return self;
        }
        let shared = &*self.inner;
        let mut inner = PacketInner {
            stream_id: shared.stream_id,
            tag: shared.tag,
            src: shared.src,
            payload: PayloadRepr::Eager(shared.values().clone()),
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

    /// The payload's format string, derived from the values' types on
    /// each call (materializes a lazy payload). To check a packet
    /// against a known format without building one, use
    /// `fmt.check(packet.values())`.
    pub fn fmt(&self) -> FormatString {
        let codes: Vec<_> = self.values().iter().map(Value::type_code).collect();
        FormatString::from_codes(codes)
    }

    /// The payload values (materializes a lazy payload).
    pub fn values(&self) -> &[Value] {
        self.inner.values()
    }

    /// The value at position `i`, if present (materializes a lazy
    /// payload).
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values().get(i)
    }

    /// Number of payload values, read from the wire header for a raw
    /// packet — this never materializes the payload.
    pub fn arity(&self) -> usize {
        match &self.inner.payload {
            PayloadRepr::Eager(vs) => vs.len(),
            PayloadRepr::Raw { wire, .. } => {
                u16::from_le_bytes([wire[PACKET_HEADER_LEN - 2], wire[PACKET_HEADER_LEN - 1]])
                    as usize
            }
        }
    }

    /// True while this packet's payload is still raw wire bytes —
    /// nothing has forced the typed values yet.
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
            PayloadRepr::Eager(vs) => {
                PACKET_HEADER_LEN + vs.iter().map(|v| 1 + v.encoded_size_hint()).sum::<usize>()
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
            && self.values() == other.values()
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
            _ => write!(
                f,
                "Packet{{stream={}, tag={}, src={}, fmt=\"{}\", {} value(s)}}",
                self.inner.stream_id,
                self.inner.tag,
                self.inner.src,
                self.fmt(),
                self.values().len()
            ),
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
    values: Values,
}

impl PacketBuilder {
    /// Starts a packet for the given stream and tag.
    pub fn new(stream_id: StreamId, tag: Tag) -> PacketBuilder {
        PacketBuilder {
            stream_id,
            tag,
            src: 0,
            values: Values::default(),
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
        Packet::from_values(self.stream_id, self.tag, self.src, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_packet, encode_packet};
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

    /// One value per conversion specifier, each with the text that
    /// parses to its type; `%u` and `%lu` are the aliases.
    fn every_specifier() -> Vec<(&'static str, Value)> {
        vec![
            ("%c", Value::Char(b'c')),
            ("%d", Value::Int32(-1)),
            ("%ud", Value::UInt32(2)),
            ("%ld", Value::Int64(-3)),
            ("%uld", Value::UInt64(4)),
            ("%f", Value::Float(0.5)),
            ("%lf", Value::Double(-0.25)),
            ("%s", Value::Str("s".into())),
            ("%ac", Value::CharArray(vec![1, 2])),
            ("%ad", Value::Int32Array(vec![-1, 1])),
            ("%aud", Value::UInt32Array(vec![1])),
            ("%ald", Value::Int64Array(vec![-2])),
            ("%auld", Value::UInt64Array(vec![2])),
            ("%af", Value::FloatArray(vec![1.5])),
            ("%alf", Value::DoubleArray(vec![2.5])),
            ("%as", Value::StrArray(vec!["a".into(), String::new()])),
            ("%u", Value::UInt32(5)),
            ("%lu", Value::UInt64(6)),
        ]
    }

    /// True when the packet's typed payload holds its value inline.
    fn inline(p: &Packet) -> bool {
        matches!(p.inner.values(), Values::One(_))
    }

    #[test]
    fn construction_validates_format() {
        let err = Packet::with_fmt_str(0, 0, "%d", vec![Value::Float(1.0)]).unwrap_err();
        assert!(matches!(err, PacketError::TypeMismatch { .. }));
        let fmt = FormatString::parse("%d %d").unwrap();
        let err = Packet::new(0, 0, fmt.clone(), vec![Value::Int32(1)]).unwrap_err();
        assert_eq!(
            err,
            PacketError::ArityMismatch {
                expected: 2,
                actual: 1
            }
        );
        let three = vec![Value::Int32(1); 3];
        let err = Packet::new(0, 0, fmt.clone(), three).unwrap_err();
        assert!(matches!(err, PacketError::ArityMismatch { actual: 3, .. }));
        let err = Packet::new(0, 0, fmt, vec![Value::Int32(1), Value::Int64(2)]).unwrap_err();
        assert_eq!(
            err,
            PacketError::TypeMismatch {
                index: 1,
                expected: "%d",
                actual: "%ld"
            }
        );
        let err = Packet::with_fmt_str(0, 0, "", vec![Value::Int32(1)]).unwrap_err();
        assert!(matches!(
            err,
            PacketError::ArityMismatch { expected: 0, .. }
        ));
    }

    #[test]
    fn derived_format_is_the_canonical_parse_of_every_specifier() {
        let cases = every_specifier();
        let codes: Vec<_> = cases[..16].iter().map(|(_, v)| v.type_code()).collect();
        assert_eq!(codes, crate::value::TypeCode::ALL);
        for (spec, value) in &cases {
            let parsed = FormatString::parse(spec).unwrap();
            let eager = Packet::new(0, 0, parsed.clone(), vec![value.clone()]).unwrap();
            assert_eq!(eager.fmt(), parsed, "{spec}");
            assert_eq!(lazy(&eager).fmt(), parsed, "{spec}");
            assert_eq!(eager.fmt().to_string(), parsed.canonical(), "{spec}");
        }
        let text: Vec<_> = cases.iter().map(|(spec, _)| *spec).collect();
        let values: Vec<_> = cases.into_iter().map(|(_, v)| v).collect();
        let parsed = FormatString::parse(&text.join(" ")).unwrap();
        let all = Packet::new(0, 0, parsed.clone(), values).unwrap();
        assert_eq!(all.fmt(), parsed);
        assert_eq!(
            all.fmt().to_string(),
            "%c %d %ud %ld %uld %f %lf %s %ac %ad %aud %ald %auld %af %alf %as %ud %uld"
        );
    }

    #[test]
    fn every_payload_size_agrees_eager_and_lazy() {
        let kinds = every_specifier();
        for n in [0, 1, 2, 40] {
            let values: Vec<_> = (0..n).map(|i| kinds[i % kinds.len()].1.clone()).collect();
            let mut builder = PacketBuilder::new(4, 5).src(6);
            for v in &values {
                builder = builder.push(v.clone());
            }
            let eager = builder.build();
            let wire = encode_packet(&eager);
            let made = Packet::new(4, 5, eager.fmt(), values.clone())
                .unwrap()
                .with_src(6);
            let decoded = decode_packet(wire.clone()).unwrap();
            let untouched = lazy(&eager);
            assert_eq!(encode_packet(&untouched), wire);
            assert!(untouched.is_lazy(), "re-encoding must not materialize");
            let read = lazy(&eager);
            assert_eq!(read.values(), &values[..], "{n} values");
            // A header edit and its undo drop the raw bytes, so this one
            // re-encodes from its materialized values.
            let rewritten = lazy(&eager).with_src(99).with_src(6);
            assert!(rewritten.raw_wire().is_none());
            for p in [&eager, &made, &decoded, &untouched, &read, &rewritten] {
                assert_eq!(p, &eager, "{n} values");
                assert_eq!(p.values(), &values[..], "{n} values");
                assert_eq!(p.arity(), n);
                assert_eq!(p.encoded_size_hint(), wire.len(), "{n} values");
                assert_eq!(encode_packet(p), wire, "{n} values re-encode");
                assert_eq!(inline(p), n == 1, "{n} values");
            }
        }
    }

    #[test]
    fn pushed_values_keep_their_order() {
        let mut values = Values::default();
        let mut expected = Vec::new();
        for i in 0..4 {
            assert_eq!(&*values, &expected[..]);
            values.push(Value::Int32(i));
            expected.push(Value::Int32(i));
        }
        assert_eq!(&*values, &expected[..]);
        let p = PacketBuilder::new(0, 0)
            .push(0i32)
            .push("one")
            .push(2.0f64)
            .build();
        assert_eq!(
            p.values(),
            [
                Value::Int32(0),
                Value::Str("one".into()),
                Value::Double(2.0)
            ]
        );
        assert!(inline(&PacketBuilder::new(0, 0).push(0i32).build()));
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
    fn packet_is_one_pointer() {
        assert_eq!(std::mem::size_of::<Packet>(), std::mem::size_of::<usize>());
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
