//! Packed binary encoding and decoding of packets.
//!
//! MRNet "transfers data within the tool system using an efficient,
//! packed binary representation" (§1). The wire form of a packet is
//! self-describing: a fixed header (stream id, tag, source rank,
//! arity) followed by one tagged value per conversion specifier. The
//! format string is reconstructed from the value tags on decode, so it
//! is never transmitted as text.
//!
//! All multi-byte quantities are little-endian. Length prefixes are
//! validated against [`DecodeLimits`] so a corrupt stream cannot force
//! enormous allocations.
//!
//! One function walks the value grammar and one walks a packet, both
//! over a [`Reader`], in two modes: skip mode checks a packet's whole
//! structure and builds nothing (the ingress validation pass); build
//! mode also makes its values (eager decode, and materializing a lazy
//! packet). So what validation accepts, materialization decodes.

use std::sync::OnceLock;

use crate::bytes::{Bytes, BytesMut, Reader};
use crate::error::{PacketError, Result};
use crate::packet::{Packet, Values};
use crate::value::{TypeCode, Value};

/// Byte length of a packet's fixed wire header:
/// stream id (4) + tag (4) + src (4) + arity (2).
pub(crate) const PACKET_HEADER_LEN: usize = 4 + 4 + 4 + 2;

/// Default string / byte-array ceiling, in bytes.
pub const DEFAULT_DECODE_MAX_BYTES: u64 = 64 << 20;

/// Default array element-count ceiling.
pub const DEFAULT_DECODE_MAX_ELEMS: u64 = 16 << 20;

/// Smallest ceiling `MRNET_DECODE_MAX` may configure; tinier values
/// are clamped up so control traffic always fits.
pub const MIN_DECODE_MAX: u64 = 1 << 10;

/// Largest ceiling `MRNET_DECODE_MAX` may configure.
pub const MAX_DECODE_MAX: u64 = 1 << 32;

/// Sanity limits applied while decoding.
#[derive(Debug, Clone, Copy)]
pub struct DecodeLimits {
    /// Maximum accepted string / byte-array length, in bytes.
    pub max_bytes: u64,
    /// Maximum accepted array element count.
    pub max_elems: u64,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            max_bytes: DEFAULT_DECODE_MAX_BYTES,
            max_elems: DEFAULT_DECODE_MAX_ELEMS,
        }
    }
}

/// Parses an `MRNET_DECODE_MAX` value into a decode ceiling. Missing,
/// empty, or unparsable values mean "no override" (`None`); parsed
/// values are clamped into `[MIN_DECODE_MAX, MAX_DECODE_MAX]`.
pub fn parse_decode_max(raw: Option<&str>) -> Option<u64> {
    raw.and_then(|v| v.trim().parse::<u64>().ok())
        .map(|n| n.clamp(MIN_DECODE_MAX, MAX_DECODE_MAX))
}

impl DecodeLimits {
    /// Limits with both ceilings set to `max` (bytes for
    /// strings/byte-arrays, element count for typed arrays).
    pub fn with_max(max: u64) -> DecodeLimits {
        DecodeLimits {
            max_bytes: max,
            max_elems: max,
        }
    }

    /// The process-wide limits: `MRNET_DECODE_MAX` (read once, clamped
    /// into `[MIN_DECODE_MAX, MAX_DECODE_MAX]`) overrides both
    /// ceilings; otherwise the compiled defaults apply. This is what
    /// the network ingress uses, so hostile-frame limits are tunable
    /// without a rebuild.
    pub fn from_env() -> DecodeLimits {
        static LIMITS: OnceLock<DecodeLimits> = OnceLock::new();
        *LIMITS.get_or_init(|| {
            match parse_decode_max(std::env::var("MRNET_DECODE_MAX").ok().as_deref()) {
                Some(max) => DecodeLimits::with_max(max),
                None => DecodeLimits::default(),
            }
        })
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Encodes one value (tag byte + payload) into `buf`.
fn encode_value(buf: &mut BytesMut, value: &Value) {
    buf.put_u8(value.type_code().tag());
    match value {
        Value::Char(v) => buf.put_u8(*v),
        Value::Int32(v) => buf.put_i32_le(*v),
        Value::UInt32(v) => buf.put_u32_le(*v),
        Value::Int64(v) => buf.put_i64_le(*v),
        Value::UInt64(v) => buf.put_u64_le(*v),
        Value::Float(v) => buf.put_f32_le(*v),
        Value::Double(v) => buf.put_f64_le(*v),
        Value::Str(v) => put_str(buf, v),
        Value::CharArray(v) => {
            buf.put_u32_le(v.len() as u32);
            buf.put_slice(v);
        }
        Value::Int32Array(v) => {
            buf.put_u32_le(v.len() as u32);
            for e in v {
                buf.put_i32_le(*e);
            }
        }
        Value::UInt32Array(v) => {
            buf.put_u32_le(v.len() as u32);
            for e in v {
                buf.put_u32_le(*e);
            }
        }
        Value::Int64Array(v) => {
            buf.put_u32_le(v.len() as u32);
            for e in v {
                buf.put_i64_le(*e);
            }
        }
        Value::UInt64Array(v) => {
            buf.put_u32_le(v.len() as u32);
            for e in v {
                buf.put_u64_le(*e);
            }
        }
        Value::FloatArray(v) => {
            buf.put_u32_le(v.len() as u32);
            for e in v {
                buf.put_f32_le(*e);
            }
        }
        Value::DoubleArray(v) => {
            buf.put_u32_le(v.len() as u32);
            for e in v {
                buf.put_f64_le(*e);
            }
        }
        Value::StrArray(v) => {
            buf.put_u32_le(v.len() as u32);
            for s in v {
                put_str(buf, s);
            }
        }
    }
}

// The walkers' helpers are always inlined, so that the skip walk keeps
// its reader in registers and spends a bounds check per value and no
// call: `validate_packet_at` runs on every packet at every hop.

/// Reads a `u32` length prefix and checks it against `limit`.
#[inline(always)]
fn len_prefix(r: &mut Reader<'_>, limit: u64, context: &'static str) -> Result<usize> {
    let len = u64::from(u32::from_le_bytes(r.get(context)?));
    if len > limit {
        return Err(PacketError::LengthOverflow { len, limit });
    }
    Ok(len as usize)
}

/// Reads a length-prefixed string and checks its UTF-8.
#[inline(always)]
fn str_body<'a>(r: &mut Reader<'a>, limits: &DecodeLimits) -> Result<&'a str> {
    let len = len_prefix(r, limits.max_bytes, "string length")?;
    std::str::from_utf8(r.take(len, "string body")?).map_err(|_| PacketError::InvalidUtf8)
}

/// Reads one fixed-width scalar; build mode makes it with `make`.
#[inline(always)]
fn scalar<const BUILD: bool, const N: usize>(
    r: &mut Reader<'_>,
    context: &'static str,
    make: impl FnOnce([u8; N]) -> Value,
) -> Result<Option<Value>> {
    let b = r.get(context)?;
    Ok(BUILD.then(|| make(b)))
}

/// Reads a length-prefixed array of `N`-byte elements; build mode
/// makes it with `make` from each element's bytes read with `elem`.
#[inline(always)]
fn array<const BUILD: bool, const N: usize, T>(
    r: &mut Reader<'_>,
    limits: &DecodeLimits,
    context: &'static str,
    elem: fn([u8; N]) -> T,
    make: fn(Vec<T>) -> Value,
) -> Result<Option<Value>> {
    let len = len_prefix(r, limits.max_elems, context)?;
    let body = r.take(len * N, context)?;
    Ok(BUILD.then(|| {
        make(
            body.chunks_exact(N)
                .map(|b| elem(b.try_into().expect("N bytes")))
                .collect(),
        )
    }))
}

/// Walks one tagged value: checks its type tag, every length prefix
/// against `limits` and the UTF-8 of its strings, and leaves `r` past
/// it. Build mode pushes the value onto `values`; skip mode builds
/// nothing. A short read names the specifier it was reading, as `%d`.
fn walk_value<const BUILD: bool>(
    r: &mut Reader<'_>,
    limits: &DecodeLimits,
    values: &mut Values,
) -> Result<()> {
    let [tag] = r.get("value tag")?;
    let value = match TypeCode::from_tag(tag)? {
        TypeCode::Char => scalar::<BUILD, _>(r, "%c", |[b]| Value::Char(b))?,
        TypeCode::Int32 => scalar::<BUILD, _>(r, "%d", |b| Value::Int32(i32::from_le_bytes(b)))?,
        TypeCode::UInt32 => scalar::<BUILD, _>(r, "%ud", |b| Value::UInt32(u32::from_le_bytes(b)))?,
        TypeCode::Int64 => scalar::<BUILD, _>(r, "%ld", |b| Value::Int64(i64::from_le_bytes(b)))?,
        TypeCode::UInt64 => {
            scalar::<BUILD, _>(r, "%uld", |b| Value::UInt64(u64::from_le_bytes(b)))?
        }
        TypeCode::Float => scalar::<BUILD, _>(r, "%f", |b| Value::Float(f32::from_le_bytes(b)))?,
        TypeCode::Double => scalar::<BUILD, _>(r, "%lf", |b| Value::Double(f64::from_le_bytes(b)))?,
        TypeCode::Str => {
            let s = str_body(r, limits)?;
            BUILD.then(|| Value::Str(s.to_owned()))
        }
        TypeCode::CharArray => {
            let len = len_prefix(r, limits.max_bytes, "%ac")?;
            let body = r.take(len, "%ac")?;
            BUILD.then(|| Value::CharArray(body.to_vec()))
        }
        TypeCode::Int32Array => {
            array::<BUILD, _, _>(r, limits, "%ad", i32::from_le_bytes, Value::Int32Array)?
        }
        TypeCode::UInt32Array => {
            array::<BUILD, _, _>(r, limits, "%aud", u32::from_le_bytes, Value::UInt32Array)?
        }
        TypeCode::Int64Array => {
            array::<BUILD, _, _>(r, limits, "%ald", i64::from_le_bytes, Value::Int64Array)?
        }
        TypeCode::UInt64Array => {
            array::<BUILD, _, _>(r, limits, "%auld", u64::from_le_bytes, Value::UInt64Array)?
        }
        TypeCode::FloatArray => {
            array::<BUILD, _, _>(r, limits, "%af", f32::from_le_bytes, Value::FloatArray)?
        }
        TypeCode::DoubleArray => {
            array::<BUILD, _, _>(r, limits, "%alf", f64::from_le_bytes, Value::DoubleArray)?
        }
        TypeCode::StrArray => {
            let len = len_prefix(r, limits.max_elems, "%as")?;
            let mut v = Vec::with_capacity(if BUILD { len.min(1024) } else { 0 });
            for _ in 0..len {
                let s = str_body(r, limits)?;
                if BUILD {
                    v.push(s.to_owned());
                }
            }
            BUILD.then_some(Value::StrArray(v))
        }
    };
    if let Some(value) = value {
        values.push(value);
    }
    Ok(())
}

/// Walks one packet: its header, then its `arity` values with
/// [`walk_value`]. Returns the header fields and, in build mode, the
/// decoded values; skip mode allocates nothing.
fn walk_packet<const BUILD: bool>(
    r: &mut Reader<'_>,
    limits: &DecodeLimits,
) -> Result<(u32, i32, u32, Option<Values>)> {
    let stream_id = u32::from_le_bytes(r.get("packet header")?);
    let tag = i32::from_le_bytes(r.get("packet header")?);
    let src = u32::from_le_bytes(r.get("packet header")?);
    let arity = usize::from(u16::from_le_bytes(r.get("packet header")?));
    let mut values = Values::with_capacity(if BUILD { arity } else { 0 });
    for _ in 0..arity {
        walk_value::<BUILD>(r, limits, &mut values)?;
    }
    Ok((stream_id, tag, src, BUILD.then_some(values)))
}

/// Validates the structure of the packet at offset `start` of `data`:
/// header, every value's type tag, every length prefix (against
/// `limits`), and string UTF-8 — without allocating a single value.
/// Returns the header fields and the offset one past the packet's last
/// byte. (Offsets in and out, not a `&mut Reader`, keep the batch
/// loop's position in a register from packet to packet.)
///
/// A wire region that passes this check is safe to hand to
/// [`decode_payload_validated`], which therefore cannot fail.
pub(crate) fn validate_packet_at(
    data: &[u8],
    start: usize,
    limits: &DecodeLimits,
) -> Result<(u32, i32, u32, usize)> {
    let mut r = Reader::new(data);
    r.take(start, "packet offset")?;
    let (stream_id, tag, src, _) = walk_packet::<false>(&mut r, limits)?;
    Ok((stream_id, tag, src, r.pos()))
}

/// Materializes the typed values of a pre-validated wire packet.
pub(crate) fn decode_payload_validated(wire: &Bytes) -> Values {
    // Structure and limits were enforced by `validate_packet_at` before
    // the lazy packet was built, so decoding is infallible and ingress
    // limits must not be re-applied (they may have tightened via the
    // env since).
    let permissive = DecodeLimits::with_max(u64::MAX);
    let (.., values) = walk_packet::<true>(&mut Reader::new(wire), &permissive)
        .expect("wire was validated at decode");
    values.expect("build mode decodes")
}

/// Appends the wire form of `packet` to `buf`. A packet that still
/// carries its original wire bytes is copied verbatim — no payload
/// re-encode.
pub fn encode_packet_into(packet: &Packet, buf: &mut BytesMut) {
    if let Some(wire) = packet.raw_wire() {
        buf.put_slice(wire);
        return;
    }
    buf.reserve(packet.encoded_size_hint());
    buf.put_u32_le(packet.stream_id());
    buf.put_i32_le(packet.tag());
    buf.put_u32_le(packet.src());
    buf.put_u16_le(packet.values().len() as u16);
    for value in packet.values() {
        encode_value(buf, value);
    }
}

/// Encodes `packet` into a freshly allocated buffer — unless the
/// packet still carries its original wire bytes, in which case that
/// buffer is returned as-is (zero copy, pointer-identical).
pub fn encode_packet(packet: &Packet) -> Bytes {
    if let Some(wire) = packet.raw_wire() {
        return wire.clone();
    }
    let mut buf = BytesMut::with_capacity(packet.encoded_size_hint());
    encode_packet_into(packet, &mut buf);
    buf.freeze()
}

/// Decodes the packet at `r`, leaving `r` one past its last byte.
pub fn decode_packet_from(r: &mut Reader<'_>, limits: &DecodeLimits) -> Result<Packet> {
    let (stream_id, tag, src, values) = walk_packet::<true>(r, limits)?;
    Ok(Packet::from_values(
        stream_id,
        tag,
        src,
        values.expect("build mode decodes"),
    ))
}

/// Decodes one packet from an owned byte buffer.
pub fn decode_packet(bytes: Bytes) -> Result<Packet> {
    decode_packet_from(&mut Reader::new(&bytes), &DecodeLimits::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    /// Reads one packet from a wire buffer, keeping only the outcome.
    type EntryPoint = fn(&[u8]) -> Result<()>;

    /// The packet walker's two entry points: eager decode (build mode)
    /// and the ingress validation pass (skip mode). Every test of what
    /// the grammar rejects runs through both.
    const ENTRY_POINTS: [(&str, EntryPoint); 2] = [
        ("decode", |w| {
            decode_packet(Bytes::copy_from_slice(w)).map(drop)
        }),
        ("validate", |w| {
            validate_packet_at(w, 0, &DecodeLimits::default()).map(drop)
        }),
    ];

    /// Header + one value of type `code`, whose body is `body`.
    fn one_value(code: u8, body: &[u8]) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0); // stream
        buf.put_i32_le(0); // tag
        buf.put_u32_le(0); // src
        buf.put_u16_le(1); // arity
        buf.put_u8(code);
        buf.put_slice(body);
        buf
    }

    fn full_packet() -> Packet {
        PacketBuilder::new(12, -5)
            .src(3)
            .push(Value::Char(b'k'))
            .push(-123i32)
            .push(456u32)
            .push(-(1i64 << 40))
            .push(1u64 << 50)
            .push(1.5f32)
            .push(-2.25f64)
            .push("héllo wörld")
            .push(vec![1u8, 2, 3])
            .push(vec![-1i32, 0, 1])
            .push(vec![7u32])
            .push(vec![i64::MIN, i64::MAX])
            .push(vec![u64::MAX])
            .push(vec![f32::MIN_POSITIVE, 0.0])
            .push(vec![std::f64::consts::PI])
            .push(vec!["a".to_string(), String::new(), "ccc".to_string()])
            .build()
    }

    #[test]
    fn round_trip_every_type() {
        let p = full_packet();
        let bytes = encode_packet(&p);
        let q = decode_packet(bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn round_trip_empty_packet() {
        let p = Packet::control(9, 42);
        let q = decode_packet(encode_packet(&p)).unwrap();
        assert_eq!(p, q);
        assert!(q.fmt().is_empty());
    }

    #[test]
    fn truncation_at_every_boundary_is_an_error() {
        let wire = encode_packet(&full_packet());
        for (entry, walk) in ENTRY_POINTS {
            assert!(walk(&wire).is_ok(), "{entry} of the whole packet");
            for cut in 0..wire.len() {
                assert!(
                    walk(&wire[..cut]).is_err(),
                    "{entry} of {cut}-byte prefix should fail"
                );
            }
        }
    }

    #[test]
    fn validation_pass_agrees_with_eager_decode_on_every_boundary() {
        // The skip pass and the eager decoder must accept and reject
        // exactly the same inputs, byte for byte, and read the same header.
        let wire = encode_packet(&full_packet());
        let limits = DecodeLimits::default();
        let decoded = decode_packet(wire.clone()).unwrap();
        let (stream_id, tag, src, end) = validate_packet_at(&wire, 0, &limits).unwrap();
        assert_eq!(
            (stream_id, tag, src),
            (decoded.stream_id(), decoded.tag(), decoded.src())
        );
        assert_eq!((stream_id, tag, src), (12, -5, 3));
        assert_eq!(end, wire.len());
        for cut in 0..=wire.len() {
            let eager = decode_packet(wire.slice(..cut)).is_ok();
            let skip = validate_packet_at(&wire[..cut], 0, &limits).is_ok();
            assert_eq!(eager, skip, "decode and validate disagree on {cut} bytes");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // A %s value claiming 4 GiB of body.
        let wire = one_value(TypeCode::Str.tag(), &u32::MAX.to_le_bytes());
        for (entry, walk) in ENTRY_POINTS {
            let err = walk(&wire).unwrap_err();
            assert!(matches!(err, PacketError::LengthOverflow { .. }), "{entry}");
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let wire = one_value(0x7f, &[]);
        for (entry, walk) in ENTRY_POINTS {
            let err = walk(&wire).unwrap_err();
            assert!(matches!(err, PacketError::UnknownTypeTag(0x7f)), "{entry}");
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let wire = one_value(TypeCode::Str.tag(), &[2, 0, 0, 0, 0xff, 0xfe]);
        for (entry, walk) in ENTRY_POINTS {
            assert_eq!(
                walk(&wire).unwrap_err(),
                PacketError::InvalidUtf8,
                "{entry}"
            );
        }
    }

    #[test]
    fn header_fields_survive() {
        let p = PacketBuilder::new(77, 1234).src(9).push(0i32).build();
        let q = decode_packet(encode_packet(&p)).unwrap();
        assert_eq!(q.stream_id(), 77);
        assert_eq!(q.tag(), 1234);
        assert_eq!(q.src(), 9);
    }

    #[test]
    fn encoding_is_compact() {
        // A single i32 packet: 14-byte header + 1 tag byte + 4 bytes.
        let p = PacketBuilder::new(0, 0).push(5i32).build();
        assert_eq!(encode_packet(&p).len(), 14 + 1 + 4);
    }

    #[test]
    fn parse_decode_max_defaults_and_clamps() {
        assert_eq!(parse_decode_max(None), None);
        assert_eq!(parse_decode_max(Some("")), None);
        assert_eq!(parse_decode_max(Some("nope")), None);
        assert_eq!(parse_decode_max(Some("-5")), None);
        assert_eq!(parse_decode_max(Some("0")), Some(MIN_DECODE_MAX));
        assert_eq!(parse_decode_max(Some("100")), Some(MIN_DECODE_MAX));
        assert_eq!(parse_decode_max(Some(" 65536 ")), Some(65536));
        assert_eq!(
            parse_decode_max(Some("99999999999999999")),
            Some(MAX_DECODE_MAX)
        );
    }

    #[test]
    fn with_max_sets_both_ceilings() {
        let limits = DecodeLimits::with_max(2048);
        assert_eq!(limits.max_bytes, 2048);
        assert_eq!(limits.max_elems, 2048);
        // A 4 KiB string is over a 2 KiB ceiling.
        let p = PacketBuilder::new(0, 0).push("x".repeat(4096)).build();
        let wire = encode_packet(&p);
        let err = validate_packet_at(&wire, 0, &limits).unwrap_err();
        assert!(matches!(err, PacketError::LengthOverflow { .. }));
        assert!(validate_packet_at(&wire, 0, &DecodeLimits::default()).is_ok());
    }

    #[test]
    fn lazy_materialization_matches_eager_decode_for_every_type() {
        let p = full_packet();
        let batch = crate::batch::encode_batch(std::slice::from_ref(&p));
        let lazy = crate::batch::decode_batch_lazy(batch).unwrap().remove(0);
        let eager = decode_packet(encode_packet(&p)).unwrap();
        assert_eq!(lazy.stream_id(), eager.stream_id());
        assert_eq!(lazy.tag(), eager.tag());
        assert_eq!(lazy.src(), eager.src());
        assert_eq!(lazy.fmt(), eager.fmt());
        assert_eq!(lazy.values(), eager.values());
    }

    #[test]
    fn payload_is_materialized_once_and_cached() {
        let p = full_packet();
        let batch = crate::batch::encode_batch(std::slice::from_ref(&p));
        let lazy = crate::batch::decode_batch_lazy(batch).unwrap().remove(0);
        // Repeated access must hand back the same cached values, not
        // decode the wire bytes again each time.
        let first = lazy.values().as_ptr();
        let second = lazy.values().as_ptr();
        assert_eq!(first, second);
        assert_eq!(lazy.fmt(), p.fmt());
        // Same guarantee through a cloned handle.
        let third = lazy.clone().values().as_ptr();
        assert_eq!(first, third);
    }

    #[test]
    fn multiple_packets_in_one_buffer_decode_sequentially() {
        let a = PacketBuilder::new(1, 1).push(1i32).build();
        let b = PacketBuilder::new(2, 2).push("two").build();
        let mut buf = BytesMut::new();
        encode_packet_into(&a, &mut buf);
        encode_packet_into(&b, &mut buf);
        let mut r = Reader::new(&buf);
        let limits = DecodeLimits::default();
        let a2 = decode_packet_from(&mut r, &limits).unwrap();
        let b2 = decode_packet_from(&mut r, &limits).unwrap();
        assert_eq!(a, a2);
        assert_eq!(b, b2);
        assert!(r.is_empty());
    }
}
