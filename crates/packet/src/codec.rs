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

use std::sync::OnceLock;

use crate::bytes::{Buf, BufMut, Bytes, BytesMut};
use crate::error::{PacketError, Result};
use crate::format::FormatString;
use crate::packet::{Decoded, Packet};
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

fn need(buf: &impl Buf, n: usize, context: &'static str) -> Result<()> {
    if buf.remaining() < n {
        Err(PacketError::Truncated { context })
    } else {
        Ok(())
    }
}

fn get_len(buf: &mut impl Buf, limit: u64, context: &'static str) -> Result<usize> {
    need(buf, 4, context)?;
    let len = buf.get_u32_le() as u64;
    if len > limit {
        return Err(PacketError::LengthOverflow { len, limit });
    }
    Ok(len as usize)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut impl Buf, limits: &DecodeLimits) -> Result<String> {
    let len = get_len(buf, limits.max_bytes, "string length")?;
    need(buf, len, "string body")?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| PacketError::InvalidUtf8)
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

/// Decodes one tagged value from `buf`.
fn decode_value(buf: &mut impl Buf, limits: &DecodeLimits) -> Result<Value> {
    need(buf, 1, "value tag")?;
    let code = TypeCode::from_tag(buf.get_u8())?;
    Ok(match code {
        TypeCode::Char => {
            need(buf, 1, "char")?;
            Value::Char(buf.get_u8())
        }
        TypeCode::Int32 => {
            need(buf, 4, "i32")?;
            Value::Int32(buf.get_i32_le())
        }
        TypeCode::UInt32 => {
            need(buf, 4, "u32")?;
            Value::UInt32(buf.get_u32_le())
        }
        TypeCode::Int64 => {
            need(buf, 8, "i64")?;
            Value::Int64(buf.get_i64_le())
        }
        TypeCode::UInt64 => {
            need(buf, 8, "u64")?;
            Value::UInt64(buf.get_u64_le())
        }
        TypeCode::Float => {
            need(buf, 4, "f32")?;
            Value::Float(buf.get_f32_le())
        }
        TypeCode::Double => {
            need(buf, 8, "f64")?;
            Value::Double(buf.get_f64_le())
        }
        TypeCode::Str => Value::Str(get_str(buf, limits)?),
        TypeCode::CharArray => {
            let len = get_len(buf, limits.max_bytes, "byte array length")?;
            need(buf, len, "byte array body")?;
            let mut v = vec![0u8; len];
            buf.copy_to_slice(&mut v);
            Value::CharArray(v)
        }
        TypeCode::Int32Array => {
            let len = get_len(buf, limits.max_elems, "i32 array length")?;
            need(buf, len * 4, "i32 array body")?;
            Value::Int32Array((0..len).map(|_| buf.get_i32_le()).collect())
        }
        TypeCode::UInt32Array => {
            let len = get_len(buf, limits.max_elems, "u32 array length")?;
            need(buf, len * 4, "u32 array body")?;
            Value::UInt32Array((0..len).map(|_| buf.get_u32_le()).collect())
        }
        TypeCode::Int64Array => {
            let len = get_len(buf, limits.max_elems, "i64 array length")?;
            need(buf, len * 8, "i64 array body")?;
            Value::Int64Array((0..len).map(|_| buf.get_i64_le()).collect())
        }
        TypeCode::UInt64Array => {
            let len = get_len(buf, limits.max_elems, "u64 array length")?;
            need(buf, len * 8, "u64 array body")?;
            Value::UInt64Array((0..len).map(|_| buf.get_u64_le()).collect())
        }
        TypeCode::FloatArray => {
            let len = get_len(buf, limits.max_elems, "f32 array length")?;
            need(buf, len * 4, "f32 array body")?;
            Value::FloatArray((0..len).map(|_| buf.get_f32_le()).collect())
        }
        TypeCode::DoubleArray => {
            let len = get_len(buf, limits.max_elems, "f64 array length")?;
            need(buf, len * 8, "f64 array body")?;
            Value::DoubleArray((0..len).map(|_| buf.get_f64_le()).collect())
        }
        TypeCode::StrArray => {
            let len = get_len(buf, limits.max_elems, "string array length")?;
            let mut v = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                v.push(get_str(buf, limits)?);
            }
            Value::StrArray(v)
        }
    })
}

/// A cursor over a contiguous wire buffer, used by the validation
/// pass to walk a packet's structure without allocating values.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn need(&self, n: usize, context: &'static str) -> Result<()> {
        if self.data.len() - self.pos < n {
            Err(PacketError::Truncated { context })
        } else {
            Ok(())
        }
    }

    fn skip(&mut self, n: usize, context: &'static str) -> Result<()> {
        self.need(n, context)?;
        self.pos += n;
        Ok(())
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        self.need(n, context)?;
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn get_u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.take(1, context)?[0])
    }

    fn get_u16_le(&mut self, context: &'static str) -> Result<u16> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn get_u32_le(&mut self, context: &'static str) -> Result<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_len(&mut self, limit: u64, context: &'static str) -> Result<usize> {
        let len = self.get_u32_le(context)? as u64;
        if len > limit {
            return Err(PacketError::LengthOverflow { len, limit });
        }
        Ok(len as usize)
    }

    fn check_str(&mut self, limits: &DecodeLimits) -> Result<()> {
        let len = self.get_len(limits.max_bytes, "string length")?;
        let body = self.take(len, "string body")?;
        std::str::from_utf8(body).map_err(|_| PacketError::InvalidUtf8)?;
        Ok(())
    }
}

/// Validates one tagged value's wire structure (type tag, length
/// prefixes against `limits`, UTF-8 of strings) without materializing
/// it, advancing the cursor past it.
fn skip_value(c: &mut Cursor<'_>, limits: &DecodeLimits) -> Result<()> {
    let code = TypeCode::from_tag(c.get_u8("value tag")?)?;
    match code {
        TypeCode::Char => c.skip(1, "char"),
        TypeCode::Int32 => c.skip(4, "i32"),
        TypeCode::UInt32 => c.skip(4, "u32"),
        TypeCode::Int64 => c.skip(8, "i64"),
        TypeCode::UInt64 => c.skip(8, "u64"),
        TypeCode::Float => c.skip(4, "f32"),
        TypeCode::Double => c.skip(8, "f64"),
        TypeCode::Str => c.check_str(limits),
        TypeCode::CharArray => {
            let len = c.get_len(limits.max_bytes, "byte array length")?;
            c.skip(len, "byte array body")
        }
        TypeCode::Int32Array => {
            let len = c.get_len(limits.max_elems, "i32 array length")?;
            c.skip(len * 4, "i32 array body")
        }
        TypeCode::UInt32Array => {
            let len = c.get_len(limits.max_elems, "u32 array length")?;
            c.skip(len * 4, "u32 array body")
        }
        TypeCode::Int64Array => {
            let len = c.get_len(limits.max_elems, "i64 array length")?;
            c.skip(len * 8, "i64 array body")
        }
        TypeCode::UInt64Array => {
            let len = c.get_len(limits.max_elems, "u64 array length")?;
            c.skip(len * 8, "u64 array body")
        }
        TypeCode::FloatArray => {
            let len = c.get_len(limits.max_elems, "f32 array length")?;
            c.skip(len * 4, "f32 array body")
        }
        TypeCode::DoubleArray => {
            let len = c.get_len(limits.max_elems, "f64 array length")?;
            c.skip(len * 8, "f64 array body")
        }
        TypeCode::StrArray => {
            let len = c.get_len(limits.max_elems, "string array length")?;
            for _ in 0..len {
                c.check_str(limits)?;
            }
            Ok(())
        }
    }
}

/// Validates the structure of one packet starting at `start` in
/// `data`: header, every value's type tag, every length prefix
/// (against `limits`), and string UTF-8 — without allocating a single
/// value. Returns the header fields and the offset one past the
/// packet's last byte.
///
/// A wire region that passes this check is safe to hand to
/// [`decode_payload_validated`], which therefore cannot fail.
pub(crate) fn validate_packet_at(
    data: &[u8],
    start: usize,
    limits: &DecodeLimits,
) -> Result<(u32, i32, u32, usize)> {
    let mut c = Cursor { data, pos: start };
    c.need(PACKET_HEADER_LEN, "packet header")?;
    let stream_id = c.get_u32_le("packet header")?;
    let tag = c.get_u32_le("packet header")? as i32;
    let src = c.get_u32_le("packet header")?;
    let arity = c.get_u16_le("packet header")? as usize;
    for _ in 0..arity {
        skip_value(&mut c, limits)?;
    }
    Ok((stream_id, tag, src, c.pos))
}

/// Materializes the typed payload of a pre-validated wire packet.
/// The `FormatString` is derived from the decoded value tags exactly
/// once, here, and cached in the packet with the values.
pub(crate) fn decode_payload_validated(wire: &Bytes) -> Decoded {
    let mut buf = wire.slice(PACKET_HEADER_LEN - 2..);
    let arity = buf.get_u16_le() as usize;
    // Structure and limits were enforced by `validate_packet_at`
    // before the lazy packet was built, so decoding is infallible and
    // ingress limits must not be re-applied (they may have tightened
    // via the env since).
    let permissive = DecodeLimits::with_max(u64::MAX);
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(&mut buf, &permissive).expect("wire was validated at decode"));
    }
    let codes: Vec<_> = values.iter().map(Value::type_code).collect();
    Decoded {
        fmt: FormatString::from_codes(codes),
        values,
    }
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

/// Decodes one packet from the front of `buf`, consuming its bytes.
pub fn decode_packet_from(buf: &mut impl Buf, limits: &DecodeLimits) -> Result<Packet> {
    need(buf, 4 + 4 + 4 + 2, "packet header")?;
    let stream_id = buf.get_u32_le();
    let tag = buf.get_i32_le();
    let src = buf.get_u32_le();
    let arity = buf.get_u16_le() as usize;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(buf, limits)?);
    }
    let codes: Vec<_> = values.iter().map(Value::type_code).collect();
    let fmt = FormatString::from_codes(codes);
    Ok(Packet::from_decoded(
        stream_id,
        tag,
        src,
        Decoded { fmt, values },
    ))
}

/// Decodes one packet from an owned byte buffer.
pub fn decode_packet(bytes: Bytes) -> Result<Packet> {
    let mut buf = bytes;
    let packet = decode_packet_from(&mut buf, &DecodeLimits::default())?;
    Ok(packet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

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
        let bytes = encode_packet(&full_packet());
        for cut in 0..bytes.len() {
            let slice = bytes.slice(..cut);
            let err = decode_packet(slice);
            assert!(err.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // Header + a %s value claiming 4 GiB of body.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0); // stream
        buf.put_i32_le(0); // tag
        buf.put_u32_le(0); // src
        buf.put_u16_le(1); // arity
        buf.put_u8(TypeCode::Str.tag());
        buf.put_u32_le(u32::MAX);
        let err = decode_packet(buf.freeze()).unwrap_err();
        assert!(matches!(err, PacketError::LengthOverflow { .. }));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u32_le(0);
        buf.put_u16_le(1);
        buf.put_u8(0x7f);
        let err = decode_packet(buf.freeze()).unwrap_err();
        assert!(matches!(err, PacketError::UnknownTypeTag(0x7f)));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u32_le(0);
        buf.put_u16_le(1);
        buf.put_u8(TypeCode::Str.tag());
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        let err = decode_packet(buf.freeze()).unwrap_err();
        assert_eq!(err, PacketError::InvalidUtf8);
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
    fn validation_pass_agrees_with_eager_decode_on_every_boundary() {
        // The skip pass and the eager decoder must accept and reject
        // exactly the same inputs, byte for byte.
        let wire = encode_packet(&full_packet());
        let limits = DecodeLimits::default();
        let (stream_id, tag, src, end) = validate_packet_at(&wire, 0, &limits).unwrap();
        assert_eq!((stream_id, tag, src), (12, -5, 3));
        assert_eq!(end, wire.len());
        for cut in 0..wire.len() {
            assert!(
                validate_packet_at(&wire[..cut], 0, &limits).is_err(),
                "validation of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn validation_rejects_what_decode_rejects() {
        // Hostile length prefix.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u32_le(0);
        buf.put_u16_le(1);
        buf.put_u8(TypeCode::Str.tag());
        buf.put_u32_le(u32::MAX);
        let limits = DecodeLimits::default();
        assert!(matches!(
            validate_packet_at(&buf, 0, &limits).unwrap_err(),
            PacketError::LengthOverflow { .. }
        ));
        // Unknown type tag.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u32_le(0);
        buf.put_u16_le(1);
        buf.put_u8(0x7f);
        assert!(matches!(
            validate_packet_at(&buf, 0, &limits).unwrap_err(),
            PacketError::UnknownTypeTag(0x7f)
        ));
        // Invalid UTF-8 in a string body.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_i32_le(0);
        buf.put_u32_le(0);
        buf.put_u16_le(1);
        buf.put_u8(TypeCode::Str.tag());
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(
            validate_packet_at(&buf, 0, &limits).unwrap_err(),
            PacketError::InvalidUtf8
        );
    }

    #[test]
    fn lazy_materialization_matches_eager_decode_for_every_type() {
        let p = full_packet();
        let batch = crate::batch::encode_batch(std::slice::from_ref(&p));
        let lazy = crate::batch::decode_batch_lazy(batch).unwrap().remove(0);
        let mut eager_wire = encode_packet(&p);
        let eager = decode_packet_from(&mut eager_wire, &DecodeLimits::default()).unwrap();
        assert_eq!(lazy.stream_id(), eager.stream_id());
        assert_eq!(lazy.tag(), eager.tag());
        assert_eq!(lazy.src(), eager.src());
        assert_eq!(lazy.fmt(), eager.fmt());
        assert_eq!(lazy.values(), eager.values());
    }

    #[test]
    fn format_string_is_derived_once_and_cached() {
        let p = full_packet();
        let batch = crate::batch::encode_batch(std::slice::from_ref(&p));
        let lazy = crate::batch::decode_batch_lazy(batch).unwrap().remove(0);
        // Repeated access must hand back the same cached FormatString,
        // not re-derive it from the value tags each time.
        let first: *const FormatString = lazy.fmt();
        let second: *const FormatString = lazy.fmt();
        assert_eq!(first, second);
        assert_eq!(lazy.fmt(), p.fmt());
        // Same guarantee through a cloned handle.
        let third: *const FormatString = lazy.clone().fmt();
        assert_eq!(first, third);
    }

    #[test]
    fn multiple_packets_in_one_buffer_decode_sequentially() {
        let a = PacketBuilder::new(1, 1).push(1i32).build();
        let b = PacketBuilder::new(2, 2).push("two").build();
        let mut buf = BytesMut::new();
        encode_packet_into(&a, &mut buf);
        encode_packet_into(&b, &mut buf);
        let mut bytes = buf.freeze();
        let limits = DecodeLimits::default();
        let a2 = decode_packet_from(&mut bytes, &limits).unwrap();
        let b2 = decode_packet_from(&mut bytes, &limits).unwrap();
        assert_eq!(a, a2);
        assert_eq!(b, b2);
        assert!(bytes.is_empty());
    }
}
