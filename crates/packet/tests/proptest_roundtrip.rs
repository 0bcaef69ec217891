//! Property-based tests: arbitrary packets survive the packed binary
//! codec and batching unchanged, and neither byte soup nor hostile
//! edits of valid frames ever panic the decoders.

use mrnet_packet::bytes::Bytes;
use mrnet_packet::{
    decode_batch, decode_batch_lazy, decode_packet, encode_batch, encode_packet, encoded_batch_len,
    FormatString, Packet, PacketBuilder, Value,
};
use mrnet_sim::check::{check, vec_of};
use mrnet_sim::SplitMix64;

const SEED: u64 = 0x9AC3_E701;
const CASES: usize = 256;

/// Any Unicode scalar value; surrogate code points become U+FFFD.
fn any_char(rng: &mut SplitMix64) -> char {
    char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('\u{FFFD}')
}

fn any_string(rng: &mut SplitMix64, max_chars: usize) -> String {
    vec_of(rng, 0..max_chars + 1, any_char)
        .into_iter()
        .collect()
}

fn arb_scalar(rng: &mut SplitMix64) -> Value {
    match rng.gen_range(0..8u32) {
        0 => Value::Char(rng.next_u64() as u8),
        1 => Value::Int32(rng.next_u64() as i32),
        2 => Value::UInt32(rng.next_u64() as u32),
        3 => Value::Int64(rng.next_u64() as i64),
        4 => Value::UInt64(rng.next_u64()),
        5 => Value::Float(f32::from_bits(rng.next_u64() as u32)),
        6 => Value::Double(f64::from_bits(rng.next_u64())),
        _ => Value::Str(any_string(rng, 40)),
    }
}

fn arb_array(rng: &mut SplitMix64) -> Value {
    let n = 0..50;
    match rng.gen_range(0..8u32) {
        0 => Value::CharArray(vec_of(rng, n, |r| r.next_u64() as u8)),
        1 => Value::Int32Array(vec_of(rng, n, |r| r.next_u64() as i32)),
        2 => Value::UInt32Array(vec_of(rng, n, |r| r.next_u64() as u32)),
        3 => Value::Int64Array(vec_of(rng, n, |r| r.next_u64() as i64)),
        4 => Value::UInt64Array(vec_of(rng, n, |r| r.next_u64())),
        5 => Value::FloatArray(vec_of(rng, n, |r| f32::from_bits(r.next_u64() as u32))),
        6 => Value::DoubleArray(vec_of(rng, n, |r| f64::from_bits(r.next_u64()))),
        _ => Value::StrArray(vec_of(rng, 0..10, |r| any_string(r, 10))),
    }
}

fn arb_packet(rng: &mut SplitMix64) -> Packet {
    let stream_id = rng.next_u64() as u32;
    let tag = rng.next_u64() as i32;
    let src = rng.next_u64() as u32;
    let values = vec_of(rng, 0..8, |r| {
        if r.gen_range(0..2u32) == 0 {
            arb_scalar(r)
        } else {
            arb_array(r)
        }
    });
    let codes: Vec<_> = values.iter().map(Value::type_code).collect();
    let fmt = FormatString::from_codes(codes);
    Packet::new(stream_id, tag, fmt, values)
        .unwrap()
        .with_src(src)
}

fn arb_packets(rng: &mut SplitMix64, len: std::ops::Range<usize>) -> Vec<Packet> {
    vec_of(rng, len, arb_packet)
}

fn byte_soup(rng: &mut SplitMix64) -> Vec<u8> {
    vec_of(rng, 0..256, |r| r.next_u64() as u8)
}

/// Offset and width of every count and length field in the wire form
/// of `packets`, the first packet starting at `pos`: each packet's
/// arity, and each string's and array's length prefix.
fn length_fields(packets: &[Packet], mut pos: usize) -> Vec<(usize, usize)> {
    const HEADER: usize = 14;
    let mut fields = Vec::new();
    for p in packets {
        fields.push((pos + HEADER - 2, 2));
        pos += HEADER;
        for v in p.values() {
            if v.type_code().is_array() || matches!(v, Value::Str(_)) {
                fields.push((pos + 1, 4));
            }
            if let Value::StrArray(strings) = v {
                let mut at = pos + 5;
                for s in strings {
                    fields.push((at, 4));
                    at += 4 + s.len();
                }
            }
            let alone = PacketBuilder::new(0, 0).push(v.clone()).build();
            pos += encode_packet(&alone).len() - HEADER;
        }
    }
    fields
}

/// The wire form of valid packets (one packet, or a batch), then one
/// to three hostile edits: a bit flip, a truncation, or a count or
/// length field overwritten with a value near or far from the truth.
fn mutated_frame(rng: &mut SplitMix64) -> Vec<u8> {
    let packets = arb_packets(rng, 1..4);
    let (mut wire, fields) = if rng.gen_range(0..2u32) == 0 {
        (
            encode_packet(&packets[0]).to_vec(),
            length_fields(&packets[..1], 0),
        )
    } else {
        let mut fields = length_fields(&packets, 4);
        fields.push((0, 4)); // the batch's packet count
        (encode_batch(&packets).to_vec(), fields)
    };
    for _ in 0..rng.gen_range(1..4u32) {
        match rng.gen_range(0..3u32) {
            0 if !wire.is_empty() => {
                let at = rng.gen_range(0..wire.len());
                wire[at] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => wire.truncate(rng.gen_range(0..wire.len() + 1)),
            _ => {
                let (at, width) = fields[rng.gen_range(0..fields.len())];
                if at + width > wire.len() {
                    continue;
                }
                let mut old = [0u8; 8];
                old[..width].copy_from_slice(&wire[at..at + width]);
                let old = u64::from_le_bytes(old);
                let new = match rng.gen_range(0..5u32) {
                    0 => old.wrapping_add(1),
                    1 => old.wrapping_sub(1),
                    2 => 0,
                    3 => u64::MAX,
                    _ => rng.next_u64(),
                };
                wire[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
            }
        }
    }
    wire
}

/// Byte soup half the time, a mutated valid frame the other half.
fn hostile_bytes(rng: &mut SplitMix64) -> Vec<u8> {
    if rng.gen_range(0..2u32) == 0 {
        byte_soup(rng)
    } else {
        mutated_frame(rng)
    }
}

// NaN-aware equality: the codec must preserve bit patterns for normal
// floats; NaN payload bits may legally differ only in representation we
// don't use, so compare via to_bits.
fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::FloatArray(x), Value::FloatArray(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Value::DoubleArray(x), Value::DoubleArray(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

fn packets_eq(a: &Packet, b: &Packet) -> bool {
    a.stream_id() == b.stream_id()
        && a.tag() == b.tag()
        && a.src() == b.src()
        && a.fmt() == b.fmt()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| values_eq(x, y))
}

#[test]
fn packet_codec_round_trip() {
    check(SEED, CASES, arb_packet, |packet| {
        let decoded = decode_packet(encode_packet(packet)).unwrap();
        assert!(packets_eq(packet, &decoded));
    });
}

#[test]
fn batch_codec_round_trip() {
    check(
        SEED,
        CASES,
        |rng| arb_packets(rng, 0..10),
        |packets| {
            let decoded = decode_batch(encode_batch(packets)).unwrap();
            assert_eq!(decoded.len(), packets.len());
            for (a, b) in packets.iter().zip(&decoded) {
                assert!(packets_eq(a, b));
            }
        },
    );
}

#[test]
fn decoder_never_panics_on_garbage() {
    check(SEED, CASES * 4, hostile_bytes, |bytes| {
        // Any error is fine; panics/aborts are not. A decoded packet
        // must be whole: materializing a lazy one cannot fail.
        let _ = decode_packet(Bytes::from(bytes.clone()));
        let _ = decode_batch(Bytes::from(bytes.clone()));
        if let Ok(packets) = decode_batch_lazy(Bytes::from(bytes.clone())) {
            for p in &packets {
                let _ = (p.fmt(), p.values());
                assert!(!p.is_lazy());
            }
        }
    });
}

#[test]
fn format_string_canonical_round_trip() {
    check(
        SEED,
        CASES,
        |rng| vec_of(rng, 0..12, |r| r.gen_range(0..16u8)),
        |tags| {
            let codes: Vec<_> = tags
                .iter()
                .map(|&t| mrnet_packet::TypeCode::from_tag(t).unwrap())
                .collect();
            let fmt = FormatString::from_codes(codes.clone());
            let reparsed = FormatString::parse(&fmt.to_string()).unwrap();
            assert_eq!(reparsed.codes(), &codes[..]);
        },
    );
}

#[test]
fn lazy_and_eager_decode_are_observationally_equivalent() {
    check(
        SEED,
        CASES,
        |rng| arb_packets(rng, 0..10),
        |packets| {
            // Same batch bytes through both decoders: every header
            // field, format string, and value must agree for every
            // Value type.
            let wire = encode_batch(packets);
            let eager = decode_batch(wire.clone()).unwrap();
            let lazy = decode_batch_lazy(wire).unwrap();
            assert_eq!(lazy.len(), eager.len());
            for (l, e) in lazy.iter().zip(&eager) {
                assert!(l.is_lazy());
                assert!(packets_eq(l, e));
                assert!(!l.is_lazy());
            }
        },
    );
}

#[test]
fn untouched_lazy_batch_reencodes_byte_identically() {
    check(
        SEED,
        CASES,
        |rng| arb_packets(rng, 1..10),
        |packets| {
            let inbound = encode_batch(packets);
            let relayed = decode_batch_lazy(inbound.clone()).unwrap();
            let outbound = encode_batch(&relayed);
            assert_eq!(&outbound, &inbound);
        },
    );
}

#[test]
fn lazy_decoder_never_panics_on_garbage() {
    check(SEED, CASES, byte_soup, |bytes| {
        let _ = decode_batch_lazy(Bytes::from(bytes.clone()));
    });
}

#[test]
fn lazy_and_eager_agree_on_rejection() {
    check(SEED, CASES * 4, hostile_bytes, |bytes| {
        // The structural validation pass must accept exactly the byte
        // strings the eager decoder accepts.
        let eager = decode_batch(Bytes::from(bytes.clone()));
        let lazy = decode_batch_lazy(Bytes::from(bytes.clone()));
        assert_eq!(eager.is_ok(), lazy.is_ok());
    });
}

#[test]
fn encoded_size_hint_is_exact() {
    check(SEED, CASES, arb_packet, |packet| {
        // Back-ends report the hint as `up.bytes.local`, and the batch
        // encoder sizes its one allocation by it.
        assert_eq!(packet.encoded_size_hint(), encode_packet(packet).len());
        let batch = [packet.clone(), packet.clone()];
        assert_eq!(encoded_batch_len(&batch), encode_batch(&batch).len());
    });
}
