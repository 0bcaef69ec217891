//! Packet buffers: batching and unbatching.
//!
//! §2.3: "Data packets are batched into packet buffers, which logically
//! represent a series of communications destined for the same process,
//! to allow for fewer larger messages to be sent over busy connections,
//! reducing overall communication costs. … Incoming packet buffers must
//! first be unbatched into individual packets."
//!
//! [`Batcher`] accumulates packets headed for one neighbor and reports
//! when the batch reaches [`MAX_BATCH_PACKETS`] or [`MAX_BATCH_BYTES`];
//! [`encode_batch`]/[`decode_batch`] are the wire form.

use crate::bytes::{Bytes, BytesMut, Reader};
use crate::codec::{decode_packet_from, encode_packet_into, validate_packet_at, DecodeLimits};
use crate::error::{PacketError, Result};
use crate::packet::Packet;

/// A packet buffer is flushed once it holds this many packets.
pub const MAX_BATCH_PACKETS: usize = 64;

/// A packet buffer is flushed once its encoded size reaches this many
/// bytes.
pub const MAX_BATCH_BYTES: usize = 32 * 1024;

/// Accumulates packets destined for the same neighboring process.
///
/// Packets are held by reference (cheap clones of [`Packet`] handles),
/// so batching adds no payload copies.
#[derive(Debug, Default)]
pub struct Batcher {
    pending: Vec<Packet>,
    pending_bytes: usize,
}

impl Batcher {
    /// Creates an empty batcher.
    pub fn new() -> Batcher {
        Batcher::default()
    }

    /// Adds a packet to the pending batch.
    pub fn push(&mut self, packet: Packet) {
        self.pending_bytes += packet.encoded_size_hint();
        self.pending.push(packet);
    }

    /// True if the pending batch has reached a cap and should be sent
    /// now.
    pub fn should_flush(&self) -> bool {
        self.pending.len() >= MAX_BATCH_PACKETS || self.pending_bytes >= MAX_BATCH_BYTES
    }

    /// Number of packets currently pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no packets are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Removes and returns all pending packets.
    pub fn drain(&mut self) -> Vec<Packet> {
        self.pending_bytes = 0;
        std::mem::take(&mut self.pending)
    }

    /// True when the pending batch holds exactly these packet handles
    /// (same shared buffers, via [`Packet::ptr_eq`], in the same
    /// order). Two batchers that match encode to identical bytes, so a
    /// multicast sender can encode once and share the frame.
    pub fn pending_matches(&self, packets: &[Packet]) -> bool {
        self.pending.len() == packets.len()
            && self.pending.iter().zip(packets).all(|(a, b)| a.ptr_eq(b))
    }
}

/// Encodes a sequence of packets as one packet buffer:
/// `u32 count` followed by the packets back to back. A packet that
/// still carries its wire form is copied in verbatim.
pub fn encode_batch(packets: &[Packet]) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_batch_len(packets));
    encode_batch_into(packets, &mut buf);
    buf.freeze()
}

/// The exact length of [`encode_batch`]'s output for `packets`.
pub fn encoded_batch_len(packets: &[Packet]) -> usize {
    4 + packets.iter().map(Packet::encoded_size_hint).sum::<usize>()
}

/// Appends the packet buffer [`encode_batch`] would return to `buf`,
/// so a frame encoder can write its own header and the batch into one
/// allocation.
pub fn encode_batch_into(packets: &[Packet], buf: &mut BytesMut) {
    buf.put_u32_le(packets.len() as u32);
    for p in packets {
        encode_packet_into(p, buf);
    }
}

/// Appends `packet` to the packet buffer that [`encode_batch_into`]
/// wrote into `buf` from offset `start`, and counts it there, unless
/// the buffer would then hold more than [`MAX_BATCH_PACKETS`] packets
/// or `buf` more than [`MAX_BATCH_BYTES`] bytes. Returns whether it did.
pub fn append_to_batch(buf: &mut BytesMut, start: usize, packet: &Packet) -> bool {
    let count_at = start..start + 4;
    let count = u32::from_le_bytes(buf[count_at.clone()].try_into().expect("4 bytes"));
    if count as usize >= MAX_BATCH_PACKETS
        || buf.len() + packet.encoded_size_hint() > MAX_BATCH_BYTES
    {
        return false;
    }
    buf[count_at].copy_from_slice(&(count + 1).to_le_bytes());
    encode_packet_into(packet, buf);
    true
}

/// Decodes a packet buffer produced by [`encode_batch`] into lazy
/// packets: headers are parsed and every packet's wire structure is
/// validated against [`DecodeLimits::from_env`], but payloads stay as
/// zero-copy slices of `bytes` until first touched.
pub fn decode_batch_lazy(bytes: Bytes) -> Result<Vec<Packet>> {
    decode_batch_lazy_with(bytes, &DecodeLimits::from_env())
}

/// [`decode_batch_lazy`] with explicit decode limits.
pub fn decode_batch_lazy_with(bytes: Bytes, limits: &DecodeLimits) -> Result<Vec<Packet>> {
    let data: &[u8] = &bytes;
    walk_batch(data, limits, |start| {
        let (stream_id, tag, src, end) = validate_packet_at(data, start, limits)?;
        let wire = bytes.slice(start..end);
        Ok((Packet::from_validated_wire(stream_id, tag, src, wire), end))
    })
}

/// Decodes a packet buffer produced by [`encode_batch`].
pub fn decode_batch(bytes: Bytes) -> Result<Vec<Packet>> {
    decode_batch_with(bytes, &DecodeLimits::default())
}

/// Decodes a packet buffer with explicit decode limits.
pub fn decode_batch_with(bytes: Bytes, limits: &DecodeLimits) -> Result<Vec<Packet>> {
    let data: &[u8] = &bytes;
    walk_batch(data, limits, |start| {
        let mut r = Reader::new(&data[start..]);
        Ok((decode_packet_from(&mut r, limits)?, start + r.pos()))
    })
}

/// Reads a packet buffer's count, then each packet with `packet`, which
/// takes the packet's offset in `data` and returns the packet and the
/// offset one past it; refuses a buffer with bytes left over.
fn walk_batch(
    data: &[u8],
    limits: &DecodeLimits,
    mut packet: impl FnMut(usize) -> Result<(Packet, usize)>,
) -> Result<Vec<Packet>> {
    let count = Reader::new(data)
        .get("batch count")
        .map_err(|_| PacketError::MalformedBatch("missing count"))?;
    let count = u32::from_le_bytes(count) as usize;
    if count as u64 > limits.max_elems {
        return Err(PacketError::MalformedBatch("count exceeds limit"));
    }
    let mut packets = Vec::with_capacity(count.min(4096));
    let mut pos = 4;
    for _ in 0..count {
        let (p, end) = packet(pos)?;
        packets.push(p);
        pos = end;
    }
    if pos != data.len() {
        return Err(PacketError::MalformedBatch("trailing bytes after batch"));
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    fn pkt(n: i32) -> Packet {
        PacketBuilder::new(n as u32, n).push(n).build()
    }

    #[test]
    fn batch_round_trip() {
        let packets: Vec<_> = (0..10).map(pkt).collect();
        let decoded = decode_batch(encode_batch(&packets)).unwrap();
        assert_eq!(decoded, packets);
    }

    /// A packet whose encoding takes `bytes` bytes.
    fn sized(bytes: usize) -> Packet {
        let small = PacketBuilder::new(0, 0).push(Vec::<u8>::new()).build();
        let filler = bytes - small.encoded_size_hint();
        PacketBuilder::new(0, 0).push(vec![0u8; filler]).build()
    }

    #[test]
    fn appended_batch_decodes_and_stops_at_the_caps() {
        let packets: Vec<_> = (0..=MAX_BATCH_PACKETS as i32).map(pkt).collect();
        let mut buf = BytesMut::new();
        buf.put_u8(0xee); // a header before the batch
        encode_batch_into(&packets[..1], &mut buf);
        for p in &packets[1..MAX_BATCH_PACKETS] {
            assert!(append_to_batch(&mut buf, 1, p));
        }
        assert!(!append_to_batch(&mut buf, 1, &packets[MAX_BATCH_PACKETS]));
        let bytes = buf.freeze();
        assert_eq!(bytes[0], 0xee);
        assert_eq!(
            bytes.slice(1..),
            encode_batch(&packets[..MAX_BATCH_PACKETS])
        );

        let mut buf = BytesMut::new();
        encode_batch_into(&packets[..1], &mut buf);
        let room = MAX_BATCH_BYTES - buf.len();
        assert!(!append_to_batch(&mut buf, 0, &sized(room + 1)));
        assert_eq!(buf.clone().freeze(), encode_batch(&packets[..1]));
        assert!(append_to_batch(&mut buf, 0, &sized(room)));
        assert_eq!(buf.len(), MAX_BATCH_BYTES);
    }

    #[test]
    fn empty_batch_round_trip() {
        let decoded = decode_batch(encode_batch(&[])).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = BytesMut::from(&encode_batch(&[pkt(1)])[..]);
        bytes.put_u8(0);
        let err = decode_batch(bytes.freeze()).unwrap_err();
        assert!(matches!(err, PacketError::MalformedBatch(_)));
    }

    #[test]
    fn short_batch_rejected() {
        let err = decode_batch(Bytes::from_static(&[1, 0])).unwrap_err();
        assert!(matches!(err, PacketError::MalformedBatch(_)));
    }

    #[test]
    fn lying_count_rejected() {
        // Claims 3 packets but contains 1.
        let one = encode_batch(&[pkt(1)]);
        let mut raw = BytesMut::from(&one[..]);
        raw[0] = 3;
        let err = decode_batch(raw.freeze()).unwrap_err();
        assert!(matches!(err, PacketError::Truncated { .. }));
    }

    #[test]
    fn batcher_flushes_on_packet_count() {
        let mut b = Batcher::new();
        for n in 1..MAX_BATCH_PACKETS as i32 {
            b.push(pkt(n));
        }
        assert!(!b.should_flush());
        b.push(pkt(0));
        assert!(b.should_flush());
        assert_eq!(b.drain().len(), MAX_BATCH_PACKETS);
        assert!(b.is_empty());
        assert!(!b.should_flush());
    }

    #[test]
    fn batcher_flushes_on_byte_size() {
        let mut b = Batcher::new();
        b.push(sized(MAX_BATCH_BYTES - 1));
        assert!(!b.should_flush());
        b.push(pkt(1));
        assert!(b.should_flush());
    }

    #[test]
    fn pending_matches_compares_handles() {
        let a = pkt(1);
        let b = pkt(1); // equal contents, different buffers
        let mut batcher = Batcher::new();
        batcher.push(a.clone());
        assert!(batcher.pending_matches(std::slice::from_ref(&a)));
        assert!(!batcher.pending_matches(&[b])); // handle identity, not equality
        assert!(!batcher.pending_matches(&[])); // length mismatch
        assert!(!batcher.pending_matches(&[a.clone(), a]));
    }

    #[test]
    fn lazy_batch_round_trips_and_stays_raw() {
        let packets: Vec<_> = (0..10).map(pkt).collect();
        let decoded = decode_batch_lazy(encode_batch(&packets)).unwrap();
        assert!(decoded.iter().all(Packet::is_lazy));
        assert_eq!(decoded, packets); // equality materializes
        assert!(decoded.iter().all(|p| !p.is_lazy()));
    }

    #[test]
    fn reordered_or_partial_batch_does_not_reuse() {
        let packets: Vec<_> = (0..3).map(pkt).collect();
        let inbound = encode_batch(&packets);
        let decoded = decode_batch_lazy(inbound.clone()).unwrap();

        let partial = encode_batch(&decoded[..2]);
        assert_ne!(partial.as_ref().as_ptr(), inbound.as_ref().as_ptr());
        assert_eq!(decode_batch(partial).unwrap(), packets[..2]);

        let swapped = vec![decoded[1].clone(), decoded[0].clone(), decoded[2].clone()];
        let reordered = encode_batch(&swapped);
        assert_ne!(reordered.as_ref().as_ptr(), inbound.as_ref().as_ptr());
        assert_eq!(decode_batch(reordered).unwrap(), swapped);
    }

    #[test]
    fn retagged_packet_spoils_batch_reuse_but_encodes_correctly() {
        let packets: Vec<_> = (0..2).map(pkt).collect();
        let inbound = encode_batch(&packets);
        let decoded = decode_batch_lazy(inbound.clone()).unwrap();
        let retargeted: Vec<_> = decoded.into_iter().map(|p| p.with_stream(9)).collect();
        let outbound = encode_batch(&retargeted);
        assert_ne!(outbound.as_ref().as_ptr(), inbound.as_ref().as_ptr());
        let back = decode_batch(outbound).unwrap();
        assert!(back.iter().all(|p| p.stream_id() == 9));
    }

    #[test]
    fn lazy_decode_rejects_malformed_batches() {
        // Same hostile shapes the eager decoder rejects.
        assert!(decode_batch_lazy(Bytes::from_static(&[1, 0])).is_err());
        let mut trailing = BytesMut::from(&encode_batch(&[pkt(1)])[..]);
        trailing.put_u8(0);
        assert!(matches!(
            decode_batch_lazy(trailing.freeze()).unwrap_err(),
            PacketError::MalformedBatch(_)
        ));
        let mut lying = BytesMut::from(&encode_batch(&[pkt(1)])[..]);
        lying[0] = 3;
        assert!(matches!(
            decode_batch_lazy(lying.freeze()).unwrap_err(),
            PacketError::Truncated { .. }
        ));
    }

    #[test]
    fn batching_shares_payloads() {
        // Batcher holds handles, not copies.
        let p = pkt(1);
        let mut b = Batcher::new();
        b.push(p.clone());
        let drained = b.drain();
        assert!(drained[0].ptr_eq(&p));
    }
}
