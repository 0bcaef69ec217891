//! The MRNet wire protocol: frames and control messages.
//!
//! Every frame exchanged between MRNet processes is either a **data
//! frame** — a batched packet buffer (§2.3) — or a **control frame** —
//! a single packet on the reserved control stream whose tag selects
//! the operation. Control messages drive stream creation/deletion,
//! instantiation subtree reports, mode-2 back-end attachment, and
//! shutdown.

use mrnet_filters::SyncMode;
use mrnet_obs::tracectx::TraceEnvelope;
use mrnet_packet::bytes::{Bytes, BytesMut, Reader};
use mrnet_packet::{
    append_to_batch, decode_batch_lazy_with, decode_packet_from, encode_batch_into,
    encode_packet_into, encoded_batch_len,
    trace::{decode_trailer_from, encode_trailer_into},
    DecodeLimits, Packet, PacketBuilder, Rank, StreamId, Value,
};

use crate::error::{MrnetError, Result};

/// The reserved stream id carrying control messages.
pub const CONTROL_STREAM: StreamId = 0;

/// First stream id handed to user streams.
pub const FIRST_USER_STREAM: StreamId = 1;

/// The reserved stream id for in-band introspection traffic (metrics
/// collection and trace reports). Chosen from the top of the id space
/// so it can never collide with user streams, which allocate upward
/// from [`FIRST_USER_STREAM`]. Packets on this stream bypass stream
/// managers and are not counted as user traffic.
pub const METRICS_STREAM: StreamId = u32::MAX;

/// Control-message tags.
pub mod tags {
    /// Create a stream (downstream).
    pub const NEW_STREAM: i32 = -1;
    /// Delete a stream (downstream).
    pub const DELETE_STREAM: i32 = -2;
    /// Subtree end-point report (upstream, during instantiation).
    pub const SUBTREE_REPORT: i32 = -3;
    /// Back-end attach handshake (mode-2 instantiation).
    pub const ATTACH: i32 = -4;
    /// Orderly shutdown (downstream).
    pub const SHUTDOWN: i32 = -5;
    /// Subtree launch directive (parent → child, process
    /// instantiation): "a message from parent to child containing the
    /// portion of the configuration relevant to that child" (§2.5).
    pub const LAUNCH: i32 = -6;
    /// Back-end rendezvous advertisement (upstream): which attach
    /// endpoints serve which back-end ranks ("the leaf processes' host
    /// names and connection port numbers", §2.5).
    pub const ATTACH_INFO: i32 = -7;
    /// Rank-death report (bidirectional): the node that detects a dead
    /// peer propagates the failure both up toward the front-end and
    /// down the surviving subtrees so every node prunes its routes and
    /// stream membership.
    pub const RANK_FAILED: i32 = -8;
    /// Clock-sync ping (parent → child): carries the parent's send
    /// stamp `t0`. Every parent pings each child after instantiation
    /// so trace timestamps can be mapped into the front-end's clock.
    pub const CLOCK_PING: i32 = -9;
    /// Clock-sync reply (child → parent): echoes `t0` plus the child's
    /// receive (`t1`) and send (`t2`) stamps, completing the NTP-style
    /// exchange `offset = ((t1 - t0) + (t2 - t3)) / 2`.
    pub const CLOCK_PONG: i32 = -10;
    /// Resolved clock table fragment (child → parent): per-rank
    /// offsets and RTTs for ranks in the sender's subtree, relative to
    /// the *sender's* clock. Each relay adds its own estimate of the
    /// sender before forwarding, so the front-end accumulates offsets
    /// relative to itself.
    pub const CLOCK_INFO: i32 = -11;

    /// Introspection request tag (front-end → everyone, multicast on
    /// [`super::METRICS_STREAM`]): "dump your metrics section".
    pub const METRICS_REQUEST: i32 = -100;
    /// Introspection reply tag (upstream on [`super::METRICS_STREAM`]):
    /// concatenated metrics sections from a subtree.
    pub const METRICS_REPLY: i32 = -101;
    /// Completed down-wave trace envelope, relayed upstream to the
    /// front-end's assembler on [`super::METRICS_STREAM`] by the
    /// back-end that terminated the wave. Forwarded verbatim, never
    /// aggregated.
    pub const TRACE_REPORT: i32 = -102;
}

/// Frame kind discriminants.
const FRAME_DATA: u8 = 0;
const FRAME_CONTROL: u8 = 1;
const FRAME_DATA_TRACED: u8 = 2;

/// A decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A batch of data packets.
    Data(Vec<Packet>),
    /// A control packet.
    Control(Packet),
    /// A batch of data packets plus the trace envelopes of the sampled
    /// waves riding in it (matched to packets by the envelopes' stream
    /// ids). Only sampled frames use this kind; untraced frames stay
    /// on the plain [`Frame::Data`] encoding with zero trailer bytes.
    Traced(Vec<Packet>, Vec<TraceEnvelope>),
}

/// Encodes a batch of data packets as a frame: the kind byte and the
/// batch, written into one buffer that is frozen once.
pub fn encode_data_frame(packets: &[Packet]) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + encoded_batch_len(packets));
    buf.put_u8(FRAME_DATA);
    encode_batch_into(packets, &mut buf);
    buf.freeze()
}

/// Starts a data frame holding `packet` that [`append_to_data_frame`]
/// can grow. Frozen, it is [`encode_data_frame`] of the packets it
/// holds.
pub fn start_data_frame(packet: &Packet) -> BytesMut {
    let packets = std::slice::from_ref(packet);
    let mut buf = BytesMut::with_capacity(1 + encoded_batch_len(packets));
    buf.put_u8(FRAME_DATA);
    encode_batch_into(packets, &mut buf);
    buf
}

/// Appends `packet` to a frame from [`start_data_frame`], unless the
/// frame would then exceed the batch caps,
/// [`mrnet_packet::MAX_BATCH_PACKETS`] and
/// [`mrnet_packet::MAX_BATCH_BYTES`]. Returns whether it did.
pub fn append_to_data_frame(frame: &mut BytesMut, packet: &Packet) -> bool {
    debug_assert_eq!(frame.first(), Some(&FRAME_DATA));
    append_to_batch(frame, 1, packet)
}

/// Encodes a batch plus trace-envelope trailers. With no envelopes
/// this is exactly [`encode_data_frame`] — the traced kind (and its
/// batch length prefix) appears on the wire only when a trailer does.
pub fn encode_traced_data_frame(packets: &[Packet], envelopes: &[TraceEnvelope]) -> Bytes {
    if envelopes.is_empty() {
        return encode_data_frame(packets);
    }
    let batch_len = encoded_batch_len(packets);
    let mut buf = BytesMut::with_capacity(1 + 4 + batch_len + 64 * envelopes.len());
    buf.put_u8(FRAME_DATA_TRACED);
    buf.put_u32_le(batch_len as u32);
    encode_batch_into(packets, &mut buf);
    encode_trailer_into(envelopes, &mut buf);
    buf.freeze()
}

/// Encodes a control packet as a frame.
pub fn encode_control_frame(packet: &Packet) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + packet.encoded_size_hint());
    buf.put_u8(FRAME_CONTROL);
    encode_packet_into(packet, &mut buf);
    buf.freeze()
}

/// Decodes a frame.
///
/// Data-frame packets come back **lazy**: headers parsed and wire
/// structure validated (against [`DecodeLimits::from_env`], so
/// `MRNET_DECODE_MAX` governs the network ingress), but payloads stay
/// zero-copy slices of `bytes` until something touches them. A node
/// that only relays the packets never pays the decode.
pub fn decode_frame(bytes: Bytes) -> Result<Frame> {
    let Some(&kind) = bytes.first() else {
        return Err(MrnetError::Protocol("empty frame".into()));
    };
    let limits = DecodeLimits::from_env();
    let body = bytes.slice(1..);
    let mut r = Reader::new(&body);
    let frame = match kind {
        FRAME_DATA => return Ok(Frame::Data(decode_batch_lazy_with(body, &limits)?)),
        FRAME_CONTROL => Frame::Control(decode_packet_from(&mut r, &limits)?),
        FRAME_DATA_TRACED => {
            let batch_len = u32::from_le_bytes(r.get("traced frame batch length")?) as usize;
            let start = r.pos();
            r.take(batch_len, "traced frame batch")?;
            let packets = decode_batch_lazy_with(body.slice(start..r.pos()), &limits)?;
            Frame::Traced(packets, decode_trailer_from(&mut r)?)
        }
        other => return Err(MrnetError::Protocol(format!("unknown frame kind {other}"))),
    };
    if !r.is_empty() {
        return Err(MrnetError::Protocol("trailing bytes after frame".into()));
    }
    Ok(frame)
}

/// A parsed control message.
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// Create a stream over the given end-points with the given
    /// filters.
    NewStream {
        /// The new stream's id.
        stream_id: StreamId,
        /// Back-end ranks that are end-points of the stream.
        endpoints: Vec<Rank>,
        /// Name of the upstream transformation filter.
        up_filter: String,
        /// Name of the downstream transformation filter.
        down_filter: String,
        /// Synchronization mode for upstream flow.
        sync: SyncMode,
    },
    /// Tear down a stream.
    DeleteStream {
        /// The stream to delete.
        stream_id: StreamId,
    },
    /// "When a sub-tree has been established, the root of that sub-tree
    /// sends a report to its parent containing the end-points
    /// accessible via that sub-tree" (§2.5).
    SubtreeReport {
        /// Back-end ranks reachable through the sender.
        endpoints: Vec<Rank>,
    },
    /// A mode-2 back-end announcing itself to its leaf parent.
    Attach {
        /// The back-end's rank.
        rank: Rank,
    },
    /// Orderly shutdown of the subtree.
    Shutdown,
    /// The configuration slice a parent hands a freshly created child
    /// during process instantiation: the child's subtree in BFS order.
    /// `ranks[0]` is the child itself; `parents[i]` is the index
    /// within `ranks` of node *i*'s parent (`parents[0]` is unused and
    /// set to `u32::MAX`).
    Launch {
        /// Global ranks of the subtree's nodes, BFS order.
        ranks: Vec<Rank>,
        /// Parent index (into `ranks`) per node.
        parents: Vec<u32>,
    },
    /// Rendezvous advertisement flowing upstream during process
    /// instantiation: back-end `ranks[i]` should attach at
    /// `endpoints[i]`.
    AttachInfo {
        /// Back-end ranks served.
        ranks: Vec<Rank>,
        /// `host:port` endpoint per rank.
        endpoints: Vec<String>,
    },
    /// A failure report: `rank` (the tree node whose connection died)
    /// and every back-end endpoint that was only reachable through it.
    /// Flows up to the front-end and down to surviving subtrees.
    RankFailed {
        /// The failed tree node (internal node or back-end).
        rank: Rank,
        /// Back-end ranks lost with it (for a back-end, just itself).
        subtree: Vec<Rank>,
    },
    /// Clock-sync ping (parent → child).
    ClockPing {
        /// The parent's send stamp, wall-clock µs.
        t0_us: u64,
    },
    /// Clock-sync reply (child → parent).
    ClockPong {
        /// The ping's `t0`, echoed back.
        t0_us: u64,
        /// The child's receive stamp.
        t1_us: u64,
        /// The child's reply-send stamp.
        t2_us: u64,
    },
    /// Resolved per-rank clock offsets and RTTs for a subtree, flowing
    /// up toward the front-end. Offsets are relative to the sender;
    /// each relay adds its own estimate of the sender before
    /// forwarding.
    ClockInfo {
        /// Ranks described, parallel to the other two arrays.
        ranks: Vec<Rank>,
        /// Each rank's clock minus the sender's clock, µs.
        offsets_us: Vec<i64>,
        /// Accumulated ping RTT per rank (uncertainty bound), µs.
        rtts_us: Vec<u64>,
    },
}

impl Control {
    /// Encodes this control message as a control packet.
    pub fn to_packet(&self) -> Packet {
        match self {
            Control::NewStream {
                stream_id,
                endpoints,
                up_filter,
                down_filter,
                sync,
            } => {
                let (sync_tag, sync_timeout) = sync.encode();
                PacketBuilder::new(CONTROL_STREAM, tags::NEW_STREAM)
                    .push(*stream_id)
                    .push(endpoints.clone())
                    .push(up_filter.as_str())
                    .push(down_filter.as_str())
                    .push(Value::Char(sync_tag))
                    .push(sync_timeout)
                    .build()
            }
            Control::DeleteStream { stream_id } => {
                PacketBuilder::new(CONTROL_STREAM, tags::DELETE_STREAM)
                    .push(*stream_id)
                    .build()
            }
            Control::SubtreeReport { endpoints } => {
                PacketBuilder::new(CONTROL_STREAM, tags::SUBTREE_REPORT)
                    .push(endpoints.clone())
                    .build()
            }
            Control::Attach { rank } => PacketBuilder::new(CONTROL_STREAM, tags::ATTACH)
                .push(*rank)
                .build(),
            Control::Shutdown => Packet::control(CONTROL_STREAM, tags::SHUTDOWN),
            Control::Launch { ranks, parents } => PacketBuilder::new(CONTROL_STREAM, tags::LAUNCH)
                .push(ranks.clone())
                .push(parents.clone())
                .build(),
            Control::AttachInfo { ranks, endpoints } => {
                PacketBuilder::new(CONTROL_STREAM, tags::ATTACH_INFO)
                    .push(ranks.clone())
                    .push(endpoints.clone())
                    .build()
            }
            Control::RankFailed { rank, subtree } => {
                PacketBuilder::new(CONTROL_STREAM, tags::RANK_FAILED)
                    .push(*rank)
                    .push(subtree.clone())
                    .build()
            }
            Control::ClockPing { t0_us } => PacketBuilder::new(CONTROL_STREAM, tags::CLOCK_PING)
                .push(*t0_us)
                .build(),
            Control::ClockPong {
                t0_us,
                t1_us,
                t2_us,
            } => PacketBuilder::new(CONTROL_STREAM, tags::CLOCK_PONG)
                .push(*t0_us)
                .push(*t1_us)
                .push(*t2_us)
                .build(),
            Control::ClockInfo {
                ranks,
                offsets_us,
                rtts_us,
            } => PacketBuilder::new(CONTROL_STREAM, tags::CLOCK_INFO)
                .push(ranks.clone())
                .push(offsets_us.clone())
                .push(rtts_us.clone())
                .build(),
        }
    }

    /// Parses a control packet.
    pub fn from_packet(packet: &Packet) -> Result<Control> {
        let bad = |what: &str| MrnetError::Protocol(format!("malformed {what} control message"));
        match packet.tag() {
            tags::NEW_STREAM => {
                let stream_id = packet
                    .get(0)
                    .and_then(Value::as_u32)
                    .ok_or_else(|| bad("NewStream"))?;
                let endpoints = packet
                    .get(1)
                    .and_then(Value::as_u32_slice)
                    .ok_or_else(|| bad("NewStream"))?
                    .to_vec();
                let up_filter = packet
                    .get(2)
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("NewStream"))?
                    .to_owned();
                let down_filter = packet
                    .get(3)
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("NewStream"))?
                    .to_owned();
                let sync_tag = match packet.get(4) {
                    Some(Value::Char(c)) => *c,
                    _ => return Err(bad("NewStream")),
                };
                let sync_timeout = packet
                    .get(5)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad("NewStream"))?;
                let sync = SyncMode::decode(sync_tag, sync_timeout)
                    .ok_or_else(|| bad("NewStream sync mode in"))?;
                Ok(Control::NewStream {
                    stream_id,
                    endpoints,
                    up_filter,
                    down_filter,
                    sync,
                })
            }
            tags::DELETE_STREAM => Ok(Control::DeleteStream {
                stream_id: packet
                    .get(0)
                    .and_then(Value::as_u32)
                    .ok_or_else(|| bad("DeleteStream"))?,
            }),
            tags::SUBTREE_REPORT => Ok(Control::SubtreeReport {
                endpoints: packet
                    .get(0)
                    .and_then(Value::as_u32_slice)
                    .ok_or_else(|| bad("SubtreeReport"))?
                    .to_vec(),
            }),
            tags::ATTACH => Ok(Control::Attach {
                rank: packet
                    .get(0)
                    .and_then(Value::as_u32)
                    .ok_or_else(|| bad("Attach"))?,
            }),
            tags::SHUTDOWN => Ok(Control::Shutdown),
            tags::LAUNCH => {
                let ranks = packet
                    .get(0)
                    .and_then(Value::as_u32_slice)
                    .ok_or_else(|| bad("Launch"))?
                    .to_vec();
                let parents = packet
                    .get(1)
                    .and_then(Value::as_u32_slice)
                    .ok_or_else(|| bad("Launch"))?
                    .to_vec();
                if ranks.len() != parents.len() || ranks.is_empty() {
                    return Err(bad("Launch"));
                }
                Ok(Control::Launch { ranks, parents })
            }
            tags::ATTACH_INFO => {
                let ranks = packet
                    .get(0)
                    .and_then(Value::as_u32_slice)
                    .ok_or_else(|| bad("AttachInfo"))?
                    .to_vec();
                let endpoints = packet
                    .get(1)
                    .and_then(Value::as_str_array)
                    .ok_or_else(|| bad("AttachInfo"))?
                    .to_vec();
                if ranks.len() != endpoints.len() {
                    return Err(bad("AttachInfo"));
                }
                Ok(Control::AttachInfo { ranks, endpoints })
            }
            tags::RANK_FAILED => {
                let rank = packet
                    .get(0)
                    .and_then(Value::as_u32)
                    .ok_or_else(|| bad("RankFailed"))?;
                let subtree = packet
                    .get(1)
                    .and_then(Value::as_u32_slice)
                    .ok_or_else(|| bad("RankFailed"))?
                    .to_vec();
                Ok(Control::RankFailed { rank, subtree })
            }
            tags::CLOCK_PING => Ok(Control::ClockPing {
                t0_us: packet
                    .get(0)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| bad("ClockPing"))?,
            }),
            tags::CLOCK_PONG => {
                let stamp = |i: usize| {
                    packet
                        .get(i)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| bad("ClockPong"))
                };
                Ok(Control::ClockPong {
                    t0_us: stamp(0)?,
                    t1_us: stamp(1)?,
                    t2_us: stamp(2)?,
                })
            }
            tags::CLOCK_INFO => {
                let ranks = packet
                    .get(0)
                    .and_then(Value::as_u32_slice)
                    .ok_or_else(|| bad("ClockInfo"))?
                    .to_vec();
                let offsets_us = packet
                    .get(1)
                    .and_then(Value::as_i64_slice)
                    .ok_or_else(|| bad("ClockInfo"))?
                    .to_vec();
                let rtts_us = packet
                    .get(2)
                    .and_then(Value::as_u64_slice)
                    .ok_or_else(|| bad("ClockInfo"))?
                    .to_vec();
                if ranks.len() != offsets_us.len() || ranks.len() != rtts_us.len() {
                    return Err(bad("ClockInfo"));
                }
                Ok(Control::ClockInfo {
                    ranks,
                    offsets_us,
                    rtts_us,
                })
            }
            other => Err(MrnetError::Protocol(format!("unknown control tag {other}"))),
        }
    }

    /// Encodes directly to a frame.
    pub fn to_frame(&self) -> Bytes {
        encode_control_frame(&self.to_packet())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrnet_sim::check::{check, vec_of};
    use mrnet_sim::SplitMix64;

    fn round_trip(c: Control) {
        let frame = c.to_frame();
        match decode_frame(frame).unwrap() {
            Frame::Control(p) => assert_eq!(Control::from_packet(&p).unwrap(), c),
            other => panic!("expected control frame, got {other:?}"),
        }
    }

    /// One or two messages of every `Control` variant.
    fn every_control() -> Vec<Control> {
        vec![
            Control::NewStream {
                stream_id: 12,
                endpoints: vec![3, 4, 5],
                up_filter: "f_max".into(),
                down_filter: "null".into(),
                sync: SyncMode::WaitForAll,
            },
            Control::NewStream {
                stream_id: 1,
                endpoints: vec![],
                up_filter: "null".into(),
                down_filter: "null".into(),
                sync: SyncMode::TimeOut(0.5),
            },
            Control::DeleteStream { stream_id: 9 },
            Control::SubtreeReport {
                endpoints: vec![10, 11],
            },
            Control::Attach { rank: 77 },
            Control::Shutdown,
            Control::Launch {
                ranks: vec![3, 4, 5],
                parents: vec![u32::MAX, 0, 0],
            },
            Control::AttachInfo {
                ranks: vec![9, 10],
                endpoints: vec!["127.0.0.1:4000".into(), "127.0.0.1:4001".into()],
            },
            Control::RankFailed {
                rank: 2,
                subtree: vec![5, 6, 7],
            },
            Control::RankFailed {
                rank: 6,
                subtree: vec![6],
            },
            Control::ClockPing { t0_us: 1 << 50 },
            Control::ClockPong {
                t0_us: 100,
                t1_us: 150,
                t2_us: 160,
            },
            Control::ClockInfo {
                ranks: vec![3, 4],
                offsets_us: vec![-1500, 40],
                rtts_us: vec![200, 35],
            },
            Control::ClockInfo {
                ranks: vec![],
                offsets_us: vec![],
                rtts_us: vec![],
            },
        ]
    }

    #[test]
    fn control_round_trips() {
        for c in every_control() {
            round_trip(c);
        }
    }

    #[test]
    fn malformed_clock_messages_rejected() {
        let p = PacketBuilder::new(CONTROL_STREAM, tags::CLOCK_PING)
            .push("not a stamp")
            .build();
        assert!(Control::from_packet(&p).is_err());
        let p = PacketBuilder::new(CONTROL_STREAM, tags::CLOCK_PONG)
            .push(1u64)
            .push(2u64)
            .build();
        assert!(Control::from_packet(&p).is_err());
        // Mismatched array lengths.
        let p = PacketBuilder::new(CONTROL_STREAM, tags::CLOCK_INFO)
            .push(vec![1u32, 2])
            .push(vec![0i64])
            .push(vec![0u64, 0])
            .build();
        assert!(Control::from_packet(&p).is_err());
    }

    #[test]
    fn malformed_rank_failed_rejected() {
        let p = PacketBuilder::new(CONTROL_STREAM, tags::RANK_FAILED)
            .push("not a rank")
            .build();
        assert!(Control::from_packet(&p).is_err());
    }

    #[test]
    fn malformed_launch_rejected() {
        // Mismatched array lengths.
        let p = PacketBuilder::new(CONTROL_STREAM, tags::LAUNCH)
            .push(vec![1u32, 2])
            .push(vec![0u32])
            .build();
        assert!(Control::from_packet(&p).is_err());
        // Empty subtree.
        let p = PacketBuilder::new(CONTROL_STREAM, tags::LAUNCH)
            .push(Vec::<u32>::new())
            .push(Vec::<u32>::new())
            .build();
        assert!(Control::from_packet(&p).is_err());
    }

    #[test]
    fn malformed_attach_info_rejected() {
        let p = PacketBuilder::new(CONTROL_STREAM, tags::ATTACH_INFO)
            .push(vec![1u32])
            .push(Vec::<String>::new())
            .build();
        assert!(Control::from_packet(&p).is_err());
    }

    #[test]
    fn data_frame_round_trips() {
        let packets = vec![
            PacketBuilder::new(5, 1).push(1i32).build(),
            PacketBuilder::new(5, 1).push(2i32).build(),
        ];
        let frame = encode_data_frame(&packets);
        match decode_frame(frame).unwrap() {
            Frame::Data(got) => assert_eq!(got, packets),
            other => panic!("expected data frame, got {other:?}"),
        }
    }

    #[test]
    fn traced_frame_round_trips() {
        use mrnet_obs::tracectx::HopRecord;
        let packets = vec![
            PacketBuilder::new(5, 1).push(1i32).build(),
            PacketBuilder::new(6, 1).push(2i32).build(),
        ];
        let env = TraceEnvelope {
            trace_id: (9u64 << 32) | 1,
            stream: 5,
            hops: vec![HopRecord {
                rank: 9,
                recv_us: 123,
                send_us: 456,
            }],
        };
        let frame = encode_traced_data_frame(&packets, std::slice::from_ref(&env));
        match decode_frame(frame).unwrap() {
            Frame::Traced(got, envs) => {
                assert_eq!(got, packets);
                assert_eq!(envs, vec![env]);
            }
            other => panic!("expected traced frame, got {other:?}"),
        }
    }

    #[test]
    fn data_frame_packets_decode_lazily_and_relay_byte_identically() {
        let packets = vec![
            PacketBuilder::new(5, 1).push(1i32).push("a").build(),
            PacketBuilder::new(5, 1).push(2i32).push("b").build(),
        ];
        let inbound = encode_data_frame(&packets);
        let relayed = match decode_frame(inbound.clone()).unwrap() {
            Frame::Data(got) => got,
            other => panic!("expected data frame, got {other:?}"),
        };
        assert!(relayed.iter().all(Packet::is_lazy));
        // An untouched relay re-encodes to the identical frame.
        let outbound = encode_data_frame(&relayed);
        assert_eq!(outbound, inbound);
        assert!(relayed.iter().all(Packet::is_lazy), "relay must not decode");
    }

    #[test]
    fn traced_frame_packets_decode_lazily_and_relay_byte_identically() {
        use mrnet_obs::tracectx::HopRecord;
        let packets = vec![PacketBuilder::new(5, 1).push(7i32).build()];
        let env = TraceEnvelope {
            trace_id: 3,
            stream: 5,
            hops: vec![HopRecord {
                rank: 2,
                recv_us: 10,
                send_us: 20,
            }],
        };
        let inbound = encode_traced_data_frame(&packets, &[env]);
        let (relayed, envs) = match decode_frame(inbound.clone()).unwrap() {
            Frame::Traced(got, envs) => (got, envs),
            other => panic!("expected traced frame, got {other:?}"),
        };
        assert!(relayed.iter().all(Packet::is_lazy));
        let outbound = encode_traced_data_frame(&relayed, &envs);
        assert_eq!(outbound, inbound);
        assert!(relayed.iter().all(Packet::is_lazy));
    }

    #[test]
    fn untraced_frames_carry_zero_trailer_bytes() {
        // With no envelopes the traced encoder degrades to the plain
        // data-frame encoding, byte for byte: untraced runs pay
        // nothing on the wire.
        let packets = vec![PacketBuilder::new(5, 1).push(7i32).build()];
        let plain = encode_data_frame(&packets);
        let traced_empty = encode_traced_data_frame(&packets, &[]);
        assert_eq!(plain, traced_empty);
        assert!(matches!(
            decode_frame(traced_empty).unwrap(),
            Frame::Data(_)
        ));
    }

    #[test]
    fn corrupt_traced_frames_rejected() {
        let packets = vec![PacketBuilder::new(5, 1).push(7i32).build()];
        let env = TraceEnvelope {
            trace_id: 1,
            stream: 5,
            hops: vec![],
        };
        let frame = encode_traced_data_frame(&packets, &[env]);
        // Truncations at every boundary fail cleanly.
        for cut in 1..frame.len() {
            assert!(decode_frame(frame.slice(..cut)).is_err(), "cut={cut}");
        }
        // Trailing garbage after the trailer is rejected.
        let mut long = BytesMut::from(&frame[..]);
        long.put_u8(0);
        assert!(decode_frame(long.freeze()).is_err());
    }

    /// A valid frame of any kind (every `Control` variant, a data frame,
    /// a traced frame), then one to three hostile edits: a bit flip, a
    /// truncation, or four bytes overwritten.
    fn hostile_frame(rng: &mut SplitMix64) -> Vec<u8> {
        let controls = every_control();
        let packets = vec_of(rng, 1..4, |rng| {
            PacketBuilder::new(rng.gen_range(1..4u32), rng.next_u64() as i32)
                .push(rng.next_u64() as u32)
                .push(vec_of(rng, 0..5, |r| r.next_u64()))
                .push(if rng.gen_range(0..2u32) == 0 {
                    "ab"
                } else {
                    ""
                })
                .build()
        });
        let env = TraceEnvelope {
            trace_id: rng.next_u64(),
            stream: 1,
            hops: vec_of(rng, 0..3, |r| mrnet_obs::tracectx::HopRecord {
                rank: r.next_u64() as u32,
                recv_us: r.next_u64(),
                send_us: r.next_u64(),
            }),
        };
        let mut frame = match rng.gen_range(0..controls.len() + 2) {
            0 => encode_data_frame(&packets),
            1 => encode_traced_data_frame(&packets, &[env]),
            i => controls[i - 2].to_frame(),
        }
        .to_vec();
        for _ in 0..rng.gen_range(1..4u32) {
            match rng.gen_range(0..3u32) {
                0 if !frame.is_empty() => {
                    let at = rng.gen_range(0..frame.len());
                    frame[at] ^= 1 << rng.gen_range(0..8u32);
                }
                1 => frame.truncate(rng.gen_range(0..frame.len() + 1)),
                _ if frame.len() >= 4 => {
                    let at = rng.gen_range(0..frame.len() - 3);
                    let word = match rng.gen_range(0..3u32) {
                        0 => 0,
                        1 => u32::MAX,
                        _ => rng.next_u64() as u32,
                    };
                    frame[at..at + 4].copy_from_slice(&word.to_le_bytes());
                }
                _ => {}
            }
        }
        frame
    }

    /// No hostile frame panics the decoder, the control-message parser
    /// or the materialization of a data packet.
    #[test]
    fn hostile_frames_never_panic() {
        check(
            0x5EED_F4A3,
            20_000,
            hostile_frame,
            |frame| match decode_frame(Bytes::copy_from_slice(frame)) {
                Ok(Frame::Control(p)) => drop(Control::from_packet(&p)),
                Ok(Frame::Data(packets) | Frame::Traced(packets, _)) => {
                    for p in &packets {
                        assert_eq!(p.values().len(), p.arity());
                    }
                }
                Err(_) => {}
            },
        );
    }

    #[test]
    fn empty_and_unknown_frames_rejected() {
        assert!(decode_frame(Bytes::new()).is_err());
        assert!(decode_frame(Bytes::from_static(&[9, 0, 0])).is_err());
    }

    #[test]
    fn unknown_control_tag_rejected() {
        let p = Packet::control(CONTROL_STREAM, -99);
        assert!(Control::from_packet(&p).is_err());
    }

    #[test]
    fn malformed_new_stream_rejected() {
        let p = PacketBuilder::new(CONTROL_STREAM, tags::NEW_STREAM)
            .push(1u32)
            .build();
        assert!(Control::from_packet(&p).is_err());
    }

    #[test]
    fn timeout_sync_mode_survives_f32_narrowing() {
        let c = Control::NewStream {
            stream_id: 2,
            endpoints: vec![1],
            up_filter: "null".into(),
            down_filter: "null".into(),
            sync: SyncMode::TimeOut(0.25),
        };
        let p = c.to_packet();
        match Control::from_packet(&p).unwrap() {
            Control::NewStream {
                sync: SyncMode::TimeOut(t),
                ..
            } => assert!((t - 0.25).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }
}
