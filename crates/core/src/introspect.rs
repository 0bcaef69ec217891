//! The in-band introspection stream: metrics ride MRNet itself.
//!
//! The front-end multicasts a "dump metrics" request down the tree on
//! a reserved stream; every process appends its own flattened
//! [`MetricsSection`] and the sections reduce back up by concatenation
//! — the same multicast/reduction pattern the paper uses for tool
//! data, applied to the network's own health. Requests and replies are
//! ordinary data packets, so they traverse both thread-mode channel
//! trees and process-mode TCP trees unchanged, but they bypass the
//! stream-manager layer (the reserved id is intercepted in the node
//! loop) and are excluded from the packet counters they report.
//!
//! Wire shapes:
//!
//! * request: `[req_id: %ud, timeout_secs: %lf]`, tag
//!   [`METRICS_REQUEST`];
//! * reply: `[req_id: %ud, ranks: %aud, entry_counts: %aud,
//!   names: %as, values: %auld]`, tag [`METRICS_REPLY`] — parallel
//!   per-section arrays with `names`/`values` flattened across
//!   sections, so merging two replies is pure concatenation.

use mrnet_obs::{MetricsSection, NetworkSnapshot, TraceEnvelope};
use mrnet_packet::{Packet, PacketBuilder, Value};

use crate::error::{MrnetError, Result};

// The reserved stream id and introspection tags live with the rest of
// the protocol constants; re-exported here so existing callers keep
// their import paths.
pub use crate::proto::tags::{METRICS_REPLY, METRICS_REQUEST, TRACE_REPORT};
pub use crate::proto::METRICS_STREAM;

/// Builds a metrics-dump request packet.
pub fn encode_request(req_id: u32, timeout_secs: f64) -> Packet {
    PacketBuilder::new(METRICS_STREAM, METRICS_REQUEST)
        .push(req_id)
        .push(timeout_secs)
        .build()
}

/// Parses a request packet into `(req_id, timeout_secs)`.
pub fn decode_request(packet: &Packet) -> Result<(u32, f64)> {
    let bad = || MrnetError::Protocol("malformed metrics request".into());
    let req_id = packet.get(0).and_then(Value::as_u32).ok_or_else(bad)?;
    let timeout = packet.get(1).and_then(Value::as_f64).ok_or_else(bad)?;
    Ok((req_id, timeout))
}

/// Builds a metrics reply packet carrying `sections` (any number,
/// including zero — a node with nothing to report still replies so its
/// parent's collection can complete).
pub fn encode_reply(req_id: u32, sections: &[MetricsSection]) -> Packet {
    let mut ranks = Vec::with_capacity(sections.len());
    let mut entry_counts = Vec::with_capacity(sections.len());
    let mut names = Vec::new();
    let mut values = Vec::new();
    for s in sections {
        ranks.push(s.rank);
        entry_counts.push(s.names.len() as u32);
        names.extend(s.names.iter().cloned());
        values.extend(s.values.iter().copied());
    }
    PacketBuilder::new(METRICS_STREAM, METRICS_REPLY)
        .push(req_id)
        .push(ranks)
        .push(entry_counts)
        .push(names)
        .push(values)
        .build()
}

/// Parses a reply packet into `(req_id, sections)`.
pub fn decode_reply(packet: &Packet) -> Result<(u32, Vec<MetricsSection>)> {
    let bad = || MrnetError::Protocol("malformed metrics reply".into());
    let req_id = packet.get(0).and_then(Value::as_u32).ok_or_else(bad)?;
    let ranks = packet
        .get(1)
        .and_then(Value::as_u32_slice)
        .ok_or_else(bad)?;
    let counts = packet
        .get(2)
        .and_then(Value::as_u32_slice)
        .ok_or_else(bad)?;
    let names = packet
        .get(3)
        .and_then(Value::as_str_array)
        .ok_or_else(bad)?;
    let values = packet
        .get(4)
        .and_then(Value::as_u64_slice)
        .ok_or_else(bad)?;
    if ranks.len() != counts.len() {
        return Err(bad());
    }
    let total: usize = counts.iter().map(|&c| c as usize).sum();
    if names.len() != total || values.len() != total {
        return Err(bad());
    }
    let mut sections = Vec::with_capacity(ranks.len());
    let mut off = 0usize;
    for (i, &rank) in ranks.iter().enumerate() {
        let n = counts[i] as usize;
        sections.push(MetricsSection {
            rank,
            names: names[off..off + n].to_vec(),
            values: values[off..off + n].to_vec(),
        });
        off += n;
    }
    Ok((req_id, sections))
}

/// Folds sections into a [`NetworkSnapshot`], in rank order: replies
/// arrive in whatever order the subtrees answered, and every rendering
/// of the snapshot lists nodes in its order.
pub fn snapshot_from_sections(mut sections: Vec<MetricsSection>) -> NetworkSnapshot {
    sections.sort_by_key(|s| s.rank);
    NetworkSnapshot { nodes: sections }
}

/// Builds a trace-report packet: a completed down-wave envelope a
/// back-end sends up the tree so the front-end's assembler can ingest
/// it. The envelope rides as its serialized byte form in a single
/// `%ac` field, so intermediate nodes forward it opaquely.
pub fn encode_trace_report(env: &TraceEnvelope) -> Packet {
    PacketBuilder::new(METRICS_STREAM, TRACE_REPORT)
        .push(mrnet_packet::trace::encode_envelope(env).to_vec())
        .build()
}

/// Parses a trace-report packet back into its envelope.
pub fn decode_trace_report(packet: &Packet) -> Result<TraceEnvelope> {
    let bad = || MrnetError::Protocol("malformed trace report".into());
    let bytes = packet.get(0).and_then(Value::as_bytes).ok_or_else(bad)?;
    mrnet_packet::trace::decode_envelope(bytes).map_err(|_| bad())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(rank: u32, base: u64, n: usize) -> MetricsSection {
        let mut s = MetricsSection::new(rank);
        for i in 0..n {
            s.push(&format!("m{i}"), base + i as u64);
        }
        s
    }

    #[test]
    fn request_round_trips() {
        let p = encode_request(42, 1.5);
        assert_eq!(p.stream_id(), METRICS_STREAM);
        assert_eq!(p.tag(), METRICS_REQUEST);
        let (req_id, timeout) = decode_request(&p).unwrap();
        assert_eq!(req_id, 42);
        assert!((timeout - 1.5).abs() < 1e-9);
    }

    #[test]
    fn reply_round_trips_multiple_sections() {
        let sections = vec![section(0, 100, 3), section(5, 200, 0), section(2, 300, 2)];
        let p = encode_reply(7, &sections);
        assert_eq!(p.tag(), METRICS_REPLY);
        let (req_id, got) = decode_reply(&p).unwrap();
        assert_eq!(req_id, 7);
        assert_eq!(got, sections);
    }

    #[test]
    fn empty_reply_round_trips() {
        let p = encode_reply(1, &[]);
        let (req_id, got) = decode_reply(&p).unwrap();
        assert_eq!(req_id, 1);
        assert!(got.is_empty());
    }

    #[test]
    fn merge_is_concatenation() {
        // A parent merges child replies by decoding each and chaining
        // the sections; re-encoding preserves everything.
        let a = vec![section(1, 0, 2)];
        let b = vec![section(2, 10, 1), section(3, 20, 2)];
        let (_, da) = decode_reply(&encode_reply(9, &a)).unwrap();
        let (_, db) = decode_reply(&encode_reply(9, &b)).unwrap();
        let merged: Vec<MetricsSection> = da.into_iter().chain(db).collect();
        let (_, out) = decode_reply(&encode_reply(9, &merged)).unwrap();
        assert_eq!(out.len(), 3);
        let snap = snapshot_from_sections(out);
        assert_eq!(snap.ranks(), vec![1, 2, 3]);
    }

    #[test]
    fn malformed_replies_rejected() {
        // Mismatched rank/count arrays.
        let p = PacketBuilder::new(METRICS_STREAM, METRICS_REPLY)
            .push(1u32)
            .push(vec![1u32, 2])
            .push(vec![1u32])
            .push(vec!["a".to_string()])
            .push(vec![1u64])
            .build();
        assert!(decode_reply(&p).is_err());
        // Counts that overrun the flattened arrays.
        let p = PacketBuilder::new(METRICS_STREAM, METRICS_REPLY)
            .push(1u32)
            .push(vec![1u32])
            .push(vec![5u32])
            .push(vec!["a".to_string()])
            .push(vec![1u64])
            .build();
        assert!(decode_reply(&p).is_err());
        // A request is not a reply.
        assert!(decode_reply(&encode_request(1, 0.1)).is_err());
    }

    #[test]
    fn trace_report_round_trips() {
        use mrnet_obs::HopRecord;
        let env = TraceEnvelope {
            trace_id: (3u64 << 32) | 7,
            stream: 11,
            hops: vec![
                HopRecord {
                    rank: 0,
                    recv_us: 10,
                    send_us: 20,
                },
                HopRecord {
                    rank: 3,
                    recv_us: 30,
                    send_us: 40,
                },
            ],
        };
        let p = encode_trace_report(&env);
        assert_eq!(p.stream_id(), METRICS_STREAM);
        assert_eq!(p.tag(), TRACE_REPORT);
        assert_eq!(decode_trace_report(&p).unwrap(), env);
        // A metrics request is not a trace report.
        assert!(decode_trace_report(&encode_request(1, 0.1)).is_err());
    }
}
