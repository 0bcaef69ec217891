//! Per-stream state inside one MRNet process.
//!
//! §2.3: "Internal processes use a stream manager object to manage
//! control flow and route packets. When a stream is established, an
//! internal process creates a new stream manager and initializes it
//! with the set of end-points to be associated with the stream and the
//! filter(s) to be used on data packets sent on the stream."
//!
//! A [`StreamManager`] owns the stream's synchronization filter and
//! its upstream/downstream transformation filter instances, and knows
//! which of the process's children participate in the stream.

use std::collections::HashMap;
use std::sync::Arc;

use mrnet_filters::{BoxedTransform, FilterContext, FilterRegistry, SyncFilter, SyncMode};
use mrnet_obs::{FilterStats, NodeMetrics, StreamCounters};
use mrnet_packet::{Packet, Rank};

use crate::error::{MrnetError, Result};
use crate::route::RoutingTable;
use crate::streams::StreamDef;

/// Stream state at one process.
pub struct StreamManager {
    def: StreamDef,
    ctx: FilterContext,
    sync: SyncFilter,
    /// The upstream transformation filter.
    up: BoxedTransform,
    down: BoxedTransform,
    /// Local child indices participating in this stream, in child
    /// order; the position within this vector is the sync-filter slot.
    participants: Vec<usize>,
    slot_of_child: HashMap<usize, usize>,
    /// Per-slot stream end-points served through that participant
    /// child, shrunk as failures are pruned; a slot whose target set
    /// empties is deactivated in the sync filter.
    slot_targets: Vec<Vec<Rank>>,
    /// The downstream fan-out route, cached: participant children that
    /// still serve at least one live end-point. Computed once at build
    /// and rebuilt on prune, so the per-packet downstream path never
    /// recomputes routing-table intersections.
    live_route: Vec<usize>,
    /// Per-stream packet counters (shared with the node's registry).
    counters: Option<Arc<StreamCounters>>,
    /// Upstream-filter timing; the synchronization-delay histogram
    /// (§3.2) is fed from here, the exec histogram from the
    /// `TimedTransform` wrapping `up`.
    up_stats: Option<Arc<FilterStats>>,
    /// When the oldest still-pending wave started accumulating.
    first_arrival: Option<f64>,
    /// `DoNotWait` sync and the `null` up filter: every upstream packet
    /// is its own wave and leaves unchanged, so [`StreamManager::relay_up`]
    /// forwards it without the sync filter or a transform.
    relay: bool,
}

impl StreamManager {
    /// Creates the manager for `def` at a process whose children are
    /// described by `routes`.
    pub fn new(
        def: StreamDef,
        routes: &RoutingTable,
        registry: &FilterRegistry,
        local_rank: Rank,
    ) -> Result<StreamManager> {
        StreamManager::build(def, routes, registry, local_rank, None)
    }

    /// Like [`StreamManager::new`], but instrumented: per-stream packet
    /// counters and filter wait/exec histograms record into `metrics`.
    pub fn with_metrics(
        def: StreamDef,
        routes: &RoutingTable,
        registry: &FilterRegistry,
        local_rank: Rank,
        metrics: &NodeMetrics,
    ) -> Result<StreamManager> {
        StreamManager::build(def, routes, registry, local_rank, Some(metrics))
    }

    fn build(
        def: StreamDef,
        routes: &RoutingTable,
        registry: &FilterRegistry,
        local_rank: Rank,
        metrics: Option<&NodeMetrics>,
    ) -> Result<StreamManager> {
        let (participants, slot_targets): (Vec<usize>, Vec<Vec<Rank>>) = routes
            .children_with_targets(&def.endpoints)
            .into_iter()
            .unzip();
        let slot_of_child: HashMap<usize, usize> = participants
            .iter()
            .enumerate()
            .map(|(slot, &child)| (child, slot))
            .collect();
        let live_route = participants.clone();
        let up_id = registry.id_of(&def.up_filter)?;
        let (up, counters, up_stats) = match metrics {
            Some(m) => {
                let stats = m.filter_stats(&def.up_filter);
                (
                    registry.instantiate_timed(up_id, stats.clone())?,
                    Some(m.stream_counters(def.id)),
                    Some(stats),
                )
            }
            None => (registry.instantiate(up_id)?, None, None),
        };
        let down = registry.instantiate(registry.id_of(&def.down_filter)?)?;
        let relay = def.sync == SyncMode::DoNotWait && def.up_filter == "null";
        let sync = SyncFilter::new(def.sync, participants.len());
        let ctx = FilterContext::new(def.id, local_rank, participants.len());
        Ok(StreamManager {
            def,
            ctx,
            sync,
            up,
            down,
            participants,
            slot_of_child,
            slot_targets,
            live_route,
            counters,
            up_stats,
            first_arrival: None,
            relay,
        })
    }

    /// The stream definition.
    pub fn def(&self) -> &StreamDef {
        &self.def
    }

    /// Local child indices participating in this stream.
    pub fn participants(&self) -> &[usize] {
        &self.participants
    }

    /// The cached downstream route: participant children still serving
    /// at least one live end-point. Shrinks as failures are pruned.
    pub fn live_route(&self) -> &[usize] {
        &self.live_route
    }

    /// Handles an upstream packet arriving from local child `child` at
    /// time `now`; returns the aggregated packets ready to continue
    /// upstream.
    pub fn up(&mut self, child: usize, packet: Packet, now: f64) -> Result<Vec<Packet>> {
        let waves = self.up_sync(child, packet, now)?;
        self.transform_waves(waves)
    }

    /// True when upstream packets take [`StreamManager::relay_up`]
    /// instead of [`StreamManager::up_sync`] + [`StreamManager::transform_wave`].
    pub fn is_relay(&self) -> bool {
        self.relay
    }

    /// The upstream path of a relay stream (see
    /// [`StreamManager::is_relay`]): checks that `child` participates,
    /// counts the packet and its one-packet wave, and hands the packet
    /// back to forward as is. It reads no clock, so the stream records
    /// no sync-wait or exec time.
    pub fn relay_up(&mut self, child: usize, packet: Packet) -> Result<Packet> {
        self.slot(child)?;
        if let Some(c) = &self.counters {
            c.up_pkts.inc();
        }
        if let Some(stats) = &self.up_stats {
            stats.waves.inc();
        }
        Ok(packet)
    }

    /// The sync-filter slot of local child `child`; an error if the
    /// child does not participate in this stream.
    fn slot(&self, child: usize) -> Result<usize> {
        self.slot_of_child.get(&child).copied().ok_or_else(|| {
            MrnetError::Protocol(format!(
                "upstream packet for stream {} from non-participant child {child}",
                self.def.id
            ))
        })
    }

    /// The synchronization half of [`StreamManager::up`]: pushes the
    /// packet into the sync filter and returns the waves it released,
    /// untransformed, so the caller can transform (and drop) each wave
    /// on its own with [`StreamManager::transform_wave`].
    pub fn up_sync(&mut self, child: usize, packet: Packet, now: f64) -> Result<Vec<Vec<Packet>>> {
        let slot = self.slot(child)?;
        if let Some(c) = &self.counters {
            c.up_pkts.inc();
        }
        if self.first_arrival.is_none() {
            self.first_arrival = Some(now);
        }
        let waves = self.sync.push(slot, packet, now);
        self.note_released(&waves, now);
        Ok(waves)
    }

    /// Re-evaluates synchronization deadlines at `now` (for TimeOut
    /// streams); returns any packets released by a timeout.
    pub fn poll(&mut self, now: f64) -> Result<Vec<Packet>> {
        let waves = self.poll_sync(now);
        self.transform_waves(waves)
    }

    /// The synchronization half of [`StreamManager::poll`]: released
    /// waves, untransformed.
    pub fn poll_sync(&mut self, now: f64) -> Vec<Vec<Packet>> {
        let waves = self.sync.collect(now);
        self.note_released(&waves, now);
        waves
    }

    /// Records synchronization delay (first arrival of a wave → its
    /// release, the paper's §3.2 measure) for each released wave.
    fn note_released(&mut self, waves: &[Vec<Packet>], now: f64) {
        if waves.is_empty() {
            return;
        }
        if let Some(start) = self.first_arrival.take() {
            if let Some(stats) = &self.up_stats {
                for _ in waves {
                    stats.wait_us.record_secs(now - start);
                }
            }
        }
        if self.sync.has_pending() {
            // Packets for the next wave are already queued; the delay
            // clock for that wave starts now (its true first arrival
            // is unknowable once its predecessor flushed).
            self.first_arrival = Some(now);
        }
    }

    /// Runs released waves through the upstream transformation filter.
    /// The first failing wave fails the whole call; the node loop uses
    /// [`StreamManager::transform_wave`] to drop failing waves singly.
    pub fn transform_waves(&mut self, waves: Vec<Vec<Packet>>) -> Result<Vec<Packet>> {
        let mut out = Vec::new();
        for wave in waves {
            out.extend(self.transform_wave(wave)?);
        }
        Ok(out)
    }

    /// Runs one released wave through the upstream transformation
    /// filter. The aggregate continues on the same stream.
    pub fn transform_wave(&mut self, wave: Vec<Packet>) -> Result<Vec<Packet>> {
        let produced = self.up.transform(wave, &self.ctx)?;
        Ok(produced
            .into_iter()
            .map(|p| p.with_stream(self.def.id))
            .collect())
    }

    /// True when the stream's upstream filter is the null passthrough —
    /// such streams never materialize a payload, and their packets stay
    /// in raw wire form end to end.
    pub fn up_filter_is_null(&self) -> bool {
        self.def.up_filter == "null"
    }

    /// Applies the downstream transformation to a packet flowing
    /// toward the back-ends. "Synchronization filters are not
    /// supported for downstream data flows" (§2.3), so each packet is
    /// transformed as a singleton wave.
    pub fn down(&mut self, packet: Packet) -> Result<Vec<Packet>> {
        if let Some(c) = &self.counters {
            c.down_pkts.inc();
        }
        let produced = self.down.transform(vec![packet], &self.ctx)?;
        Ok(produced
            .into_iter()
            .map(|p| p.with_stream(self.def.id))
            .collect())
    }

    /// The next absolute time at which [`StreamManager::poll`] should
    /// run, if any.
    pub fn deadline(&self) -> Option<f64> {
        self.sync.deadline()
    }

    /// The stream's surviving end-points.
    pub fn live_endpoints(&self) -> &[Rank] {
        &self.def.endpoints
    }

    /// Shrinks the stream's membership after the ranks in `dead`
    /// failed: removes them from the end-point set, deactivates
    /// sync-filter slots whose every target died (so `WaitForAll`
    /// waves complete with the survivors), and runs any waves the
    /// shrinkage released through the upstream filter. Returns the
    /// released aggregate packets and whether the stream now has no
    /// end-points left at all.
    pub fn prune(&mut self, dead: &[Rank], now: f64) -> Result<(Vec<Packet>, bool)> {
        let (released, empty) = self.prune_sync(dead, now);
        Ok((self.transform_waves(released)?, empty))
    }

    /// The synchronization half of [`StreamManager::prune`]: shrinks
    /// membership and returns the released waves untransformed, plus
    /// whether the stream has no end-points left.
    pub fn prune_sync(&mut self, dead: &[Rank], now: f64) -> (Vec<Vec<Packet>>, bool) {
        self.def.endpoints.retain(|r| !dead.contains(r));
        let mut released = Vec::new();
        for slot in 0..self.slot_targets.len() {
            let targets = &mut self.slot_targets[slot];
            let before = targets.len();
            targets.retain(|r| !dead.contains(r));
            if before > 0 && targets.is_empty() {
                released.extend(self.sync.deactivate_slot(slot, now));
            }
        }
        self.note_released(&released, now);
        self.live_route = self
            .participants
            .iter()
            .enumerate()
            .filter(|&(slot, _)| !self.slot_targets[slot].is_empty())
            .map(|(_, &child)| child)
            .collect();
        (released, self.def.endpoints.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrnet_packet::PacketBuilder;

    fn routes() -> RoutingTable {
        let mut r = RoutingTable::new();
        r.add_child([10, 11]);
        r.add_child([12]);
        r.add_child([13, 14]);
        r
    }

    fn def(endpoints: Vec<Rank>, up: &str, sync: SyncMode) -> StreamDef {
        StreamDef {
            id: 5,
            endpoints,
            up_filter: up.into(),
            down_filter: "null".into(),
            sync,
        }
    }

    fn fpkt(v: f32) -> Packet {
        PacketBuilder::new(5, 1).push(v).build()
    }

    #[test]
    fn aggregates_complete_waves() {
        let reg = FilterRegistry::with_builtins();
        let mut m = StreamManager::new(
            def(vec![10, 12, 13], "f_max", SyncMode::WaitForAll),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        assert_eq!(m.participants(), &[0, 1, 2]);
        assert!(m.up(0, fpkt(1.0), 0.0).unwrap().is_empty());
        assert!(m.up(1, fpkt(5.0), 0.1).unwrap().is_empty());
        let out = m.up(2, fpkt(3.0), 0.2).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(5.0));
        assert_eq!(out[0].stream_id(), 5);
    }

    #[test]
    fn only_participating_children_count() {
        let reg = FilterRegistry::with_builtins();
        // Endpoints only under children 0 and 2.
        let mut m = StreamManager::new(
            def(vec![11, 14], "f_sum", SyncMode::WaitForAll),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        assert_eq!(m.participants(), &[0, 2]);
        assert!(m.up(0, fpkt(1.0), 0.0).unwrap().is_empty());
        // Wave completes with just the two participants.
        let out = m.up(2, fpkt(2.0), 0.1).unwrap();
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(3.0));
    }

    #[test]
    fn packet_from_non_participant_is_protocol_error() {
        let reg = FilterRegistry::with_builtins();
        let mut m = StreamManager::new(
            def(vec![12], "f_max", SyncMode::WaitForAll),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        assert!(m.up(0, fpkt(1.0), 0.0).is_err());
    }

    #[test]
    fn timeout_streams_release_partial_waves_via_poll() {
        let reg = FilterRegistry::with_builtins();
        let mut m = StreamManager::new(
            def(vec![10, 12, 13], "f_sum", SyncMode::TimeOut(1.0)),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        assert!(m.up(0, fpkt(2.0), 0.0).unwrap().is_empty());
        assert_eq!(m.deadline(), Some(1.0));
        assert!(m.poll(0.5).unwrap().is_empty());
        let out = m.poll(1.0).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(2.0));
        assert_eq!(m.deadline(), None);
    }

    #[test]
    fn down_applies_downstream_filter() {
        let reg = FilterRegistry::with_builtins();
        let mut m = StreamManager::new(
            def(vec![10], "null", SyncMode::DoNotWait),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        let out = m.down(fpkt(9.0)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(9.0));
    }

    #[test]
    fn unknown_filter_fails_construction() {
        let reg = FilterRegistry::with_builtins();
        let err = StreamManager::new(
            def(vec![10], "no_such_filter", SyncMode::WaitForAll),
            &routes(),
            &reg,
            0,
        )
        .err()
        .expect("unknown filter");
        assert!(matches!(err, MrnetError::Filter(_)));
    }

    #[test]
    fn metrics_record_packets_and_sync_delay() {
        let reg = FilterRegistry::with_builtins();
        let metrics = NodeMetrics::new();
        let mut m = StreamManager::with_metrics(
            def(vec![10, 12, 13], "f_sum", SyncMode::WaitForAll),
            &routes(),
            &reg,
            3,
            &metrics,
        )
        .unwrap();
        assert!(m.up(0, fpkt(1.0), 0.0).unwrap().is_empty());
        assert!(m.up(1, fpkt(2.0), 0.010).unwrap().is_empty());
        let out = m.up(2, fpkt(3.0), 0.025).unwrap();
        assert_eq!(out.len(), 1);
        m.down(fpkt(9.0)).unwrap();
        let counters = metrics.stream_counters(5);
        assert_eq!(counters.up_pkts.get(), 3);
        assert_eq!(counters.down_pkts.get(), 1);
        let stats = metrics.filter_stats("f_sum");
        assert_eq!(stats.waves.get(), 1);
        assert_eq!(stats.exec_us.count(), 1);
        // One wave waited 25 ms between first arrival and release.
        let wait = stats.wait_us.snapshot();
        assert_eq!(wait.count, 1);
        assert_eq!(wait.sum_us, 25_000);
    }

    #[test]
    fn prune_completes_wait_for_all_wave_with_survivors() {
        let reg = FilterRegistry::with_builtins();
        let mut m = StreamManager::new(
            def(vec![10, 12, 13], "f_sum", SyncMode::WaitForAll),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        // Two of three participants have reported; the wave is stuck
        // waiting on child 1 (serving rank 12).
        assert!(m.up(0, fpkt(1.0), 0.0).unwrap().is_empty());
        assert!(m.up(2, fpkt(2.0), 0.1).unwrap().is_empty());
        // Rank 12 dies: the wave must complete from the survivors.
        let (out, empty) = m.prune(&[12], 0.2).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(3.0));
        assert!(!empty);
        assert_eq!(m.live_endpoints(), &[10, 13]);
        // Subsequent waves need only the two survivors.
        assert!(m.up(0, fpkt(5.0), 0.3).unwrap().is_empty());
        let out = m.up(2, fpkt(7.0), 0.4).unwrap();
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(12.0));
    }

    #[test]
    fn prune_partial_slot_keeps_slot_active() {
        let reg = FilterRegistry::with_builtins();
        // Child 0 serves both 10 and 11; losing 11 alone must not
        // deactivate the slot.
        let mut m = StreamManager::new(
            def(vec![10, 11, 12], "f_sum", SyncMode::WaitForAll),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        assert!(m.up(1, fpkt(4.0), 0.0).unwrap().is_empty());
        let (out, empty) = m.prune(&[11], 0.1).unwrap();
        assert!(out.is_empty());
        assert!(!empty);
        // Child 0 still participates (rank 10 lives there); once it
        // reports, the wave held since before the prune completes.
        let waves = m.up(0, fpkt(1.0), 0.2).unwrap();
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].get(0).unwrap().as_f32(), Some(5.0));
    }

    #[test]
    fn live_route_shrinks_with_pruned_children() {
        let reg = FilterRegistry::with_builtins();
        let mut m = StreamManager::new(
            def(vec![10, 11, 12, 13], "f_sum", SyncMode::WaitForAll),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        assert_eq!(m.live_route(), &[0, 1, 2]);
        // Losing 11 alone keeps child 0 on the route (10 survives).
        m.prune(&[11], 0.0).unwrap();
        assert_eq!(m.live_route(), &[0, 1, 2]);
        // Losing 12 empties child 1's targets: it leaves the route.
        m.prune(&[12], 0.1).unwrap();
        assert_eq!(m.live_route(), &[0, 2]);
        // Participants (sync slots) are unchanged by pruning.
        assert_eq!(m.participants(), &[0, 1, 2]);
    }

    #[test]
    fn prune_to_empty_reports_dead_stream() {
        let reg = FilterRegistry::with_builtins();
        let mut m = StreamManager::new(
            def(vec![10, 12], "f_sum", SyncMode::WaitForAll),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        let (_, empty) = m.prune(&[10], 0.0).unwrap();
        assert!(!empty);
        let (_, empty) = m.prune(&[12], 0.1).unwrap();
        assert!(empty);
        assert!(m.live_endpoints().is_empty());
    }

    #[test]
    fn sync_half_releases_untransformed_waves() {
        let reg = FilterRegistry::with_builtins();
        let mut m = StreamManager::new(
            def(vec![10, 12], "f_sum", SyncMode::WaitForAll),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        assert!(m.up_sync(0, fpkt(1.0), 0.0).unwrap().is_empty());
        let waves = m.up_sync(1, fpkt(2.0), 0.1).unwrap();
        // One wave of two raw packets — the sum filter has not run.
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].len(), 2);
        let out = m.transform_waves(waves).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(3.0));
    }

    #[test]
    fn a_failing_wave_fails_alone() {
        let reg = FilterRegistry::with_builtins();
        let mut m = StreamManager::new(
            def(vec![12], "f_sum", SyncMode::DoNotWait),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        let bad = PacketBuilder::new(5, 1).push("not a float").build();
        assert!(m.transform_wave(vec![bad]).is_err());
        // The filter instance survives the error: the next wave sums.
        let out = m.transform_wave(vec![fpkt(4.0)]).unwrap();
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(4.0));
        assert_eq!(out[0].stream_id(), 5);
    }

    #[test]
    fn null_streams_are_identified_for_the_bypass() {
        let reg = FilterRegistry::with_builtins();
        let m = StreamManager::new(
            def(vec![12], "null", SyncMode::DoNotWait),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        assert!(m.up_filter_is_null());
    }

    #[test]
    fn prune_sync_returns_raw_waves() {
        let reg = FilterRegistry::with_builtins();
        let mut m = StreamManager::new(
            def(vec![10, 12], "f_sum", SyncMode::WaitForAll),
            &routes(),
            &reg,
            3,
        )
        .unwrap();
        assert!(m.up_sync(0, fpkt(1.0), 0.0).unwrap().is_empty());
        let (waves, empty) = m.prune_sync(&[12], 0.1);
        assert_eq!(waves.len(), 1);
        assert!(!empty);
        let out = m.transform_waves(waves).unwrap();
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(1.0));
    }

    #[test]
    fn filter_state_is_private_per_manager() {
        let reg = FilterRegistry::with_builtins();
        let d = def(vec![12], "f_sum", SyncMode::DoNotWait);
        let mut a = StreamManager::new(d.clone(), &routes(), &reg, 0).unwrap();
        let mut b = StreamManager::new(d, &routes(), &reg, 0).unwrap();
        let oa = a.up(1, fpkt(1.0), 0.0).unwrap();
        let ob = b.up(1, fpkt(1.0), 0.0).unwrap();
        assert_eq!(oa, ob);
    }
}
