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

use std::sync::Arc;

use mrnet_filters::{BoxedTransform, FilterContext, FilterRegistry, SyncFilter, SyncMode};
use mrnet_obs::{FilterStats, NodeMetrics, StreamCounters};
use mrnet_packet::{Packet, Rank};

use crate::error::{MrnetError, Result};
use crate::intmap::IntMap;
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
    slot_of_child: IntMap<usize, usize>,
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
    counters: Arc<StreamCounters>,
    /// Upstream-filter timing; the synchronization-delay histogram
    /// (§3.2) is fed from here, the exec histogram from the
    /// `TimedTransform` wrapping `up`.
    up_stats: Arc<FilterStats>,
    /// When the oldest still-pending wave started accumulating.
    first_arrival: Option<f64>,
    /// `DoNotWait` sync and the `null` up filter: every upstream packet
    /// is its own wave and leaves unchanged, so the node loop forwards
    /// it without the sync filter or a transform (see
    /// [`StreamManager::relay_run`]).
    relay: bool,
}

impl StreamManager {
    /// Creates the manager for `def` at a process whose children are
    /// described by `routes`. Per-stream packet counters and filter
    /// wait/exec histograms record into `metrics`.
    pub fn new(
        def: StreamDef,
        routes: &RoutingTable,
        registry: &FilterRegistry,
        local_rank: Rank,
        metrics: &NodeMetrics,
    ) -> Result<StreamManager> {
        let (participants, slot_targets): (Vec<usize>, Vec<Vec<Rank>>) = routes
            .children_with_targets(&def.endpoints)
            .into_iter()
            .unzip();
        let slot_of_child: IntMap<usize, usize> = participants
            .iter()
            .enumerate()
            .map(|(slot, &child)| (child, slot))
            .collect();
        let live_route = participants.clone();
        let up_id = registry.id_of(&def.up_filter)?;
        let up_stats = metrics.filter_stats(&def.up_filter);
        let up = registry.instantiate_timed(up_id, up_stats.clone())?;
        let counters = metrics.stream_counters(def.id);
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

    /// True when upstream packets skip [`StreamManager::up`] and
    /// [`StreamManager::transform_wave`]: the node loop forwards them as
    /// they are and books them with [`StreamManager::relay_run`].
    pub fn is_relay(&self) -> bool {
        self.relay
    }

    /// The upstream bookkeeping of a relay stream (see
    /// [`StreamManager::is_relay`]) for a run of `n` consecutive
    /// packets from `child`: checks once that `child` participates, and
    /// counts the `n` packets and their `n` one-packet waves with one
    /// add each. It reads no clock, so the stream records no sync-wait
    /// or exec time.
    pub fn relay_run(&self, child: usize, n: usize) -> Result<()> {
        self.slot(child)?;
        self.counters.up_pkts.add(n as u64);
        self.up_stats.waves.add(n as u64);
        Ok(())
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

    /// Handles an upstream packet arriving from local child `child` at
    /// time `now`: pushes it into the sync filter and returns the waves
    /// it released, untransformed, so the caller can transform (and
    /// drop) each wave on its own with [`StreamManager::transform_wave`].
    pub fn up(&mut self, child: usize, packet: Packet, now: f64) -> Result<Vec<Vec<Packet>>> {
        let slot = self.slot(child)?;
        self.counters.up_pkts.inc();
        if self.first_arrival.is_none() {
            self.first_arrival = Some(now);
        }
        let waves = self.sync.push(slot, packet, now);
        self.note_released(&waves, now);
        Ok(waves)
    }

    /// Re-evaluates synchronization deadlines at `now` (for TimeOut
    /// streams); returns the waves a timeout released, untransformed.
    pub fn poll(&mut self, now: f64) -> Vec<Vec<Packet>> {
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
            for _ in waves {
                self.up_stats.wait_us.record_secs(now - start);
            }
        }
        if self.sync.has_pending() {
            // Packets for the next wave are already queued; the delay
            // clock for that wave starts now (its true first arrival
            // is unknowable once its predecessor flushed).
            self.first_arrival = Some(now);
        }
    }

    /// Runs one released wave through the upstream transformation
    /// filter. The aggregate continues on the same stream; a failing
    /// wave fails alone, and the caller drops it.
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
        self.counters.down_pkts.inc();
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
    /// waves complete with the survivors). Returns the waves the
    /// shrinkage released, untransformed, and whether the stream now
    /// has no end-points left at all.
    pub fn prune(&mut self, dead: &[Rank], now: f64) -> (Vec<Vec<Packet>>, bool) {
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

    /// A manager at rank 3 over [`routes`], recording into `metrics`.
    fn manager_in(
        endpoints: Vec<Rank>,
        up: &str,
        sync: SyncMode,
        metrics: &NodeMetrics,
    ) -> StreamManager {
        let reg = FilterRegistry::with_builtins();
        StreamManager::new(def(endpoints, up, sync), &routes(), &reg, 3, metrics).unwrap()
    }

    fn manager(endpoints: Vec<Rank>, up: &str, sync: SyncMode) -> StreamManager {
        manager_in(endpoints, up, sync, &NodeMetrics::new())
    }

    /// Transforms each released wave, as the node loop does.
    fn transformed(m: &mut StreamManager, waves: Vec<Vec<Packet>>) -> Vec<Packet> {
        waves
            .into_iter()
            .flat_map(|w| m.transform_wave(w).unwrap())
            .collect()
    }

    /// An upstream packet through sync and transform.
    fn up_transformed(m: &mut StreamManager, child: usize, p: Packet, now: f64) -> Vec<Packet> {
        let waves = m.up(child, p, now).unwrap();
        transformed(m, waves)
    }

    fn fpkt(v: f32) -> Packet {
        PacketBuilder::new(5, 1).push(v).build()
    }

    #[test]
    fn aggregates_complete_waves() {
        let mut m = manager(vec![10, 12, 13], "f_max", SyncMode::WaitForAll);
        assert_eq!(m.participants(), &[0, 1, 2]);
        assert!(up_transformed(&mut m, 0, fpkt(1.0), 0.0).is_empty());
        assert!(up_transformed(&mut m, 1, fpkt(5.0), 0.1).is_empty());
        let out = up_transformed(&mut m, 2, fpkt(3.0), 0.2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(5.0));
        assert_eq!(out[0].stream_id(), 5);
    }

    #[test]
    fn only_participating_children_count() {
        // Endpoints only under children 0 and 2.
        let mut m = manager(vec![11, 14], "f_sum", SyncMode::WaitForAll);
        assert_eq!(m.participants(), &[0, 2]);
        assert!(up_transformed(&mut m, 0, fpkt(1.0), 0.0).is_empty());
        // Wave completes with just the two participants.
        let out = up_transformed(&mut m, 2, fpkt(2.0), 0.1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(3.0));
    }

    #[test]
    fn packet_from_non_participant_is_protocol_error() {
        let mut m = manager(vec![12], "f_max", SyncMode::WaitForAll);
        assert!(m.up(0, fpkt(1.0), 0.0).is_err());
    }

    #[test]
    fn timeout_streams_release_partial_waves_via_poll() {
        let mut m = manager(vec![10, 12, 13], "f_sum", SyncMode::TimeOut(1.0));
        assert!(up_transformed(&mut m, 0, fpkt(2.0), 0.0).is_empty());
        assert_eq!(m.deadline(), Some(1.0));
        assert!(m.poll(0.5).is_empty());
        let waves = m.poll(1.0);
        let out = transformed(&mut m, waves);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(2.0));
        assert_eq!(m.deadline(), None);
    }

    #[test]
    fn down_applies_downstream_filter() {
        let mut m = manager(vec![10], "null", SyncMode::DoNotWait);
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
            &NodeMetrics::new(),
        )
        .err()
        .expect("unknown filter");
        assert!(matches!(err, MrnetError::Filter(_)));
    }

    #[test]
    fn metrics_record_packets_and_sync_delay() {
        let metrics = NodeMetrics::new();
        let mut m = manager_in(vec![10, 12, 13], "f_sum", SyncMode::WaitForAll, &metrics);
        assert!(up_transformed(&mut m, 0, fpkt(1.0), 0.0).is_empty());
        assert!(up_transformed(&mut m, 1, fpkt(2.0), 0.010).is_empty());
        let out = up_transformed(&mut m, 2, fpkt(3.0), 0.025);
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
        let mut m = manager(vec![10, 12, 13], "f_sum", SyncMode::WaitForAll);
        // Two of three participants have reported; the wave is stuck
        // waiting on child 1 (serving rank 12).
        assert!(up_transformed(&mut m, 0, fpkt(1.0), 0.0).is_empty());
        assert!(up_transformed(&mut m, 2, fpkt(2.0), 0.1).is_empty());
        // Rank 12 dies: the wave must complete from the survivors.
        let (waves, empty) = m.prune(&[12], 0.2);
        let out = transformed(&mut m, waves);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(3.0));
        assert!(!empty);
        assert_eq!(m.live_endpoints(), &[10, 13]);
        // Subsequent waves need only the two survivors.
        assert!(up_transformed(&mut m, 0, fpkt(5.0), 0.3).is_empty());
        let out = up_transformed(&mut m, 2, fpkt(7.0), 0.4);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(12.0));
    }

    #[test]
    fn prune_partial_slot_keeps_slot_active() {
        // Child 0 serves both 10 and 11; losing 11 alone must not
        // deactivate the slot.
        let mut m = manager(vec![10, 11, 12], "f_sum", SyncMode::WaitForAll);
        assert!(up_transformed(&mut m, 1, fpkt(4.0), 0.0).is_empty());
        let (waves, empty) = m.prune(&[11], 0.1);
        assert!(waves.is_empty());
        assert!(!empty);
        // Child 0 still participates (rank 10 lives there); once it
        // reports, the wave held since before the prune completes.
        let out = up_transformed(&mut m, 0, fpkt(1.0), 0.2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(5.0));
    }

    #[test]
    fn live_route_shrinks_with_pruned_children() {
        let mut m = manager(vec![10, 11, 12, 13], "f_sum", SyncMode::WaitForAll);
        assert_eq!(m.live_route(), &[0, 1, 2]);
        // Losing 11 alone keeps child 0 on the route (10 survives).
        m.prune(&[11], 0.0);
        assert_eq!(m.live_route(), &[0, 1, 2]);
        // Losing 12 empties child 1's targets: it leaves the route.
        m.prune(&[12], 0.1);
        assert_eq!(m.live_route(), &[0, 2]);
        // Participants (sync slots) are unchanged by pruning.
        assert_eq!(m.participants(), &[0, 1, 2]);
    }

    #[test]
    fn prune_to_empty_reports_dead_stream() {
        let mut m = manager(vec![10, 12], "f_sum", SyncMode::WaitForAll);
        let (_, empty) = m.prune(&[10], 0.0);
        assert!(!empty);
        let (_, empty) = m.prune(&[12], 0.1);
        assert!(empty);
        assert!(m.live_endpoints().is_empty());
    }

    #[test]
    fn sync_half_releases_untransformed_waves() {
        let mut m = manager(vec![10, 12], "f_sum", SyncMode::WaitForAll);
        assert!(m.up(0, fpkt(1.0), 0.0).unwrap().is_empty());
        let waves = m.up(1, fpkt(2.0), 0.1).unwrap();
        // One wave of two raw packets — the sum filter has not run.
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].len(), 2);
        let out = transformed(&mut m, waves);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(3.0));
    }

    #[test]
    fn a_failing_wave_fails_alone() {
        let mut m = manager(vec![12], "f_sum", SyncMode::DoNotWait);
        let bad = PacketBuilder::new(5, 1).push("not a float").build();
        assert!(m.transform_wave(vec![bad]).is_err());
        // The filter instance survives the error: the next wave sums.
        let out = m.transform_wave(vec![fpkt(4.0)]).unwrap();
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(4.0));
        assert_eq!(out[0].stream_id(), 5);
    }

    #[test]
    fn null_streams_are_identified_for_the_bypass() {
        let m = manager(vec![12], "null", SyncMode::DoNotWait);
        assert!(m.up_filter_is_null());
    }

    #[test]
    fn prune_sync_returns_raw_waves() {
        let mut m = manager(vec![10, 12], "f_sum", SyncMode::WaitForAll);
        assert!(m.up(0, fpkt(1.0), 0.0).unwrap().is_empty());
        let (waves, empty) = m.prune(&[12], 0.1);
        assert_eq!(waves.len(), 1);
        assert!(!empty);
        let out = transformed(&mut m, waves);
        assert_eq!(out[0].get(0).unwrap().as_f32(), Some(1.0));
    }

    #[test]
    fn filter_state_is_private_per_manager() {
        let mut a = manager(vec![12], "f_sum", SyncMode::DoNotWait);
        let mut b = manager(vec![12], "f_sum", SyncMode::DoNotWait);
        let oa = up_transformed(&mut a, 1, fpkt(1.0), 0.0);
        let ob = up_transformed(&mut b, 1, fpkt(1.0), 0.0);
        assert_eq!(oa, ob);
    }
}
