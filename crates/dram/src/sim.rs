//! Bank-state-machine DRAM simulator.
//!
//! Requests are served with per-bank row-buffer state (open row, ready
//! time) and a shared data bus. A *batch* models the prefetch of one
//! point patch: all requests are issued at cycle 0 and the batch
//! latency is the completion time of the last one — exactly the
//! quantity the prefetch double buffer must hide behind compute
//! (paper Sec. 4.5).

use crate::config::DramConfig;
use crate::layout::{FeatureLayout, Placement};
use serde::{Deserialize, Serialize};

/// One scene-feature fetch: `bytes` at texel `(x, y)` of source view
/// `view`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureRequest {
    /// Source-view index.
    pub view: usize,
    /// Texel column.
    pub x: u32,
    /// Texel row.
    pub y: u32,
    /// Bytes to read (feature channels × element size).
    pub bytes: u32,
}

/// Aggregate statistics over the simulator's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DramStats {
    /// Requests served.
    pub requests: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (activations).
    pub row_misses: u64,
    /// Cycles requests spent waiting for a busy bank.
    pub bank_conflict_stalls: u64,
    /// Cycles requests spent waiting for the shared data bus.
    pub bus_stalls: u64,
    /// Energy consumed, picojoules.
    pub energy_pj: f64,
}

impl DramStats {
    /// Row-buffer hit rate in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Result of serving one batch (point-patch prefetch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchResult {
    /// Cycles from issue to last completion.
    pub total_cycles: u64,
    /// Bytes transferred in this batch.
    pub bytes: u64,
    /// Row hits in this batch.
    pub row_hits: u64,
    /// Row misses in this batch.
    pub row_misses: u64,
    /// Bank-conflict stall cycles in this batch.
    pub bank_conflict_stalls: u64,
    /// Achieved bandwidth as a fraction of peak.
    pub bandwidth_utilization: f64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
}

/// The DRAM device simulator.
///
/// Feature-map geometry (`width`, `height`, `feat_bytes`) is set once
/// via [`Dram::set_geometry`] (defaults suit a 64×64×32 B map) so that
/// requests can be expressed in texel coordinates.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_ready_at: u64,
    now: u64,
    stats: DramStats,
    /// The feature layout, bound to the current geometry and `cfg`.
    placement: Placement,
    /// Last `(bytes, cfg.transfer_cycles(bytes))` served: a prefetch
    /// issues one burst size, so the bus-time divide runs once per
    /// size rather than once per access.
    burst: (u64, u64),
}

impl Dram {
    /// Creates a simulator for `cfg` using `layout` for feature
    /// placement.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.banks` and `cfg.row_bytes` are powers of two:
    /// placement divides by neither, it shifts and masks.
    pub fn new(cfg: DramConfig, layout: FeatureLayout) -> Self {
        Self {
            banks: vec![Bank::default(); cfg.banks],
            bus_ready_at: 0,
            now: 0,
            stats: DramStats::default(),
            placement: Placement::new(layout, 64, 64, 32, cfg.banks, cfg.row_bytes),
            burst: (0, cfg.transfer_cycles(0)),
            cfg,
        }
    }

    /// Sets the feature-map geometry used to place requests.
    ///
    /// # Panics
    ///
    /// Panics when any argument is zero.
    pub fn set_geometry(&mut self, width: u32, height: u32, feat_bytes: u64) {
        assert!(width > 0 && height > 0 && feat_bytes > 0, "zero geometry");
        self.placement = Placement::new(
            self.layout(),
            width,
            height,
            feat_bytes,
            self.cfg.banks,
            self.cfg.row_bytes,
        );
    }

    /// The configured device.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The placement layout.
    pub fn layout(&self) -> FeatureLayout {
        self.placement.layout()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Current simulator time (cycles).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Serves a single request issued at the current time; returns its
    /// completion cycle.
    pub(crate) fn access(&mut self, req: FeatureRequest) -> u64 {
        let issue = self.now;
        let (width, height) = self.placement.dims();
        let (bank_idx, row) =
            self.placement
                .place(req.view, req.x.min(width - 1), req.y.min(height - 1));
        let t = self.cfg.timing;
        let bank = &mut self.banks[bank_idx];

        // Wait for the bank.
        let start = issue.max(bank.ready_at);
        self.stats.bank_conflict_stalls += start - issue;

        // Row-buffer state machine.
        let (access_latency, activated) = match bank.open_row {
            Some(open) if open == row => (t.t_cl, false),
            Some(_) => (t.t_rp + t.t_rcd + t.t_cl, true),
            None => (t.t_rcd + t.t_cl, true),
        };
        if activated {
            self.stats.row_misses += 1;
            self.stats.energy_pj += self.cfg.activate_pj;
        } else {
            self.stats.row_hits += 1;
        }
        bank.open_row = Some(row);

        // Column access completes, then the data crosses the shared bus.
        let col_done = start + access_latency;
        let bus_start = col_done.max(self.bus_ready_at);
        self.stats.bus_stalls += bus_start - col_done;
        if self.burst.0 != req.bytes as u64 {
            self.burst = (req.bytes as u64, self.cfg.transfer_cycles(req.bytes as u64));
        }
        let transfer = self.burst.1;
        let done = bus_start + transfer;
        self.bus_ready_at = done;
        // Keep the bank busy until tRAS would allow a precharge, or the
        // access completes — whichever is later.
        bank.ready_at = (start + t.t_ras).max(col_done);

        self.stats.requests += 1;
        self.stats.bytes += req.bytes as u64;
        self.stats.energy_pj += req.bytes as f64 * self.cfg.read_pj_per_byte;
        done
    }

    /// Serves a batch of requests issued simultaneously (a point-patch
    /// prefetch); returns the batch latency and statistics.
    ///
    /// Requests are scheduled in order (FCFS per bank; banks operate in
    /// parallel, the data bus is shared).
    pub fn serve_batch(&mut self, requests: &[FeatureRequest]) -> BatchResult {
        if requests.is_empty() {
            return BatchResult::default();
        }
        let hits0 = self.stats.row_hits;
        let misses0 = self.stats.row_misses;
        let conflicts0 = self.stats.bank_conflict_stalls;
        let start = self.now;
        let mut last_done = start;
        let mut bytes = 0u64;
        for &req in requests {
            let done = self.access(req);
            last_done = last_done.max(done);
            bytes += req.bytes as u64;
        }
        // Advance time to batch completion: the next batch (double
        // buffer swap) starts after this one.
        self.now = last_done;
        let total_cycles = last_done - start;
        let peak_bytes = self.cfg.bytes_per_cycle * total_cycles as f64;
        BatchResult {
            total_cycles,
            bytes,
            row_hits: self.stats.row_hits - hits0,
            row_misses: self.stats.row_misses - misses0,
            bank_conflict_stalls: self.stats.bank_conflict_stalls - conflicts0,
            bandwidth_utilization: if peak_bytes > 0.0 {
                (bytes as f64 / peak_bytes).min(1.0)
            } else {
                0.0
            },
        }
    }

    /// Closes every bank's row buffer (a precharge-all), leaving the
    /// clock, bus state and statistics untouched. Row hit/miss counts
    /// depend only on the open-row state, so a persistent device with
    /// a `precharge_all` between batches reproduces the per-batch
    /// hit/miss counts of a fresh device per batch — the equivalence
    /// behind the accelerator simulator's cold-row patch-parallel
    /// approximation (`prop_precharge_between_batches_matches_fresh_devices`
    /// pins it; `SimMode::WarmRows` is the mode that deliberately
    /// *skips* the precharge to measure what the approximation
    /// forgoes).
    #[cfg(test)]
    pub(crate) fn precharge_all(&mut self) {
        for bank in &mut self.banks {
            bank.open_row = None;
        }
    }

    /// Resets time, bank state and statistics.
    pub fn reset(&mut self) {
        self.banks.fill(Bank::default());
        self.bus_ready_at = 0;
        self.now = 0;
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(view: usize, x: u32, y: u32) -> FeatureRequest {
        FeatureRequest {
            view,
            x,
            y,
            bytes: 32,
        }
    }

    fn dram(layout: FeatureLayout) -> Dram {
        Dram::new(DramConfig::lpddr4_2400(), layout)
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut d = dram(FeatureLayout::RowMajor);
        d.access(req(0, 0, 0));
        assert_eq!(d.stats().row_misses, 1);
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn same_row_second_access_hits() {
        let mut d = dram(FeatureLayout::RowMajor);
        d.access(req(0, 0, 0));
        d.access(req(0, 1, 0)); // adjacent texel, same DRAM row
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut d = dram(FeatureLayout::RowMajor);
        let t0 = d.now();
        let done_miss = d.access(req(0, 0, 0)) - t0;
        let mut d2 = dram(FeatureLayout::RowMajor);
        d2.access(req(0, 0, 0));
        let t1 = d2.access(req(0, 1, 0));
        let prev = d2.now();
        let _ = prev;
        // Second access latency from its issue (issue time is still 0 in
        // this model since `access` doesn't advance `now`).
        let hit_latency = t1; // includes first access bus occupancy
                              // A cleaner comparison: hit latency must be below two misses.
        assert!(
            hit_latency < 2 * done_miss,
            "hit={hit_latency} miss={done_miss}"
        );
    }

    #[test]
    fn conflicting_bank_accesses_stall() {
        let mut d = dram(FeatureLayout::ViewInterleave);
        // All requests to view 0 → same bank.
        let reqs: Vec<_> = (0..16).map(|i| req(0, i * 8, i * 8)).collect();
        let r = d.serve_batch(&reqs);
        assert!(r.bank_conflict_stalls > 0, "{r:?}");
    }

    #[test]
    fn spatial_interleave_beats_row_major_on_2d_region() {
        // Fetch a 2D local region (what a point patch needs) across two
        // image rows under each layout.
        let region: Vec<_> = (0..4)
            .flat_map(|dy| (0..16).map(move |dx| req(0, 20 + dx, 30 + dy)))
            .collect();
        let mut a = dram(FeatureLayout::SpatialInterleave);
        let ra = a.serve_batch(&region);
        let mut b = dram(FeatureLayout::RowMajor);
        let rb = b.serve_batch(&region);
        assert!(
            ra.bank_conflict_stalls <= rb.bank_conflict_stalls,
            "interleave={} row-major={}",
            ra.bank_conflict_stalls,
            rb.bank_conflict_stalls
        );
    }

    #[test]
    fn view_interleave_worst_for_multi_fetch_same_view() {
        let region: Vec<_> = (0..6)
            .flat_map(|dy| (0..6).map(move |dx| req(0, 8 * dx, 8 * dy)))
            .collect();
        let mut spatial = dram(FeatureLayout::SpatialInterleave);
        let rs = spatial.serve_batch(&region);
        let mut view = dram(FeatureLayout::ViewInterleave);
        let rv = view.serve_batch(&region);
        assert!(
            rv.total_cycles >= rs.total_cycles,
            "view={} spatial={}",
            rv.total_cycles,
            rs.total_cycles
        );
    }

    #[test]
    fn batch_advances_time() {
        let mut d = dram(FeatureLayout::SpatialInterleave);
        assert_eq!(d.now(), 0);
        d.serve_batch(&[req(0, 0, 0)]);
        assert!(d.now() > 0);
    }

    #[test]
    fn empty_batch_is_free() {
        let mut d = dram(FeatureLayout::RowMajor);
        let r = d.serve_batch(&[]);
        assert_eq!(r.total_cycles, 0);
        assert_eq!(d.now(), 0);
    }

    #[test]
    fn energy_accumulates() {
        let mut d = dram(FeatureLayout::RowMajor);
        d.serve_batch(&[req(0, 0, 0), req(0, 1, 0)]);
        let cfg = DramConfig::lpddr4_2400();
        // 1 activation + 64 bytes read.
        let expect = cfg.activate_pj + 64.0 * cfg.read_pj_per_byte;
        assert!((d.stats().energy_pj - expect).abs() < 1e-6);
    }

    #[test]
    fn precharge_all_forces_next_access_to_miss() {
        let mut d = dram(FeatureLayout::RowMajor);
        d.access(req(0, 0, 0));
        d.access(req(0, 1, 0));
        assert_eq!(d.stats().row_hits, 1, "warm row hits before precharge");
        let (requests, bytes) = (d.stats().requests, d.stats().bytes);
        d.precharge_all();
        // Stats and clock survive; the open row does not.
        assert_eq!(d.stats().requests, requests);
        assert_eq!(d.stats().bytes, bytes);
        d.access(req(0, 2, 0)); // same DRAM row as before, now closed
        assert_eq!(d.stats().row_misses, 2);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut d = dram(FeatureLayout::RowMajor);
        d.serve_batch(&[req(0, 0, 0)]);
        d.reset();
        assert_eq!(d.now(), 0);
        assert_eq!(d.stats().requests, 0);
    }

    #[test]
    fn fresh_device_places_with_the_documented_default_geometry() {
        // `new` documents a 64×64×32 B map; without `set_geometry` a
        // request must land where `place` puts it for that geometry.
        let cfg = DramConfig::lpddr4_2400();
        for layout in FeatureLayout::all() {
            for (view, x, y) in [(0, 0, 0), (1, 5, 9), (2, 63, 63), (3, 17, 40), (5, 62, 1)] {
                let mut d = Dram::new(cfg, layout);
                d.access(req(view, x, y));
                let opened: Vec<(usize, u64)> = d
                    .banks
                    .iter()
                    .enumerate()
                    .filter_map(|(b, bank)| bank.open_row.map(|row| (b, row)))
                    .collect();
                let expect = layout.place(view, x, y, 64, 64, 32, cfg.banks, cfg.row_bytes);
                assert_eq!(opened, vec![expect], "{layout:?} ({view}, {x}, {y})");
            }
        }
    }

    #[test]
    fn reset_after_traffic_matches_a_fresh_device() {
        // The accelerator simulator's cold-row mode resets one device
        // per worker between patches instead of building a new one.
        let traffic: Vec<_> = (0..40)
            .map(|i| req(i % 3, (i * 7) as u32, (i * 5) as u32))
            .collect();
        for layout in FeatureLayout::all() {
            let fresh = || {
                let mut d = dram(layout);
                d.set_geometry(100, 70, 12);
                d
            };
            let mut used = fresh();
            used.serve_batch(&traffic);
            used.access(FeatureRequest {
                bytes: 64,
                ..req(1, 3, 3)
            });
            assert!(used.now() > 0 && used.stats().requests > 0);
            used.reset();
            let mut new = fresh();
            assert_eq!(used.stats(), new.stats());
            assert_eq!(used.now(), new.now());
            assert_eq!(used.bus_ready_at, new.bus_ready_at);
            assert_eq!(used.banks, new.banks);
            // ... and it behaves like one: same service, same totals.
            assert_eq!(used.serve_batch(&traffic), new.serve_batch(&traffic));
            assert_eq!(used.stats(), new.stats());
            assert_eq!(used.banks, new.banks);
        }
    }

    #[test]
    fn bandwidth_utilization_bounded() {
        let mut d = dram(FeatureLayout::SpatialInterleave);
        let reqs: Vec<_> = (0..64).map(|i| req(0, i % 8, i / 8)).collect();
        let r = d.serve_batch(&reqs);
        assert!(r.bandwidth_utilization > 0.0 && r.bandwidth_utilization <= 1.0);
    }

    #[test]
    fn hit_rate_reported() {
        let mut d = dram(FeatureLayout::RowMajor);
        d.serve_batch(&[req(0, 0, 0), req(0, 1, 0), req(0, 2, 0)]);
        assert!(d.stats().hit_rate() > 0.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_batch_latency_at_least_transfer_bound(
            n in 1usize..48,
            seed in 0u64..100,
        ) {
            let mut d = dram(FeatureLayout::SpatialInterleave);
            let reqs: Vec<_> = (0..n)
                .map(|i| {
                    let k = (i as u64).wrapping_mul(seed + 7);
                    req((k % 4) as usize, (k % 64) as u32, ((k / 64) % 64) as u32)
                })
                .collect();
            let r = d.serve_batch(&reqs);
            // The bus alone needs bytes / peak cycles.
            let bound = (r.bytes as f64 / d.config().bytes_per_cycle).floor() as u64;
            prop_assert!(r.total_cycles >= bound,
                "cycles={} bound={bound}", r.total_cycles);
        }

        #[test]
        fn prop_precharge_between_batches_matches_fresh_devices(
            n_batches in 1usize..6,
            seed in 0u64..50,
        ) {
            // The cold-row equivalence: hit/miss counts per batch on a
            // persistent device with precharge_all between batches
            // equal those of a fresh device per batch (timing state
            // does not influence the row-buffer state machine).
            let batch = |b: usize| -> Vec<FeatureRequest> {
                (0..12)
                    .map(|i| {
                        let k = (b as u64 * 31 + i as u64).wrapping_mul(seed + 3);
                        req((k % 3) as usize, (k % 64) as u32, ((k / 64) % 64) as u32)
                    })
                    .collect()
            };
            let mut persistent = dram(FeatureLayout::SpatialInterleave);
            for b in 0..n_batches {
                let reqs = batch(b);
                let warm = persistent.serve_batch(&reqs);
                persistent.precharge_all();
                let mut fresh = dram(FeatureLayout::SpatialInterleave);
                let cold = fresh.serve_batch(&reqs);
                prop_assert_eq!(warm.row_hits, cold.row_hits, "batch {}", b);
                prop_assert_eq!(warm.row_misses, cold.row_misses, "batch {}", b);
            }
        }

        #[test]
        fn prop_stats_monotone(n in 1usize..32) {
            let mut d = dram(FeatureLayout::RowMajor);
            let mut prev_requests = 0;
            for i in 0..n {
                d.access(req(0, (i % 64) as u32, ((i * 3) % 64) as u32));
                let s = d.stats();
                prop_assert!(s.requests > prev_requests);
                prev_requests = s.requests;
                prop_assert_eq!(s.row_hits + s.row_misses, s.requests);
            }
        }
    }
}
