//! The Gen-NeRF accelerator pipeline simulator.
//!
//! Models the execution flow of Fig. 7/8: the workload scheduler
//! partitions the frame into point patches; for each patch, one half of
//! the prefetch double buffer loads scene features from DRAM while the
//! PE pool computes on the previously loaded patch. Per-stage cycle
//! counts follow
//!
//! `T_stage = data₀ + Σᵢ max(dataᵢ₊₁, computeᵢ) + compute_last`,
//!
//! the standard double-buffered pipeline bound. PE utilization is the
//! fraction of total cycles the PE pool computes — the Fig. 12 metric.
//!
//! Per-patch costs (DRAM prefetch service, PE/PPU/SFU cycles) are
//! mutually independent — each prefetch starts from cold row buffers,
//! see [`Simulator::simulate_with_rig`]'s internals — so the per-patch
//! loop fans out across host threads via [`gen_nerf_parallel`]. The
//! pipeline recurrence that chains slot latencies stays sequential and
//! consumes the per-patch results in patch order, keeping reports
//! bit-for-bit identical for any `GEN_NERF_THREADS` setting.
//!
//! # Where the host time goes
//!
//! Not into that loop. At the paper's configuration on a 252×189 frame
//! (595 patches, 275,668 synthetic DRAM requests) one `simulate` call
//! on one host thread is ≈ 22 ms, of which the two
//! [`Scheduler::partition`] calls — sequential, and the same for every
//! worker count — are ≈ 18 ms and the patch loop ≈ 4 ms; before the
//! scheduler memoised its vertex projections the split was ≈ 80 ms to
//! ≈ 6 ms. Each worker of the patch loop owns one DRAM device, reset
//! between patches, and one request list. See the scheduler's module
//! docs, "Cost of the search", for what the partition spends.

use crate::config::AcceleratorConfig;
use crate::dataflow::DataflowVariant;
use crate::pe::PePool;
use crate::scheduler::{CameraRig, Patch, Scheduler};
use crate::workload::{Stage, WorkloadSpec};
use gen_nerf_dram::{Dram, FeatureRequest};
use serde::{Deserialize, Serialize};

/// Maximum synthetic DRAM requests issued per (patch, view); larger
/// footprints are sampled and scaled (documented approximation).
const REQUEST_CAP: usize = 256;

/// Preprocessing-unit throughput: points sampled + projected +
/// bilinearly interpolated per cycle (the PPU's projector/interpolator
/// arrays of Fig. 7 are sized to keep ahead of the PE pool).
const PPU_POINTS_PER_CYCLE: u64 = 8;

/// Special-function-unit throughput: per-point exponentials +
/// accumulations per cycle (one PE line, Sec. 4.5).
const SFU_POINTS_PER_CYCLE: u64 = 16;

/// Workload-scheduler cost per emitted patch: candidate frusta are
/// projected by the vertex projector's MAC array while earlier patches
/// execute; ~8 corners × a few MACs per candidate, pipelined.
const SCHEDULER_CYCLES_PER_PATCH: u64 = 96;

/// Per-stage simulation outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Cycles spent in the stage.
    pub total_cycles: u64,
    /// Sum of per-patch DRAM prefetch cycles.
    pub data_cycles: u64,
    /// Sum of per-patch PE compute cycles.
    pub compute_cycles: u64,
    /// Sum of per-patch preprocessing-unit cycles (sampling, projection,
    /// bilinear interpolation).
    pub ppu_cycles: u64,
    /// Sum of per-patch special-function-unit cycles (exp/accumulate).
    pub sfu_cycles: u64,
    /// Workload-scheduler cycles (greedy partition, overlapped).
    pub scheduler_cycles: u64,
    /// Patches processed.
    pub patches: u64,
    /// Feature bytes fetched from DRAM (scaled estimate).
    pub bytes_fetched: u64,
    /// DRAM bank-conflict stall cycles (scaled estimate).
    pub bank_conflict_stalls: u64,
    /// DRAM row-buffer hit rate observed.
    pub row_hit_rate: f64,
    /// DRAM energy, picojoules (scaled estimate).
    pub dram_energy_pj: f64,
}

/// Whole-frame simulation outcome.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Coarse-stage report (zeroed for single-stage workloads).
    pub coarse: StageReport,
    /// Focused-stage report.
    pub focused: StageReport,
    /// Total frame cycles.
    pub total_cycles: u64,
    /// Frame latency in seconds.
    pub latency_s: f64,
    /// Frames per second.
    pub fps: f64,
    /// PE-pool utilization over the frame (Fig. 12 right).
    pub pe_utilization: f64,
    /// Whether data movement bounded the pipeline (data > compute in
    /// the steady state).
    pub memory_bound: bool,
}

impl SimReport {
    /// Total data-movement cycles across stages.
    pub fn data_cycles(&self) -> u64 {
        self.coarse.data_cycles + self.focused.data_cycles
    }

    /// Total compute cycles across stages.
    pub fn compute_cycles(&self) -> u64 {
        self.coarse.compute_cycles + self.focused.compute_cycles
    }

    /// Total DRAM traffic in bytes.
    pub fn bytes_fetched(&self) -> u64 {
        self.coarse.bytes_fetched + self.focused.bytes_fetched
    }
}

/// Row-buffer continuity across patch prefetches.
///
/// The default cold-row model is a documented independence
/// approximation: between two prefetches the access pattern jumps to a
/// different hull footprint, so cross-patch row reuse is assumed
/// negligible — which is exactly what lets the per-patch loop fan out
/// across host threads. [`SimMode::WarmRows`] drops the approximation
/// to *measure* it: one sequential DRAM device keeps its row buffers
/// warm across patches, so the reported hit rate includes whatever
/// cross-patch locality the cold model forgoes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Every patch prefetch starts from cold row buffers; patches are
    /// mutually independent and simulate in parallel.
    #[default]
    ColdPatches,
    /// Row buffers persist across patches; the patch loop runs
    /// sequentially (each patch depends on the previous one's bank
    /// state). Reports are deterministic for any `GEN_NERF_THREADS`.
    WarmRows,
}

/// The pipeline simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: AcceleratorConfig,
    variant: DataflowVariant,
    /// PE efficiency within compute phases (fill/drain, ragged tiles).
    pe_efficiency: f64,
    /// Host worker threads for the per-patch fan-out.
    threads: usize,
    /// Row-buffer continuity across patch prefetches.
    mode: SimMode,
}

impl Simulator {
    /// Simulator for the full Gen-NeRF design.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Self::with_variant(cfg, DataflowVariant::Ours)
    }

    /// Simulator for a Fig. 12 ablation variant.
    pub fn with_variant(cfg: AcceleratorConfig, variant: DataflowVariant) -> Self {
        Self {
            cfg,
            variant,
            pe_efficiency: 0.9,
            threads: gen_nerf_parallel::num_threads(),
            mode: SimMode::default(),
        }
    }

    /// Selects the row-buffer continuity model (see [`SimMode`]).
    pub fn with_sim_mode(mut self, mode: SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// Pins the host worker count for the per-patch fan-out (1 = fully
    /// sequential). Reports are identical for every value; callers that
    /// already parallelize *over* simulations (sweeps) use this to
    /// split the thread budget instead of nesting full pools.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// The dataflow variant being simulated.
    pub fn variant(&self) -> DataflowVariant {
        self.variant
    }

    /// Simulates a frame under the default orbit camera rig.
    pub fn simulate(&self, spec: &WorkloadSpec) -> SimReport {
        let rig = CameraRig::orbit(spec.width, spec.height, spec.s_views.max(1));
        self.simulate_with_rig(spec, &rig)
    }

    /// Simulates a frame under an explicit camera rig.
    ///
    /// # Panics
    ///
    /// Panics when the rig has fewer sources than `spec.s_views`.
    pub fn simulate_with_rig(&self, spec: &WorkloadSpec, rig: &CameraRig) -> SimReport {
        assert!(
            rig.sources.len() >= spec.s_views,
            "rig has {} sources, workload needs {}",
            rig.sources.len(),
            spec.s_views
        );
        let mut report = SimReport::default();
        for stage in spec.stages() {
            let stage_report = self.simulate_stage(spec, rig, stage);
            match stage {
                Stage::Coarse => report.coarse = stage_report,
                Stage::Focused => report.focused = stage_report,
            }
            report.total_cycles += stage_report.total_cycles;
        }
        let freq_hz = self.cfg.freq_ghz * 1e9;
        report.latency_s = report.total_cycles as f64 / freq_hz;
        report.fps = if report.latency_s > 0.0 {
            1.0 / report.latency_s
        } else {
            0.0
        };
        report.pe_utilization = if report.total_cycles > 0 {
            (report.compute_cycles() as f64 * self.pe_efficiency) / report.total_cycles as f64
        } else {
            0.0
        };
        report.memory_bound = report.data_cycles() > report.compute_cycles();
        report
    }

    fn simulate_stage(&self, spec: &WorkloadSpec, rig: &CameraRig, stage: Stage) -> StageReport {
        let views = spec.views(stage);
        let n_depth = match stage {
            Stage::Coarse => spec.n_coarse,
            Stage::Focused => spec.n_focused,
        } as u32;
        if n_depth == 0 || views == 0 {
            return StageReport::default();
        }
        let stage_rig = CameraRig {
            novel: rig.novel,
            sources: rig.sources[..views].to_vec(),
            t_near: rig.t_near,
            t_far: rig.t_far,
        };
        let texel_bytes = spec.texel_bytes(stage);
        let scheduler = Scheduler::new(self.cfg.prefetch_capacity_bytes());
        let patches = if self.variant.uses_greedy_partition() {
            scheduler.partition(&stage_rig, spec.width, spec.height, n_depth, texel_bytes)
        } else {
            scheduler.partition_fixed(&stage_rig, spec.width, spec.height, n_depth, texel_bytes)
        };

        // Per-point compute cost: point MLP plus the ray module
        // amortized over the stage's points.
        let total_points = spec.points(stage).max(1);
        let mlp_macs_pp = match stage {
            Stage::Coarse => spec.coarse_mlp_macs_per_point,
            Stage::Focused => spec.mlp_macs_per_point,
        } as f64;
        let ray_macs_pp = spec.ray_macs_total(stage) as f64 / total_points as f64;
        let macs_per_point = mlp_macs_pp + ray_macs_pp;

        let pe = PePool::new(&self.cfg);
        // Template controller state. In the default cold-row mode each
        // worker clones it once and resets the clone before every
        // patch: every prefetch starts from cold row buffers. Patches
        // are the double-buffer granule — between two prefetches the
        // access pattern jumps to a different hull footprint, so
        // cross-patch row reuse is assumed negligible and modelling it
        // as zero makes the per-patch DRAM simulations independent
        // (which lets the loop fan out across host threads while
        // staying bit-for-bit deterministic for any worker count).
        // `SimMode::WarmRows` instead threads one device through the
        // patches sequentially to measure the locality the
        // approximation forgoes.
        let mut dram_template = Dram::new(self.cfg.dram, self.variant.layout());
        dram_template.set_geometry(spec.width.max(8), spec.height.max(8), texel_bytes);

        struct PatchOutcome {
            data_cycles: u64,
            compute_cycles: u64,
            ppu_cycles: u64,
            sfu_cycles: u64,
            bytes: u64,
            stalls: u64,
            energy_pj: f64,
            row_hits: u64,
            row_misses: u64,
        }

        // `bursts` is the worker's request list, refilled per patch.
        let patch_outcome = |patch: &Patch, dram: &mut Dram, bursts: &mut Vec<FeatureRequest>| {
            let hits0 = dram.stats().row_hits;
            let misses0 = dram.stats().row_misses;
            let (cycles, bytes, stalls, energy) =
                self.prefetch_patch(dram, patch, texel_bytes, bursts);
            let macs = (patch.points() as f64 * macs_per_point) as u64;
            // PPU: every point is sampled, projected onto each view and
            // bilinearly interpolated; throughput scales down with views.
            let ppu_work = patch.points() * views.max(1) as u64;
            PatchOutcome {
                data_cycles: cycles,
                compute_cycles: pe.mac_cycles(macs.max(1), self.pe_efficiency),
                ppu_cycles: ppu_work.div_ceil(PPU_POINTS_PER_CYCLE),
                // SFU: exp + accumulate per point (Eq. 2).
                sfu_cycles: patch.points().div_ceil(SFU_POINTS_PER_CYCLE),
                bytes,
                stalls,
                energy_pj: energy,
                row_hits: dram.stats().row_hits - hits0,
                row_misses: dram.stats().row_misses - misses0,
            }
        };
        let outcomes: Vec<PatchOutcome> = match self.mode {
            // Cold rows: patches are independent, fan out across host
            // threads, each resetting its own device between patches.
            SimMode::ColdPatches => {
                gen_nerf_parallel::par_chunk_ranges(patches.len(), self.threads, |start, end| {
                    let mut dram = dram_template.clone();
                    let mut bursts = Vec::new();
                    patches[start..end]
                        .iter()
                        .map(|patch| {
                            dram.reset();
                            patch_outcome(patch, &mut dram, &mut bursts)
                        })
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect()
            }
            // Warm rows: one device, sequential, row buffers carried
            // across patches — the locality measurement mode.
            SimMode::WarmRows => {
                let mut dram = dram_template;
                let mut bursts = Vec::new();
                patches
                    .iter()
                    .map(|patch| patch_outcome(patch, &mut dram, &mut bursts))
                    .collect()
            }
        };

        let data_cycles_list: Vec<u64> = outcomes.iter().map(|o| o.data_cycles).collect();
        let compute_cycles_list: Vec<u64> = outcomes.iter().map(|o| o.compute_cycles).collect();
        let ppu_cycles_list: Vec<u64> = outcomes.iter().map(|o| o.ppu_cycles).collect();
        let sfu_cycles_list: Vec<u64> = outcomes.iter().map(|o| o.sfu_cycles).collect();
        let bytes_fetched: u64 = outcomes.iter().map(|o| o.bytes).sum();
        let conflict_stalls: u64 = outcomes.iter().map(|o| o.stalls).sum();
        let energy_pj: f64 = outcomes.iter().map(|o| o.energy_pj).sum();
        let row_hits: u64 = outcomes.iter().map(|o| o.row_hits).sum();
        let row_misses: u64 = outcomes.iter().map(|o| o.row_misses).sum();

        // Pipelined engine (Fig. 8): per slot the prefetch of patch i+1
        // overlaps the PPU + PE + SFU of patch i; the slot latency is
        // the slowest of the overlapped units. The workload scheduler
        // generates patches ahead of execution and only binds when its
        // per-patch cost exceeds the slot.
        let mut total = *data_cycles_list.first().unwrap_or(&0);
        for (i, &compute) in compute_cycles_list.iter().enumerate() {
            let next_data = data_cycles_list.get(i + 1).copied().unwrap_or(0);
            let engine = compute.max(ppu_cycles_list[i]).max(sfu_cycles_list[i]);
            total += engine.max(next_data).max(SCHEDULER_CYCLES_PER_PATCH);
        }

        StageReport {
            total_cycles: total,
            data_cycles: data_cycles_list.iter().sum(),
            compute_cycles: compute_cycles_list.iter().sum(),
            ppu_cycles: ppu_cycles_list.iter().sum(),
            sfu_cycles: sfu_cycles_list.iter().sum(),
            scheduler_cycles: SCHEDULER_CYCLES_PER_PATCH * patches.len() as u64,
            patches: patches.len() as u64,
            bytes_fetched,
            bank_conflict_stalls: conflict_stalls,
            row_hit_rate: gen_nerf_dram::DramStats {
                row_hits,
                row_misses,
                ..Default::default()
            }
            .hit_rate(),
            dram_energy_pj: energy_pj,
        }
    }

    /// Prefetches one patch: the DMA engine streams each view's hull
    /// footprint as 64-byte bursts walking the bounding box row-major
    /// (so locality/bank behaviour reflects the storage layout).
    /// Bursts beyond [`REQUEST_CAP`] per view are sampled and scaled.
    /// `requests` is scratch for the burst list (cleared first).
    /// Returns `(cycles, bytes, conflict_stalls, energy_pj)`.
    fn prefetch_patch(
        &self,
        dram: &mut Dram,
        patch: &Patch,
        texel_bytes: u64,
        requests: &mut Vec<FeatureRequest>,
    ) -> (u64, u64, u64, f64) {
        const BURST_BYTES: u64 = 64;
        let texels_per_burst = (BURST_BYTES / texel_bytes).max(1);
        requests.clear();
        let mut total_bursts = 0u64;
        let mut total_texels = 0u64;
        for (view, (&texels, &bbox)) in patch
            .texels_per_view
            .iter()
            .zip(&patch.bbox_per_view)
            .enumerate()
        {
            if texels == 0 {
                continue;
            }
            total_texels += texels;
            let bursts = texels.div_ceil(texels_per_burst);
            total_bursts += bursts;
            let (x0, y0, x1, y1) = bbox;
            let bw = (x1.saturating_sub(x0)).max(1) as u64;
            let bh = (y1.saturating_sub(y0)).max(1) as u64;
            let n_req = (bursts as usize).min(REQUEST_CAP);
            // When capped, stride so the sampled bursts still cover the
            // whole bbox in row-major order.
            let stride = bursts.div_ceil(n_req as u64).max(1);
            for t in 0..n_req {
                let burst_idx = (t as u64 * stride).min(bursts - 1);
                let texel_idx = burst_idx * texels_per_burst;
                let fx = texel_idx % bw;
                let fy = (texel_idx / bw) % bh;
                requests.push(FeatureRequest {
                    view,
                    x: x0 + fx as u32,
                    y: y0 + fy as u32,
                    bytes: BURST_BYTES as u32,
                });
            }
        }
        if requests.is_empty() {
            return (0, 0, 0, 0.0);
        }
        let energy0 = dram.stats().energy_pj;
        let result = dram.serve_batch(requests);
        let sampled_energy = dram.stats().energy_pj - energy0;
        // Scale sampled service to the full footprint.
        let scale = total_bursts as f64 / requests.len() as f64;
        let cycles = (result.total_cycles as f64 * scale).ceil() as u64;
        let bytes = total_texels * texel_bytes;
        let stalls = (result.bank_conflict_stalls as f64 * scale).ceil() as u64;
        let energy = sampled_energy * scale;
        (cycles, bytes, stalls, energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::gen_nerf_default(64, 64, 4, 32)
    }

    /// Paper config with the prefetch buffer shrunk so the capacity
    /// constraint binds at the 64×64 test scale (mirrors the 256 KB
    /// budget at full resolution).
    fn tight_cfg() -> AcceleratorConfig {
        let mut cfg = AcceleratorConfig::paper();
        cfg.prefetch_buffer_kb = 16;
        cfg
    }

    #[test]
    fn simulate_produces_positive_fps() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let r = sim.simulate(&small_spec());
        assert!(r.fps > 0.0);
        assert!(r.total_cycles > 0);
        assert!(r.latency_s > 0.0);
    }

    #[test]
    fn two_stages_both_reported() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let r = sim.simulate(&small_spec());
        assert!(r.coarse.total_cycles > 0);
        assert!(r.focused.total_cycles > 0);
        assert!(r.focused.compute_cycles > r.coarse.compute_cycles);
    }

    #[test]
    fn single_stage_skips_coarse() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let spec = WorkloadSpec::ibrnet_default(64, 64, 4, 32);
        let r = sim.simulate(&spec);
        assert_eq!(r.coarse.total_cycles, 0);
    }

    #[test]
    fn utilization_in_unit_interval() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let r = sim.simulate(&small_spec());
        assert!(r.pe_utilization > 0.0 && r.pe_utilization <= 1.0);
    }

    #[test]
    fn ours_not_slower_than_fixed_variants_under_tight_buffer() {
        let spec = small_spec();
        let ours = Simulator::new(tight_cfg());
        let r_ours = ours.simulate(&spec);
        for variant in [
            DataflowVariant::Var1,
            DataflowVariant::Var2,
            DataflowVariant::Var3,
        ] {
            let sim = Simulator::with_variant(tight_cfg(), variant);
            let r = sim.simulate(&spec);
            assert!(
                r.total_cycles as f64 >= r_ours.total_cycles as f64 * 0.95,
                "{variant:?}: {} vs ours {}",
                r.total_cycles,
                r_ours.total_cycles
            );
        }
    }

    #[test]
    fn bad_layouts_conflict_more_than_var1() {
        // Var-2 (row-major) and Var-3 (view-interleave) share Var-1's
        // partition; any extra stalls are pure layout effects (Fig. 6).
        let spec = small_spec();
        let stalls = |variant| {
            let sim = Simulator::with_variant(tight_cfg(), variant);
            let r = sim.simulate(&spec);
            r.coarse.bank_conflict_stalls + r.focused.bank_conflict_stalls
        };
        let var1 = stalls(DataflowVariant::Var1);
        let var2 = stalls(DataflowVariant::Var2);
        let var3 = stalls(DataflowVariant::Var3);
        assert!(var2 > var1, "var2 {var2} vs var1 {var1}");
        assert!(var3 > var1, "var3 {var3} vs var1 {var1}");
    }

    #[test]
    fn more_views_increase_latency() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let few = sim.simulate(&WorkloadSpec::gen_nerf_default(64, 64, 2, 32));
        let many = sim.simulate(&WorkloadSpec::gen_nerf_default(64, 64, 8, 32));
        assert!(many.total_cycles > few.total_cycles);
    }

    #[test]
    fn more_points_increase_latency() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let few = sim.simulate(&WorkloadSpec::gen_nerf_default(64, 64, 4, 16));
        let many = sim.simulate(&WorkloadSpec::gen_nerf_default(64, 64, 4, 64));
        assert!(many.total_cycles > few.total_cycles);
    }

    #[test]
    #[should_panic(expected = "sources")]
    fn rejects_undersized_rig() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let spec = WorkloadSpec::gen_nerf_default(32, 32, 6, 16);
        let rig = CameraRig::orbit(32, 32, 2);
        let _ = sim.simulate_with_rig(&spec, &rig);
    }

    #[test]
    fn warm_rows_quantify_cold_row_locality_loss() {
        // The cold-row patch-parallel model is a documented
        // approximation: it forgoes whatever row-buffer locality exists
        // *across* consecutive patches. WarmRows measures it. Warm rows
        // can only add hits, so the hit rate must not drop — and on the
        // canonical workload (adjacent patches hit overlapping feature
        // rows) it must strictly rise, which is the quantity the
        // ROADMAP item asks for.
        let spec = WorkloadSpec::gen_nerf_default(96, 96, 4, 32);
        let cold = Simulator::new(AcceleratorConfig::paper()).simulate(&spec);
        let warm = Simulator::new(AcceleratorConfig::paper())
            .with_sim_mode(SimMode::WarmRows)
            .simulate(&spec);
        let (cold_c, cold_f) = (cold.coarse.row_hit_rate, cold.focused.row_hit_rate);
        let (warm_c, warm_f) = (warm.coarse.row_hit_rate, warm.focused.row_hit_rate);
        assert!(
            warm_c >= cold_c && warm_f >= cold_f,
            "warm rows lost hits: coarse {cold_c:.3}->{warm_c:.3}, focused {cold_f:.3}->{warm_f:.3}"
        );
        assert!(
            warm_c > cold_c || warm_f > cold_f,
            "no cross-patch locality measured: coarse {cold_c:.3}->{warm_c:.3}, focused {cold_f:.3}->{warm_f:.3}"
        );
        // Workload partitioning is identical; only DRAM service differs.
        assert_eq!(cold.coarse.patches, warm.coarse.patches);
        assert_eq!(cold.focused.patches, warm.focused.patches);
        assert_eq!(cold.compute_cycles(), warm.compute_cycles());
    }

    #[test]
    fn warm_rows_deterministic_for_any_thread_count() {
        let spec = WorkloadSpec::gen_nerf_default(64, 64, 4, 32);
        let one = Simulator::new(AcceleratorConfig::paper())
            .with_sim_mode(SimMode::WarmRows)
            .with_threads(1)
            .simulate(&spec);
        let many = Simulator::new(AcceleratorConfig::paper())
            .with_sim_mode(SimMode::WarmRows)
            .with_threads(8)
            .simulate(&spec);
        assert_eq!(one, many);
    }

    #[test]
    fn bytes_fetched_scale_with_views() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let few = sim.simulate(&WorkloadSpec::gen_nerf_default(64, 64, 2, 32));
        let many = sim.simulate(&WorkloadSpec::gen_nerf_default(64, 64, 8, 32));
        assert!(many.bytes_fetched() > few.bytes_fetched());
    }
}

#[cfg(test)]
mod pipeline_stage_tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    #[test]
    fn ppu_and_sfu_cycles_reported() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let r = sim.simulate(&WorkloadSpec::gen_nerf_default(64, 64, 4, 32));
        assert!(r.focused.ppu_cycles > 0);
        assert!(r.focused.sfu_cycles > 0);
        assert!(r.focused.scheduler_cycles > 0);
        // The PPU serves every (point, view); the SFU only every point.
        assert!(r.focused.ppu_cycles > r.focused.sfu_cycles);
    }

    #[test]
    fn scheduler_overhead_hidden_behind_execution() {
        // The run-time scheduler must not bound the pipeline on the
        // canonical workload (the paper's premise for doing the greedy
        // partition in hardware at run time).
        let sim = Simulator::new(AcceleratorConfig::paper());
        let r = sim.simulate(&WorkloadSpec::gen_nerf_default(96, 96, 6, 64));
        let execution = r.compute_cycles().max(r.data_cycles());
        let scheduler = r.coarse.scheduler_cycles + r.focused.scheduler_cycles;
        assert!(
            scheduler < execution,
            "scheduler {scheduler} cycles bounds execution {execution}"
        );
    }

    #[test]
    fn ppu_scales_with_views() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let few = sim.simulate(&WorkloadSpec::gen_nerf_default(64, 64, 2, 32));
        let many = sim.simulate(&WorkloadSpec::gen_nerf_default(64, 64, 8, 32));
        assert!(many.focused.ppu_cycles > few.focused.ppu_cycles);
    }
}
