//! Golden literals for the accelerator simulator.
//!
//! The benchmark's `accel_sim` workload compares a run to itself (the
//! report repeats; 1 thread == 2 threads), never to the parent commit,
//! so a host-time optimisation of `accel::scheduler` / `dram` could
//! move a simulated count without any gate noticing. These literals
//! pin every field of `SimReport` at the benchmark's shape (paper
//! config, 252×189, 6 views, 64 focused samples), its three Fig. 12
//! variants, the warm-row mode, and a 64×64 config whose 16 KB buffer
//! makes the capacity constraint bind. They were read on x86-64 Linux
//! at the commit *before* the scheduler's footprint memo landed; a
//! change that moves any of them is a model change, not a speed-up.

use gen_nerf_accel::config::AcceleratorConfig;
use gen_nerf_accel::dataflow::DataflowVariant;
use gen_nerf_accel::simulator::{SimMode, SimReport, Simulator, StageReport};
use gen_nerf_accel::workload::WorkloadSpec;

/// The benchmark's `accel_sim` shape.
fn paper_spec() -> WorkloadSpec {
    WorkloadSpec::gen_nerf_default(252, 189, 6, 64)
}

/// PPU / SFU cycles depend only on the point count, so the three
/// fixed-partition variants share them.
fn fixed_coarse(total: u64, data: u64, stalls: u64, hit: f64, energy: f64) -> StageReport {
    StageReport {
        total_cycles: total,
        data_cycles: data,
        compute_cycles: 56896,
        ppu_cycles: 381024,
        sfu_cycles: 47628,
        scheduler_cycles: 1152,
        patches: 12,
        bytes_fetched: 1512816,
        bank_conflict_stalls: stalls,
        row_hit_rate: hit,
        dram_energy_pj: energy,
    }
}

fn fixed_focused(total: u64, data: u64, stalls: u64, hit: f64, energy: f64) -> StageReport {
    StageReport {
        total_cycles: total,
        data_cycles: data,
        compute_cycles: 1905120,
        ppu_cycles: 2286144,
        sfu_cycles: 190512,
        scheduler_cycles: 18432,
        patches: 192,
        bytes_fetched: 39055356,
        bank_conflict_stalls: stalls,
        row_hit_rate: hit,
        dram_energy_pj: energy,
    }
}

#[test]
fn paper_config_report_is_pinned_at_one_and_two_threads() {
    let expected = SimReport {
        coarse: StageReport {
            total_cycles: 556429,
            data_cycles: 443254,
            compute_cycles: 57123,
            ppu_cycles: 381024,
            sfu_cycles: 47748,
            scheduler_cycles: 33600,
            patches: 350,
            bytes_fetched: 3558966,
            bank_conflict_stalls: 119023976,
            row_hit_rate: 0.9006762652705061,
            dram_energy_pj: 99964299.95736486,
        },
        focused: StageReport {
            total_cycles: 3750284,
            data_cycles: 3568642,
            compute_cycles: 1905120,
            ppu_cycles: 2286144,
            sfu_cycles: 190512,
            scheduler_cycles: 23520,
            patches: 245,
            bytes_fetched: 27775128,
            bank_conflict_stalls: 1817715106,
            row_hit_rate: 0.8479254050855423,
            dram_energy_pj: 860677001.4314936,
        },
        total_cycles: 4306713,
        latency_s: 0.004306713,
        fps: 232.19564433478618,
        pe_utilization: 0.4100618499537814,
        memory_bound: true,
    };
    for threads in [1usize, 2] {
        let report = Simulator::new(AcceleratorConfig::paper())
            .with_threads(threads)
            .simulate(&paper_spec());
        assert_eq!(report, expected, "{threads} thread(s)");
    }
}

#[test]
fn fig12_variants_are_pinned() {
    let cases = [
        (
            DataflowVariant::Var1,
            SimReport {
                coarse: fixed_coarse(
                    390742,
                    199189,
                    65166070,
                    0.9202862783810464,
                    41811238.089590676,
                ),
                focused: fixed_focused(
                    4916122,
                    4902778,
                    2526062685,
                    0.9051713470533539,
                    1149049684.8942842,
                ),
                total_cycles: 5306864,
                latency_s: 0.005306864,
                fps: 188.43520391704027,
                pe_utilization: 0.33274159654364616,
                memory_bound: true,
            },
        ),
        (
            DataflowVariant::Var2,
            SimReport {
                coarse: fixed_coarse(
                    390280,
                    174188,
                    58547905,
                    0.9035044422507403,
                    42513866.73179994,
                ),
                focused: fixed_focused(
                    4375484,
                    4361161,
                    2305735406,
                    0.8869742298840009,
                    1170498319.4885125,
                ),
                total_cycles: 4765764,
                latency_s: 0.004765764,
                fps: 209.82994541903463,
                pe_utilization: 0.37052073917214534,
                memory_bound: true,
            },
        ),
        (
            DataflowVariant::Var3,
            SimReport {
                coarse: fixed_coarse(
                    399317,
                    287461,
                    109349866,
                    0.9042448173741362,
                    42483739.96629302,
                ),
                focused: fixed_focused(
                    6179606,
                    6172118,
                    2962367293,
                    0.8868575590336826,
                    1170618405.248285,
                ),
                total_cycles: 6578923,
                latency_s: 0.006578923,
                fps: 152.0005630100854,
                pe_utilization: 0.26840478297131615,
                memory_bound: true,
            },
        ),
    ];
    for (variant, expected) in cases {
        let report = Simulator::with_variant(AcceleratorConfig::paper(), variant)
            .with_threads(1)
            .simulate(&paper_spec());
        assert_eq!(report, expected, "{variant:?}");
    }
}

#[test]
fn warm_rows_report_is_pinned() {
    let expected = SimReport {
        coarse: StageReport {
            total_cycles: 557614,
            data_cycles: 444765,
            compute_cycles: 57123,
            ppu_cycles: 381024,
            sfu_cycles: 47748,
            scheduler_cycles: 33600,
            patches: 350,
            bytes_fetched: 3558966,
            bank_conflict_stalls: 120014093,
            row_hit_rate: 0.9034031413612565,
            dram_energy_pj: 99746236.58868334,
        },
        focused: StageReport {
            total_cycles: 3755663,
            data_cycles: 3575447,
            compute_cycles: 1905120,
            ppu_cycles: 2286144,
            sfu_cycles: 190512,
            scheduler_cycles: 23520,
            patches: 245,
            bytes_fetched: 27775128,
            bank_conflict_stalls: 1826133138,
            row_hit_rate: 0.8482647893207094,
            dram_energy_pj: 860544401.4314936,
        },
        total_cycles: 4313277,
        latency_s: 0.004313277,
        fps: 231.84228603912987,
        pe_utilization: 0.40943781259585227,
        memory_bound: true,
    };
    let report = Simulator::new(AcceleratorConfig::paper())
        .with_threads(1)
        .with_sim_mode(SimMode::WarmRows)
        .simulate(&paper_spec());
    assert_eq!(report, expected);
}

#[test]
fn tight_buffer_report_is_pinned() {
    // 16 KB prefetch halves at 64×64: the capacity constraint binds, so
    // candidates are rejected for size and the fallbacks are reachable.
    let mut cfg = AcceleratorConfig::paper();
    cfg.prefetch_buffer_kb = 16;
    let expected = SimReport {
        coarse: StageReport {
            total_cycles: 33212,
            data_cycles: 14574,
            compute_cycles: 4896,
            ppu_cycles: 32768,
            sfu_cycles: 4096,
            scheduler_cycles: 1536,
            patches: 16,
            bytes_fetched: 168975,
            bank_conflict_stalls: 1127142,
            row_hit_rate: 0.8589318600368324,
            dram_energy_pj: 4995100.0,
        },
        focused: StageReport {
            total_cycles: 125561,
            data_cycles: 120980,
            compute_cycles: 74744,
            ppu_cycles: 65536,
            sfu_cycles: 8192,
            scheduler_cycles: 11904,
            patches: 124,
            bytes_fetched: 1366164,
            bank_conflict_stalls: 11381404,
            row_hit_rate: 0.8037379106038163,
            dram_energy_pj: 44384900.0,
        },
        total_cycles: 158773,
        latency_s: 0.000158773,
        fps: 6298.300088806031,
        pe_utilization: 0.4514369571652611,
        memory_bound: true,
    };
    let report = Simulator::new(cfg)
        .with_threads(1)
        .simulate(&WorkloadSpec::gen_nerf_default(64, 64, 4, 32));
    assert_eq!(report, expected);
}
