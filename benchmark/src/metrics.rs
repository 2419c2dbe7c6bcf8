//! The metric tables — the one place a metric's name, unit and
//! direction are written down in code — and the per-run [`Report`] that
//! is filled against them. `BENCHMARK.json` lists the same names; a test
//! keeps the two in step. The README's glossary says what each metric
//! means on each workload and which layer owns it.

use crate::json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these, measured with the benchmark's spans off.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    lo("frame_ms", "ms"),
    hi("throughput_fps", "1/s"),
    lo("cpu_ms_per_frame", "ms"),
    lo("peak_rss_mb", "MiB"),
];

/// Single layers, from the traced run. A workload reports 0 for a layer
/// it does not exercise.
pub const PER_LAYER: &[MetricDef] = &[
    hi("nn.kernels.gemm_gflops_pt_in", "GFLOP/s"),
    hi("nn.kernels.gemm_gflops_pt_hid", "GFLOP/s"),
    hi("nn.kernels.gemm_gflops_pt_out", "GFLOP/s"),
    hi("nn.kernels.gemm_gflops_128", "GFLOP/s"),
    hi("nn.kernels.int8_gops_128", "GOP/s"),
    lo("nn.kernels.abft_full_overhead_pct", "%"),
    lo("nn.kernels.gemm_dispatches_per_frame", "count"),
    lo("core.features.fill_ns_per_point", "ns"),
    lo("core.features.coarse_fill_ns_per_point", "ns"),
    lo("core.features.allocs_per_pass", "count"),
    lo("core.features.fetches_per_frame", "count"),
    lo("core.model.forward_ns_per_point", "ns"),
    lo("core.model.coarse_ns_per_point", "ns"),
    lo("core.sampling.points_per_ray", "count"),
    lo("core.sampling.coarse_points_per_ray", "count"),
    lo("core.pipeline.frame_ms_p95", "ms"),
    lo("core.pipeline.frame_ns_per_point", "ns"),
    lo("core.pipeline.self_share", "share"),
    lo("core.pipeline.mflops_per_pixel", "MFLOP"),
    lo("core.pipeline.flops_share_acquire", "share"),
    lo("core.pipeline.flops_share_mlp", "share"),
    lo("core.pipeline.flops_share_ray_module", "share"),
    lo("core.pipeline.flops_share_others", "share"),
    lo("core.pipeline.uniform_frame_ms", "ms"),
    lo("core.pipeline.allocs_per_frame", "count"),
    lo("parallel.pool_dispatch_us", "us"),
    hi("parallel.speedup_2t", "ratio"),
    lo("serve.closed.submit_us_p50", "us"),
    lo("serve.closed.queue_wait_ms_p50", "ms"),
    lo("serve.closed.queue_wait_ms_p95", "ms"),
    lo("serve.closed.render_ms_p50", "ms"),
    lo("serve.closed.overhead_ms_p50", "ms"),
    lo("serve.closed.latency_ms_p50", "ms"),
    lo("serve.closed.latency_ms_p95", "ms"),
    hi("serve.closed.batched_frames_mean", "count"),
    lo("serve.open_lo.submit_us_p50", "us"),
    lo("serve.open_lo.queue_wait_ms_p50", "ms"),
    lo("serve.open_lo.queue_wait_ms_p95", "ms"),
    lo("serve.open_lo.render_ms_p50", "ms"),
    lo("serve.open_lo.overhead_ms_p50", "ms"),
    lo("serve.open_lo.latency_ms_p50", "ms"),
    lo("serve.open_lo.latency_ms_p95", "ms"),
    hi("serve.open_lo.batched_frames_mean", "count"),
    hi("serve.open_lo.on_time_share", "share"),
    lo("serve.open_hi.submit_us_p50", "us"),
    lo("serve.open_hi.queue_wait_ms_p50", "ms"),
    lo("serve.open_hi.queue_wait_ms_p95", "ms"),
    lo("serve.open_hi.render_ms_p50", "ms"),
    lo("serve.open_hi.overhead_ms_p50", "ms"),
    lo("serve.open_hi.latency_ms_p50", "ms"),
    lo("serve.open_hi.latency_ms_p95", "ms"),
    hi("serve.open_hi.batched_frames_mean", "count"),
    hi("serve.open_hi.on_time_share", "share"),
    hi("serve.session.cache_hit_rate", "share"),
    lo("serve.session.cache_evictions", "count"),
    lo("serve.admission.shed_share", "share"),
    lo("serve.admission.degraded_share", "share"),
    lo("serve.supervisor.timeouts", "count"),
    lo("serve.shard.retries", "count"),
    lo("serve.shard.restarts", "count"),
    lo("serve.governor.peak_bytes", "B"),
    lo("telemetry.enabled_overhead_pct", "%"),
    lo("telemetry.trace_events_per_frame", "count"),
    lo("telemetry.trace_drops", "count"),
    lo("accel.simulator.total_cycles", "cycles"),
    hi("accel.simulator.sim_fps", "1/s"),
    hi("accel.simulator.pe_utilization", "share"),
    lo("accel.simulator.data_cycles", "cycles"),
    lo("accel.simulator.compute_cycles", "cycles"),
    lo("accel.simulator.host_ms_p95", "ms"),
    lo("accel.simulator.host_us_per_patch", "us"),
    lo("accel.simulator.warm_rows_host_ms", "ms"),
    lo("accel.scheduler.patches", "count"),
    lo("accel.scheduler.cycles", "cycles"),
    lo("dram.bytes_fetched", "B"),
    hi("dram.row_hit_rate", "share"),
    lo("dram.bank_conflict_stalls", "cycles"),
    hi("dram.warm_row_hit_rate", "share"),
    lo("bench.gen_late_ms_p99", "ms"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.host_calib_ms", "ms"),
    lo("bench.round_spread_pct", "%"),
    lo("bench.noisy_rounds", "count"),
    lo("bench.contention_pct", "%"),
];

/// One run's measurements and verdicts.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Free-text facts printed beside the metrics (backend, spreads,
    /// which percentile a short run fell back to).
    pub notes: Vec<String>,
    /// Operations attempted and failed: frames, simulate calls, checks.
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, by description.
    pub check_failures: Vec<String>,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` is in neither table: a misspelt name would
    /// otherwise vanish from the result line without a trace.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a metric of the tables"
        );
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Records a correctness check; a failed one also counts as a
    /// failed operation, so it shows in `failed` and the exit code.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// The value reported for `def`: a per-layer metric this workload
    /// never set reads 0 (the layer did no work here); an end-to-end
    /// metric must have been set. Non-finite values are a harness bug
    /// and are reported as a check failure.
    fn resolve(&mut self, def: &MetricDef, required: bool) -> f64 {
        match self.get(def.name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                self.check(false, &format!("{} is not finite ({v})", def.name));
                0.0
            }
            None if required => {
                self.check(false, &format!("{} was not measured", def.name));
                0.0
            }
            None => 0.0,
        }
    }

    /// The run's last stdout line: `correct`, `attempted`, `failed` and
    /// the metrics of `table`.
    pub fn result_line(&mut self, table: &[MetricDef], required: bool) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|def| {
                let v = self.resolve(def, required);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(def.name),
                    json::number(v),
                    json::string(def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric that was set, one `name value unit` line each, in
    /// table order.
    pub fn human_lines(&self) -> Vec<String> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|def| {
                let v = self.get(def.name)?;
                Some(format!(
                    "{:<44} {:>16.4} {:<8} ({} is better)",
                    def.name,
                    v,
                    def.unit,
                    def.better.name()
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_inside_the_charset() {
        assert!(name_ok("serve.open_hi.latency_ms_p50") && name_ok("a-b_c.9"));
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok("µs"));
        assert!(!name_ok(&"x".repeat(65)));
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(def.name), "bad metric name {:?}", def.name);
            assert!(unit_ok(def.unit), "bad unit {:?} on {}", def.unit, def.name);
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` must list exactly these metrics, with the same
    /// units and directions, in the same order.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::validate(&text).expect("BENCHMARK.json parses");
        let listed = |section: &str| -> Vec<(String, String, String)> {
            let from = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[from..];
            let body = &body[..body.find(']').expect("section closes")];
            let field = |obj: &str, key: &str| {
                let at = obj.find(&format!("\"{key}\"")).expect("key present");
                let rest = &obj[at + key.len() + 2..];
                let open = rest.find('"').expect("string value");
                let rest = &rest[open + 1..];
                rest[..rest.find('"').expect("string closes")].to_string()
            };
            body.split('{')
                .skip(1)
                .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
                .collect()
        };
        let want = |table: &[MetricDef]| -> Vec<(String, String, String)> {
            table
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.name().into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), want(END_TO_END));
        assert_eq!(listed("per_layer"), want(PER_LAYER));
    }

    #[test]
    fn result_line_is_well_formed_and_complete() {
        let mut r = Report::default();
        for def in END_TO_END {
            r.set(def.name, 1.25);
        }
        r.check(true, "fine");
        let line = r.result_line(END_TO_END, true);
        json::validate(&line).expect("result line parses");
        assert!(!line.contains('\n'));
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for def in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.25", def.name)));
        }
        // Per-layer metrics a workload never set read 0 and stay correct.
        let line = r.result_line(PER_LAYER, false);
        json::validate(&line).expect("per-layer line parses");
        assert!(line.contains("\"dram.bytes_fetched\": {\"value\": 0, \"unit\": \"B\"}"));
        assert!(r.correct());
    }

    #[test]
    fn missing_or_non_finite_values_fail_the_run() {
        let mut r = Report::default();
        let line = r.result_line(END_TO_END, true);
        json::validate(&line).expect("still JSON");
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(r.failed as usize, END_TO_END.len());

        let mut r = Report::default();
        r.set("bench.host_calib_ms", f64::NAN);
        let line = r.result_line(PER_LAYER, false);
        json::validate(&line).expect("still JSON");
        assert!(!r.correct());
        assert!(r.check_failures[0].contains("bench.host_calib_ms"));
    }
}
