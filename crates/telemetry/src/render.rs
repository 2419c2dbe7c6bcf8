//! Text exposition of a [`Snapshot`]: [`render_watch`] emits the
//! compact human table `gates load` prints at the end of its run — key
//! rates plus per-class latency percentiles.

use crate::registry::Snapshot;
use std::fmt::Write;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The human `--watch`-style table: one block of headline counters,
/// then per-class latency percentiles derived from the merged
/// histograms.
pub fn render_watch(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "── telemetry ──────────────────────────────────────");
    let rows: [(&str, &str); 8] = [
        ("submitted", "serve_frames_submitted_total"),
        ("admitted", "serve_frames_admitted_total"),
        ("degraded", "serve_frames_degraded_total"),
        ("shed", "serve_frames_shed_total"),
        ("rendered ok", "serve_frames_rendered_total"),
        ("failed", "serve_frames_failed_total"),
        ("timed out", "serve_frames_timed_out_total"),
        ("retries", "serve_retries_total"),
    ];
    for (label, name) in rows {
        let v = snap.counter_total(name);
        if v > 0 || name.ends_with("submitted_total") {
            let _ = writeln!(out, "  {label:<14} {v}");
        }
    }
    let depth = snap.gauge_with("serve_queue_depth", &[]);
    let _ = writeln!(out, "  {:<14} {depth}", "queue depth");
    for class in snap.label_values("class") {
        let h = snap.histogram_merged("serve_latency_ns", &[("class", &class)]);
        if h.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  latency[{class}] n={} p50={:.1}ms p99={:.1}ms p999={:.1}ms",
            h.count,
            ms(h.percentile(0.5)),
            ms(h.percentile(0.99)),
            ms(h.percentile(0.999)),
        );
    }
    for stage in snap.label_values("stage") {
        let h = snap.histogram_merged("render_stage_ns", &[("stage", &stage)]);
        if h.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  stage[{stage}] n={} mean={:.2}ms p99={:.2}ms",
            h.count,
            ms(h.mean() as u64),
            ms(h.percentile(0.99)),
        );
    }
    let checks = snap.counter_total("nn_abft_checks_total");
    if checks > 0 {
        let _ = writeln!(
            out,
            "  abft checks={checks} miscompares={}",
            snap.counter_total("nn_abft_miscompares_total")
        );
    }
    let trips = snap.counter_total("core_sentinel_trips_total");
    if trips > 0 {
        let _ = writeln!(out, "  sentinel trips={trips}");
    }
    let _ = writeln!(out, "───────────────────────────────────────────────────");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_table_renders_without_panicking_on_empty() {
        let text = render_watch(&Snapshot::default());
        assert!(text.contains("telemetry"));
    }
}
