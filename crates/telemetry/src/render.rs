//! Text exposition of a [`Snapshot`].
//!
//! Two renderers: [`render_prometheus`] emits the standard
//! `name{labels} value` exposition format (histograms as cumulative
//! `_bucket{le=...}` series plus `_sum`/`_count`), suitable for
//! scraping or diffing; [`render_watch`] emits the compact human table
//! `gates load` prints at the end of its run — key rates plus
//! per-class latency percentiles.

use crate::histogram::{bucket_upper_bound, N_BUCKETS};
use crate::registry::{Labels, Snapshot};
use std::fmt::Write;

fn fmt_labels(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", inner.join(","))
}

fn fmt_labels_with_le(labels: &Labels, le: &str) -> String {
    let mut inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    inner.push(format!("le=\"{le}\""));
    format!("{{{}}}", inner.join(","))
}

/// Prometheus-style exposition dump of every metric in the snapshot.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for c in &snap.counters {
        if c.name != last_name {
            let _ = writeln!(out, "# TYPE {} counter", c.name);
            last_name = c.name;
        }
        let _ = writeln!(out, "{}{} {}", c.name, fmt_labels(&c.labels), c.value);
    }
    last_name = "";
    for g in &snap.gauges {
        if g.name != last_name {
            let _ = writeln!(out, "# TYPE {} gauge", g.name);
            last_name = g.name;
        }
        let _ = writeln!(out, "{}{} {}", g.name, fmt_labels(&g.labels), g.value);
    }
    last_name = "";
    for h in &snap.histograms {
        if h.name != last_name {
            let _ = writeln!(out, "# TYPE {} histogram", h.name);
            last_name = h.name;
        }
        let mut cum = 0u64;
        for i in 0..N_BUCKETS {
            cum += h.hist.buckets[i];
            // Empty prefix buckets are elided to keep dumps readable;
            // cumulative counts stay correct because `cum` carries on.
            if h.hist.buckets[i] == 0 && i + 1 < N_BUCKETS {
                continue;
            }
            let le = if i + 1 < N_BUCKETS {
                format!("{}", bucket_upper_bound(i))
            } else {
                "+Inf".to_string()
            };
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                h.name,
                fmt_labels_with_le(&h.labels, &le),
                cum
            );
        }
        let _ = writeln!(
            out,
            "{}_sum{} {}",
            h.name,
            fmt_labels(&h.labels),
            h.hist.sum
        );
        let _ = writeln!(
            out,
            "{}_count{} {}",
            h.name,
            fmt_labels(&h.labels),
            h.hist.count
        );
    }
    out
}

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
    use crate::registry::{CounterSample, HistogramSample};

    #[test]
    fn prometheus_dump_has_type_lines_and_cumulative_buckets() {
        let mut snap = Snapshot::default();
        snap.counters.push(CounterSample {
            name: "x_total",
            labels: vec![("shard", "0".to_string())],
            value: 3,
        });
        let mut hist = crate::histogram::HistogramSnapshot::default();
        hist.buckets[1] = 2;
        hist.buckets[3] = 1;
        hist.count = 3;
        hist.sum = 9;
        snap.histograms.push(HistogramSample {
            name: "lat_ns",
            labels: vec![],
            hist,
        });
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE x_total counter"));
        assert!(text.contains("x_total{shard=\"0\"} 3"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_ns_bucket{le=\"7\"} 3"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_count 3"));
    }

    #[test]
    fn watch_table_renders_without_panicking_on_empty() {
        let text = render_watch(&Snapshot::default());
        assert!(text.contains("telemetry"));
    }
}
