//! The process-global metrics registry.
//!
//! Registration is the cold path: a mutex-guarded map from
//! `(name, label set)` to a leaked atomic cell, so re-registering the
//! same metric returns the same handle (idempotent — callers cache
//! handles in `OnceLock`s or structs but don't have to). Updates go
//! through the returned `Copy` handles and never touch the lock.
//!
//! Labels distinguish instances of one logical metric — shard index,
//! deadline class, kernel backend, server instance. Aggregates are
//! *derived* by folding a [`Snapshot`], never by parallel bookkeeping:
//! [`Snapshot::counter_total`] / [`Snapshot::histogram_merged`] are
//! the single merge primitive the serve-tier `*Stats` views build on.

use crate::histogram::{HistogramCore, HistogramSnapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// An owned label set: key/value pairs, keys static, values owned.
pub(crate) type Labels = Vec<(&'static str, String)>;

/// A monotonically increasing event counter.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, in-flight renders). SeqCst:
/// admission policy *decides* on this value, so the update must not be
/// reorderable against the policy read the way a relaxed op could be.
#[derive(Clone, Copy)]
pub struct Gauge(&'static AtomicI64);

impl Gauge {
    /// Adds `n` and returns the *previous* value (the admission path
    /// claims a queue slot and inspects the pre-claim depth).
    pub fn fetch_add(&self, n: i64) -> i64 {
        self.0.fetch_add(n, Ordering::SeqCst)
    }

    pub fn inc(&self) -> i64 {
        self.fetch_add(1)
    }

    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::SeqCst);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// A log₂-bucket latency histogram (see [`crate::histogram()`]).
#[derive(Clone, Copy)]
pub struct Histogram(&'static HistogramCore);

impl Histogram {
    /// Records one value if telemetry is enabled (nanoseconds by
    /// convention).
    pub fn observe(&self, v: u64) {
        if crate::enabled() {
            self.0.observe(v);
        }
    }

    /// Current frozen state of this one instance.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

enum Cell {
    Counter(&'static AtomicU64),
    Gauge(&'static AtomicI64),
    Histogram(&'static HistogramCore),
}

struct Entry {
    name: &'static str,
    labels: Labels,
    cell: Cell,
}

static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

fn find_or_insert(
    name: &'static str,
    labels: &[(&'static str, &str)],
    make: impl FnOnce() -> Cell,
) -> usize {
    let mut reg = REGISTRY.lock().unwrap();
    if let Some(i) = reg.iter().position(|e| {
        e.name == name
            && e.labels.len() == labels.len()
            && e.labels
                .iter()
                .zip(labels)
                .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
    }) {
        return i;
    }
    reg.push(Entry {
        name,
        labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
        cell: make(),
    });
    reg.len() - 1
}

/// Registers (or re-resolves) a counter. Cold path — cache the handle.
pub fn counter(name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
    let i = find_or_insert(name, labels, || {
        Cell::Counter(Box::leak(Box::new(AtomicU64::new(0))))
    });
    match REGISTRY.lock().unwrap()[i].cell {
        Cell::Counter(c) => Counter(c),
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Registers (or re-resolves) a gauge. Cold path — cache the handle.
pub fn gauge(name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
    let i = find_or_insert(name, labels, || {
        Cell::Gauge(Box::leak(Box::new(AtomicI64::new(0))))
    });
    match REGISTRY.lock().unwrap()[i].cell {
        Cell::Gauge(g) => Gauge(g),
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Registers (or re-resolves) a histogram. Cold path — cache the
/// handle.
pub fn histogram(name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
    let i = find_or_insert(name, labels, || {
        Cell::Histogram(Box::leak(Box::new(HistogramCore::new())))
    });
    match REGISTRY.lock().unwrap()[i].cell {
        Cell::Histogram(h) => Histogram(h),
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// One counter instance in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct CounterSample {
    pub name: &'static str,
    pub labels: Labels,
    pub value: u64,
}

/// One gauge instance in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct GaugeSample {
    pub name: &'static str,
    pub labels: Labels,
    pub value: i64,
}

/// One histogram instance in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct HistogramSample {
    pub name: &'static str,
    pub labels: Labels,
    pub hist: HistogramSnapshot,
}

/// A typed, frozen view of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: Vec<CounterSample>,
    pub gauges: Vec<GaugeSample>,
    pub histograms: Vec<HistogramSample>,
}

fn labels_match(labels: &Labels, subset: &[(&str, &str)]) -> bool {
    subset
        .iter()
        .all(|&(k, v)| labels.iter().any(|(lk, lv)| *lk == k && lv == v))
}

impl Snapshot {
    /// Sum of a counter over every label set carrying `subset` — the
    /// one fold every aggregate stats view derives from.
    pub fn counter_with(&self, name: &str, subset: &[(&str, &str)]) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name && labels_match(&c.labels, subset))
            .map(|c| c.value)
            .sum()
    }

    /// Sum of a counter over *all* its label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counter_with(name, &[])
    }

    /// Sum of a gauge over every label set carrying `subset`.
    pub fn gauge_with(&self, name: &str, subset: &[(&str, &str)]) -> i64 {
        self.gauges
            .iter()
            .filter(|g| g.name == name && labels_match(&g.labels, subset))
            .map(|g| g.value)
            .sum()
    }

    /// Bucket-wise merge of a histogram over every label set carrying
    /// `subset`.
    pub fn histogram_merged(&self, name: &str, subset: &[(&str, &str)]) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for h in self
            .histograms
            .iter()
            .filter(|h| h.name == name && labels_match(&h.labels, subset))
        {
            out.merge(&h.hist);
        }
        out
    }

    /// All distinct values of `key` across every sample's labels, in
    /// first-seen order (drives per-class/per-shard exposition rows).
    pub(crate) fn label_values(&self, key: &str) -> Vec<String> {
        let mut seen = Vec::new();
        let all = self
            .counters
            .iter()
            .map(|c| &c.labels)
            .chain(self.gauges.iter().map(|g| &g.labels))
            .chain(self.histograms.iter().map(|h| &h.labels));
        for labels in all {
            for (k, v) in labels {
                if *k == key && !seen.contains(v) {
                    seen.push(v.clone());
                }
            }
        }
        seen
    }
}

/// Freezes the registry: every counter, gauge and histogram with its
/// label set. Sorted by (name, labels) so output is stable.
pub fn snapshot() -> Snapshot {
    let reg = REGISTRY.lock().unwrap();
    let mut snap = Snapshot::default();
    for e in reg.iter() {
        match e.cell {
            Cell::Counter(c) => snap.counters.push(CounterSample {
                name: e.name,
                labels: e.labels.clone(),
                value: c.load(Ordering::Relaxed),
            }),
            Cell::Gauge(g) => snap.gauges.push(GaugeSample {
                name: e.name,
                labels: e.labels.clone(),
                value: g.load(Ordering::Relaxed),
            }),
            Cell::Histogram(h) => snap.histograms.push(HistogramSample {
                name: e.name,
                labels: e.labels.clone(),
                hist: h.snapshot(),
            }),
        }
    }
    snap.counters
        .sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
    snap.gauges
        .sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
    snap.histograms
        .sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
    snap
}

/// A process-unique label value for one server/harness instance, so
/// concurrently running instances (unit tests!) never fold each
/// other's counters into their own views.
pub fn next_instance_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let a = counter("test_reg_idem_total", &[("shard", "0")]);
        let b = counter("test_reg_idem_total", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn snapshot_folds_across_label_sets() {
        let a = counter("test_fold_total", &[("shard", "0"), ("inst", "s1")]);
        let b = counter("test_fold_total", &[("shard", "1"), ("inst", "s1")]);
        let c = counter("test_fold_total", &[("shard", "0"), ("inst", "s2")]);
        a.add(1);
        b.add(2);
        c.add(10);
        let snap = snapshot();
        assert_eq!(snap.counter_total("test_fold_total"), 13);
        assert_eq!(snap.counter_with("test_fold_total", &[("inst", "s1")]), 3);
        assert_eq!(snap.counter_with("test_fold_total", &[("shard", "0")]), 11);
        assert_eq!(
            snap.counter_with("test_fold_total", &[("inst", "s2"), ("shard", "0")]),
            10
        );
    }

    #[test]
    fn gauge_reports_previous_value_on_add() {
        let g = gauge("test_gauge_depth", &[]);
        g.set(5);
        assert_eq!(g.fetch_add(1), 5);
        assert_eq!(g.get(), 6);
        g.dec();
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_merge_across_labels() {
        let h0 = histogram("test_hist_ns", &[("class", "interactive")]);
        let h1 = histogram("test_hist_ns", &[("class", "best_effort")]);
        h0.observe(100);
        h0.observe(200);
        h1.observe(1_000_000);
        let snap = snapshot();
        let merged = snap.histogram_merged("test_hist_ns", &[]);
        assert_eq!(merged.count, 3);
        let only_int = snap.histogram_merged("test_hist_ns", &[("class", "interactive")]);
        assert_eq!(only_int.count, 2);
    }
}
