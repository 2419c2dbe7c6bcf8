//! Unified observability substrate for the gen-nerf workspace.
//!
//! Three layers, each usable on its own:
//!
//! * [`registry`] — a process-global, lock-free **metrics registry**:
//!   atomic [`Counter`]s, [`Gauge`]s and fixed-bucket log₂-scale
//!   latency [`Histogram`]s, registered once (cold path, under a
//!   mutex) by static metric name plus a label set, then updated
//!   through `Copy` handles that are a single relaxed atomic op on the
//!   hot path. [`snapshot`] freezes everything into a typed
//!   [`Snapshot`] that callers fold with [`Snapshot::counter_total`]
//!   and friends — the *one* merge primitive every aggregate stats
//!   view in the workspace derives from.
//! * [`trace`] — **frame-lifecycle tracing**: every submitted frame
//!   gets a process-unique id ([`next_frame_id`]) and accumulates
//!   monotonic-clock [`TraceEvent`]s (submit → admission verdict →
//!   queue wait → batch assembly → render → retries → resolve) in a
//!   bounded per-shard [`TraceRing`] with drop counting. Recording an
//!   event is one atomic slot claim plus word-sized relaxed stores —
//!   no locks, no allocation.
//! * [`render`] — text **exposition**: [`render_prometheus`] emits a
//!   Prometheus-style dump, [`render_watch`] a human `--watch`-style
//!   table (`gen-nerf-bench`'s `gates load` prints it at the end of
//!   its run). Where either goes — a file, a socket — is the
//!   embedder's choice.
//!
//! [`clock`] supplies the [`Clock`] abstraction (monotonic real clock
//! or a deterministic virtual test clock) that time-dependent control
//! logic (supervisor deadlines, circuit-breaker cooldowns) routes
//! through, so tests can drive time without sleeping.
//!
//! # Hot-path cost contract
//!
//! Counter/gauge updates are one relaxed (gauges: SeqCst where the
//! caller needs it) atomic RMW on a leaked, never-moved cell — they
//! are *bookkeeping*, always on. Histogram observations and trace
//! events are *telemetry* and honor the global [`set_enabled`] switch:
//! disabled, they cost one relaxed load. Enabled, a histogram
//! observation is two relaxed RMWs plus one bucket RMW; a trace event
//! is one RMW to claim a ring slot plus five relaxed word stores.
//! Nothing on any of these paths allocates or takes a lock.

pub mod clock;
pub mod histogram;
pub mod registry;
pub mod render;
pub mod trace;

pub use clock::Clock;
pub use histogram::{bucket_index, bucket_upper_bound, HistogramSnapshot, N_BUCKETS};
pub use registry::{
    counter, gauge, histogram, next_instance_id, snapshot, Counter, CounterSample, Gauge,
    GaugeSample, Histogram, HistogramSample, Snapshot,
};
pub use render::{render_prometheus, render_watch};
pub use trace::{
    next_frame_id, AdmissionVerdict, EventKind, ResolveOutcome, TraceEvent, TraceRing,
    DEFAULT_RING_CAPACITY,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables the *telemetry* layers (histogram
/// observations, stage timers, trace recording). Counters and gauges
/// stay live either way — serving policy reads them. The
/// `gates telemetry-overhead` gate measures renders with this off vs
/// on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry recording is enabled (one relaxed load).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
