//! Frame-lifecycle tracing.
//!
//! Every frame submitted to the serve tier draws a process-unique id
//! from [`next_frame_id`] and leaves a trail of [`TraceEvent`]s in the
//! owning shard's [`TraceRing`]: submit → admission verdict → queue
//! pop (wait time) → batch assembly → render outcome → retries →
//! resolve. A frame's trace is *complete* when it carries exactly one
//! terminal event — a [`EventKind::Resolve`], or an admission verdict
//! of shed/break (those frames never reach a shard).
//!
//! The ring is bounded and lock-free: recording claims a slot with one
//! `fetch_add` and fills it with relaxed word stores — no allocation,
//! no locks, so the render hot path never blocks on an observer. When
//! writers outrun the drainer the oldest undrained events are
//! overwritten and counted in [`TraceRing::dropped`]; at test scale
//! the regression suite pins that count to zero. Draining while
//! writers are active can observe a slot mid-fill; drain at a quiet
//! point (end of run, after handles resolve) for exact traces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default per-shard ring capacity (events). 16Ki events ≈ 640 KiB;
/// sized so CI-scale runs never drop.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

/// Hands out process-unique frame ids (dense, starting at 1; 0 is
/// reserved as "no frame").
pub fn next_frame_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// What happened to a frame at one point of its life. Stored in a
/// ring slot as a `u64` code; payload meaning per kind is documented
/// on each variant (`a`/`b` of [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Frame entered `submit`. `a` = deadline class (0 interactive,
    /// 1 best-effort), `b` = session id.
    Submit,
    /// Admission verdict. `a` = [`AdmissionVerdict`] code, `b` =
    /// pre-claim queue depth. Shed/break verdicts are terminal.
    Admit,
    /// Popped from the shard queue. `a` = queue wait ns, `b` = queue
    /// depth after the pop.
    Pop,
    /// Placed in a render batch. `a` = batch size (frames), `b` =
    /// co-batched peer count (batch size − 1).
    Batch,
    /// One render attempt finished. `a` = render ns, `b` = outcome
    /// (0 ok, 1 cancelled, 2 corrupt, 3 panicked/failed).
    Render,
    /// A retry was scheduled. `a` = attempt number (1-based), `b` =
    /// backoff ns before the attempt.
    Retry,
    /// The frame's slot resolved — always terminal, emitted exactly
    /// once (by whoever wins the first-write-wins fulfil race). `a` =
    /// [`ResolveOutcome`] code, `b` = submit→resolve latency ns.
    Resolve,
    /// The health sweep condemned a shard. Shard-scoped: `frame` = 0,
    /// `a` = shard index, `b` = reason (0 wedged, 1 dead).
    Condemn,
    /// A condemned shard respawned with a fresh worker. Shard-scoped:
    /// `frame` = 0, `a` = shard index, `b` = the new incarnation.
    Restart,
    /// A popped frame was handed back to the front of its lane by a
    /// shard incarnation that could not render it (killed or wedged
    /// under it). `a` = shard index, `b` = 0.
    Requeue,
    /// A shard finished (or abandoned) a graceful drain. Shard-scoped:
    /// `frame` = 0, `a` = shard index, `b` = frames force-failed at the
    /// drain deadline (0 for a clean drain).
    Drain,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::Submit => 1,
            EventKind::Admit => 2,
            EventKind::Pop => 3,
            EventKind::Batch => 4,
            EventKind::Render => 5,
            EventKind::Retry => 6,
            EventKind::Resolve => 7,
            EventKind::Condemn => 8,
            EventKind::Restart => 9,
            EventKind::Requeue => 10,
            EventKind::Drain => 11,
        }
    }

    fn from_code(c: u64) -> Option<EventKind> {
        Some(match c {
            1 => EventKind::Submit,
            2 => EventKind::Admit,
            3 => EventKind::Pop,
            4 => EventKind::Batch,
            5 => EventKind::Render,
            6 => EventKind::Retry,
            7 => EventKind::Resolve,
            8 => EventKind::Condemn,
            9 => EventKind::Restart,
            10 => EventKind::Requeue,
            11 => EventKind::Drain,
            _ => return None,
        })
    }
}

/// Admission verdict codes carried by [`EventKind::Admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    Admit = 0,
    Degrade = 1,
    Shed = 2,
    Break = 3,
}

impl AdmissionVerdict {
    /// Whether this verdict ends the frame's life (it never reaches a
    /// shard).
    pub fn is_terminal(self) -> bool {
        matches!(self, AdmissionVerdict::Shed | AdmissionVerdict::Break)
    }

    pub fn from_code(c: u64) -> Option<AdmissionVerdict> {
        Some(match c {
            0 => AdmissionVerdict::Admit,
            1 => AdmissionVerdict::Degrade,
            2 => AdmissionVerdict::Shed,
            3 => AdmissionVerdict::Break,
            _ => return None,
        })
    }
}

/// Resolve outcome codes carried by [`EventKind::Resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveOutcome {
    Ok = 0,
    TimedOut = 1,
    Failed = 2,
}

impl ResolveOutcome {
    pub fn from_code(c: u64) -> Option<ResolveOutcome> {
        Some(match c {
            0 => ResolveOutcome::Ok,
            1 => ResolveOutcome::TimedOut,
            2 => ResolveOutcome::Failed,
            _ => return None,
        })
    }
}

/// One drained trace event.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// The frame this event belongs to (see [`next_frame_id`]).
    pub frame: u64,
    /// Monotonic timestamp, ns since the ring's creation.
    pub t_ns: u64,
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u64,
}

struct Slot {
    frame: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// A bounded, lock-free multi-producer event ring (one per shard).
pub struct TraceRing {
    epoch: Instant,
    slots: Box<[Slot]>,
    /// Total events ever written (next claim index).
    head: AtomicU64,
    /// Next undrained index (advanced only by [`TraceRing::drain`]).
    tail: AtomicU64,
    /// Events overwritten before they were drained.
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring with capacity rounded up to a power of two.
    pub fn new(capacity: usize) -> TraceRing {
        let cap = capacity.max(2).next_power_of_two();
        TraceRing {
            epoch: Instant::now(),
            slots: (0..cap)
                .map(|_| Slot {
                    frame: AtomicU64::new(0),
                    t_ns: AtomicU64::new(0),
                    kind: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one event: a no-op when telemetry is disabled, else
    /// one `fetch_add` slot claim plus relaxed stores.
    pub fn record(&self, frame: u64, kind: EventKind, a: u64, b: u64) {
        if !crate::enabled() {
            return;
        }
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx as usize) & (self.slots.len() - 1)];
        slot.frame.store(frame, Ordering::Relaxed);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
    }

    /// Events overwritten before any drain saw them (updated lazily at
    /// drain; exact once writers are quiescent).
    pub fn dropped(&self) -> u64 {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        self.dropped.load(Ordering::Relaxed) + (head - tail).saturating_sub(cap)
    }

    /// Total events ever recorded.
    #[cfg(test)]
    pub(crate) fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The ring's slot count: events beyond this between drains
    /// overwrite the oldest undrained slots (counted by
    /// [`TraceRing::dropped`]).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Drains every undrained event, oldest first. Call at a quiet
    /// point for exact traces (see module docs).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let mut tail = self.tail.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        if head - tail > cap {
            // Writers lapped the drainer: the oldest events are gone.
            let lost = head - tail - cap;
            self.dropped.fetch_add(lost, Ordering::Relaxed);
            tail = head - cap;
        }
        let mut out = Vec::with_capacity((head - tail) as usize);
        for idx in tail..head {
            let slot = &self.slots[(idx as usize) & (self.slots.len() - 1)];
            let Some(kind) = EventKind::from_code(slot.kind.load(Ordering::Relaxed)) else {
                continue;
            };
            out.push(TraceEvent {
                frame: slot.frame.load(Ordering::Relaxed),
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                kind,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            });
        }
        self.tail.store(head, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_drains_in_order() {
        let ring = TraceRing::new(64);
        let f = next_frame_id();
        ring.record(f, EventKind::Submit, 0, 7);
        ring.record(f, EventKind::Admit, AdmissionVerdict::Admit as u64, 3);
        ring.record(f, EventKind::Resolve, ResolveOutcome::Ok as u64, 1234);
        let events = ring.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Submit);
        assert_eq!(events[2].kind, EventKind::Resolve);
        assert!(events.iter().all(|e| e.frame == f));
        assert_eq!(ring.dropped(), 0);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.record(100 + i, EventKind::Submit, 0, 0);
        }
        assert_eq!(ring.recorded(), 10);
        let events = ring.drain();
        // Capacity 4: only the newest 4 survive, 6 dropped.
        assert_eq!(events.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(events.last().unwrap().frame, 109);
    }

    #[test]
    fn concurrent_writers_lose_nothing_under_capacity() {
        let ring = std::sync::Arc::new(TraceRing::new(4096));
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = ring.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..256u64 {
                    r.record(t * 1000 + i, EventKind::Render, i, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = ring.drain();
        assert_eq!(events.len(), 4 * 256);
        assert_eq!(ring.dropped(), 0);
        // Every (writer, seq) pair shows up exactly once.
        let mut seen: Vec<u64> = events.iter().map(|e| e.frame).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4 * 256);
    }
}
