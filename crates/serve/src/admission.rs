//! Admission control and fair scheduling for one shard.
//!
//! Two pieces live here:
//!
//! * [`AdmissionConfig`] — the bounded-queue policy a shard applies at
//!   submission time: BestEffort frames are **shed** once the shard's
//!   queue reaches capacity, Interactive frames **degrade** to the
//!   cached-coarse resolution tier first and are shed only past a
//!   (higher) hard bound. Shed frames resolve their handle immediately
//!   with [`ServeError::Shed`](crate::ServeError::Shed) instead of
//!   queueing unboundedly.
//! * [`FairQueue`] — the shard scheduler's pending structure: one FIFO
//!   lane per (deadline class, tenant), dequeued in class-priority
//!   order with a per-class round-robin ring of tenants, so one
//!   hot session cannot starve its shard-mates while per-session
//!   submission order (which the coherence cache relies on) is never
//!   reordered. `tests/shard_scheduling.rs` property-tests the policy.

use crate::session::DeadlineClass;
use crate::supervisor::BreakerAdmit;
use std::collections::{HashMap, VecDeque};

/// Per-shard bounded-queue policy.
///
/// `queue_capacity` is the pressure point: at or past it, BestEffort
/// submissions are shed and Interactive submissions are degraded to
/// [`degrade`](crate::ResolutionTier)d resolution. Twice
/// `queue_capacity` is the hard bound past which even Interactive
/// frames are shed. Capacities count queued frames only — a frame
/// leaves the count when the shard scheduler admits it into a render
/// batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Queue depth at which shedding (BestEffort) and degrading
    /// (Interactive) begin.
    pub queue_capacity: usize,
}

impl AdmissionConfig {
    /// A policy shedding BestEffort past `queue_capacity` and
    /// Interactive past twice that; a capacity below one reads as one.
    pub fn with_capacity(queue_capacity: usize) -> Self {
        Self { queue_capacity }
    }
}

impl Default for AdmissionConfig {
    /// Generous defaults (256 queued frames per shard, 512 for
    /// Interactive) — deep enough that light workloads never shed,
    /// bounded enough that an unserved backlog cannot grow without
    /// limit.
    fn default() -> Self {
        Self::with_capacity(256)
    }
}

/// What the admission policy decided for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmissionDecision {
    /// Queue as requested.
    Admit,
    /// Queue, but at the degraded (cached-coarse) resolution tier.
    Degrade,
    /// Refuse; resolve the handle with a shed error.
    Shed,
    /// Refuse; the scene's circuit breaker is open — resolve the
    /// handle with [`ServeError::CircuitOpen`](crate::ServeError::CircuitOpen).
    Break,
}

/// Decides one submission from the scene's circuit-breaker verdict
/// and the shard's current queued depth (*before* this frame). An open
/// breaker sheds **before** queue pressure is even consulted (a sick
/// scene must not consume queue depth); a `Probe` or plain `Admit`
/// verdict defers to the shed-or-degrade queue policy unchanged — a
/// probe frame can still be degraded or shed by capacity, in which
/// case the caller must return the probe slot via
/// [`CircuitBreaker::abort_probe`](crate::supervisor::CircuitBreaker::abort_probe).
/// A capacity below one reads as one, however the config was built.
pub(crate) fn admission_decision_supervised(
    cfg: &AdmissionConfig,
    class: DeadlineClass,
    depth: usize,
    breaker: BreakerAdmit,
) -> AdmissionDecision {
    if breaker == BreakerAdmit::Shed {
        AdmissionDecision::Break
    } else if depth < cfg.queue_capacity.max(1) {
        AdmissionDecision::Admit
    } else if class == DeadlineClass::Interactive && depth < cfg.queue_capacity.max(1) * 2 {
        AdmissionDecision::Degrade
    } else {
        AdmissionDecision::Shed
    }
}

/// Admission counters of the whole server, as reported by
/// [`RenderServer::admission_stats`](crate::RenderServer::admission_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Frames admitted into the shard queue (including degraded ones).
    pub admitted: u64,
    /// Interactive frames admitted at the degraded resolution tier.
    pub degraded: u64,
    /// BestEffort frames shed at the capacity watermark.
    pub shed_best_effort: u64,
    /// Interactive frames shed at the hard bound.
    pub shed_interactive: u64,
    /// Frames shed because the scene's circuit breaker was open.
    pub shed_circuit: u64,
}

impl AdmissionStats {
    /// All shed frames: either class plus circuit-breaker sheds.
    pub fn shed_total(&self) -> u64 {
        self.shed_best_effort + self.shed_interactive + self.shed_circuit
    }
}

/// Deadline classes, in priority order (see [`class_index`]).
pub(crate) const N_CLASSES: usize = 2;

/// Priority rank of a deadline class: the lane index here, and the
/// class code of a `Submit` trace event.
pub(crate) fn class_index(class: DeadlineClass) -> usize {
    match class {
        DeadlineClass::Interactive => 0,
        DeadlineClass::BestEffort => 1,
    }
}

/// One deadline class's lanes: per-tenant FIFOs dequeued round-robin.
struct ClassLanes<T> {
    /// The round-robin ring in service order: every tenant with a
    /// pending item, and only those. A pop scans from the front; the
    /// served tenant goes to the back, or leaves with its last item.
    tenants: VecDeque<u64>,
    /// Tenant id → FIFO of that tenant's pending items (never empty).
    lanes: HashMap<u64, VecDeque<T>>,
    /// How many tenants at the end of the ring a `front` push put
    /// back since the last pop. The next one goes in ahead of them, so
    /// heads handed back in reverse pop order restore the ring's order.
    handed_back: usize,
}

impl<T> Default for ClassLanes<T> {
    fn default() -> Self {
        Self {
            tenants: VecDeque::new(),
            lanes: HashMap::new(),
            handed_back: 0,
        }
    }
}

impl<T> ClassLanes<T> {
    /// Queues `item` at the back of its tenant's lane, or at the
    /// `front` — the inverse of popping it, for a popped head that
    /// must run next, ahead of the tenant's later submissions. A new
    /// tenant joins the ring at its end; put back in `front`, it goes
    /// where the pop that emptied its lane left it: behind every
    /// tenant still pending, ahead of the ones handed back after it.
    fn push(&mut self, tenant: u64, item: T, front: bool) {
        let lane = self.lanes.entry(tenant).or_insert_with(|| {
            if front {
                let at = self.tenants.len() - self.handed_back;
                self.tenants.insert(at, tenant);
                self.handed_back += 1;
            } else {
                self.tenants.push_back(tenant);
                self.handed_back = 0;
            }
            VecDeque::new()
        });
        if front {
            lane.push_front(item);
        } else {
            lane.push_back(item);
        }
    }

    /// Empties every lane into `out` as `(class, tenant, item)`
    /// triples: tenants in ring order, each lane in FIFO order.
    /// Re-pushing the triples in emitted order onto a fresh queue
    /// reproduces every lane and the ring byte-for-byte.
    fn drain_into(&mut self, class: DeadlineClass, out: &mut Vec<(DeadlineClass, u64, T)>) {
        for tenant in self.tenants.drain(..) {
            let lane = self.lanes.remove(&tenant).expect("tenant has a lane");
            out.extend(lane.into_iter().map(|item| (class, tenant, item)));
        }
        self.handed_back = 0;
    }

    /// Pops the head item of the first tenant in ring order whose head
    /// satisfies `take`. Only lane heads are eligible: per-tenant
    /// submission order is never reordered.
    fn pop_next(&mut self, take: &mut dyn FnMut(&T) -> bool) -> Option<T> {
        for idx in 0..self.tenants.len() {
            let tenant = self.tenants[idx];
            let lane = self.lanes.get_mut(&tenant).expect("tenant has a lane");
            if take(lane.front().expect("lanes are never empty")) {
                let item = lane.pop_front().expect("front exists");
                self.handed_back = 0;
                // The served tenant moves behind everyone else, or
                // leaves the ring with its lane.
                self.tenants.rotate_left(idx);
                if lane.is_empty() {
                    self.lanes.remove(&tenant);
                    self.tenants.pop_front();
                } else {
                    self.tenants.rotate_left(1);
                }
                return Some(item);
            }
        }
        None
    }
}

/// The shard scheduler's pending-frame structure: class-priority
/// dequeue (Interactive ahead of BestEffort), round-robin across
/// tenants within a class, FIFO within a (class, tenant) lane.
///
/// Exposed publicly so the scheduling policy can be property-tested
/// (and reused) without standing up a render server around it.
pub struct FairQueue<T> {
    classes: [ClassLanes<T>; N_CLASSES],
}

impl<T> Default for FairQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FairQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            classes: [ClassLanes::default(), ClassLanes::default()],
        }
    }

    /// Pending items across every class and tenant.
    pub fn len(&self) -> usize {
        let lanes = self.classes.iter().flat_map(|c| c.lanes.values());
        lanes.map(VecDeque::len).sum()
    }

    /// Every pending item, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.classes.iter().flat_map(|c| c.lanes.values().flatten())
    }

    /// Every lane's head — the items a pop may take next — in no
    /// particular order.
    pub(crate) fn heads(&self) -> impl Iterator<Item = &T> {
        let lanes = self.classes.iter().flat_map(|c| c.lanes.values());
        lanes.filter_map(VecDeque::front)
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(|c| c.tenants.is_empty())
    }

    /// Enqueues `item` on the `(class, tenant)` lane.
    pub fn push(&mut self, class: DeadlineClass, tenant: u64, item: T) {
        self.classes[class_index(class)].push(tenant, item, false);
    }

    /// Dequeues the next item in policy order: the highest-priority
    /// class with an eligible item wins; within it, tenants are served
    /// round-robin; within a tenant, FIFO. `take` filters eligibility
    /// (a batch builder passes its compatibility predicate) — only
    /// lane *heads* are offered to it, so an ineligible head parks its
    /// whole tenant for this call rather than reordering the tenant's
    /// frames.
    pub fn pop_next(&mut self, mut take: impl FnMut(&T) -> bool) -> Option<T> {
        self.classes
            .iter_mut()
            .find_map(|lanes| lanes.pop_next(&mut take))
    }

    /// Dequeues the next item unconditionally (policy order).
    pub fn pop(&mut self) -> Option<T> {
        self.pop_next(|_| true)
    }

    /// Restores `item` at the **front** of its `(class, tenant)` lane —
    /// the inverse of popping it. A shard incarnation that cannot
    /// render a popped head hands it back this way, ahead of the
    /// tenant's later submissions, preserving per-session FIFO (which
    /// the coherence cache's reuse chain depends on).
    pub fn push_front(&mut self, class: DeadlineClass, tenant: u64, item: T) {
        self.classes[class_index(class)].push(tenant, item, true);
    }

    /// Empties the queue, returning `(class, tenant, item)` triples in
    /// a requeue-safe order: Interactive before BestEffort, tenants in
    /// each class's round-robin order, each lane front-to-back.
    /// [`push`](FairQueue::push)ing the triples back in the returned
    /// order — onto this queue or a fresh one — reproduces every lane
    /// and tenant ring exactly, so a drained-and-rebuilt queue
    /// schedules equivalently (the scheduling proptests pin this).
    pub fn drain(&mut self) -> Vec<(DeadlineClass, u64, T)> {
        let mut out = Vec::with_capacity(self.len());
        for class in [DeadlineClass::Interactive, DeadlineClass::BestEffort] {
            self.classes[class_index(class)].drain_into(class, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_thresholds() {
        let cfg = AdmissionConfig::with_capacity(4);
        let decide =
            |class, depth| admission_decision_supervised(&cfg, class, depth, BreakerAdmit::Admit);
        for class in [DeadlineClass::Interactive, DeadlineClass::BestEffort] {
            assert_eq!(decide(class, 3), AdmissionDecision::Admit);
        }
        assert_eq!(
            decide(DeadlineClass::BestEffort, 4),
            AdmissionDecision::Shed
        );
        assert_eq!(
            decide(DeadlineClass::Interactive, 4),
            AdmissionDecision::Degrade
        );
        // The Interactive hard bound is twice the capacity.
        assert_eq!(
            decide(DeadlineClass::Interactive, 7),
            AdmissionDecision::Degrade
        );
        assert_eq!(
            decide(DeadlineClass::Interactive, 8),
            AdmissionDecision::Shed
        );
    }

    #[test]
    fn open_breaker_sheds_before_queue_policy() {
        let cfg = AdmissionConfig::with_capacity(4);
        // Breaker shed wins at any depth, even an empty queue.
        assert_eq!(
            admission_decision_supervised(&cfg, DeadlineClass::Interactive, 0, BreakerAdmit::Shed),
            AdmissionDecision::Break
        );
        // Admit and Probe defer to the queue policy unchanged.
        for verdict in [BreakerAdmit::Admit, BreakerAdmit::Probe] {
            assert_eq!(
                admission_decision_supervised(&cfg, DeadlineClass::Interactive, 0, verdict),
                AdmissionDecision::Admit
            );
            assert_eq!(
                admission_decision_supervised(&cfg, DeadlineClass::BestEffort, 4, verdict),
                AdmissionDecision::Shed
            );
        }
    }

    #[test]
    fn class_priority_then_round_robin() {
        let mut q = FairQueue::new();
        q.push(DeadlineClass::BestEffort, 1, "be-1a");
        q.push(DeadlineClass::Interactive, 2, "int-2a");
        q.push(DeadlineClass::Interactive, 3, "int-3a");
        q.push(DeadlineClass::Interactive, 2, "int-2b");
        assert_eq!(q.len(), 4);
        // All Interactive drains before BestEffort; tenants 2 and 3
        // alternate.
        assert_eq!(q.pop(), Some("int-2a"));
        assert_eq!(q.pop(), Some("int-3a"));
        assert_eq!(q.pop(), Some("int-2b"));
        assert_eq!(q.pop(), Some("be-1a"));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn filtered_head_parks_its_tenant() {
        let mut q = FairQueue::new();
        q.push(DeadlineClass::Interactive, 1, 10);
        q.push(DeadlineClass::Interactive, 1, 11);
        q.push(DeadlineClass::Interactive, 2, 20);
        // Tenant 1's head is ineligible: tenant 2 is served, tenant
        // 1's lane stays in order (11 never jumps ahead of 10).
        assert_eq!(q.pop_next(|&v| v != 10), Some(20));
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
    }

    #[test]
    fn push_front_restores_popped_head() {
        let mut q = FairQueue::new();
        q.push(DeadlineClass::Interactive, 1, 10);
        q.push(DeadlineClass::Interactive, 1, 11);
        let head = q.pop().unwrap();
        assert_eq!(head, 10);
        // Restoring the head puts it back ahead of the tenant's later
        // submissions, not behind them.
        q.push_front(DeadlineClass::Interactive, 1, head);
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        // push_front on an unseen tenant behaves like push.
        q.push_front(DeadlineClass::BestEffort, 9, 90);
        assert_eq!(q.pop(), Some(90));
    }

    #[test]
    fn drain_preserves_lane_order_and_rebuilds() {
        let mut q = FairQueue::new();
        q.push(DeadlineClass::Interactive, 1, "i1a");
        q.push(DeadlineClass::Interactive, 2, "i2a");
        q.push(DeadlineClass::Interactive, 1, "i1b");
        q.push(DeadlineClass::BestEffort, 3, "b3a");
        q.pop(); // advance the cursor past tenant 1
        let snapshot = q.drain();
        assert!(q.is_empty());
        // Per-lane FIFO is intact in the emitted order.
        let lane1: Vec<_> = snapshot
            .iter()
            .filter(|(_, t, _)| *t == 1)
            .map(|(_, _, v)| *v)
            .collect();
        assert_eq!(lane1, vec!["i1b"]);
        // Rebuild and verify class priority + lane order survive.
        for (class, tenant, item) in snapshot {
            q.push(class, tenant, item);
        }
        assert_eq!(q.pop(), Some("i2a"));
        assert_eq!(q.pop(), Some("i1b"));
        assert_eq!(q.pop(), Some("b3a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_tenant_leaves_the_ring_with_its_last_frame() {
        let mut q = FairQueue::new();
        for tenant in 0..1_000 {
            q.push(DeadlineClass::BestEffort, tenant, tenant);
            assert_eq!(q.pop(), Some(tenant));
        }
        for lanes in &q.classes {
            assert!(lanes.tenants.is_empty() && lanes.lanes.is_empty());
        }
    }

    #[test]
    fn hot_tenant_cannot_starve_others() {
        let mut q = FairQueue::new();
        for i in 0..16 {
            q.push(DeadlineClass::Interactive, 7, ("hot", i));
        }
        q.push(DeadlineClass::Interactive, 8, ("cold", 0));
        // The cold tenant's lone frame is served second, not 17th.
        assert_eq!(q.pop(), Some(("hot", 0)));
        assert_eq!(q.pop(), Some(("cold", 0)));
        assert_eq!(q.pop(), Some(("hot", 1)));
    }
}
