//! The server-wide anchor cache: every session's retained coarse
//! passes, and the byte budgets that bound them.
//!
//! Temporal coherence ([`CoherenceConfig`](crate::CoherenceConfig))
//! keeps a session's exported Step ① passes as *anchors*: a later pose
//! within the session's deltas of one imports it and runs only the
//! focus pass. One [`AnchorCache`] per
//! [`RenderServer`](crate::RenderServer), shared by every shard, owns
//! all of them under two budgets:
//!
//! * **Per session**, an LRU (most recently used first) capped at
//!   [`DEFAULT_CACHE_BUDGET_BYTES`]. A miss anchors afresh and evicts
//!   the session's own tail past the cap. An anchor that alone exceeds
//!   the cap is refused (counted as one eviction): inserting it would
//!   evict every retained anchor and then itself.
//! * **Server-wide**, one byte budget ([`GovernorConfig`]) over every
//!   session's anchors plus the crew's worker-scratch reservation. An
//!   insert past it evicts the LRU-tail anchor of the *fattest*
//!   session, one at a time, so pressure lands on whoever holds the
//!   most bytes; when nothing else is left to evict, the insert is
//!   refused (the frame still renders). From 85 % of the budget,
//!   admission sheds BestEffort submissions (`reason="memory"`).
//!
//! One mutex guards all of it, so making room for an anchor and
//! inserting it are one step: `peak ≤ budget` holds with no separate
//! charge to take back. The lock is a leaf: under it only atomics move
//! (the shard's cache counters and the `used` mirror admission reads
//! without the lock).

use crate::lock;
use crate::server::CacheOutcome;
use crate::session::{poses_coherent, ResolutionTier, SessionConfig};
use gen_nerf::pipeline::CoarseFrame;
use gen_nerf_geometry::Pose;
use gen_nerf_telemetry::Counter;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default server-wide budget: 256 MiB.
const DEFAULT_BUDGET_BYTES: u64 = 256 << 20;

/// Fraction of the budget at which admission pressure begins:
/// BestEffort submissions are shed while usage is at or above it.
const PRESSURE_FRACTION: f64 = 0.85;

/// Per-session cap on retained anchors (8 MiB) — generous for
/// interactive resolutions while still bounding a long walkthrough's
/// anchor set.
pub(crate) const DEFAULT_CACHE_BUDGET_BYTES: usize = 8 << 20;

/// Configuration of the server-wide memory budget.
#[derive(Debug, Clone, Copy)]
pub struct GovernorConfig {
    /// The hard byte budget across all sessions' coarse caches plus
    /// worker-arena reservations (0 reads as one byte). Default
    /// 256 MiB.
    pub budget_bytes: u64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            budget_bytes: DEFAULT_BUDGET_BYTES,
        }
    }
}

/// Counters of the server-wide budget, as reported by
/// [`RenderServer::governor_stats`](crate::RenderServer::governor_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// The configured hard budget.
    pub budget_bytes: u64,
    /// Bytes currently charged (caches + arena reservations).
    pub used_bytes: u64,
    /// High-water mark of `used_bytes` — the heal gate pins
    /// `peak_bytes <= budget_bytes`.
    pub peak_bytes: u64,
    /// Anchors evicted across sessions by global pressure (beyond any
    /// per-session budget evictions).
    pub evictions: u64,
    /// Anchor inserts refused because no more room could be made.
    pub refused_inserts: u64,
}

/// Coarse-cache counters of one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Frames served from a cached coarse pass.
    pub hits: u64,
    /// Coarse-then-focus frames that re-probed (and anchored afresh).
    pub misses: u64,
    /// Frames the cache did not apply to (coherence disabled or a
    /// strategy without a coarse pass).
    pub bypasses: u64,
    /// Anchors this session lost to either budget: its own cap
    /// (including an anchor refused for exceeding it alone) or the
    /// server-wide budget's pressure evictions.
    pub evictions: u64,
    /// Anchors rejected at import because their payload digest or ray
    /// count no longer matched (each is discarded and the frame
    /// re-probes as a miss).
    pub integrity_rejects: u64,
}

impl CacheStats {
    /// Hit fraction among the frames the cache applied to.
    pub fn hit_rate(&self) -> f64 {
        let eligible = self.hits + self.misses;
        if eligible == 0 {
            0.0
        } else {
            self.hits as f64 / eligible as f64
        }
    }
}

/// One cache event. Each is counted twice in one place
/// ([`Session::count`]): in the session's [`CacheStats`] and in its
/// shard's `serve_cache_events_total{outcome}`, the instance-level view.
#[derive(Clone, Copy)]
enum Event {
    Hit,
    Miss,
    Bypass,
    Eviction,
    IntegrityReject,
}

/// The `outcome` label of each [`Event`], in order.
pub(crate) const CACHE_EVENTS: [&str; 5] =
    ["hit", "miss", "bypass", "eviction", "integrity_reject"];

/// A shard's `serve_cache_events_total` counters, indexed by [`Event`].
pub(crate) type CacheMeters = [Counter; 5];

/// One retained coarse pass: the pose and tier it was probed at, and
/// the exported Step ① data (an `Arc`, so a render holds it without a
/// copy and a poisoning never touches a render in flight).
struct Anchor {
    pose: Pose,
    tier: ResolutionTier,
    coarse: Arc<CoarseFrame>,
}

/// The bytes an anchor of `coarse` charges against both budgets.
pub(crate) fn anchor_cost(coarse: &CoarseFrame) -> usize {
    coarse.approx_bytes() + std::mem::size_of::<Anchor>()
}

/// One session's anchors, their bytes and its counters.
struct Session {
    cfg: SessionConfig,
    meters: CacheMeters,
    /// Most recently used first.
    anchors: VecDeque<Anchor>,
    /// Σ [`anchor_cost`] over `anchors`.
    bytes: usize,
    stats: CacheStats,
}

impl Session {
    fn count(&mut self, event: Event) {
        let stats = &mut self.stats;
        *match event {
            Event::Hit => &mut stats.hits,
            Event::Miss => &mut stats.misses,
            Event::Bypass => &mut stats.bypasses,
            Event::Eviction => &mut stats.evictions,
            Event::IntegrityReject => &mut stats.integrity_rejects,
        } += 1;
        self.meters[event as usize].inc();
    }

    /// Evicts the LRU-tail anchor; returns the bytes it freed.
    fn evict_tail(&mut self) -> usize {
        let old = self.anchors.pop_back().expect("bytes imply anchors");
        self.count(Event::Eviction);
        let freed = anchor_cost(&old.coarse);
        self.bytes -= freed;
        freed
    }
}

/// What the cache lock guards: every open session's books and the
/// server's totals.
struct Books {
    sessions: HashMap<u64, Session>,
    totals: GovernorStats,
}

/// The server-wide anchor cache; see the module docs for policy.
pub(crate) struct AnchorCache {
    pressure_at: u64,
    /// The per-session cap.
    cap: usize,
    /// `totals.used_bytes`, for the lock-free pressure check.
    used: AtomicU64,
    books: Mutex<Books>,
}

impl AnchorCache {
    /// A cache under `cfg`'s budget with `reserved` bytes already
    /// charged for good (the crew workers' scratch), capping each
    /// session at `cap` bytes.
    pub(crate) fn new(cfg: &GovernorConfig, reserved: u64, cap: usize) -> Self {
        let budget = cfg.budget_bytes.max(1);
        let totals = GovernorStats {
            budget_bytes: budget,
            used_bytes: reserved,
            peak_bytes: reserved,
            ..GovernorStats::default()
        };
        Self {
            pressure_at: (budget as f64 * PRESSURE_FRACTION) as u64,
            cap,
            used: AtomicU64::new(reserved),
            books: Mutex::new(Books {
                sessions: HashMap::new(),
                totals,
            }),
        }
    }

    /// Charges `bytes` more for good: a new shard thread's worker
    /// scratch.
    pub(crate) fn reserve(&self, bytes: u64) {
        let mut books = lock(&self.books);
        books.totals.used_bytes += bytes;
        self.publish(&mut books.totals);
    }

    /// Records the new usage: the peak, and the mirror admission reads.
    fn publish(&self, totals: &mut GovernorStats) {
        totals.peak_bytes = totals.peak_bytes.max(totals.used_bytes);
        self.used.store(totals.used_bytes, Ordering::Relaxed);
    }

    /// Starts the books of `session`, rendering under `cfg`, counted in
    /// its shard's `meters`.
    pub(crate) fn open(&self, session: u64, cfg: SessionConfig, meters: CacheMeters) {
        let entry = Session {
            cfg,
            meters,
            anchors: VecDeque::new(),
            bytes: 0,
            stats: CacheStats::default(),
        };
        lock(&self.books).sessions.insert(session, entry);
    }

    /// Ends the books of `session`, returning its anchors' bytes.
    pub(crate) fn close(&self, session: u64) {
        let mut books = lock(&self.books);
        if let Some(gone) = books.sessions.remove(&session) {
            books.totals.used_bytes -= gone.bytes as u64;
            self.publish(&mut books.totals);
        }
    }

    /// How the cache serves `session`'s frame at `pose` and `tier`, and
    /// the anchor it imports on a hit — counted in the session's stats
    /// and its shard's meters. A hit is promoted to most recently used.
    ///
    /// An import is never trusted implicitly: a candidate whose ray
    /// count differs from the tier's pixel grid or whose payload digest
    /// no longer matches its seal ([`CoarseFrame::integrity_ok`]) is
    /// discarded on the spot, counted as an integrity reject, and the
    /// search continues, so the frame re-probes (a miss) instead of
    /// shading from a stale or corrupted coarse pass.
    ///
    /// A session already closed (its removal stopped waiting for this
    /// frame) is served uncached and counted nowhere.
    pub(crate) fn lookup(
        &self,
        session: u64,
        tier: ResolutionTier,
        pose: &Pose,
    ) -> (CacheOutcome, Option<Arc<CoarseFrame>>) {
        let mut books = lock(&self.books);
        let books = &mut *books;
        let Some(s) = books.sessions.get_mut(&session) else {
            return (CacheOutcome::Bypass, None);
        };
        if !s.cfg.caches() {
            s.count(Event::Bypass);
            return (CacheOutcome::Bypass, None);
        }
        let grid = tier.apply(s.cfg.intrinsics);
        let rays = grid.width as usize * grid.height as usize;
        let coherence = s.cfg.coherence;
        let coherent = |a: &Anchor| a.tier == tier && poses_coherent(&a.pose, pose, &coherence);
        while let Some(idx) = s.anchors.iter().position(coherent) {
            let anchor = s.anchors.remove(idx).expect("position is in range");
            if anchor.coarse.n_rays() == rays && anchor.coarse.integrity_ok() {
                let coarse = Arc::clone(&anchor.coarse);
                s.anchors.push_front(anchor);
                s.count(Event::Hit);
                self.publish(&mut books.totals);
                return (CacheOutcome::Hit, Some(coarse));
            }
            let freed = anchor_cost(&anchor.coarse);
            s.bytes -= freed;
            books.totals.used_bytes -= freed as u64;
            s.count(Event::IntegrityReject);
        }
        s.count(Event::Miss);
        self.publish(&mut books.totals);
        (CacheOutcome::Miss, None)
    }

    /// Anchors `session`'s fresh coarse pass, probed at `pose` and
    /// `tier`, as its most recently used, within both budgets:
    ///
    /// 1. an anchor that alone exceeds the session cap is refused and
    ///    counted as one eviction;
    /// 2. otherwise the session's own LRU tail is evicted until the
    ///    anchor fits its cap;
    /// 3. then the fattest session's tail is evicted until it fits the
    ///    server-wide budget;
    /// 4. if nothing is left to evict and it still does not fit, it is
    ///    refused.
    ///
    /// The anchor of a session already closed is dropped.
    pub(crate) fn anchor(
        &self,
        session: u64,
        pose: Pose,
        tier: ResolutionTier,
        coarse: CoarseFrame,
    ) {
        let cost = anchor_cost(&coarse);
        let mut books = lock(&self.books);
        let books = &mut *books;
        let Some(s) = books.sessions.get_mut(&session) else {
            return;
        };
        if cost > self.cap {
            return s.count(Event::Eviction);
        }
        let totals = &mut books.totals;
        while s.bytes + cost > self.cap {
            totals.used_bytes -= s.evict_tail() as u64;
        }
        while totals.used_bytes + cost as u64 > totals.budget_bytes {
            // Fattest first; ties go to the newest session.
            let victim = books.sessions.iter_mut().filter(|(_, s)| s.bytes > 0);
            let Some((_, victim)) = victim.max_by_key(|(&id, s)| (s.bytes, id)) else {
                totals.refused_inserts += 1;
                return self.publish(totals);
            };
            totals.used_bytes -= victim.evict_tail() as u64;
            totals.evictions += 1;
        }
        let s = books.sessions.get_mut(&session).expect("open above");
        let coarse = Arc::new(coarse);
        s.anchors.push_front(Anchor { pose, tier, coarse });
        s.bytes += cost;
        totals.used_bytes += cost as u64;
        self.publish(totals);
    }

    /// Fault-injection hook for the corruption chaos harness: poisons
    /// the payload of every anchor `session` holds (each behind a fresh
    /// `Arc`, so renders holding the old one are untouched) without
    /// resealing, so the next lookup rejects them.
    pub(crate) fn corrupt_for_chaos(&self, session: u64, seed: u64) {
        if let Some(s) = lock(&self.books).sessions.get_mut(&session) {
            for (k, anchor) in s.anchors.iter_mut().enumerate() {
                let mut frame = (*anchor.coarse).clone();
                frame.corrupt_for_chaos(seed.wrapping_add(k as u64));
                anchor.coarse = Arc::new(frame);
            }
        }
    }

    /// Whether usage has crossed the pressure watermark (admission
    /// sheds BestEffort while this holds).
    pub(crate) fn under_pressure(&self) -> bool {
        self.used.load(Ordering::Relaxed) >= self.pressure_at
    }

    pub(crate) fn stats(&self) -> GovernorStats {
        lock(&self.books).totals
    }

    /// `session`'s counters.
    ///
    /// # Panics
    ///
    /// Panics (outside the lock) if `session` is not open.
    pub(crate) fn cache_stats(&self, session: u64) -> CacheStats {
        let stats = lock(&self.books).sessions.get(&session).map(|s| s.stats);
        stats.expect("unknown session")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::session::CoherenceConfig;
    use gen_nerf::config::SamplingStrategy;
    use gen_nerf_geometry::{Intrinsics, Vec3};

    /// Cache counters of a fresh server instance.
    fn test_meters() -> CacheMeters {
        let instance = gen_nerf_telemetry::next_instance_id().to_string();
        CACHE_EVENTS.map(|event| {
            let labels = [("instance", instance.as_str()), ("outcome", event)];
            gen_nerf_telemetry::counter("serve_cache_events_total", &labels)
        })
    }

    /// The coarse passes of `shots` (a pose and a square frame size
    /// each), exported from a tiny coarse-then-focus render.
    pub(crate) fn exports(shots: &[(Pose, u32)]) -> Vec<CoarseFrame> {
        let ds = gen_nerf_scene::Dataset::build(
            gen_nerf_scene::DatasetKind::DeepVoxels,
            "cube",
            0.05,
            3,
            1,
            8,
            3,
        );
        let model = gen_nerf::model::GenNerfModel::new(gen_nerf::config::ModelConfig::fast());
        let sources = gen_nerf::features::prepare_sources(&ds.source_views);
        let renderer = gen_nerf::pipeline::Renderer::new(
            &model,
            &sources,
            SamplingStrategy::coarse_then_focus(4, 4),
            ds.scene.bounds,
            ds.scene.background,
        );
        shots
            .iter()
            .map(|&(pose, size)| {
                let intrinsics = Intrinsics::from_fov(size, size, 0.6);
                let cam = gen_nerf_geometry::Camera::new(intrinsics, pose);
                let mut images = [gen_nerf_scene::Image::new(0, 0)];
                let mut stats = [gen_nerf::pipeline::RenderStats::default()];
                let fresh = renderer
                    .render_frames(std::slice::from_ref(&cam), &[None], &mut images, &mut stats)
                    .expect("integrity checking is off");
                fresh.into_iter().next().unwrap().unwrap()
            })
            .collect()
    }

    /// An anchor cache capping each session at `cap` bytes, with nothing
    /// reserved and session 0 open on the 8×8 coarse-then-focus
    /// configuration `exports` renders.
    pub(crate) fn session_cache(cap: usize) -> AnchorCache {
        let cache = AnchorCache::new(&GovernorConfig::default(), 0, cap);
        let cfg = SessionConfig::new(
            Intrinsics::from_fov(8, 8, 0.6),
            SamplingStrategy::coarse_then_focus(4, 4),
        )
        .with_coherence(CoherenceConfig::within(0.01, 0.01));
        cache.open(0, cfg, test_meters());
        cache
    }

    #[test]
    fn config_defaults_and_builders() {
        let cfg = GovernorConfig {
            budget_bytes: 1 << 20,
        };
        assert_eq!(cfg.budget_bytes, 1 << 20);
        // The config stores what it is given; the cache clamps at the
        // read.
        let zero = GovernorConfig { budget_bytes: 0 };
        assert_eq!(zero.budget_bytes, 0);
        let cache = AnchorCache::new(&zero, 0, DEFAULT_CACHE_BUDGET_BYTES);
        assert_eq!(cache.stats().budget_bytes, 1);
    }

    #[test]
    fn charge_discharge_and_peak() {
        let pose = Pose::look_at(Vec3::new(3.0, 0.5, 3.0), Vec3::ZERO, Vec3::Y);
        let Ok([small, large]) = <[CoarseFrame; 2]>::try_from(exports(&[(pose, 8), (pose, 16)]))
        else {
            unreachable!("two shots, two exports")
        };
        let cost = anchor_cost(&small) as u64;
        let reserved = 100;
        let budget = reserved + 2 * cost;
        assert!(reserved + anchor_cost(&large) as u64 > budget);
        let cfg = GovernorConfig {
            budget_bytes: budget,
        };
        let cache = AnchorCache::new(&cfg, reserved, DEFAULT_CACHE_BUDGET_BYTES);
        let meters = test_meters();
        let session_cfg = SessionConfig::new(
            Intrinsics::from_fov(8, 8, 0.6),
            SamplingStrategy::Uniform { n: 4 },
        );
        let (session, other) = (1, 2);
        cache.open(session, session_cfg, meters);
        let full = ResolutionTier::Full;
        // Nothing evictable anywhere and no room: refused.
        cache.anchor(session, pose, full, large);
        let s = cache.stats();
        assert_eq!(
            (s.used_bytes, s.refused_inserts, s.evictions),
            (reserved, 1, 0)
        );
        // Two anchors fill the budget exactly.
        cache.anchor(session, pose, full, small.clone());
        cache.anchor(session, pose, full, small.clone());
        let s = cache.stats();
        assert_eq!((s.used_bytes, s.peak_bytes), (budget, budget));
        assert_eq!((s.refused_inserts, s.evictions), (1, 0));
        // Closing the session gives its bytes back; another one anchors.
        cache.close(session);
        assert_eq!(cache.stats().used_bytes, reserved);
        cache.open(other, session_cfg, meters);
        cache.anchor(other, pose, full, small);
        let s = cache.stats();
        assert_eq!(s.used_bytes, reserved + cost);
        assert_eq!(s.peak_bytes, budget, "peak is a high-water mark");
        // Peak never exceeded the budget at any point.
        assert!(s.peak_bytes <= s.budget_bytes);
    }

    #[test]
    fn pressure_watermark() {
        let cfg = GovernorConfig { budget_bytes: 1000 };
        let cap = DEFAULT_CACHE_BUDGET_BYTES;
        assert!(!AnchorCache::new(&cfg, 0, cap).under_pressure());
        assert!(!AnchorCache::new(&cfg, 849, cap).under_pressure());
        let cache = AnchorCache::new(&cfg, 850, cap);
        assert!(cache.under_pressure());
    }
}
