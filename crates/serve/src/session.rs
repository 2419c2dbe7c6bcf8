//! Sessions: per-scene cached state, per-session render configuration
//! and the temporal-coherence policy. The anchors that policy retains
//! live in the server's one [`cache`](crate::cache).

use crate::shard::ShardCtx;
use crate::supervisor::CircuitBreaker;
use gen_nerf::config::SamplingStrategy;
use gen_nerf::features::{prepare_sources, SourceViewData};
use gen_nerf::model::GenNerfModel;
use gen_nerf_geometry::{Aabb, Intrinsics, Mat3, Pose, Vec3};
use gen_nerf_scene::View;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Everything about one captured scene that is pose-independent, built
/// **once** and shared (via `Arc`) by every session viewing the scene
/// and every frame in flight: the pretrained model (inference is
/// `&self`/`Sync`), the encoded source-feature pyramids (the Step 0
/// cost [`prepare_sources`] pays) and the scene bounds/background.
///
/// Sessions that share a `SceneState` (by `Arc` identity) are eligible
/// for cross-session admission batching: their frames can ride the
/// same fused GEMM chunks.
pub struct SceneState {
    /// The pretrained generalizable model.
    pub model: GenNerfModel,
    /// Render-ready source views (camera + image + encoded features).
    pub sources: Vec<SourceViewData>,
    /// Scene bounds every camera ray is clipped against.
    pub bounds: Aabb,
    /// Background color for rays that miss or never saturate.
    pub background: Vec3,
}

impl SceneState {
    /// Encodes `views` into render-ready sources and bundles the
    /// per-scene state — the one-time cost the server amortizes over
    /// every subsequent frame of every session.
    pub fn prepare(model: GenNerfModel, views: &[View], bounds: Aabb, background: Vec3) -> Self {
        Self {
            model,
            sources: prepare_sources(views),
            bounds,
            background,
        }
    }
}

/// Identifies a session created by
/// [`RenderServer::create_session`](crate::RenderServer::create_session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub(crate) u64);

/// Output resolution of one frame request, as a divisor of the
/// session's base intrinsics — the knob a serving deadline trades
/// against. The coarse cache is keyed per tier, so alternating tiers
/// never mixes coarse passes of different ray grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResolutionTier {
    /// The session's native resolution.
    #[default]
    Full,
    /// Both dimensions halved.
    Half,
    /// Both dimensions quartered.
    Quarter,
}

impl ResolutionTier {
    /// The per-axis divisor.
    pub fn divisor(self) -> u32 {
        match self {
            ResolutionTier::Full => 1,
            ResolutionTier::Half => 2,
            ResolutionTier::Quarter => 4,
        }
    }

    /// Scales `base` intrinsics down to this tier (focal length and
    /// principal point shrink with the pixel grid; dimensions floor at
    /// one pixel).
    pub fn apply(self, base: Intrinsics) -> Intrinsics {
        let d = self.divisor();
        let s = d as f32;
        Intrinsics {
            fx: base.fx / s,
            fy: base.fy / s,
            cx: base.cx / s,
            cy: base.cy / s,
            width: (base.width / d).max(1),
            height: (base.height / d).max(1),
        }
    }
}

/// How urgently a frame is needed. The scheduler admits
/// `Interactive` frames ahead of `BestEffort` ones when both are
/// queued (submission order is kept within a class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DeadlineClass {
    /// A head-pose frame someone is waiting on.
    #[default]
    Interactive,
    /// Prefetch/preview work that may yield to interactive frames.
    BestEffort,
}

/// The temporal-coherence policy of one session: when a requested pose
/// is within `max_translation` (world units) **and** `max_rotation`
/// (radians) of a pose whose coarse pass is cached, coarse-then-focus
/// Step ① is reused and only the focus pass runs.
///
/// Cached poses are *anchors*: a hit never re-probes, so drift along a
/// walkthrough is bounded by the deltas themselves rather than
/// accumulating step by step. A session retains **multiple** anchors
/// (a revisited pose hits again without re-probing), LRU-ordered and
/// capped at 8 MiB per session; a miss re-probes and pushes a fresh
/// anchor, evicting the oldest anchors past the cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoherenceConfig {
    /// Master switch; `false` (the default) means every frame re-runs
    /// the coarse pass and serving is bitwise-identical to direct
    /// rendering.
    pub enabled: bool,
    /// Maximum camera-center distance to the anchor pose.
    pub max_translation: f32,
    /// Maximum rotation angle (radians) to the anchor pose.
    pub max_rotation: f32,
}

impl CoherenceConfig {
    /// Cache off: every frame is exact. This is the default.
    pub fn exact() -> Self {
        Self {
            enabled: false,
            max_translation: 0.0,
            max_rotation: 0.0,
        }
    }

    /// Cache on with the given pose deltas.
    pub fn within(max_translation: f32, max_rotation: f32) -> Self {
        Self {
            enabled: true,
            max_translation,
            max_rotation,
        }
    }
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        Self::exact()
    }
}

/// The rotation angle (radians) between two rotation matrices, from
/// `cos θ = (trace(R₁ᵀ R₂) − 1) / 2`.
fn rotation_angle(a: &Mat3, b: &Mat3) -> f32 {
    // trace(R₁ᵀ R₂) is the Frobenius inner product ⟨R₁, R₂⟩.
    let trace = a.row(0).dot(b.row(0)) + a.row(1).dot(b.row(1)) + a.row(2).dot(b.row(2));
    ((trace - 1.0) / 2.0).clamp(-1.0, 1.0).acos()
}

/// Whether `pose` is close enough to `anchor` for the cached coarse
/// pass of `anchor` to stand in for a fresh probing.
pub(crate) fn poses_coherent(anchor: &Pose, pose: &Pose, cfg: &CoherenceConfig) -> bool {
    cfg.enabled
        && (anchor.origin - pose.origin).length() <= cfg.max_translation
        && rotation_angle(&anchor.rotation, &pose.rotation) <= cfg.max_rotation
}

/// Per-session render configuration.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Base (tier `Full`) camera intrinsics of this session's frames.
    pub intrinsics: Intrinsics,
    /// Sampling strategy. Only `CoarseThenFocus` has a coarse pass the
    /// coherence cache can reuse; other strategies always render
    /// exactly.
    pub strategy: SamplingStrategy,
    /// Temporal-coherence policy (default: [`CoherenceConfig::exact`]).
    pub coherence: CoherenceConfig,
}

impl SessionConfig {
    /// A session rendering `strategy` at `intrinsics`, cache off.
    pub fn new(intrinsics: Intrinsics, strategy: SamplingStrategy) -> Self {
        Self {
            intrinsics,
            strategy,
            coherence: CoherenceConfig::exact(),
        }
    }

    /// Sets the temporal-coherence policy.
    pub fn with_coherence(mut self, coherence: CoherenceConfig) -> Self {
        self.coherence = coherence;
        self
    }

    /// Whether the coherence cache applies: coherence on, and a
    /// strategy with a coarse pass to reuse.
    pub(crate) fn caches(&self) -> bool {
        self.coherence.enabled && matches!(self.strategy, SamplingStrategy::CoarseThenFocus { .. })
    }
}

/// One live session: scene handle, configuration, shard and breaker.
/// Its anchors and cache counters live in the server's
/// [`AnchorCache`](crate::cache::AnchorCache), and its frames in its
/// shard's queue and running list.
pub(crate) struct SessionState {
    pub scene: Arc<SceneState>,
    pub cfg: SessionConfig,
    /// The shard serving this session's scene. Held here so a
    /// submission reaches its queue without the topology lock (which
    /// the health sweep holds while it condemns and spawns threads).
    pub shard: Arc<ShardCtx>,
    /// The scene's circuit breaker — shared (by `Arc`) with every
    /// other session viewing the same `SceneState`, so one session's
    /// failures protect the fleet from the sick scene, not just that
    /// session.
    pub breaker: Arc<CircuitBreaker>,
    /// Latched by `remove_session`: frames still queued end as
    /// "session removed" instead of rendering.
    removed: AtomicBool,
}

impl SessionState {
    pub(crate) fn new(
        scene: Arc<SceneState>,
        cfg: SessionConfig,
        shard: Arc<ShardCtx>,
        breaker: Arc<CircuitBreaker>,
    ) -> Self {
        Self {
            scene,
            cfg,
            shard,
            breaker,
            removed: AtomicBool::new(false),
        }
    }

    /// Marks the session removed (its queued frames will not render).
    pub(crate) fn mark_removed(&self) {
        self.removed.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_removed(&self) -> bool {
        self.removed.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::{exports, session_cache};
    use crate::cache::{anchor_cost, AnchorCache, CacheStats};
    use gen_nerf::pipeline::CoarseFrame;

    #[test]
    fn tier_divides_intrinsics() {
        let base = Intrinsics::from_fov(64, 48, 0.6);
        let half = ResolutionTier::Half.apply(base);
        assert_eq!((half.width, half.height), (32, 24));
        assert!((half.fx - base.fx / 2.0).abs() < 1e-6);
        assert!((half.cy - base.cy / 2.0).abs() < 1e-6);
        let q = ResolutionTier::Quarter.apply(Intrinsics::from_fov(2, 2, 0.6));
        assert_eq!((q.width, q.height), (1, 1), "floors at one pixel");
    }

    #[test]
    fn coherence_translation_and_rotation_bounds() {
        let cfg = CoherenceConfig::within(0.1, 0.05);
        let anchor = Pose::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        assert!(poses_coherent(&anchor, &anchor, &cfg), "identical pose");
        let near = Pose {
            origin: anchor.origin + Vec3::new(0.05, 0.0, 0.0),
            ..anchor
        };
        assert!(poses_coherent(&anchor, &near, &cfg));
        let far = Pose {
            origin: anchor.origin + Vec3::new(0.5, 0.0, 0.0),
            ..anchor
        };
        assert!(!poses_coherent(&anchor, &far, &cfg));
        // A rotation beyond the bound, translation unchanged.
        let twisted = Pose {
            rotation: Mat3::rotation_y(0.2) * anchor.rotation,
            ..anchor
        };
        assert!(!poses_coherent(&anchor, &twisted, &cfg));
        let slightly = Pose {
            rotation: Mat3::rotation_y(0.01) * anchor.rotation,
            ..anchor
        };
        assert!(poses_coherent(&anchor, &slightly, &cfg));
    }

    #[test]
    fn exact_mode_never_coherent() {
        let cfg = CoherenceConfig::exact();
        let pose = Pose::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        assert!(!poses_coherent(&pose, &pose, &cfg));
    }

    #[test]
    fn rotation_angle_matches_construction() {
        for angle in [0.0f32, 0.1, 0.7, 1.5] {
            let a = Mat3::IDENTITY;
            let b = Mat3::rotation_z(angle);
            assert!(
                (rotation_angle(&a, &b) - angle).abs() < 1e-3,
                "angle {angle}"
            );
        }
    }

    #[test]
    fn cache_stats_hit_rate() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            bypasses: 10,
            evictions: 2,
            integrity_rejects: 0,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn coarse_cache_budget_evicts_lru_tail() {
        use crate::server::CacheOutcome::{Hit, Miss};
        let pose =
            |k: usize| Pose::look_at(Vec3::new(3.0 + k as f32, 0.5, 3.0), Vec3::ZERO, Vec3::Y);
        let (pose0, pose1, pose2) = (pose(0), pose(1), pose(2));
        let shots = [(pose0, 8), (pose1, 8), (pose2, 8), (pose2, 16)];
        let Ok([coarse0, coarse1, coarse2, large]) = <[CoarseFrame; 4]>::try_from(exports(&shots))
        else {
            unreachable!("four shots, four exports")
        };
        let cost = |coarse: &CoarseFrame| anchor_cost(coarse) as u64;
        let (cost0, cost1, cost2) = (cost(&coarse0), cost(&coarse1), cost(&coarse2));
        let budget = anchor_cost(&coarse0) * 2; // room for two anchors
        let cache = session_cache(budget);
        let evictions = |cache: &AnchorCache| cache.cache_stats(0).evictions;
        let held = |cache: &AnchorCache| cache.stats().used_bytes;
        let full = ResolutionTier::Full;
        cache.anchor(0, pose0, full, coarse0.clone());
        cache.anchor(0, pose1, full, coarse1.clone());
        assert_eq!(evictions(&cache), 0);
        assert_eq!(held(&cache), cost0 + cost1, "both anchors held");
        // A hit on the older anchor promotes it.
        assert_eq!(cache.lookup(0, full, &pose0).0, Hit);
        // Tier mismatch and incoherent poses miss.
        assert_eq!(cache.lookup(0, ResolutionTier::Half, &pose0).0, Miss);
        assert_eq!(cache.lookup(0, full, &pose2).0, Miss);
        // Third insert blows the budget: the LRU tail (pose1, demoted
        // by pose0's promotion) is evicted.
        cache.anchor(0, pose2, full, coarse2);
        assert_eq!(evictions(&cache), 1);
        assert_eq!(held(&cache), cost0 + cost2, "pose0 and pose2 held");
        assert!(held(&cache) <= budget as u64);
        assert_eq!(cache.lookup(0, full, &pose1).0, Miss);
        assert_eq!(cache.lookup(0, full, &pose0).0, Hit);
        // A zero budget retains nothing — even the fresh insert is
        // evicted and counted.
        let empty = session_cache(0);
        empty.anchor(0, pose0, full, coarse0.clone());
        assert_eq!(evictions(&empty), 1);
        assert_eq!(held(&empty), 0);

        // An entry that alone exceeds the budget is refused without
        // touching the retained anchors: no cache wipe, no evict loop.
        let keep = session_cache(budget);
        keep.anchor(0, pose0, full, coarse0);
        keep.anchor(0, pose1, full, coarse1);
        assert_eq!(evictions(&keep), 0);
        let bytes_before = held(&keep);
        // A much larger frame than the session budget holds — as a
        // tier change to a much larger frame would be.
        assert!(anchor_cost(&large) > budget);
        keep.anchor(0, pose2, full, large);
        assert_eq!(evictions(&keep), 1);
        assert_eq!(held(&keep), bytes_before, "retained anchors survived");
        assert_eq!(keep.lookup(0, full, &pose0).0, Hit);
        assert_eq!(keep.lookup(0, full, &pose1).0, Hit);
        assert_eq!(keep.lookup(0, full, &pose2).0, Miss);
    }

    #[test]
    fn eviction_count_is_monotone_across_anchor_churn() {
        // The per-session eviction counter only ever accumulates: churn
        // through a one-anchor budget and through refused oversized
        // inserts, checking the running total never decreases and ends
        // at the exact number of discarded anchors.
        let pose = Pose::look_at(Vec3::new(3.0, 0.5, 3.0), Vec3::ZERO, Vec3::Y);
        let Ok([coarse, large]) = <[CoarseFrame; 2]>::try_from(exports(&[(pose, 8), (pose, 16)]))
        else {
            unreachable!("two shots, two exports")
        };
        let entry_cost = anchor_cost(&coarse);
        assert!(anchor_cost(&large) > entry_cost);
        let cache = session_cache(entry_cost);
        let mut last = 0u64;
        for round in 0..6 {
            // Alternate: a fitting insert into a one-anchor budget
            // (evicts the previous anchor from round 1 on), then a
            // refused oversized insert (counts one, changes nothing).
            for coarse in [&coarse, &large] {
                cache.anchor(0, pose, ResolutionTier::Full, coarse.clone());
                let total = cache.cache_stats(0).evictions;
                assert!(total >= last, "counter regressed at round {round}");
                last = total;
            }
            let held = cache.stats().used_bytes;
            assert_eq!(
                held, entry_cost as u64,
                "one-anchor budget holds one anchor"
            );
        }
        // 6 fitting inserts (5 evict a predecessor) + 6 refusals.
        assert_eq!(last, 5 + 6);
    }
}
