//! The scene registry: maps scene identity to the shard that owns it.
//!
//! Sharding is **per scene**: all sessions viewing one
//! [`SceneState`](crate::SceneState) (by `Arc` identity) route to one
//! shard, which owns their queue and their coherence caches'
//! scheduling; every shard renders on the server's one crew. Scheduling
//! work therefore never serializes across scenes — and because cross-scene
//! frames were never batchable anyway (admission batching requires a
//! shared scene), splitting them loses nothing.
//!
//! Shards are spun up lazily, one per newly registered scene, up to
//! [`ServerConfig::max_shards`](crate::ServerConfig::max_shards);
//! further scenes share shards round-robin (a shard can serve several
//! scenes — frames of different scenes simply never co-batch). The
//! registry entry also holds the scene's circuit breaker, shared by
//! every session viewing it: scene health is a property of the scene,
//! not of any one viewer.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use crate::session::SceneState;
use crate::supervisor::{BreakerConfig, CircuitBreaker};

/// Identifies one shard of a [`RenderServer`](crate::RenderServer)
/// (dense indices, assigned in scene-registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardId(pub(crate) usize);

impl ShardId {
    /// The raw shard index (stable for the lifetime of the server).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Scene → (shard, breaker). Keys are `Arc` pointer identities, backed
/// by a `Weak` so a recycled allocation address of a dropped scene is
/// never mistaken for the scene that used to live there (nor inherits
/// its trip history).
pub(crate) struct SceneRegistry {
    max_shards: usize,
    breaker: BreakerConfig,
    /// Scene pointer → (liveness witness, shard index, breaker).
    by_scene: HashMap<usize, (Weak<SceneState>, usize, Arc<CircuitBreaker>)>,
    /// Shards spawned so far (≤ `max_shards`).
    spawned: usize,
    /// Next shard for scenes past `max_shards` (round-robin).
    next_shared: usize,
}

/// What [`SceneRegistry::assign`] resolved: an existing shard or an
/// instruction to spawn the shard at the returned index first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Assignment {
    Existing(usize),
    SpawnNew(usize),
}

impl Assignment {
    pub(crate) fn index(self) -> usize {
        match self {
            Assignment::Existing(i) | Assignment::SpawnNew(i) => i,
        }
    }
}

impl SceneRegistry {
    pub(crate) fn new(max_shards: usize, breaker: BreakerConfig) -> Self {
        Self {
            max_shards: max_shards.max(1),
            breaker,
            by_scene: HashMap::new(),
            spawned: 0,
            next_shared: 0,
        }
    }

    /// Resolves the shard owning `scene` and its breaker, assigning
    /// both if the scene is new: a fresh shard while fewer than
    /// `max_shards` exist, round-robin over existing shards after that,
    /// and a closed breaker.
    pub(crate) fn assign(&mut self, scene: &Arc<SceneState>) -> (Assignment, Arc<CircuitBreaker>) {
        let key = Arc::as_ptr(scene) as usize;
        if let Some((witness, shard, breaker)) = self.by_scene.get(&key) {
            // The address may have been recycled by a new scene after
            // the old one was dropped; only a live witness pinning the
            // *same* allocation proves it is the same scene.
            if witness
                .upgrade()
                .is_some_and(|live| Arc::ptr_eq(&live, scene))
            {
                return (Assignment::Existing(*shard), Arc::clone(breaker));
            }
        }
        let assignment = if self.spawned < self.max_shards {
            let idx = self.spawned;
            self.spawned += 1;
            Assignment::SpawnNew(idx)
        } else {
            let idx = self.next_shared;
            self.next_shared = (self.next_shared + 1) % self.max_shards;
            Assignment::Existing(idx)
        };
        let breaker = Arc::new(CircuitBreaker::new(self.breaker));
        let witness = Arc::downgrade(scene);
        self.by_scene
            .insert(key, (witness, assignment.index(), Arc::clone(&breaker)));
        (assignment, breaker)
    }

    /// Shards spawned so far.
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.spawned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_nerf::config::ModelConfig;
    use gen_nerf::model::GenNerfModel;
    use gen_nerf_geometry::{Aabb, Vec3};

    fn scene() -> Arc<SceneState> {
        Arc::new(SceneState::prepare(
            GenNerfModel::new(ModelConfig::fast()),
            &[],
            Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)),
            Vec3::ZERO,
        ))
    }

    #[test]
    fn one_shard_per_scene_up_to_cap() {
        let mut reg = SceneRegistry::new(2, BreakerConfig::default());
        let (a, b, c) = (scene(), scene(), scene());
        let (first_a, breaker_a) = reg.assign(&a);
        assert_eq!(first_a, Assignment::SpawnNew(0));
        assert_eq!(reg.assign(&b).0, Assignment::SpawnNew(1));
        // Registered scenes stick to their shard and their breaker.
        let (again_a, same_breaker) = reg.assign(&a);
        assert_eq!(again_a, Assignment::Existing(0));
        assert!(Arc::ptr_eq(&breaker_a, &same_breaker));
        // Past the cap: shared round-robin, no new spawn — but a
        // breaker of its own.
        let (first_c, breaker_c) = reg.assign(&c);
        assert_eq!(first_c, Assignment::Existing(0));
        assert!(!Arc::ptr_eq(&breaker_a, &breaker_c));
        assert_eq!(reg.shard_count(), 2);
        // Still sticky after sharing.
        assert_eq!(reg.assign(&c).0, Assignment::Existing(0));
    }

    #[test]
    fn recycled_scene_address_is_not_resurrected() {
        let mut reg = SceneRegistry::new(4, BreakerConfig::default());
        let a = scene();
        let key = Arc::as_ptr(&a) as usize;
        let (first, dead_breaker) = reg.assign(&a);
        assert_eq!(first, Assignment::SpawnNew(0));
        drop(a);
        // Forge a scene at the same address (simulating allocator
        // reuse): the dead witness must force a fresh assignment and a
        // fresh breaker.
        let b = scene();
        reg.by_scene
            .insert(Arc::as_ptr(&b) as usize, reg.by_scene[&key].clone());
        let (fresh, breaker) = reg.assign(&b);
        assert_eq!(fresh, Assignment::SpawnNew(1));
        assert!(!Arc::ptr_eq(&breaker, &dead_breaker));
    }
}
