//! Occupancy-grid sampling — the per-scene sparsity baseline the paper
//! argues *cannot* generalize (Sec. 1, Sec. 2.4).
//!
//! SOTA sparsity-exploitation techniques for per-scene NeRFs
//! (Instant-NGP/TensoRF-style occupancy grids) skip samples in voxels
//! known to be empty. That knowledge comes from the scene the grid was
//! built on; for a *new* scene the spatial distribution is unknown, so
//! a stale grid skips exactly the wrong regions. This module implements
//! the baseline so the claim is testable: build an [`OccupancyGrid`]
//! from one scene, sample through it on another, and watch quality
//! collapse — while coarse-then-focus sampling, which estimates the
//! distribution *at run time*, does not.

use gen_nerf_geometry::{Aabb, Vec3};
use gen_nerf_scene::Scene;
use serde::{Deserialize, Serialize};

/// A binary occupancy grid over a scene's bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OccupancyGrid {
    bounds: Aabb,
    resolution: usize,
    occupied: Vec<bool>,
}

impl OccupancyGrid {
    /// Builds a grid from a scene by probing each voxel center (plus
    /// corners) against the analytic density field — the equivalent of
    /// the per-scene training that grids normally require.
    ///
    /// # Panics
    ///
    /// Panics when `resolution == 0`.
    pub fn build(scene: &Scene, resolution: usize, threshold: f32) -> Self {
        assert!(resolution > 0, "grid needs at least one voxel");
        let bounds = scene.bounds;
        let ext = bounds.extent();
        let n = resolution;
        let mut occupied = vec![false; n * n * n];
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    let base = bounds.min
                        + Vec3::new(
                            ext.x * ix as f32 / n as f32,
                            ext.y * iy as f32 / n as f32,
                            ext.z * iz as f32 / n as f32,
                        );
                    let step = Vec3::new(ext.x, ext.y, ext.z) / n as f32;
                    // Probe center + a 2×2×2 corner stencil.
                    let mut hit = scene.density(base + step * 0.5) > threshold;
                    if !hit {
                        'probe: for dz in [0.15f32, 0.85] {
                            for dy in [0.15f32, 0.85] {
                                for dx in [0.15f32, 0.85] {
                                    let p = base + step.mul_elem(Vec3::new(dx, dy, dz));
                                    if scene.density(p) > threshold {
                                        hit = true;
                                        break 'probe;
                                    }
                                }
                            }
                        }
                    }
                    occupied[(iz * n + iy) * n + ix] = hit;
                }
            }
        }
        Self {
            bounds,
            resolution,
            occupied,
        }
    }

    /// Grid resolution per axis.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Fraction of occupied voxels.
    pub fn occupancy(&self) -> f32 {
        self.occupied.iter().filter(|&&o| o).count() as f32 / self.occupied.len() as f32
    }

    /// Whether the voxel containing `p` is occupied (false outside the
    /// grid bounds).
    pub(crate) fn is_occupied(&self, p: Vec3) -> bool {
        if !self.bounds.contains(p) {
            return false;
        }
        let ext = self.bounds.extent();
        let n = self.resolution;
        let idx =
            |v: f32, lo: f32, e: f32| -> usize { (((v - lo) / e * n as f32) as usize).min(n - 1) };
        let ix = idx(p.x, self.bounds.min.x, ext.x);
        let iy = idx(p.y, self.bounds.min.y, ext.y);
        let iz = idx(p.z, self.bounds.min.z, ext.z);
        self.occupied[(iz * n + iy) * n + ix]
    }

    /// Fraction of another scene's occupied volume this grid would
    /// *skip* (probe-based estimate) — the cross-scene mismatch the
    /// paper's argument rests on.
    pub fn miss_rate_on(&self, other: &Scene, probes: usize, threshold: f32) -> f32 {
        let ext = other.bounds.extent();
        let n = probes;
        let mut occupied_probes = 0u32;
        let mut missed = 0u32;
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    let p = other.bounds.min
                        + Vec3::new(
                            ext.x * (ix as f32 + 0.5) / n as f32,
                            ext.y * (iy as f32 + 0.5) / n as f32,
                            ext.z * (iz as f32 + 0.5) / n as f32,
                        );
                    if other.density(p) > threshold {
                        occupied_probes += 1;
                        if !self.is_occupied(p) {
                            missed += 1;
                        }
                    }
                }
            }
        }
        if occupied_probes == 0 {
            0.0
        } else {
            missed as f32 / occupied_probes as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_nerf_scene::datasets::scene_for;
    use gen_nerf_scene::DatasetKind;

    fn scene(name: &str) -> Scene {
        scene_for(DatasetKind::NerfSynthetic, name, 7)
    }

    #[test]
    fn grid_matches_own_scene() {
        let s = scene("lego");
        let grid = OccupancyGrid::build(&s, 24, 0.5);
        // On its own scene the grid misses almost nothing.
        let miss = grid.miss_rate_on(&s, 20, 0.5);
        assert!(miss < 0.05, "self miss rate {miss}");
        assert!(grid.occupancy() > 0.0 && grid.occupancy() < 1.0);
    }

    #[test]
    fn grid_fails_on_different_scene() {
        // The paper's argument (Sec. 2.4): a grid built for one scene
        // skips occupied space of another.
        let trained_on = scene("lego");
        let new_scene = scene("mic");
        let grid = OccupancyGrid::build(&trained_on, 24, 0.5);
        let self_miss = grid.miss_rate_on(&trained_on, 20, 0.5);
        let cross_miss = grid.miss_rate_on(&new_scene, 20, 0.5);
        assert!(
            cross_miss > self_miss + 0.1,
            "no cross-scene failure: self {self_miss} vs cross {cross_miss}"
        );
        assert!(cross_miss > 0.2, "cross-scene miss rate only {cross_miss}");
    }

    #[test]
    fn outside_points_unoccupied() {
        let s = scene("lego");
        let grid = OccupancyGrid::build(&s, 8, 0.5);
        assert!(!grid.is_occupied(Vec3::new(500.0, 0.0, 0.0)));
    }

    #[test]
    #[should_panic(expected = "at least one voxel")]
    fn zero_resolution_rejected() {
        let s = scene("lego");
        let _ = OccupancyGrid::build(&s, 0, 0.5);
    }
}
