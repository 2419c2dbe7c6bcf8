//! Dataset analogs for the paper's three evaluation suites.
//!
//! | Paper dataset | Analog here | Base resolution | Camera rig |
//! |---------------|-------------|-----------------|------------|
//! | LLFF (fern, fortress, horns, trex, …) | forward-facing scenes on a ground slab | 1008×756 | camera grid facing the scene |
//! | NeRF-Synthetic (chair, lego, ship, …) | 360° objects around the origin | 800×800 | upper-hemisphere orbit |
//! | DeepVoxels (cube, vase, pedestal, chair) | simple Lambertian-ish objects | 512×512 | circular orbit |
//!
//! Scene content is procedurally generated per scene name (seeded by the
//! name, so "fern" is always the same scene), with hand-shaped
//! archetypes for the four LLFF scenes the paper's Tabs. 2–3 report.

use crate::field::{Primitive, Scene};
use crate::image::Image;
use crate::renderer;
use gen_nerf_geometry::{Aabb, Camera, Intrinsics, Pose, Vec3};
use serde::{Deserialize, Serialize};

/// Which evaluation suite a dataset mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Forward-facing real scenes (LLFF, 1008×756).
    Llff,
    /// 360° synthetic objects (NeRF-Synthetic, 800×800).
    NerfSynthetic,
    /// Lambertian objects (DeepVoxels, 512×512).
    DeepVoxels,
}

impl DatasetKind {
    /// All kinds, in the order the paper's figures list them.
    pub fn all() -> [DatasetKind; 3] {
        [
            DatasetKind::DeepVoxels,
            DatasetKind::NerfSynthetic,
            DatasetKind::Llff,
        ]
    }

    /// The paper's evaluation resolution for this suite.
    pub fn base_resolution(self) -> (u32, u32) {
        match self {
            DatasetKind::Llff => (1008, 756),
            DatasetKind::NerfSynthetic => (800, 800),
            DatasetKind::DeepVoxels => (512, 512),
        }
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Llff => "LLFF",
            DatasetKind::NerfSynthetic => "NeRF Syn",
            DatasetKind::DeepVoxels => "DeepVoxels",
        }
    }

    /// The scene names the paper evaluates for this suite.
    pub fn scene_names(self) -> &'static [&'static str] {
        match self {
            DatasetKind::Llff => &[
                "fern", "fortress", "horns", "trex", "flower", "leaves", "orchids", "room",
            ],
            DatasetKind::NerfSynthetic => &[
                "chair",
                "drums",
                "ficus",
                "hotdog",
                "lego",
                "materials",
                "mic",
                "ship",
            ],
            DatasetKind::DeepVoxels => &["cube", "vase", "pedestal", "chair"],
        }
    }
}

/// A posed image.
#[derive(Debug, Clone)]
pub struct View {
    /// Camera that produced the image.
    pub camera: Camera,
    /// Rendered (ground-truth) image.
    pub image: Image,
}

/// A generated dataset: scene, source views and held-out eval views.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset family.
    pub kind: DatasetKind,
    /// Scene name.
    pub name: String,
    /// The analytic ground-truth scene.
    pub scene: Scene,
    /// Views the generalizable NeRF conditions on.
    pub source_views: Vec<View>,
    /// Held-out views used for PSNR evaluation.
    pub eval_views: Vec<View>,
}

impl Dataset {
    /// Builds a dataset.
    ///
    /// * `res_scale` — multiplier on the suite's base resolution (1.0
    ///   reproduces the paper's resolution; tests use ≤0.125),
    /// * `n_source` — number of source views,
    /// * `n_eval` — number of held-out eval views,
    /// * `gt_samples` — ground-truth samples per ray when rendering,
    /// * `seed` — procedural-content seed mixed with the scene name.
    ///
    /// # Panics
    ///
    /// Panics when `res_scale` is not positive or `n_source == 0`.
    pub fn build(
        kind: DatasetKind,
        name: &str,
        res_scale: f32,
        n_source: usize,
        n_eval: usize,
        gt_samples: usize,
        seed: u64,
    ) -> Self {
        assert!(res_scale > 0.0, "res_scale must be positive");
        assert!(n_source > 0, "need at least one source view");
        let scene = scene_for(kind, name, seed);
        let (bw, bh) = kind.base_resolution();
        let w = ((bw as f32 * res_scale).round() as u32).max(8);
        let h = ((bh as f32 * res_scale).round() as u32).max(8);
        let source_cams = source_cameras(kind, w, h, n_source);
        let eval_cams = eval_cameras(kind, w, h, n_eval);
        let render_view = |camera: Camera| View {
            image: renderer::render(&scene, &camera, gt_samples),
            camera,
        };
        Self {
            kind,
            name: name.to_string(),
            source_views: source_cams.into_iter().map(render_view).collect(),
            eval_views: eval_cams.into_iter().map(render_view).collect(),
            scene,
        }
    }
}

fn fov_for(kind: DatasetKind) -> f32 {
    match kind {
        DatasetKind::Llff => 0.85,
        DatasetKind::NerfSynthetic => 0.69,
        DatasetKind::DeepVoxels => 0.55,
    }
}

fn source_cameras(kind: DatasetKind, w: u32, h: u32, n: usize) -> Vec<Camera> {
    let intr = Intrinsics::from_fov(w, h, fov_for(kind));
    (0..n)
        .map(|i| Camera::new(intr, source_pose(kind, i, n)))
        .collect()
}

fn eval_cameras(kind: DatasetKind, w: u32, h: u32, n: usize) -> Vec<Camera> {
    let intr = Intrinsics::from_fov(w, h, fov_for(kind));
    (0..n)
        .map(|i| Camera::new(intr, eval_pose(kind, i, n)))
        .collect()
}

fn source_pose(kind: DatasetKind, i: usize, n: usize) -> Pose {
    match kind {
        DatasetKind::Llff => {
            // Grid of cameras on the z = 6 plane, jittered ±1 in x/y.
            let cols = (n as f32).sqrt().ceil() as usize;
            let row = i / cols;
            let col = i % cols;
            let fx = if cols > 1 {
                col as f32 / (cols - 1) as f32
            } else {
                0.5
            };
            let rows = n.div_ceil(cols);
            let fy = if rows > 1 {
                row as f32 / (rows - 1) as f32
            } else {
                0.5
            };
            let eye = Vec3::new((fx - 0.5) * 2.4, (fy - 0.5) * 1.6, 6.0);
            Pose::look_at(eye, Vec3::new(0.0, 0.0, 0.0), Vec3::Y)
        }
        DatasetKind::NerfSynthetic => {
            // Upper-hemisphere orbit at radius 4.5.
            let phi = i as f32 / n as f32 * std::f32::consts::TAU;
            let elev = 0.35 + 0.25 * ((i % 3) as f32);
            let r = 4.5;
            let eye = Vec3::new(
                r * elev.cos() * phi.cos(),
                r * elev.sin(),
                r * elev.cos() * phi.sin(),
            );
            Pose::look_at(eye, Vec3::ZERO, Vec3::Y)
        }
        DatasetKind::DeepVoxels => {
            // Circular orbit, constant elevation.
            let phi = i as f32 / n as f32 * std::f32::consts::TAU;
            let r = 4.0;
            let eye = Vec3::new(r * phi.cos(), 1.4, r * phi.sin());
            Pose::look_at(eye, Vec3::ZERO, Vec3::Y)
        }
    }
}

fn eval_pose(kind: DatasetKind, i: usize, n: usize) -> Pose {
    // Eval views sit between source views: offset the angular/grid
    // parameterization by half a step.
    match kind {
        DatasetKind::Llff => {
            let f = (i as f32 + 0.5) / n.max(1) as f32;
            let eye = Vec3::new((f - 0.5) * 1.8, 0.3 * (f - 0.5), 6.2);
            Pose::look_at(eye, Vec3::new(0.0, 0.0, 0.0), Vec3::Y)
        }
        DatasetKind::NerfSynthetic => {
            let phi = (i as f32 + 0.5) / n.max(1) as f32 * std::f32::consts::TAU + 0.13;
            let eye = Vec3::new(4.4 * phi.cos(), 1.9, 4.4 * phi.sin());
            Pose::look_at(eye, Vec3::ZERO, Vec3::Y)
        }
        DatasetKind::DeepVoxels => {
            let phi = (i as f32 + 0.7) / n.max(1) as f32 * std::f32::consts::TAU + 0.21;
            let eye = Vec3::new(4.0 * phi.cos(), 1.2, 4.0 * phi.sin());
            Pose::look_at(eye, Vec3::ZERO, Vec3::Y)
        }
    }
}

/// Deterministic hash of a scene name (FNV-1a) mixed with a seed.
fn name_hash(name: &str, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A tiny splitmix64 stream for procedural content (independent of the
/// `rand` crate so `scene` has no RNG dependency).
struct Stream(u64);

impl Stream {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit()
    }

    fn color(&mut self) -> Vec3 {
        Vec3::new(
            self.range(0.15, 0.95),
            self.range(0.15, 0.95),
            self.range(0.15, 0.95),
        )
    }
}

/// Builds the analytic scene for a `(kind, name)` pair.
pub fn scene_for(kind: DatasetKind, name: &str, seed: u64) -> Scene {
    let mut s = Stream(name_hash(name, seed));
    match kind {
        DatasetKind::Llff => llff_scene(name, &mut s),
        DatasetKind::NerfSynthetic => synthetic_scene(name, &mut s),
        DatasetKind::DeepVoxels => deepvoxels_scene(name, &mut s),
    }
}

fn ground_slab(s: &mut Stream) -> Primitive {
    Primitive::Slab {
        y_top: -1.2,
        thickness: 0.4,
        density: 30.0,
        albedo_a: s.color() * 0.5 + Vec3::splat(0.2),
        albedo_b: s.color() * 0.3 + Vec3::splat(0.1),
        checker: 0.8,
    }
}

fn llff_scene(name: &str, s: &mut Stream) -> Scene {
    let mut prims = vec![ground_slab(s)];
    match name {
        "fern" => {
            // A cluster of thin vertical fronds: stacks of small blobs.
            for stem in 0..9 {
                let base = Vec3::new(s.range(-1.6, 1.6), -1.1, s.range(-0.8, 0.8));
                let green = Vec3::new(s.range(0.1, 0.3), s.range(0.5, 0.9), s.range(0.1, 0.3));
                let height = s.range(1.2, 2.2);
                let lean = Vec3::new(s.range(-0.25, 0.25), 0.0, s.range(-0.25, 0.25));
                for k in 0..7 {
                    let f = k as f32 / 6.0;
                    prims.push(Primitive::Blob {
                        center: base + Vec3::new(0.0, height * f, 0.0) + lean * (f * f * 3.0),
                        radius: 0.16 - 0.012 * k as f32,
                        density: 22.0,
                        albedo: green * (0.8 + 0.2 * f),
                    });
                }
                let _ = stem;
            }
        }
        "fortress" => {
            // A box fort on the table.
            prims.push(Primitive::Box {
                bounds: Aabb::new(Vec3::new(-1.3, -1.2, -0.9), Vec3::new(1.3, -0.2, 0.9)),
                density: 45.0,
                albedo: Vec3::new(0.75, 0.68, 0.5),
            });
            for i in 0..4 {
                let x = -1.2 + 0.8 * i as f32;
                prims.push(Primitive::Box {
                    bounds: Aabb::new(Vec3::new(x, -0.2, -0.3), Vec3::new(x + 0.35, 0.5, 0.3)),
                    density: 45.0,
                    albedo: Vec3::new(0.8, 0.72, 0.55),
                });
            }
        }
        "horns" => {
            // Two tapering curved horns.
            for side in [-1.0f32, 1.0] {
                for k in 0..9 {
                    let f = k as f32 / 8.0;
                    prims.push(Primitive::Blob {
                        center: Vec3::new(
                            side * (0.4 + 1.1 * f),
                            -0.7 + 1.5 * f - 0.5 * f * f,
                            0.2 * (1.0 - f),
                        ),
                        radius: 0.28 * (1.0 - 0.75 * f) + 0.04,
                        density: 35.0,
                        albedo: Vec3::new(0.85, 0.82, 0.7) * (1.0 - 0.3 * f),
                    });
                }
            }
        }
        "trex" => {
            // Spine + skull + legs from blobs.
            for k in 0..11 {
                let f = k as f32 / 10.0;
                prims.push(Primitive::Blob {
                    center: Vec3::new(
                        -1.6 + 3.0 * f,
                        -0.3 + 0.7 * (1.0 - (2.0 * f - 1.0).powi(2)),
                        0.0,
                    ),
                    radius: 0.22 - 0.1 * (f - 0.3).abs(),
                    density: 30.0,
                    albedo: Vec3::new(0.55, 0.5, 0.42),
                });
            }
            // Skull.
            prims.push(Primitive::Blob {
                center: Vec3::new(1.55, 0.55, 0.0),
                radius: 0.3,
                density: 35.0,
                albedo: Vec3::new(0.6, 0.56, 0.46),
            });
            for leg in [-0.9f32, 0.2] {
                prims.push(Primitive::Box {
                    bounds: Aabb::new(
                        Vec3::new(leg, -1.2, -0.25),
                        Vec3::new(leg + 0.25, -0.2, 0.05),
                    ),
                    density: 35.0,
                    albedo: Vec3::new(0.5, 0.46, 0.4),
                });
            }
        }
        _ => {
            // Procedural forward-facing clutter.
            let count = 6 + (s.next_u64() % 6) as usize;
            for _ in 0..count {
                prims.push(Primitive::Blob {
                    center: Vec3::new(s.range(-2.0, 2.0), s.range(-1.0, 1.0), s.range(-0.8, 0.8)),
                    radius: s.range(0.15, 0.5),
                    density: s.range(15.0, 40.0),
                    albedo: s.color(),
                });
            }
        }
    }
    Scene::new(prims, Vec3::new(0.55, 0.65, 0.8))
}

fn synthetic_scene(name: &str, s: &mut Stream) -> Scene {
    let mut prims = Vec::new();
    match name {
        "chair" => {
            prims.push(Primitive::Box {
                bounds: Aabb::new(Vec3::new(-0.7, -0.2, -0.7), Vec3::new(0.7, 0.05, 0.7)),
                density: 45.0,
                albedo: Vec3::new(0.6, 0.35, 0.2),
            });
            prims.push(Primitive::Box {
                bounds: Aabb::new(Vec3::new(-0.7, 0.05, 0.45), Vec3::new(0.7, 1.2, 0.7)),
                density: 45.0,
                albedo: Vec3::new(0.65, 0.4, 0.25),
            });
            for (lx, lz) in [(-0.6, -0.6), (0.35, -0.6), (-0.6, 0.35), (0.35, 0.35)] {
                prims.push(Primitive::Box {
                    bounds: Aabb::new(
                        Vec3::new(lx, -1.1, lz),
                        Vec3::new(lx + 0.25, -0.2, lz + 0.25),
                    ),
                    density: 45.0,
                    albedo: Vec3::new(0.5, 0.3, 0.18),
                });
            }
        }
        "lego" => {
            for level in 0..4 {
                let half = 0.9 - 0.18 * level as f32;
                prims.push(Primitive::Box {
                    bounds: Aabb::new(
                        Vec3::new(-half, -0.9 + 0.45 * level as f32, -half * 0.6),
                        Vec3::new(half, -0.45 + 0.45 * level as f32, half * 0.6),
                    ),
                    density: 50.0,
                    albedo: [
                        Vec3::new(0.85, 0.75, 0.2),
                        Vec3::new(0.3, 0.55, 0.8),
                        Vec3::new(0.8, 0.3, 0.25),
                        Vec3::new(0.35, 0.7, 0.35),
                    ][level],
                });
            }
        }
        "ship" => {
            prims.push(Primitive::Box {
                bounds: Aabb::new(Vec3::new(-1.4, -0.7, -0.45), Vec3::new(1.4, -0.15, 0.45)),
                density: 40.0,
                albedo: Vec3::new(0.45, 0.3, 0.2),
            });
            for k in 0..3 {
                let x = -0.8 + 0.8 * k as f32;
                prims.push(Primitive::Blob {
                    center: Vec3::new(x, 0.5, 0.0),
                    radius: 0.3,
                    density: 18.0,
                    albedo: Vec3::new(0.9, 0.9, 0.85),
                });
            }
        }
        "mic" => {
            prims.push(Primitive::Sphere {
                center: Vec3::new(0.0, 0.7, 0.0),
                radius: 0.45,
                density: 45.0,
                albedo: Vec3::new(0.35, 0.35, 0.4),
            });
            prims.push(Primitive::Box {
                bounds: Aabb::new(Vec3::new(-0.08, -1.0, -0.08), Vec3::new(0.08, 0.4, 0.08)),
                density: 45.0,
                albedo: Vec3::new(0.25, 0.25, 0.28),
            });
        }
        "materials" => {
            for i in 0..3 {
                for j in 0..3 {
                    prims.push(Primitive::Sphere {
                        center: Vec3::new(-0.9 + 0.9 * i as f32, -0.4, -0.9 + 0.9 * j as f32),
                        radius: 0.3,
                        density: 50.0,
                        albedo: s.color(),
                    });
                }
            }
        }
        _ => {
            // drums / ficus / hotdog / anything else: seeded blob-and-box
            // arrangement of comparable occupancy.
            let count = 5 + (s.next_u64() % 5) as usize;
            for _ in 0..count {
                if s.unit() < 0.5 {
                    prims.push(Primitive::Blob {
                        center: Vec3::new(
                            s.range(-1.0, 1.0),
                            s.range(-0.8, 0.9),
                            s.range(-1.0, 1.0),
                        ),
                        radius: s.range(0.2, 0.5),
                        density: s.range(20.0, 45.0),
                        albedo: s.color(),
                    });
                } else {
                    let c = Vec3::new(s.range(-0.9, 0.9), s.range(-0.8, 0.6), s.range(-0.9, 0.9));
                    let e = Vec3::new(s.range(0.15, 0.5), s.range(0.15, 0.5), s.range(0.15, 0.5));
                    prims.push(Primitive::Box {
                        bounds: Aabb::new(c - e, c + e),
                        density: s.range(25.0, 50.0),
                        albedo: s.color(),
                    });
                }
            }
        }
    }
    Scene::new(prims, Vec3::splat(1.0))
}

fn deepvoxels_scene(name: &str, s: &mut Stream) -> Scene {
    let mut prims = Vec::new();
    match name {
        "cube" => prims.push(Primitive::Box {
            bounds: Aabb::cube(Vec3::ZERO, 0.8),
            density: 55.0,
            albedo: Vec3::new(0.7, 0.25, 0.2),
        }),
        "vase" => {
            for k in 0..6 {
                let f = k as f32 / 5.0;
                prims.push(Primitive::Blob {
                    center: Vec3::new(0.0, -0.8 + 1.6 * f, 0.0),
                    radius: 0.28 + 0.22 * (std::f32::consts::PI * f).sin(),
                    density: 40.0,
                    albedo: Vec3::new(0.3, 0.45, 0.75),
                });
            }
        }
        "pedestal" => {
            prims.push(Primitive::Box {
                bounds: Aabb::new(Vec3::new(-0.8, -1.0, -0.8), Vec3::new(0.8, -0.5, 0.8)),
                density: 55.0,
                albedo: Vec3::new(0.6, 0.6, 0.62),
            });
            prims.push(Primitive::Box {
                bounds: Aabb::new(Vec3::new(-0.35, -0.5, -0.35), Vec3::new(0.35, 0.6, 0.35)),
                density: 55.0,
                albedo: Vec3::new(0.68, 0.68, 0.7),
            });
            prims.push(Primitive::Sphere {
                center: Vec3::new(0.0, 0.95, 0.0),
                radius: 0.35,
                density: 55.0,
                albedo: Vec3::new(0.75, 0.7, 0.4),
            });
        }
        _ => {
            // chair & fallback: box composition.
            prims.push(Primitive::Box {
                bounds: Aabb::new(Vec3::new(-0.6, -0.3, -0.6), Vec3::new(0.6, 0.0, 0.6)),
                density: 55.0,
                albedo: s.color(),
            });
            prims.push(Primitive::Box {
                bounds: Aabb::new(Vec3::new(-0.6, 0.0, 0.35), Vec3::new(0.6, 0.9, 0.6)),
                density: 55.0,
                albedo: s.color(),
            });
        }
    }
    Scene::new(prims, Vec3::splat(0.95))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::psnr;

    #[test]
    fn build_produces_views() {
        let ds = Dataset::build(DatasetKind::NerfSynthetic, "lego", 0.02, 4, 2, 24, 1);
        assert_eq!(ds.source_views.len(), 4);
        assert_eq!(ds.eval_views.len(), 2);
        assert_eq!(ds.source_views[0].image.width(), 16);
    }

    #[test]
    fn scene_names_deterministic() {
        let a = scene_for(DatasetKind::Llff, "fern", 7);
        let b = scene_for(DatasetKind::Llff, "fern", 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_scenes_differ() {
        let a = scene_for(DatasetKind::Llff, "fern", 7);
        let b = scene_for(DatasetKind::Llff, "fortress", 7);
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ_for_procedural() {
        let a = scene_for(DatasetKind::NerfSynthetic, "drums", 1);
        let b = scene_for(DatasetKind::NerfSynthetic, "drums", 2);
        assert_ne!(a, b);
    }

    #[test]
    fn all_named_scenes_build_and_render() {
        for kind in DatasetKind::all() {
            for name in kind.scene_names().iter().take(4) {
                let ds = Dataset::build(kind, name, 0.02, 2, 1, 12, 3);
                let img = &ds.eval_views[0].image;
                assert!(img.as_slice().iter().all(|v| v.is_finite()));
                // The render must not be blank: some pixel variation.
                let mean = img.mean();
                let var: f32 = img
                    .as_slice()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let m = [mean.x, mean.y, mean.z][i % 3];
                        (v - m) * (v - m)
                    })
                    .sum::<f32>()
                    / img.as_slice().len() as f32;
                assert!(var > 1e-5, "{kind:?}/{name} renders blank (var={var})");
            }
        }
    }

    #[test]
    fn source_views_see_same_scene() {
        // Different source views of the same scene must correlate: the
        // PSNR between two *different* viewpoints is low, but both must
        // differ from background-only frames.
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 3, 1, 24, 2);
        let bg = Image::from_fn(
            ds.source_views[0].image.width(),
            ds.source_views[0].image.height(),
            |_, _| ds.scene.background,
        );
        for v in &ds.source_views {
            let p = psnr(&v.image, &bg);
            assert!(p < 40.0, "view is background-only (psnr={p})");
        }
    }

    #[test]
    fn base_resolutions_match_paper() {
        assert_eq!(DatasetKind::Llff.base_resolution(), (1008, 756));
        assert_eq!(DatasetKind::NerfSynthetic.base_resolution(), (800, 800));
        assert_eq!(DatasetKind::DeepVoxels.base_resolution(), (512, 512));
    }

    #[test]
    fn llff_occupancy_is_sparse() {
        // The premise of coarse-then-focus sampling: most of the volume
        // is empty.
        let scene = scene_for(DatasetKind::Llff, "fern", 7);
        let occ = scene.occupancy(16, 0.5);
        assert!(occ < 0.5, "fern occupancy = {occ}");
    }

    #[test]
    #[should_panic(expected = "res_scale")]
    fn rejects_zero_scale() {
        let _ = Dataset::build(DatasetKind::Llff, "fern", 0.0, 2, 1, 8, 1);
    }
}
