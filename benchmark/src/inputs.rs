//! The benchmark's own load generator. Every input the program under
//! test receives — camera trajectories, arrival times, deadline
//! classes, GEMM operands — is drawn here from `ChaCha8` streams
//! derived from `--seed`, so equal seeds give bit-identical inputs.
//!
//! What a seed may change is *which* inputs a run sees, never how hard
//! they are: arc step and radius, arrival rate and class mix are fixed
//! per workload, and only start angles, heights, arrival gaps and
//! operand values are drawn. A run's cost therefore does not depend on
//! its seed beyond sampling noise.

use gen_nerf_geometry::{Pose, Vec3};
use gen_nerf_nn::Tensor2;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An independent stream of `seed`: `stream` names the consumer
/// (session index, phase, operand), mixed in splitmix-style so adjacent
/// streams share no prefix.
pub fn stream(seed: u64, stream: u64) -> ChaCha8Rng {
    let mixed = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)))
        .rotate_left(23)
        ^ 0xBF58_476D_1CE4_E5B9;
    ChaCha8Rng::seed_from_u64(mixed)
}

/// A camera walking an arc around the object at the origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArcPath {
    /// Start angle (radians), drawn.
    pub phase: f32,
    /// Eye height, drawn from a narrow band.
    pub height: f32,
    /// Orbit radius, fixed per workload.
    pub radius: f32,
    /// Angle advanced per step (radians), fixed per workload: it sets
    /// how many steps stay within a coherence cache's pose delta.
    pub step: f32,
}

impl ArcPath {
    /// The path of consumer `id` under `seed`.
    pub fn draw(seed: u64, id: u64, radius: f32, step: f32) -> Self {
        let mut rng = stream(seed, id);
        Self {
            phase: rng.gen_range(0.0f64..std::f64::consts::TAU) as f32,
            height: rng.gen_range(1.1f64..1.5) as f32,
            radius,
            step,
        }
    }

    /// Head pose at `step`, looking at the origin.
    pub fn pose(&self, step: usize) -> Pose {
        let phi = self.phase + self.step * step as f32;
        let eye = Vec3::new(
            self.radius * phi.cos(),
            self.height,
            self.radius * phi.sin(),
        );
        Pose::look_at(eye, Vec3::ZERO, Vec3::Y)
    }
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, in seconds from the phase start.
    pub due_s: f64,
    /// Submitting session.
    pub session: usize,
    /// Whether it is prefetch traffic (BestEffort) or Interactive.
    pub best_effort: bool,
}

/// Open-loop Poisson arrivals at `rate_hz` over `duration_s`:
/// exponential gaps, a uniformly drawn session per arrival (the
/// superposition of equal per-session Poisson processes), and a
/// Bernoulli class draw. The schedule is fixed before the first request
/// is sent and never reacts to the server.
pub fn poisson_schedule(
    seed: u64,
    stream_id: u64,
    rate_hz: f64,
    duration_s: f64,
    sessions: usize,
    best_effort_share: f64,
) -> Vec<Arrival> {
    assert!(rate_hz > 0.0 && sessions > 0, "need a rate and a session");
    let mut rng = stream(seed, stream_id);
    let mut out = Vec::with_capacity((rate_hz * duration_s * 1.2) as usize + 8);
    let mut t = 0.0f64;
    loop {
        // 1 − u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate_hz;
        if t >= duration_s {
            return out;
        }
        out.push(Arrival {
            due_s: t,
            session: rng.gen_range(0..sessions),
            best_effort: rng.gen::<f64>() < best_effort_share,
        });
    }
}

/// Deadline classes for a closed loop's frames, `best_effort_share` of
/// them BestEffort.
pub fn class_draws(seed: u64, stream_id: u64, n: usize, best_effort_share: f64) -> Vec<bool> {
    let mut rng = stream(seed, stream_id);
    (0..n)
        .map(|_| rng.gen::<f64>() < best_effort_share)
        .collect()
}

/// A dense GEMM operand with entries uniform in [−1, 1).
pub fn gemm_operand(seed: u64, stream_id: u64, rows: usize, cols: usize) -> Tensor2 {
    let mut rng = stream(seed, stream_id);
    Tensor2::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(schedule: &[Arrival]) -> Vec<(u64, usize, bool)> {
        schedule
            .iter()
            .map(|a| (a.due_s.to_bits(), a.session, a.best_effort))
            .collect()
    }

    fn pose_bits(p: &Pose) -> Vec<u32> {
        let o = p.origin;
        let f = p.rotation * Vec3::Z;
        [o.x, o.y, o.z, f.x, f.y, f.z].map(f32::to_bits).to_vec()
    }

    #[test]
    fn equal_seeds_give_bit_identical_inputs() {
        let a = poisson_schedule(42, 3, 250.0, 4.0, 60, 0.25);
        let b = poisson_schedule(42, 3, 250.0, 4.0, 60, 0.25);
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(class_draws(42, 1, 500, 0.25), class_draws(42, 1, 500, 0.25));
        let (pa, pb) = (
            ArcPath::draw(42, 5, 4.0, 0.008),
            ArcPath::draw(42, 5, 4.0, 0.008),
        );
        assert_eq!(pa, pb);
        for step in [0, 1, 999] {
            assert_eq!(pose_bits(&pa.pose(step)), pose_bits(&pb.pose(step)));
        }
        let (ga, gb) = (gemm_operand(42, 9, 7, 5), gemm_operand(42, 9, 7, 5));
        assert_eq!(
            ga.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            gb.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_and_streams_differ() {
        let base = poisson_schedule(42, 3, 250.0, 4.0, 60, 0.25);
        assert_ne!(
            bits(&base),
            bits(&poisson_schedule(43, 3, 250.0, 4.0, 60, 0.25))
        );
        assert_ne!(
            bits(&base),
            bits(&poisson_schedule(42, 4, 250.0, 4.0, 60, 0.25))
        );
        assert_ne!(
            ArcPath::draw(42, 5, 4.0, 0.008),
            ArcPath::draw(43, 5, 4.0, 0.008)
        );
        assert_ne!(
            ArcPath::draw(42, 5, 4.0, 0.008),
            ArcPath::draw(42, 6, 4.0, 0.008)
        );
        assert_ne!(class_draws(42, 1, 500, 0.25), class_draws(43, 1, 500, 0.25));
        assert_ne!(
            gemm_operand(42, 9, 7, 5).as_slice(),
            gemm_operand(43, 9, 7, 5).as_slice()
        );
    }

    #[test]
    fn schedule_keeps_its_rate_mix_and_order_whatever_the_seed() {
        for seed in [1, 42, 977] {
            let s = poisson_schedule(seed, 0, 250.0, 8.0, 60, 0.25);
            let n = s.len() as f64;
            assert!((n - 2000.0).abs() < 5.0 * 2000f64.sqrt(), "count {n}");
            let be = s.iter().filter(|a| a.best_effort).count() as f64 / n;
            assert!((be - 0.25).abs() < 0.05, "best-effort share {be}");
            assert!(s.windows(2).all(|w| w[0].due_s < w[1].due_s));
            assert!(s.iter().all(|a| a.session < 60 && a.due_s < 8.0));
        }
    }

    #[test]
    fn arc_steps_move_the_eye_by_the_fixed_step() {
        let p = ArcPath::draw(7, 0, 4.0, 0.008);
        let d = (p.pose(1).origin - p.pose(0).origin).length();
        assert!((d - 4.0 * 0.008).abs() < 1e-3, "step length {d}");
    }
}
