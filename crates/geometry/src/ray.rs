//! Camera rays and depth-sample helpers.

use crate::vec::Vec3;
use serde::{Deserialize, Serialize};

/// A ray `r(t) = origin + t · direction` with unit `direction`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ray {
    /// Ray origin (camera center for camera rays).
    pub origin: Vec3,
    /// Unit direction.
    pub direction: Vec3,
}

impl Ray {
    /// Creates a ray, normalizing `direction`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `direction` has zero length.
    pub fn new(origin: Vec3, direction: Vec3) -> Self {
        Self {
            origin,
            direction: direction.normalized(),
        }
    }

    /// The point at parameter `t`.
    #[inline]
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.direction * t
    }

    /// `N` depths uniformly spaced over `[t_near, t_far]`, placed at
    /// interval midpoints (the quadrature points of Eq. 2 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `t_far <= t_near`.
    pub fn uniform_depths(t_near: f32, t_far: f32, n: usize) -> Vec<f32> {
        assert!(n > 0, "need at least one sample");
        assert!(t_far > t_near, "t_far must exceed t_near");
        let dt = (t_far - t_near) / n as f32;
        (0..n).map(|i| t_near + dt * (i as f32 + 0.5)).collect()
    }

    /// [`Ray::uniform_depths`] appended to a caller-owned buffer —
    /// identical results, no allocation once the buffer has grown. What
    /// `out` already holds stays in front, so one flat buffer can take
    /// the depths of a whole tile of rays.
    ///
    /// # Panics
    ///
    /// As [`Ray::uniform_depths`].
    pub fn uniform_depths_into(t_near: f32, t_far: f32, n: usize, out: &mut Vec<f32>) {
        assert!(n > 0, "need at least one sample");
        assert!(t_far > t_near, "t_far must exceed t_near");
        let dt = (t_far - t_near) / n as f32;
        out.extend((0..n).map(|i| t_near + dt * (i as f32 + 0.5)));
    }

    /// Depth-interval widths `t_{k+1} − t_k` used by the quadrature rule,
    /// taking the last interval to extend to `t_far`.
    pub fn interval_widths(depths: &[f32], t_far: f32) -> Vec<f32> {
        let mut out = Vec::with_capacity(depths.len());
        Self::interval_widths_into(depths, t_far, &mut out);
        out
    }

    /// [`Ray::interval_widths`] into a caller-owned buffer (cleared
    /// first) — identical results, no allocation once the buffer has
    /// grown to size. This is what lets the fused render schedule
    /// composite a whole frame without one widths `Vec` per ray.
    pub fn interval_widths_into(depths: &[f32], t_far: f32, out: &mut Vec<f32>) {
        out.clear();
        for (i, &t) in depths.iter().enumerate() {
            let next = depths.get(i + 1).copied().unwrap_or(t_far);
            out.push((next - t).max(0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn at_moves_along_direction() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 2.0));
        assert!((r.at(3.0) - Vec3::new(0.0, 0.0, 3.0)).length() < 1e-6);
    }

    #[test]
    fn direction_is_normalized() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(3.0, 4.0, 0.0));
        assert!((r.direction.length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_depths_cover_range() {
        let d = Ray::uniform_depths(2.0, 6.0, 4);
        assert_eq!(d.len(), 4);
        assert!((d[0] - 2.5).abs() < 1e-6);
        assert!((d[3] - 5.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn uniform_depths_rejects_zero() {
        let _ = Ray::uniform_depths(0.0, 1.0, 0);
    }

    #[test]
    fn interval_widths_sum_to_range() {
        let d = Ray::uniform_depths(1.0, 5.0, 8);
        let w = Ray::interval_widths(&d, 5.0);
        let total: f32 = w.iter().sum();
        // First midpoint is half a slot after t_near, so the covered length
        // is (t_far - first_depth).
        assert!((total - (5.0 - d[0])).abs() < 1e-5);
    }

    proptest! {
        #[test]
        fn prop_uniform_depths_sorted(
            near in 0.1f32..5.0,
            span in 0.1f32..20.0,
            n in 1usize..64,
        ) {
            let d = Ray::uniform_depths(near, near + span, n);
            prop_assert!(d.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(d.iter().all(|&t| t > near && t < near + span));
        }

        #[test]
        fn prop_uniform_depths_into_appends_uniform_depths(
            near in -5.0f32..5.0,
            span in 0.001f32..20.0,
            n in 1usize..64,
            kept in proptest::collection::vec(-9.0f32..9.0, 0..5),
        ) {
            let mut out = kept.clone();
            Ray::uniform_depths_into(near, near + span, n, &mut out);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(bits(&out[..kept.len()]), bits(&kept));
            prop_assert_eq!(
                bits(&out[kept.len()..]),
                bits(&Ray::uniform_depths(near, near + span, n))
            );
        }

        #[test]
        fn prop_interval_widths_nonnegative(
            near in 0.1f32..5.0,
            span in 0.1f32..20.0,
            n in 1usize..64,
        ) {
            let d = Ray::uniform_depths(near, near + span, n);
            let w = Ray::interval_widths(&d, near + span);
            prop_assert_eq!(w.len(), d.len());
            prop_assert!(w.iter().all(|&x| x >= 0.0));
        }
    }
}
