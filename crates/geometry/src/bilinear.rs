//! Bilinear interpolation footprints.
//!
//! When a sampled 3D point is projected onto a source view, its scene
//! feature is bilinearly interpolated from the four nearest feature-map
//! texels (paper Sec. 4.5, the preprocessing unit's *interpolator*).
//! [`BilinearFootprint`] computes those four taps and their weights; the
//! accelerator's memory model uses the tap addresses to count DRAM/SRAM
//! traffic, and the algorithm uses the weights to fetch features.

use crate::vec::Vec2;
use serde::{Deserialize, Serialize};

/// One texel read of a bilinear fetch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tap {
    /// Texel column.
    pub x: u32,
    /// Texel row.
    pub y: u32,
    /// Interpolation weight in `[0, 1]`.
    pub weight: f32,
}

/// The four taps of one bilinear fetch, clamped to the image bounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BilinearFootprint {
    /// The four taps: (x0,y0), (x1,y0), (x0,y1), (x1,y1).
    pub taps: [Tap; 4],
}

impl BilinearFootprint {
    /// Computes the footprint for continuous texel coordinates `uv`
    /// (texel centers at integer + 0.5) on a `width`×`height` map.
    ///
    /// Out-of-range coordinates are clamped to the border (the clamped
    /// taps keep their analytical weights, matching
    /// `align_corners=False` grid sampling with border padding).
    ///
    /// Returns `None` if the map is empty.
    pub fn at(uv: Vec2, width: u32, height: u32) -> Option<Self> {
        if width == 0 || height == 0 {
            return None;
        }
        let x = uv.x - 0.5;
        let y = uv.y - 0.5;
        let x0f = x.floor();
        let y0f = y.floor();
        let fx = x - x0f;
        let fy = y - y0f;
        let clamp_x = |v: f32| (v.max(0.0) as u32).min(width - 1);
        let clamp_y = |v: f32| (v.max(0.0) as u32).min(height - 1);
        let (x0, x1) = (clamp_x(x0f), clamp_x(x0f + 1.0));
        let (y0, y1) = (clamp_y(y0f), clamp_y(y0f + 1.0));
        Some(Self {
            taps: [
                Tap {
                    x: x0,
                    y: y0,
                    weight: (1.0 - fx) * (1.0 - fy),
                },
                Tap {
                    x: x1,
                    y: y0,
                    weight: fx * (1.0 - fy),
                },
                Tap {
                    x: x0,
                    y: y1,
                    weight: (1.0 - fx) * fy,
                },
                Tap {
                    x: x1,
                    y: y1,
                    weight: fx * fy,
                },
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn weights_sum_to_one() {
        let fp = BilinearFootprint::at(Vec2::new(3.7, 4.2), 16, 16).unwrap();
        let sum: f32 = fp.taps.iter().map(|t| t.weight).sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn texel_center_is_exact() {
        // (2.5, 3.5) is the center of texel (2, 3): full weight there.
        let fp = BilinearFootprint::at(Vec2::new(2.5, 3.5), 8, 8).unwrap();
        let w: f32 = fp
            .taps
            .iter()
            .filter(|t| t.x == 2 && t.y == 3)
            .map(|t| t.weight)
            .sum();
        assert!((w - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clamps_at_border() {
        let fp = BilinearFootprint::at(Vec2::new(-3.0, 100.0), 4, 4).unwrap();
        for t in fp.taps {
            assert!(t.x < 4 && t.y < 4);
        }
        assert!(fp.taps.iter().all(|t| (t.x, t.y) == (0, 3)));
    }

    #[test]
    fn empty_map_is_none() {
        assert!(BilinearFootprint::at(Vec2::new(0.5, 0.5), 0, 4).is_none());
    }

    proptest! {
        #[test]
        fn prop_weights_nonnegative_and_sum_one(
            u in -10.0f32..30.0,
            v in -10.0f32..30.0,
        ) {
            let fp = BilinearFootprint::at(Vec2::new(u, v), 20, 20).unwrap();
            let sum: f32 = fp.taps.iter().map(|t| t.weight).sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(fp.taps.iter().all(|t| t.weight >= -1e-6));
        }
    }
}
