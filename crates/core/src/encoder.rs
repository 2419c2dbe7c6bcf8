//! The frozen multi-scale feature encoder.
//!
//! Stands in for the CNN encoder `E` of Step 0 (Sec. 2.2): it turns
//! each source view into a `H_s × W_s × D` feature map computed *once
//! per scene*. Instead of learned convolution weights we use a fixed
//! filter bank — RGB, two blur scales and luminance gradients — which
//! preserves everything the paper measures about feature maps: their
//! size, their per-point bilinear fetch cost and their cross-view
//! consistency signal (DESIGN.md §2).
//!
//! Channel layout (12 channels):
//!
//! | index | content |
//! |-------|---------|
//! | 0–2   | RGB |
//! | 3–5   | RGB, 1× box-blurred (3×3) |
//! | 6–8   | RGB, 2× box-blurred (≈7×7 support) |
//! | 9     | luminance |
//! | 10    | horizontal luminance gradient |
//! | 11    | vertical luminance gradient |
//!
//! The coarse stage's "channel scale" truncates this list (the first
//! `⌈D·scale⌉` channels), matching the paper's channel-scaled coarse
//! MLPs.

use gen_nerf_geometry::bilinear::BilinearFootprint;
use gen_nerf_geometry::Vec2;
use gen_nerf_scene::Image;
use serde::{Deserialize, Serialize};

/// Number of channels the encoder produces.
pub const ENCODER_CHANNELS: usize = 12;

/// A dense feature map, `height × width × channels`, channel-minor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMap {
    width: u32,
    height: u32,
    channels: usize,
    data: Vec<f32>,
}

impl FeatureMap {
    /// Map width in texels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Map height in texels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Channels per texel.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The feature vector at integer texel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn texel(&self, x: u32, y: u32) -> &[f32] {
        assert!(x < self.width && y < self.height, "texel out of bounds");
        let i = ((y * self.width + x) as usize) * self.channels;
        &self.data[i..i + self.channels]
    }

    /// Bilinearly samples the first `n_channels` channels at continuous
    /// texel coordinates, writing into `out`.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() > self.channels()`.
    pub fn sample_into(&self, uv: Vec2, out: &mut [f32]) {
        self.sample_footprint_into(&self.footprint(uv), out);
    }

    /// The bilinear footprint of `uv` on this map.
    pub fn footprint(&self, uv: Vec2) -> BilinearFootprint {
        BilinearFootprint::at(uv, self.width, self.height).expect("feature map is non-empty")
    }

    /// [`FeatureMap::sample_into`] through a footprint already computed
    /// by [`FeatureMap::footprint`], so a caller that also samples the
    /// source image (same dimensions) pays for the footprint once.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() > self.channels()`.
    pub fn sample_footprint_into(&self, fp: &BilinearFootprint, out: &mut [f32]) {
        assert!(out.len() <= self.channels, "channel overrun");
        out.iter_mut().for_each(|v| *v = 0.0);
        for tap in fp.taps {
            let tex = self.texel(tap.x, tap.y);
            for (o, &t) in out.iter_mut().zip(tex) {
                *o += t * tap.weight;
            }
        }
    }

    /// Raw texel data, `height × width × channels`, channel-minor.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Bytes per texel at 1 byte/channel (the INT8 layout the
    /// accelerator stores).
    pub fn texel_bytes(&self) -> u64 {
        self.channels as u64
    }

    /// This map widened to `channels` per texel for tests that need
    /// more than the encoder produces: channel `c` past the encoder's
    /// is channel `c % self.channels()` scaled by `1 + c`.
    #[cfg(test)]
    pub(crate) fn widened(&self, channels: usize) -> Self {
        let data = self
            .data
            .chunks_exact(self.channels)
            .flat_map(|texel| {
                (0..channels).map(|c| {
                    let scale = if c < self.channels {
                        1.0
                    } else {
                        1.0 + c as f32
                    };
                    texel[c % self.channels] * scale
                })
            })
            .collect();
        Self {
            width: self.width,
            height: self.height,
            channels,
            data,
        }
    }
}

/// The frozen encoder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureEncoder;

impl FeatureEncoder {
    /// Creates the encoder.
    pub fn new() -> Self {
        Self
    }

    /// Encodes a source image into a 12-channel feature map (a one-time
    /// per-scene cost, like the paper's CNN encoder).
    pub fn encode(&self, image: &Image) -> FeatureMap {
        let (w, h) = (image.width(), image.height());
        let n = (w * h) as usize;
        let channels = ENCODER_CHANNELS;
        let mut data = vec![0.0f32; n * channels];

        // Pass 1: RGB + luminance.
        let lum = image.luminance();
        for y in 0..h {
            for x in 0..w {
                let i = ((y * w + x) as usize) * channels;
                let rgb = image.get(x, y);
                data[i] = rgb.x;
                data[i + 1] = rgb.y;
                data[i + 2] = rgb.z;
                data[i + 9] = lum[(y * w + x) as usize];
            }
        }

        // Pass 2: blur scales (3×3 box, then 3×3 box of that).
        let blur1 = box_blur_rgb(image);
        for y in 0..h {
            for x in 0..w {
                let i = ((y * w + x) as usize) * channels;
                let b = blur1[(y * w + x) as usize];
                data[i + 3] = b[0];
                data[i + 4] = b[1];
                data[i + 5] = b[2];
            }
        }
        let blur2 = box_blur_buf(&blur1, w, h);
        let blur2 = box_blur_buf(&blur2, w, h);
        for y in 0..h {
            for x in 0..w {
                let i = ((y * w + x) as usize) * channels;
                let b = blur2[(y * w + x) as usize];
                data[i + 6] = b[0];
                data[i + 7] = b[1];
                data[i + 8] = b[2];
            }
        }

        // Pass 3: luminance gradients (central differences, clamped).
        for y in 0..h {
            for x in 0..w {
                let i = ((y * w + x) as usize) * channels;
                let xm = x.saturating_sub(1);
                let xp = (x + 1).min(w - 1);
                let ym = y.saturating_sub(1);
                let yp = (y + 1).min(h - 1);
                data[i + 10] = (lum[(y * w + xp) as usize] - lum[(y * w + xm) as usize]) * 0.5;
                data[i + 11] = (lum[(yp * w + x) as usize] - lum[(ym * w + x) as usize]) * 0.5;
            }
        }

        FeatureMap {
            width: w,
            height: h,
            channels,
            data,
        }
    }
}

fn box_blur_rgb(image: &Image) -> Vec<[f32; 3]> {
    let (w, h) = (image.width(), image.height());
    let buf: Vec<[f32; 3]> = (0..h)
        .flat_map(|y| {
            (0..w).map(move |x| {
                let p = image.get(x, y);
                [p.x, p.y, p.z]
            })
        })
        .collect();
    box_blur_buf(&buf, w, h)
}

fn box_blur_buf(buf: &[[f32; 3]], w: u32, h: u32) -> Vec<[f32; 3]> {
    let mut out = vec![[0.0f32; 3]; buf.len()];
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            let mut acc = [0.0f32; 3];
            let mut count = 0.0f32;
            for dy in -1..=1i64 {
                for dx in -1..=1i64 {
                    let (nx, ny) = (x + dx, y + dy);
                    if nx >= 0 && ny >= 0 && nx < w as i64 && ny < h as i64 {
                        let p = buf[(ny * w as i64 + nx) as usize];
                        acc[0] += p[0];
                        acc[1] += p[1];
                        acc[2] += p[2];
                        count += 1.0;
                    }
                }
            }
            out[(y * w as i64 + x) as usize] = [acc[0] / count, acc[1] / count, acc[2] / count];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_nerf_geometry::Vec3;

    fn test_image() -> Image {
        Image::from_fn(16, 12, |x, y| {
            Vec3::new(x as f32 / 16.0, y as f32 / 12.0, ((x + y) % 4) as f32 / 4.0)
        })
    }

    #[test]
    fn encode_dimensions() {
        let fm = FeatureEncoder::new().encode(&test_image());
        assert_eq!(fm.width(), 16);
        assert_eq!(fm.height(), 12);
        assert_eq!(fm.channels(), ENCODER_CHANNELS);
        assert_eq!(fm.texel_bytes(), 12);
    }

    #[test]
    fn rgb_channels_match_image() {
        let img = test_image();
        let fm = FeatureEncoder::new().encode(&img);
        let t = fm.texel(5, 7);
        let p = img.get(5, 7);
        assert!((t[0] - p.x).abs() < 1e-6);
        assert!((t[1] - p.y).abs() < 1e-6);
        assert!((t[2] - p.z).abs() < 1e-6);
    }

    #[test]
    fn blur_smooths_constant_regions_exactly() {
        let img = Image::from_fn(8, 8, |_, _| Vec3::splat(0.5));
        let fm = FeatureEncoder::new().encode(&img);
        let t = fm.texel(4, 4);
        assert!((t[3] - 0.5).abs() < 1e-6);
        assert!((t[6] - 0.5).abs() < 1e-6);
        // Gradients of a constant image are zero.
        assert!(t[10].abs() < 1e-6);
        assert!(t[11].abs() < 1e-6);
    }

    #[test]
    fn gradient_detects_edges() {
        let img = Image::from_fn(8, 8, |x, _| if x < 4 { Vec3::ZERO } else { Vec3::ONE });
        let fm = FeatureEncoder::new().encode(&img);
        // At the vertical edge the horizontal gradient is large.
        assert!(fm.texel(4, 4)[10].abs() > 0.3);
        assert!(fm.texel(1, 4)[10].abs() < 1e-6);
        // Vertical gradient stays zero.
        assert!(fm.texel(4, 4)[11].abs() < 1e-6);
    }

    #[test]
    fn sample_into_truncates_channels() {
        let fm = FeatureEncoder::new().encode(&test_image());
        let mut out3 = [0.0f32; 3];
        fm.sample_into(Vec2::new(5.5, 7.5), &mut out3);
        let full = fm.texel(5, 7);
        for (o, f) in out3.iter().zip(full) {
            assert!((o - f).abs() < 1e-5);
        }
    }

    #[test]
    fn sample_interpolates() {
        let fm = FeatureEncoder::new().encode(&test_image());
        let mut a = [0.0f32; 1];
        let mut b = [0.0f32; 1];
        let mut mid = [0.0f32; 1];
        fm.sample_into(Vec2::new(3.5, 5.5), &mut a);
        fm.sample_into(Vec2::new(4.5, 5.5), &mut b);
        fm.sample_into(Vec2::new(4.0, 5.5), &mut mid);
        assert!((mid[0] - 0.5 * (a[0] + b[0])).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "channel overrun")]
    fn sample_into_rejects_too_many_channels() {
        let fm = FeatureEncoder::new().encode(&test_image());
        let mut out = [0.0f32; 13];
        fm.sample_into(Vec2::new(1.0, 1.0), &mut out);
    }

    #[test]
    fn deterministic() {
        let img = test_image();
        let a = FeatureEncoder::new().encode(&img);
        let b = FeatureEncoder::new().encode(&img);
        assert_eq!(a, b);
    }
}
