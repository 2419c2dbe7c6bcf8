//! RGB image buffers with bilinear sampling.

use gen_nerf_geometry::bilinear::BilinearFootprint;
use gen_nerf_geometry::{Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// A dense RGB image with `f32` channels in `[0, 1]`, row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    width: u32,
    height: u32,
    data: Vec<f32>, // rgb interleaved
}

impl Image {
    /// A black image.
    pub fn new(width: u32, height: u32) -> Self {
        Self {
            width,
            height,
            data: vec![0.0; (width * height * 3) as usize],
        }
    }

    /// Reshapes the buffer to `width`×`height` pixels of black,
    /// reusing the existing allocation when its capacity suffices —
    /// the frame-buffer recycling entry used by the render server so a
    /// steady-state serving loop stops paying one image allocation per
    /// frame.
    pub fn reset(&mut self, width: u32, height: u32) {
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.resize((width * height * 3) as usize, 0.0);
    }

    /// Builds an image by evaluating `f(x, y)` per pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> Vec3) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of pixels.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// Reads pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Vec3 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = ((y * self.width + x) * 3) as usize;
        Vec3::new(self.data[i], self.data[i + 1], self.data[i + 2])
    }

    /// Writes pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, rgb: Vec3) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = ((y * self.width + x) * 3) as usize;
        self.data[i] = rgb.x;
        self.data[i + 1] = rgb.y;
        self.data[i + 2] = rgb.z;
    }

    /// Bilinearly samples continuous pixel coordinates (border-clamped).
    pub fn sample(&self, uv: Vec2) -> Vec3 {
        let fp = BilinearFootprint::at(uv, self.width, self.height).expect("image is non-empty");
        self.sample_footprint(&fp)
    }

    /// [`Image::sample`] through a footprint the caller already
    /// computed for an image of these dimensions — lets one footprint
    /// serve an image and the feature map encoded from it.
    ///
    /// # Panics
    ///
    /// Panics when a tap lies outside the image.
    pub fn sample_footprint(&self, fp: &BilinearFootprint) -> Vec3 {
        let mut acc = Vec3::ZERO;
        for t in fp.taps {
            acc += self.get(t.x, t.y) * t.weight;
        }
        acc
    }

    /// Raw interleaved RGB data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Per-channel mean.
    pub fn mean(&self) -> Vec3 {
        let mut acc = Vec3::ZERO;
        for i in (0..self.data.len()).step_by(3) {
            acc += Vec3::new(self.data[i], self.data[i + 1], self.data[i + 2]);
        }
        acc / self.pixel_count() as f32
    }

    /// Luminance (Rec. 601) plane, row-major.
    pub fn luminance(&self) -> Vec<f32> {
        (0..self.pixel_count())
            .map(|i| {
                let p = i * 3;
                0.299 * self.data[p] + 0.587 * self.data[p + 1] + 0.114 * self.data[p + 2]
            })
            .collect()
    }

    /// Box-filtered 2× downsample (both dimensions halved, rounding
    /// down; odd trailing rows/columns are dropped).
    ///
    /// Returns `None` once either dimension would reach zero.
    pub fn downsample2(&self) -> Option<Self> {
        let (w, h) = (self.width / 2, self.height / 2);
        if w == 0 || h == 0 {
            return None;
        }
        let mut out = Self::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let acc = self.get(2 * x, 2 * y)
                    + self.get(2 * x + 1, 2 * y)
                    + self.get(2 * x, 2 * y + 1)
                    + self.get(2 * x + 1, 2 * y + 1);
                out.set(x, y, acc * 0.25);
            }
        }
        Some(out)
    }

    /// Writes a binary PPM (P6) byte buffer — handy for eyeballing
    /// example output without an image dependency.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for v in &self.data {
            out.push((v.clamp(0.0, 1.0) * 255.0).round() as u8);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_reuses_capacity_and_clears() {
        let mut img = Image::from_fn(8, 8, |_, _| Vec3::ONE);
        let cap = img.data.capacity();
        img.reset(4, 4);
        assert_eq!((img.width(), img.height()), (4, 4));
        assert_eq!(img.data.capacity(), cap, "reset reallocated");
        assert_eq!(img.get(0, 0), Vec3::ZERO);
        img.reset(8, 8);
        assert_eq!(
            img.data.capacity(),
            cap,
            "regrow within capacity reallocated"
        );
    }

    #[test]
    fn set_get_roundtrip() {
        let mut img = Image::new(4, 3);
        img.set(2, 1, Vec3::new(0.1, 0.5, 0.9));
        let p = img.get(2, 1);
        assert!((p - Vec3::new(0.1, 0.5, 0.9)).length() < 1e-6);
        assert_eq!(img.get(0, 0), Vec3::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let img = Image::new(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    fn sample_at_center_matches_get() {
        let img = Image::from_fn(8, 8, |x, y| Vec3::new(x as f32 / 8.0, y as f32 / 8.0, 0.5));
        let direct = img.get(3, 5);
        let sampled = img.sample(Vec2::new(3.5, 5.5));
        assert!((direct - sampled).length() < 1e-6);
    }

    #[test]
    fn sample_interpolates_between_pixels() {
        let mut img = Image::new(2, 1);
        img.set(0, 0, Vec3::ZERO);
        img.set(1, 0, Vec3::ONE);
        let mid = img.sample(Vec2::new(1.0, 0.5));
        assert!((mid - Vec3::splat(0.5)).length() < 1e-6);
    }

    #[test]
    fn mean_of_constant_image() {
        let img = Image::from_fn(5, 5, |_, _| Vec3::new(0.25, 0.5, 0.75));
        assert!((img.mean() - Vec3::new(0.25, 0.5, 0.75)).length() < 1e-6);
    }

    #[test]
    fn luminance_white_is_one() {
        let img = Image::from_fn(2, 2, |_, _| Vec3::ONE);
        for l in img.luminance() {
            assert!((l - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn downsample_halves_dimensions() {
        let img = Image::from_fn(8, 6, |x, _| Vec3::splat(x as f32));
        let d = img.downsample2().unwrap();
        assert_eq!((d.width(), d.height()), (4, 3));
        // Average of columns 0 and 1.
        assert!((d.get(0, 0).x - 0.5).abs() < 1e-6);
    }

    #[test]
    fn downsample_to_nothing_is_none() {
        let img = Image::new(1, 1);
        assert!(img.downsample2().is_none());
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(3, 2);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 3 * 2 * 3);
    }
}
