//! Helpers shared by the integration suites that render a frame one ray
//! at a time through the public API.

use gen_nerf::pipeline::{RenderStats, Renderer};
use gen_nerf_geometry::Camera;
use gen_nerf_scene::Image;

/// Renders `camera` one ray at a time: every pixel as a frame of its
/// own, one pixel wide and high, so each ray is the only ray of its
/// job and its tile. Returns the image those pixels make and their
/// summed accounting.
///
/// A pixel's frame keeps the pose and focal lengths and shifts the
/// principal point by the pixel's offset, so its one ray is the full
/// frame's ray bit for bit: `(0.5 − (cx − x)) / fx` and
/// `(x + 0.5 − cx) / fx` are the same exact half-integer over `fx`
/// while `cx` is one (asserted for every pixel).
pub fn render_per_ray(renderer: &Renderer<'_>, camera: &Camera) -> (Image, RenderStats) {
    let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
    let mut image = Image::new(w, h);
    let mut stats = RenderStats::default();
    for y in 0..h {
        for x in 0..w {
            let mut pixel = *camera;
            pixel.intrinsics.width = 1;
            pixel.intrinsics.height = 1;
            pixel.intrinsics.cx -= x as f32;
            pixel.intrinsics.cy -= y as f32;
            assert_eq!(
                pixel.pixel_center_ray(0, 0),
                camera.pixel_center_ray(x, y),
                "pixel ({x}, {y}): the one-pixel frame must trace the same ray"
            );
            let (img, st) = renderer.render(&pixel);
            image.set(x, y, img.get(0, 0));
            stats.merge(&st);
        }
    }
    (image, stats)
}
