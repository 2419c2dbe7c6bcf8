//! Image quality metrics: PSNR, SSIM and an LPIPS proxy.
//!
//! PSNR matches the paper's definition exactly. LPIPS is a *learned*
//! perceptual metric we cannot reproduce without its trained VGG
//! weights; [`lpips_proxy`] substitutes a multi-scale
//! gradient-plus-luminance dissimilarity with the same orientation
//! (lower = better, 0 = identical) and monotone behaviour under the
//! distortions our ablations introduce. Every table that quotes LPIPS
//! in the paper quotes `lpips_proxy` here (`gen-nerf-bench`'s
//! `reproduce_all` binary prints them side by side).

use crate::image::Image;

/// Peak signal-to-noise ratio in dB over RGB with peak 1.0.
///
/// Returns `f32::INFINITY` for identical images.
///
/// # Panics
///
/// Panics when dimensions differ.
pub fn psnr(a: &Image, b: &Image) -> f32 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "psnr: image sizes differ"
    );
    let mse: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        / a.as_slice().len() as f64;
    if mse == 0.0 {
        f32::INFINITY
    } else {
        (10.0 * (1.0 / mse).log10()) as f32
    }
}

/// Global structural similarity (single-window SSIM over luminance).
///
/// A coarse-grained SSIM: mean/variance/covariance over the whole
/// luminance plane with the standard `C1`/`C2` stabilizers. Sufficient
/// for relative comparisons.
///
/// # Panics
///
/// Panics when dimensions differ.
pub fn ssim(a: &Image, b: &Image) -> f32 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "ssim: image sizes differ"
    );
    let la = a.luminance();
    let lb = b.luminance();
    let n = la.len() as f64;
    let mu_a = la.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mu_b = lb.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    let mut cov = 0.0;
    for (&x, &y) in la.iter().zip(&lb) {
        let dx = x as f64 - mu_a;
        let dy = y as f64 - mu_b;
        var_a += dx * dx;
        var_b += dy * dy;
        cov += dx * dy;
    }
    var_a /= n;
    var_b /= n;
    cov /= n;
    let c1 = 0.01f64 * 0.01;
    let c2 = 0.03f64 * 0.03;
    (((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2))
        / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))) as f32
}

/// Multi-scale perceptual dissimilarity proxy for LPIPS (lower =
/// better, 0 = identical).
///
/// At three pyramid levels it compares luminance and horizontal/vertical
/// gradients, averaging the absolute differences; scales are weighted
/// equally. See the module docs for why this substitutes LPIPS.
///
/// # Panics
///
/// Panics when dimensions differ.
pub fn lpips_proxy(a: &Image, b: &Image) -> f32 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "lpips_proxy: image sizes differ"
    );
    let mut total = 0.0;
    let mut levels = 0;
    let mut ia = a.clone();
    let mut ib = b.clone();
    for _ in 0..3 {
        total += level_dissimilarity(&ia, &ib);
        levels += 1;
        match (ia.downsample2(), ib.downsample2()) {
            (Some(na), Some(nb)) => {
                ia = na;
                ib = nb;
            }
            _ => break,
        }
    }
    total / levels as f32
}

fn level_dissimilarity(a: &Image, b: &Image) -> f32 {
    let la = a.luminance();
    let lb = b.luminance();
    let (w, h) = (a.width() as usize, a.height() as usize);
    let mut acc = 0.0f64;
    let mut count = 0u64;
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            // Luminance difference.
            acc += (la[i] - lb[i]).abs() as f64;
            count += 1;
            // Gradient differences.
            if x + 1 < w {
                let ga = la[i + 1] - la[i];
                let gb = lb[i + 1] - lb[i];
                acc += (ga - gb).abs() as f64;
                count += 1;
            }
            if y + 1 < h {
                let ga = la[i + w] - la[i];
                let gb = lb[i + w] - lb[i];
                acc += (ga - gb).abs() as f64;
                count += 1;
            }
        }
    }
    (acc / count.max(1) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_nerf_geometry::Vec3;

    fn gradient_image(w: u32, h: u32) -> Image {
        Image::from_fn(w, h, |x, y| {
            Vec3::new(
                x as f32 / w as f32,
                y as f32 / h as f32,
                ((x + y) % 7) as f32 / 7.0,
            )
        })
    }

    fn noisy(img: &Image, amplitude: f32, seed: u32) -> Image {
        let mut k = seed;
        Image::from_fn(img.width(), img.height(), |x, y| {
            k = k.wrapping_mul(1664525).wrapping_add(1013904223);
            let n = ((k >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 2.0 * amplitude;
            (img.get(x, y) + Vec3::splat(n)).clamp(0.0, 1.0)
        })
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let img = gradient_image(16, 16);
        assert!(psnr(&img, &img).is_infinite());
    }

    #[test]
    fn psnr_known_value() {
        // Constant offset of 0.1 => MSE = 0.01 => PSNR = 20 dB.
        let a = Image::from_fn(8, 8, |_, _| Vec3::splat(0.4));
        let b = Image::from_fn(8, 8, |_, _| Vec3::splat(0.5));
        assert!((psnr(&a, &b) - 20.0).abs() < 1e-3);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let img = gradient_image(32, 32);
        let low = noisy(&img, 0.02, 1);
        let high = noisy(&img, 0.2, 2);
        assert!(psnr(&img, &low) > psnr(&img, &high));
    }

    #[test]
    #[should_panic(expected = "sizes differ")]
    fn psnr_rejects_size_mismatch() {
        let _ = psnr(&Image::new(2, 2), &Image::new(3, 2));
    }

    #[test]
    fn ssim_identical_is_one() {
        let img = gradient_image(16, 16);
        assert!((ssim(&img, &img) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn ssim_degrades_with_noise() {
        let img = gradient_image(32, 32);
        let low = noisy(&img, 0.05, 3);
        let high = noisy(&img, 0.4, 4);
        assert!(ssim(&img, &low) > ssim(&img, &high));
    }

    #[test]
    fn lpips_proxy_zero_for_identical() {
        let img = gradient_image(20, 20);
        assert_eq!(lpips_proxy(&img, &img), 0.0);
    }

    #[test]
    fn lpips_proxy_monotone_in_noise() {
        let img = gradient_image(32, 32);
        let low = noisy(&img, 0.05, 5);
        let high = noisy(&img, 0.3, 6);
        assert!(lpips_proxy(&img, &low) < lpips_proxy(&img, &high));
    }

    #[test]
    fn lpips_proxy_penalizes_blur_less_than_noise() {
        // Blur keeps low frequencies; heavy noise destroys gradients.
        let img = gradient_image(32, 32);
        let blurred = {
            let d = img.downsample2().unwrap();
            // Upsample by pixel replication.
            Image::from_fn(32, 32, |x, y| {
                d.get((x / 2).min(d.width() - 1), (y / 2).min(d.height() - 1))
            })
        };
        let noisy_img = noisy(&img, 0.5, 7);
        assert!(lpips_proxy(&img, &blurred) < lpips_proxy(&img, &noisy_img));
    }

    #[test]
    fn metrics_symmetric() {
        let a = gradient_image(16, 16);
        let b = noisy(&a, 0.1, 8);
        assert!((psnr(&a, &b) - psnr(&b, &a)).abs() < 1e-4);
        assert!((lpips_proxy(&a, &b) - lpips_proxy(&b, &a)).abs() < 1e-6);
        assert!((ssim(&a, &b) - ssim(&b, &a)).abs() < 1e-6);
    }
}
