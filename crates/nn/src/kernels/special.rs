//! The special functions of the forward's per-point epilogue, defined
//! once: `eˣ` ([`exp`]) and `0.1·tanh(x)` ([`tenth_tanh`]).
//!
//! Each function is one fixed sequence of exactly rounded IEEE
//! operations — min / max, add, sub, mul, div, floor, integer exponent
//! arithmetic and sign-bit moves — and **never** an FMA. The AVX2 backend
//! runs the same sequence eight lanes at a time
//! ([`MicroKernel::exp`](super::MicroKernel::exp),
//! [`MicroKernel::tenth_tanh`](super::MicroKernel::tenth_tanh)), so a
//! vector lane, a remainder element and a scalar call all return the
//! same bits, on every backend. That is what lets the fused forward run
//! these as vector passes over a tile while the per-ray reference and the
//! trainer call them one value at a time, bit for bit alike.
//!
//! `exp` is the Cephes `expf` polynomial with two changes that make it
//! total: the clamp propagates a NaN instead of replacing it, and `2ⁿ`
//! is applied as two exact power-of-two factors, so results near the
//! ends of the range (subnormal below `e⁻⁸⁷·³`, the last binade below
//! `f32::MAX`) are rounded once instead of flushed or overflowed.
//! Against libm (`f32::exp`, `f32::tanh`) the tests below bound `exp`
//! at 2 ulp on `[−88, 8]` and `0.1·tanh` at 2⁻²³ absolute everywhere;
//! the worst cases they measure are 1 ulp and 1.5·10⁻⁸ (2⁻²⁶).

/// Clamp bounds of [`exp`]: above `EXP_HI` every result is `+∞`
/// (`e⁸⁹ > f32::MAX`), below `EXP_LO` it is `+0.0` (`e⁻¹⁰⁴` is under half
/// the least subnormal). The bounds keep `n` within `[−150, 128]`, where
/// both halves of the split `2ⁿ` are normal.
pub(crate) const EXP_HI: f32 = 89.0;
pub(crate) const EXP_LO: f32 = -104.0;
pub(crate) const LOG2EF: f32 = std::f32::consts::LOG2_E;
/// `ln 2` in two parts: `EXP_C1` has 9 significant bits, so `n·EXP_C1`
/// is exact for every `n` the clamp allows.
pub(crate) const EXP_C1: f32 = 0.693_359_4;
pub(crate) const EXP_C2: f32 = -2.121_944_4e-4;
pub(crate) const EXP_P0: f32 = 1.987_569_1e-4;
pub(crate) const EXP_P1: f32 = 1.398_199_9e-3;
pub(crate) const EXP_P2: f32 = 8.333_452e-3;
pub(crate) const EXP_P3: f32 = 4.166_579_6e-2;
pub(crate) const EXP_P4: f32 = 1.666_666_5e-1;
pub(crate) const EXP_P5: f32 = 5.000_000_4e-1;

/// `2ⁿ` for `−126 ≤ n ≤ 127`, from the exponent bits.
#[inline]
fn pow2(n: i32) -> f32 {
    f32::from_bits(((n + 0x7f) as u32) << 23)
}

/// `eˣ`: the scalar definition every backend's vector lanes reproduce
/// bit for bit (see the module docs). `exp(−∞) = +0.0`,
/// `exp(+∞) = +∞`, a NaN stays a NaN.
#[inline]
pub fn exp(x: f32) -> f32 {
    // `vminps(HI, x)` then `vmaxps(LO, x)`: a NaN `x` passes through.
    let x = if EXP_HI < x { EXP_HI } else { x };
    let x = if EXP_LO > x { EXP_LO } else { x };
    // n = floor(x·log₂e + ½); x − n·ln 2 in two parts.
    let fx = (x * LOG2EF + 0.5).floor();
    let r = x - fx * EXP_C1;
    let r = r - fx * EXP_C2;
    let z = r * r;
    let mut y = EXP_P0;
    y = y * r + EXP_P1;
    y = y * r + EXP_P2;
    y = y * r + EXP_P3;
    y = y * r + EXP_P4;
    y = y * r + EXP_P5;
    let y = y * z + r + 1.0;
    // 2ⁿ as two factors: the first scaling is exact, the second rounds
    // once (into the subnormals, or to +∞).
    let n = fx as i32;
    let half = n >> 1;
    y * pow2(half) * pow2(n - half)
}

/// `0.1·tanh(x)` — the RGB residual of the point MLP — as
/// `±0.1·(1 − t)/(1 + t)` with `t = exp(−2|x|)`: the scalar definition
/// every backend's vector lanes reproduce bit for bit.
#[inline]
pub fn tenth_tanh(x: f32) -> f32 {
    let t = exp(-2.0 * x.abs());
    0.1 * ((1.0 - t) / (1.0 + t)).copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{kernel_for, Backend};

    fn runnable_backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        if Backend::Avx2.available() {
            v.push(Backend::Avx2);
        }
        v
    }

    /// The edges every input set carries: signed zeros, infinities,
    /// NaNs, the clamp bounds and their neighbours, the subnormal and
    /// overflow thresholds, the largest finite values.
    fn edges() -> Vec<f32> {
        let next = |x: f32| f32::from_bits(x.to_bits() + 1);
        let mut v = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            88.722_84,
            88.722_83,
            -87.336_55,
            -103.278_93,
            8.0,
            -8.0,
            1e-30,
            -1e-30,
        ];
        for b in [EXP_HI, EXP_LO, -EXP_HI / 2.0, -EXP_LO / 2.0] {
            v.extend([b, next(b), f32::from_bits(b.to_bits() - 1)]);
        }
        v
    }

    /// 2²⁰ bit patterns spread over every exponent and sign (a Weyl
    /// sequence over all 2³² patterns), plus [`edges`].
    fn inputs() -> Vec<f32> {
        let mut v: Vec<f32> = (0u32..1 << 20)
            .map(|i| f32::from_bits(i.wrapping_mul(0x9e37_79b9).wrapping_add(0x85eb_ca6b)))
            .collect();
        // And a dense sweep of the range the forward actually uses.
        v.extend((0..1 << 16).map(|i| (i as f32 - 32768.0) / 1024.0));
        v.extend(edges());
        v
    }

    fn check_bitwise(
        name: &str,
        f: fn(f32) -> f32,
        pass: fn(&dyn super::super::MicroKernel, &mut [f32]),
    ) {
        let xs = inputs();
        let want: Vec<u32> = xs.iter().map(|&x| f(x).to_bits()).collect();
        for backend in runnable_backends() {
            // Every length mod 8 at the tail: the vector body and the
            // remainder must agree with the scalar definition.
            for skip in 0..8 {
                let mut data = xs[skip..].to_vec();
                pass(kernel_for(backend), &mut data);
                for (i, (&got, &x)) in data.iter().zip(&xs[skip..]).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want[skip + i],
                        "{}: {name}({x:e} = {:#010x}) = {got:e}, scalar says {:e}",
                        backend.name(),
                        x.to_bits(),
                        f32::from_bits(want[skip + i])
                    );
                }
            }
        }
    }

    #[test]
    fn vector_exp_matches_its_scalar_definition_bitwise() {
        check_bitwise("exp", exp, |k, d| k.exp(d));
    }

    #[test]
    fn vector_tenth_tanh_matches_its_scalar_definition_bitwise() {
        check_bitwise("tenth_tanh", tenth_tanh, |k, d| k.tenth_tanh(d));
    }

    #[test]
    fn edge_values_are_the_ideal_ones() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(EXP_LO).to_bits(), 0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(EXP_HI), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(88.722_83).is_finite());
        assert!(exp(-103.0) > 0.0, "the subnormal range is not flushed");
        assert_eq!(tenth_tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tenth_tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tenth_tanh(f32::INFINITY), 0.1);
        assert_eq!(tenth_tanh(f32::NEG_INFINITY), -0.1);
        assert_eq!(tenth_tanh(f32::MAX), 0.1);
        assert!(tenth_tanh(f32::NAN).is_nan());
    }

    /// Distance in units in the last place between two finite `f32`s of
    /// one sign (or zero).
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn exp_is_within_two_ulp_of_libm_on_the_forward_range() {
        // Every 2⁻¹² step of [−88, 8] — every value the blend softmax
        // (≤ 0) and the density decode ([−8, 8]) feed it, at that
        // resolution — plus the inputs of the bitwise test that fall in
        // the range.
        let steps = (96.0 * 4096.0) as i32;
        let grid = (0..=steps).map(|i| -88.0 + i as f32 / 4096.0);
        let sampled = inputs().into_iter().filter(|x| (-88.0..=8.0).contains(x));
        let mut worst = (0u32, 0.0f32);
        for x in grid.chain(sampled) {
            let d = ulps(exp(x), x.exp());
            if d > worst.0 {
                worst = (d, x);
            }
        }
        assert!(
            worst.0 <= 2,
            "exp is {} ulp off libm at {:e}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn tenth_tanh_is_within_2_pow_minus_23_of_libm_everywhere() {
        let bound = f32::EPSILON; // 2⁻²³
        let mut worst = (0.0f32, 0.0f32);
        for x in inputs().into_iter().filter(|x| !x.is_nan()) {
            let d = (tenth_tanh(x) - 0.1 * x.tanh()).abs();
            if d > worst.0 {
                worst = (d, x);
            }
        }
        assert!(
            worst.0 <= bound,
            "0.1·tanh is {:e} off libm at {:e}",
            worst.0,
            worst.1
        );
    }
}
