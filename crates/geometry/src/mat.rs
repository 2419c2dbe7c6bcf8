//! The 3×3 matrix (`Mat3`), stored row-major.

use crate::vec::Vec3;
use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Sub};

/// A 3×3 matrix, row-major.
///
/// Used for rotations, camera intrinsics and fundamental matrices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    /// Rows-major storage: `m[row][col]`.
    pub m: [[f32; 3]; 3],
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// The zero matrix.
    pub const ZERO: Self = Self { m: [[0.0; 3]; 3] };

    /// Creates a matrix from rows.
    #[inline]
    pub(crate) const fn from_rows(r0: [f32; 3], r1: [f32; 3], r2: [f32; 3]) -> Self {
        Self { m: [r0, r1, r2] }
    }

    /// Creates a matrix whose columns are the given vectors.
    #[inline]
    pub(crate) fn from_cols(c0: Vec3, c1: Vec3, c2: Vec3) -> Self {
        Self::from_rows([c0.x, c1.x, c2.x], [c0.y, c1.y, c2.y], [c0.z, c1.z, c2.z])
    }

    /// The skew-symmetric "cross-product matrix" `[v]×` such that
    /// `[v]× · w == v.cross(w)`.
    ///
    /// This is the building block of the fundamental matrix
    /// `F = K_s⁻ᵀ [t]× R K_n⁻¹`.
    #[inline]
    pub(crate) fn skew_symmetric(v: Vec3) -> Self {
        Self::from_rows([0.0, -v.z, v.y], [v.z, 0.0, -v.x], [-v.y, v.x, 0.0])
    }

    /// Row `i` as a vector.
    #[inline]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[i][0], self.m[i][1], self.m[i][2])
    }

    /// Column `j` as a vector.
    #[inline]
    pub fn col(&self, j: usize) -> Vec3 {
        Vec3::new(self.m[0][j], self.m[1][j], self.m[2][j])
    }

    /// Matrix transpose.
    #[inline]
    pub fn transpose(&self) -> Self {
        Self::from_cols(self.row(0), self.row(1), self.row(2))
    }

    /// Rotation about the Y axis by `angle` radians.
    pub fn rotation_y(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_rows([c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c])
    }

    /// Rotation about the Z axis by `angle` radians.
    pub fn rotation_z(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_rows([c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0])
    }

    /// Frobenius norm.
    #[cfg(test)]
    pub(crate) fn frobenius_norm(&self) -> f32 {
        self.m
            .iter()
            .flat_map(|r| r.iter())
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt()
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let mut out = Self::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = self.row(i).dot(rhs.col(j));
            }
        }
        out
    }
}

impl Mul<f32> for Mat3 {
    type Output = Self;
    fn mul(self, s: f32) -> Self {
        let mut out = self;
        for r in out.m.iter_mut() {
            for v in r.iter_mut() {
                *v *= s;
            }
        }
        out
    }
}

impl Add for Mat3 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let mut out = self;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] += rhs.m[i][j];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        let mut out = self;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] -= rhs.m[i][j];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mat3_identity_multiplication() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::IDENTITY * v, v);
        let m = Mat3::rotation_y(0.3);
        let prod = Mat3::IDENTITY * m;
        assert!((prod - m).frobenius_norm() < 1e-6);
    }

    #[test]
    fn skew_symmetric_matches_cross() {
        let v = Vec3::new(0.3, -1.2, 2.0);
        let w = Vec3::new(-0.5, 0.8, 1.1);
        let lhs = Mat3::skew_symmetric(v) * w;
        let rhs = v.cross(w);
        assert!((lhs - rhs).length() < 1e-6);
    }

    #[test]
    fn rotation_preserves_length() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        for m in [Mat3::rotation_y(-0.4), Mat3::rotation_z(2.7)] {
            assert!(((m * v).length() - v.length()).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]);
        assert_eq!(m.transpose().transpose(), m);
    }

    /// Z-Y-Z Euler angles reach every rotation.
    fn arb_rotation() -> impl Strategy<Value = Mat3> {
        (-3.0f32..3.0, -3.0f32..3.0, -3.0f32..3.0)
            .prop_map(|(a, b, c)| Mat3::rotation_z(a) * Mat3::rotation_y(b) * Mat3::rotation_z(c))
    }

    proptest! {
        #[test]
        fn prop_rotation_inverse_is_transpose(r in arb_rotation()) {
            let err = (r * r.transpose() - Mat3::IDENTITY).frobenius_norm();
            prop_assert!(err < 1e-4, "err = {err}");
        }

        #[test]
        fn prop_matmul_associative(
            a in arb_rotation(),
            b in arb_rotation(),
            c in arb_rotation(),
        ) {
            let lhs = (a * b) * c;
            let rhs = a * (b * c);
            prop_assert!((lhs - rhs).frobenius_norm() < 1e-4);
        }
    }
}
