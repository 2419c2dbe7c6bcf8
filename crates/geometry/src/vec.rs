//! Fixed-size vector types (`Vec2`, `Vec3`).
//!
//! These are deliberately small and `Copy`; all arithmetic is
//! component-wise unless documented otherwise.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

macro_rules! impl_vec_common {
    ($name:ident, $n:expr, [$($field:ident = $i:literal),+]) => {
        impl $name {
            /// The zero vector.
            pub const ZERO: Self = Self { $($field: 0.0),+ };
            /// The all-ones vector.
            pub const ONE: Self = Self { $($field: 1.0),+ };

            /// Creates a vector from components.
            #[inline]
            pub const fn new($($field: f32),+) -> Self {
                Self { $($field),+ }
            }

            /// Creates a vector with every component equal to `v`.
            #[inline]
            pub const fn splat(v: f32) -> Self {
                Self { $($field: v),+ }
            }

            /// Dot product.
            #[inline]
            pub fn dot(self, rhs: Self) -> f32 {
                0.0 $(+ self.$field * rhs.$field)+
            }

            /// Squared Euclidean length.
            #[inline]
            pub fn length_squared(self) -> f32 {
                self.dot(self)
            }

            /// Euclidean length.
            #[inline]
            pub fn length(self) -> f32 {
                self.length_squared().sqrt()
            }

            /// Returns the unit vector pointing in the same direction.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if the vector length is not finite and
            /// positive; in release builds the result contains infinities.
            #[inline]
            pub fn normalized(self) -> Self {
                let len = self.length();
                debug_assert!(len > 0.0, "cannot normalize a zero-length vector");
                self / len
            }

            /// Returns `None` instead of panicking when the vector is too
            /// short to normalize reliably.
            #[inline]
            pub fn try_normalized(self) -> Option<Self> {
                let len = self.length();
                if len > crate::EPSILON {
                    Some(self / len)
                } else {
                    None
                }
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, rhs: Self) -> Self {
                Self { $($field: self.$field.min(rhs.$field)),+ }
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, rhs: Self) -> Self {
                Self { $($field: self.$field.max(rhs.$field)),+ }
            }

            /// Component-wise absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self { $($field: self.$field.abs()),+ }
            }

            /// Component-wise multiplication (Hadamard product).
            #[inline]
            pub fn mul_elem(self, rhs: Self) -> Self {
                Self { $($field: self.$field * rhs.$field),+ }
            }

            /// `true` when every component is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                true $(&& self.$field.is_finite())+
            }

            /// Sum of components.
            #[inline]
            pub fn sum(self) -> f32 {
                0.0 $(+ self.$field)+
            }

            /// Component-wise clamp to `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: f32, hi: f32) -> Self {
                Self { $($field: self.$field.clamp(lo, hi)),+ }
            }

            /// View the vector as a fixed-size array of components.
            #[inline]
            pub fn to_array(self) -> [f32; $n] {
                [$(self.$field),+]
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::ZERO
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self { $($field: self.$field + rhs.$field),+ }
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self { $($field: self.$field - rhs.$field),+ }
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl Mul<f32> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f32) -> Self {
                Self { $($field: self.$field * rhs),+ }
            }
        }

        impl Mul<$name> for f32 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                rhs * self
            }
        }

        impl MulAssign<f32> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f32) {
                *self = *self * rhs;
            }
        }

        impl Div<f32> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f32) -> Self {
                Self { $($field: self.$field / rhs),+ }
            }
        }

        impl DivAssign<f32> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f32) {
                *self = *self / rhs;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self { $($field: -self.$field),+ }
            }
        }

        impl Index<usize> for $name {
            type Output = f32;
            #[inline]
            fn index(&self, i: usize) -> &f32 {
                match i {
                    $($i => &self.$field,)+
                    _ => panic!("index out of bounds: the len is {} but the index is {i}", $n),
                }
            }
        }

        impl From<[f32; $n]> for $name {
            fn from(a: [f32; $n]) -> Self {
                let mut it = a.into_iter();
                Self { $($field: it.next().unwrap()),+ }
            }
        }

        impl From<$name> for [f32; $n] {
            fn from(v: $name) -> Self {
                v.to_array()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "(")?;
                let arr = self.to_array();
                for (i, c) in arr.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    };
}

/// A 2D vector (pixel coordinates, image-plane points).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f32,
    /// Vertical component.
    pub y: f32,
}

/// A 3D vector (world/camera-space points and directions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

impl_vec_common!(Vec2, 2, [x = 0, y = 1]);
impl_vec_common!(Vec3, 3, [x = 0, y = 1, z = 2]);

impl Vec2 {
    /// Unit vector along +X.
    pub const X: Self = Self { x: 1.0, y: 0.0 };
    /// Unit vector along +Y.
    pub const Y: Self = Self { x: 0.0, y: 1.0 };

    /// 2D cross product (z-component of the 3D cross product), i.e. the
    /// signed area of the parallelogram spanned by `self` and `rhs`.
    #[inline]
    pub fn cross(self, rhs: Self) -> f32 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Extends into homogeneous image coordinates `(x, y, 1)`.
    #[inline]
    pub(crate) fn homogeneous(self) -> Vec3 {
        Vec3::new(self.x, self.y, 1.0)
    }
}

impl Vec3 {
    /// Unit vector along +X.
    pub const X: Self = Self {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +Y.
    pub const Y: Self = Self {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along +Z.
    pub const Z: Self = Self {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// 3D cross product.
    #[inline]
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn vec3_basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(b), 32.0);
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 0.5, -0.25);
        let b = Vec3::new(-2.0, 1.0, 0.75);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-6);
        assert!(c.dot(b).abs() < 1e-6);
    }

    #[test]
    fn vec2_cross_signed_area() {
        assert_eq!(Vec2::X.cross(Vec2::Y), 1.0);
        assert_eq!(Vec2::Y.cross(Vec2::X), -1.0);
    }

    #[test]
    fn normalized_has_unit_length() {
        let v = Vec3::new(3.0, 4.0, 12.0);
        assert!((v.normalized().length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn try_normalized_rejects_zero() {
        assert!(Vec3::ZERO.try_normalized().is_none());
        assert!(Vec3::X.try_normalized().is_some());
    }

    #[test]
    fn index_matches_fields() {
        let v = Vec3::new(9.0, 8.0, 7.0);
        assert_eq!(v[0], 9.0);
        assert_eq!(v[1], 8.0);
        assert_eq!(v[2], 7.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 2 but the index is 2")]
    fn index_past_the_last_field_panics() {
        let _ = Vec2::new(1.0, 2.0)[2];
    }

    #[test]
    fn display_formats_components() {
        assert_eq!(Vec2::new(1.0, 2.0).to_string(), "(1, 2)");
    }

    #[test]
    fn array_roundtrip() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let a: [f32; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
    }

    fn arb_vec3() -> impl Strategy<Value = Vec3> {
        (-100.0f32..100.0, -100.0f32..100.0, -100.0f32..100.0)
            .prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_vec3(), b in arb_vec3()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_dot_symmetric(a in arb_vec3(), b in arb_vec3()) {
            prop_assert!((a.dot(b) - b.dot(a)).abs() < 1e-3);
        }

        #[test]
        fn prop_cross_anticommutative(a in arb_vec3(), b in arb_vec3()) {
            let c1 = a.cross(b);
            let c2 = b.cross(a);
            prop_assert!((c1 + c2).length() < 1e-3);
        }

        #[test]
        fn prop_length_scales(a in arb_vec3(), s in 0.0f32..10.0) {
            prop_assert!(((a * s).length() - a.length() * s).abs() < 1e-2);
        }
    }
}
