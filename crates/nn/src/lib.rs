//! Minimal neural-network substrate for the Gen-NeRF reproduction.
//!
//! The Gen-NeRF paper's model side needs: per-point MLPs, a ray
//! transformer baseline (attention over the points of a ray), the
//! proposed Ray-Mixer (paper Eqs. 4–5), a feature encoder, and INT8
//! execution on the accelerator's systolic arrays. This crate implements
//! all of that from scratch:
//!
//! * [`Tensor2`] — a row-major 2D `f32` tensor with the handful of BLAS
//!   operations the models need,
//! * [`kernels`] — runtime-dispatched micro-kernel backends for the
//!   dense hot paths (GEMM, bias+ReLU, softmax, INT8 GEMM): a portable
//!   scalar kernel plus AVX2+FMA, bitwise equal to each other and
//!   selected at startup via `GEN_NERF_KERNEL={auto,scalar,avx2}`,
//! * [`layers`] — `Linear`, `Relu`, row softmax and the MSE loss, each
//!   with explicit, tested backward passes,
//! * [`attention`] — single-head self-attention (the ray transformer),
//! * [`mixer`] — the Ray-Mixer module (token-mixing + channel-mixing FCs
//!   with residuals, Eqs. 4–5),
//! * [`optim`] — Adam,
//! * [`quant`] — symmetric INT8 per-tensor quantization and a quantized
//!   matmul mirroring what the PE pool executes,
//! * [`flops`] — FLOPs accounting used by every efficiency table in the
//!   paper.
//!
//! Determinism: all weight initialization flows through [`init::Rng`]
//! (a seeded ChaCha8 stream), so experiments reproduce bit-for-bit.
//!
//! # Example
//!
//! ```
//! use gen_nerf_nn::{layers::Linear, init::Rng, Tensor2};
//!
//! let mut rng = Rng::seed_from(42);
//! let mut layer = Linear::new(4, 2, &mut rng);
//! let x = Tensor2::from_fn(3, 4, |r, c| (r + c) as f32);
//! let y = layer.forward(&x);
//! assert_eq!((y.rows(), y.cols()), (3, 2));
//! ```

#![warn(unreachable_pub)]

pub mod attention;
pub mod flops;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod mixer;
pub mod optim;
pub mod quant;
pub mod tensor;

pub use tensor::Tensor2;

/// Numerical tolerance for gradient checks in tests.
#[cfg(test)]
pub(crate) const GRAD_CHECK_TOL: f32 = 2e-2;
