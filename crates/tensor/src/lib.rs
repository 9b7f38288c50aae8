//! Dense `f32` tensor substrate for the GSFL reproduction.
//!
//! This crate provides everything the neural-network stack
//! ([`gsfl-nn`](https://docs.rs/gsfl-nn)) needs to train lightweight CNNs on
//! CPU without any external BLAS or deep-learning dependency:
//!
//! * [`Shape`] — dimension bookkeeping with row-major strides,
//! * [`Tensor`] — an owned, contiguous `f32` buffer plus its shape,
//! * [`matmul`] — blocked, register-tiled, optionally multithreaded
//!   matrix multiplication,
//! * [`conv`] — whole-batch im2col/col2im 2-D convolution forward and
//!   backward,
//! * [`pool`] — max/average pooling forward and backward,
//! * [`workspace`] — recycled scratch buffers so the training hot path
//!   is allocation-free after warm-up,
//! * [`threading`] — the process-wide thread budget every parallel path
//!   (GEMM rows, clients, groups, schemes) draws from,
//! * [`reference`](mod@reference) — the preserved pre-optimization
//!   kernels: test oracle and kernel perf baseline, never dispatched to
//!   by a production path,
//! * [`simd`] — runtime-dispatched SIMD lanes (AVX2/FMA/F16C with a
//!   scalar fallback, `GSFL_SIMD` override) behind the compute and
//!   codec hot paths,
//! * [`init`] — He / Xavier / uniform initializers,
//! * [`rng`] — deterministic hierarchical seed derivation so that every
//!   client, group and round of a distributed experiment draws from an
//!   independent, reproducible stream,
//! * [`io`] — flat byte serialization used to measure "transmission" sizes
//!   of model parameters and smashed data over the simulated wireless links,
//! * [`wire`] — the packed wire container (dtype-tagged, versioned,
//!   bit-packed payloads): the buffers whose measured `len()` the latency
//!   model charges as airtime.
//!
//! # Example
//!
//! ```
//! use gsfl_tensor::{Tensor, matmul};
//!
//! # fn main() -> Result<(), gsfl_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = matmul::matmul(&a, &b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod shape;
mod tensor;

pub mod conv;
pub mod init;
pub mod io;
pub mod matmul;
pub mod pool;
pub mod quant;
pub mod reference;
pub mod rng;
pub mod simd;
pub mod threading;
pub mod wire;
pub mod workspace;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::Workspace;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
