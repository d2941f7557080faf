//! Pure-Rust 3D convolutional neural-network substrate.
//!
//! The paper trains its Steiner-point selector — a 3D Residual U-Net
//! (Section 3.3, Fig. 4) — with PyTorch on GPUs. That stack is not
//! available in this offline pure-Rust reproduction, so this crate
//! implements the required pieces from scratch (DESIGN.md §5,
//! substitution 1):
//!
//! * dense [`Tensor`]s with dynamic shapes ([`tensor`]),
//! * [`Conv3d`](conv3d::Conv3d) with same-padding and full backprop,
//! * ReLU / sigmoid activations ([`activation`]),
//! * ceil-mode 3D max pooling and nearest-neighbor upsampling to arbitrary
//!   target shapes ([`pool`], [`upsample`]) — the pair that lets the U-Net
//!   accept **any** `H × V × M` input,
//! * residual blocks ([`residual`]) and the full 3D Residual U-Net
//!   ([`unet`]),
//! * binary cross-entropy with logits ([`loss`]), Adam ([`optim`]),
//! * weight (de)serialization ([`serialize`]) and finite-difference
//!   gradient checking ([`gradcheck`]).
//!
//! Every [`Layer`] has one forward and one backward. The forward takes
//! `&self`, accepts a rank-4 `[C, d1, d2, d3]` sample or a channel-major
//! rank-5 `[C, B, d1, d2, d3]` batch (a sample is a batch of one), and
//! returns its backward cache only when the [`NnWorkspace`] is training, so
//! inference, shared selectors and training share one execution path.
//! Everything is `f32` and CPU-only — appropriate for the laptop-scale
//! experiments of this reproduction.
//!
//! # Example
//!
//! ```
//! use oarsmt_nn::layer::Layer;
//! use oarsmt_nn::tensor::Tensor;
//! use oarsmt_nn::unet::{UNet3d, UNetConfig};
//!
//! use oarsmt_nn::NnWorkspace;
//!
//! let mut net = UNet3d::new(UNetConfig {
//!     in_channels: 7,
//!     base_channels: 4,
//!     levels: 2,
//!     seed: 0,
//! });
//! let mut ws = NnWorkspace::new();
//! // Arbitrary spatial size: 5 x 9 x 3.
//! let x = Tensor::zeros(&[7, 5, 9, 3]);
//! let (y, cache) = net.forward(&x, &mut ws);
//! assert_eq!(y.shape(), &[1, 5, 9, 3]);
//! // Training: the cache feeds the backward pass.
//! let dx = net.backward(cache.unwrap(), y, &mut ws);
//! assert_eq!(dx.shape(), x.shape());
//! ```

// Unsafe is forbidden except under the default `simd` feature, whose AVX2
// intrinsics in `kernels::avx2` are the one sanctioned use (each site
// carries a `// SAFETY:` audit; lint rule D4 enforces both halves).
// `--no-default-features` builds the crate with `forbid(unsafe_code)`.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_op_in_unsafe_fn))]

pub mod activation;
pub mod conv3d;
pub mod error;
pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod layer;
pub mod loss;
pub mod optim;
pub mod pool;
pub mod residual;
pub mod serialize;
pub mod tensor;
pub mod unet;
pub mod upsample;
pub mod workspace;

pub use error::NnError;
pub use kernels::simd_available;
pub use layer::{Layer, Param};
pub use tensor::Tensor;
pub use unet::{UNet3d, UNetConfig};
pub use workspace::NnWorkspace;
