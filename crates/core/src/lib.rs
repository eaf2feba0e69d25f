//! SpectraGAN — the paper's primary contribution, reproduced.
//!
//! A conditional GAN that synthesizes city-scale spatiotemporal mobile
//! network traffic from public context maps (§2 of the paper). The
//! model is a conditional neural sampler with three generator parts and
//! two discriminators, all operating on fixed-size patches:
//!
//! * **Encoder** `E^G` — a CNN mapping the (wider) context window to a
//!   hidden representation `h` aligned with the traffic patch.
//! * **Spectrum generator** `G^s` — produces, per pixel, the one-sided
//!   frequency components of the traffic series, which a fixed
//!   (differentiable, linear) inverse-rFFT basis turns into the
//!   periodic part of the signal.
//! * **Time-series generator** `G^t` — a batched LSTM producing the
//!   non-periodic residual in the time domain.
//! * **Discriminators** `R^s` (an MLP on spectrum rows) and `R^t` (an
//!   LSTM on traffic series), both conditioned on a separately encoded
//!   context `E^R`.
//!
//! Training minimizes Eq. 1: the two adversarial (Jensen–Shannon) terms
//! plus `λ` times an L1 term against the real series and the
//! quantile-masked real spectrum `M^q` (λ = 0.5, q = 0.75 by default).
//!
//! Generation handles **arbitrary city sizes** by sliding overlapping
//! patches with shared noise and averaging per pixel (Eq. 2), and
//! **arbitrary durations** by the k-multiple spectral expansion of
//! §2.2.4 before the inverse FFT, with the LSTM simply run for more
//! steps.
//!
//! The ablation variants of §4.2 are first-class: [`Variant::SpecOnly`],
//! [`Variant::TimeOnly`], [`Variant::TimeOnlyPlus`] and
//! [`Variant::PixelContext`] (the paper's SpectraGAN−).
//!
//! Training is **crash-safe**: [`SpectraGan::train_with`] periodically
//! writes checksummed checkpoints (weights + optimizer moments + loss
//! traces) through atomic renames, and a killed run resumed from its
//! last checkpoint produces bit-identical final weights — see
//! [`checkpoint`] and the [`train`] module docs.

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod fourier;
pub mod generate;
pub mod model;
pub mod train;
pub mod weights;

pub use checkpoint::{Checkpoint, LogRecord};
pub use config::{SpectraGanConfig, TrainConfig, Variant};
pub use error::CoreError;
pub use generate::{GenReport, PreparedContext};
pub use train::{SpectraGan, TrainOptions, TrainStats};
pub use weights::{Precision, WeightStore};
