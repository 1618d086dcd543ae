//! DSP substrate for the WiTrack reproduction.
//!
//! Everything signal-processing the system needs, implemented from scratch
//! (the approved dependency list has no FFT/linear-algebra crates, and the
//! point of the reproduction is to own these code paths):
//!
//! * [`Complex`] — complex arithmetic for baseband signals.
//! * [`fft`] — FFT plans at any length: radix-2 for powers of two, a
//!   mixed-radix (2/3/4/5) Stockham transform for 5-smooth lengths, and a
//!   Bluestein fallback for the rest, so *exact* sweep lengths work.
//!   WiTrack's sweep is 2500 = 2²·5⁴ samples (2.5 ms at 1 MS/s);
//!   transforming at the exact length keeps the paper's 400 Hz bins =
//!   8.87 cm one-way range resolution (Eq. 3). [`RealBand`] computes just
//!   the kept range bins of a real sweep from one half-length transform
//!   (the per-frame hot path).
//! * [`window`] — tapers for spectral analysis.
//! * [`kalman`] — the 1-D constant-velocity Kalman filter used to smooth
//!   per-antenna distance estimates (paper §4.4 "Filtering").
//! * [`filters`] — outlier rejection and hold-last interpolation (paper §4.4
//!   "Outlier Rejection" and "Interpolation").
//! * [`regression`] — ordinary, Theil–Sen, and Tukey-bisquare robust line
//!   fits (paper §6.1 step 3 "robust regression").
//! * [`peak`] — noise-floor estimation, local maxima, and parabolic sub-bin
//!   refinement (the contour-tracking primitives of §4.3).
//! * [`stats`] — order statistics and empirical CDFs for the evaluation
//!   harness (Figs. 8–11 report medians, 90th percentiles, CDFs).
//! * [`simd`] — runtime-dispatched AVX2/scalar kernels behind the hot
//!   inner loops above (the one module permitted `unsafe`, for the raw
//!   intrinsics; the rest of the crate denies it).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod complex;
pub mod fft;
pub mod filters;
pub mod kalman;
pub mod peak;
pub(crate) mod plan_cache;
pub mod regression;
pub mod simd;
pub mod stats;
pub mod window;

pub use complex::Complex;
pub use fft::{BandScratch, Fft, RealBand};
pub use kalman::Kalman1D;
