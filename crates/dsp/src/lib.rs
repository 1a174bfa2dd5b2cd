//! Waveform post-processing for `castg`.
//!
//! The paper's test configurations turn simulated waveforms into scalar
//! *return values*: a total-harmonic-distortion measurement for the sine
//! configuration, and max/accumulated deviations for the sampled step
//! responses. This crate implements that measurement layer:
//!
//! * [`UniformSamples`] — a uniformly sampled waveform, with linear-
//!   interpolation resampling from arbitrary `(t, v)` traces,
//! * [`goertzel`](fn@goertzel) — single-bin DFT evaluation at an arbitrary frequency,
//! * [`thd`](fn@thd) / [`harmonic_magnitudes`] — harmonic analysis,
//! * [`metrics`] — the max and accumulated deviations between a faulty
//!   and a nominal sampled response.
//!
//! # Example
//!
//! ```
//! use castg_dsp::{thd, UniformSamples};
//!
//! // A 1 kHz sine with a 5 % third harmonic.
//! let fs = 64_000.0;
//! let samples: Vec<f64> = (0..512)
//!     .map(|n| {
//!         let t = n as f64 / fs;
//!         (2.0 * std::f64::consts::PI * 1_000.0 * t).sin()
//!             + 0.05 * (2.0 * std::f64::consts::PI * 3_000.0 * t).sin()
//!     })
//!     .collect();
//! let wave = UniformSamples::new(0.0, 1.0 / fs, samples);
//! let d = thd(&wave, 1_000.0, 5).unwrap();
//! assert!((d - 5.0).abs() < 0.1); // ≈ 5 % THD
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod goertzel;
pub mod metrics;
mod sample;
mod thd;

pub use goertzel::{goertzel, GoertzelResult};
pub use sample::UniformSamples;
pub use thd::{harmonic_magnitudes, thd};
