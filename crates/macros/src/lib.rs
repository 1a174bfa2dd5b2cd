//! Process variation and tolerance-box calibration for `castg`.
//!
//! The paper's macros are defined by data, not by Rust code: the
//! IV-converter (a representative substitute for the non-public MESA
//! transimpedance amplifier, the paper’s ref. \[9\]) and the bipolar
//! op-amp are the committed decks `tests/fixtures/{iv_converter,bjt_opamp}.sp`
//! with the Fig.-1 configuration texts under
//! `tests/fixtures/{iv,bjt}_configs/`, loaded by `castg-netlist` and
//! given their fault dictionaries by topology derivation. This crate
//! supplies what a deck cannot say — how much a fault-free macro
//! varies (§2.2):
//!
//! * [`ProcessVariation`] — a lot-plus-mismatch process model used to
//!   calibrate tolerance boxes by Monte Carlo,
//! * [`BoxPolicy`] / [`BoxGrid`] / [`calibrate_box`] — the paper's
//!   *box-functions*: cheap per-configuration estimators of the
//!   tolerance-box value at any parameter vector, calibrated through
//!   any configuration.
//!
//! # Example
//!
//! ```no_run
//! use castg_core::synthetic::DividerMacro;
//! use castg_core::AnalogMacro;
//! use castg_macros::BoxPolicy;
//!
//! let mac = DividerMacro::new();
//! let configs =
//!     BoxPolicy::calibrated_default().apply(&mac.nominal_circuit(), mac.configurations());
//! let config = &configs[0];
//! let b = config.tolerance_box(&config.seed(), &[0.0]);
//! println!("calibrated box at the seed: {}", b[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boxes;
mod process;

pub use boxes::{calibrate_box, BoxGrid, BoxPolicy};
pub use process::ProcessVariation;
