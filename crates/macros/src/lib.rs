//! Analog macro designs under test for `castg`.
//!
//! The paper evaluates its methodology on a CMOS IV-converter macro (a
//! photodiode transimpedance amplifier, the paper’s ref. \[9\]) with an exhaustive fault
//! list of 55 faults and five test configurations (Table 1). The
//! original MESA design is not public; [`IvConverter`] is a
//! representative substitute — a two-stage Miller-compensated CMOS
//! transimpedance amplifier with exactly **10 fault-site nodes** (45
//! bridge pairs) and **10 transistors** (10 pinholes), so the fault
//! universe matches the paper's.
//!
//! Every macro's test configurations are Fig.-1 description text run
//! by [`castg_core::DescribedConfig`]. The IV-converter's five Table-1
//! configurations (DC transfer, supply current, THD, step
//! max-deviation, step accumulated-deviation) and the bipolar op-amp's
//! two are the committed fixture files `tests/fixtures/iv_configs/*.cfg`
//! and `tests/fixtures/bjt_configs/*.cfg` — the same files
//! `castg generate --configs` loads. Their `box_*` variables fold the
//! equipment accuracy into the box (§2.2).
//!
//! The crate also provides:
//!
//! * [`ProcessVariation`] — a lot-plus-mismatch process model used to
//!   calibrate tolerance boxes by Monte Carlo,
//! * [`BoxPolicy`] / [`BoxGrid`] / [`calibrate_box`] — the paper's
//!   *box-functions*: cheap per-configuration estimators of the
//!   tolerance-box value at any parameter vector, calibrated through
//!   any configuration,
//! * [`OtaBuffer`] — a second, smaller macro demonstrating that the
//!   framework generalizes beyond the IV-converter,
//! * [`BjtOpAmp`] — a bipolar (diode + BJT) two-stage follower whose
//!   dictionary carries junction pinholes, demonstrating the framework
//!   is not MOS-specific.
//!
//! # Example
//!
//! ```no_run
//! use castg_core::{AnalogMacro, Generator, NominalCache};
//! use castg_macros::IvConverter;
//!
//! let mac = IvConverter::new();
//! let cache = NominalCache::new();
//! let generator = Generator::new(&mac, &cache);
//! let report = generator.generate(&mac.fault_dictionary());
//! println!("{} best tests generated", report.tests.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bjt_opamp;
mod boxes;
mod iv_configs;
mod iv_converter;
mod ota;
mod process;

pub use bjt_opamp::BjtOpAmp;
pub use boxes::{calibrate_box, BoxGrid, BoxPolicy};
pub use iv_converter::IvConverter;
pub use ota::OtaBuffer;
pub use process::ProcessVariation;

use std::sync::Arc;

use castg_core::{ConfigDescription, DescribedConfig, TestConfiguration};

/// Interprets a macro's built-in description texts, ids 1… in order.
fn described(texts: &[&str]) -> Vec<Arc<dyn TestConfiguration>> {
    texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let descr = ConfigDescription::parse(text).expect("built-in descriptions parse");
            let config =
                DescribedConfig::new(i + 1, descr).expect("built-in descriptions interpret");
            Arc::new(config) as Arc<dyn TestConfiguration>
        })
        .collect()
}
