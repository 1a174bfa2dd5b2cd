//! Test configurations: the paper's central abstraction for *test
//! construction* (§2.1).
//!
//! A *test configuration description* dictates which nodes are controlled
//! and observed, the waveform templates applied at the control nodes, and
//! the post-processing that produces *return values*. A *test
//! configuration implementation* adds parameter bounds, variable values
//! and a seed parameter vector for a specific macro. A **test** is a
//! configuration implementation plus a concrete parameter value set.

use castg_dsp::UniformSamples;
use castg_numeric::ParamSpace;
use castg_spice::Circuit;

use crate::descr::ConfigDescription;
use crate::CoreError;

/// Raw simulated observation of one test application, before return-value
/// post-processing.
#[derive(Debug, Clone, PartialEq)]
pub enum Measurement {
    /// One or more scalar observations (DC levels, a THD value, …).
    Scalars(Vec<f64>),
    /// A sampled waveform (the 100 MHz `Vout` records of configurations
    /// #4/#5).
    Waveform(UniformSamples),
}

impl Measurement {
    /// Convenience constructor for a single scalar measurement.
    pub fn scalar(v: f64) -> Self {
        Measurement::Scalars(vec![v])
    }

    /// The scalar values if this is a scalar measurement.
    pub fn as_scalars(&self) -> Option<&[f64]> {
        match self {
            Measurement::Scalars(v) => Some(v),
            Measurement::Waveform(_) => None,
        }
    }

    /// The waveform if this is a waveform measurement.
    pub fn as_waveform(&self) -> Option<&UniformSamples> {
        match self {
            Measurement::Waveform(w) => Some(w),
            Measurement::Scalars(_) => None,
        }
    }
}

/// A test configuration implementation for a macro type.
///
/// The workspace's one implementation is [`crate::DescribedConfig`],
/// which interprets a textual configuration description (the paper's
/// five IV-converter configurations are such `.cfg` files under
/// `tests/fixtures/iv_configs/`, loaded through `castg-netlist`); the
/// generation and compaction algorithms in this crate consume
/// configurations only through this trait.
///
/// # Contract
///
/// * [`measure`](TestConfiguration::measure) simulates one application of
///   the test to a circuit (nominal or faulty) and returns the raw
///   observation.
/// * [`return_values`](TestConfiguration::return_values) maps a
///   measurement to the configuration's return values `R(T)`, given the
///   nominal measurement at the same parameters — this is where Δ-style
///   return values (`Δy = y_faulty − y_nominal` of Table 1) are formed.
///   Calling it with the nominal measurement twice yields the nominal
///   return values.
/// * [`tolerance_box`](TestConfiguration::tolerance_box) estimates the
///   per-return tolerance box half-width (process spread + equipment
///   accuracy) at a parameter point — the paper's *box-functions*.
pub trait TestConfiguration: Send + Sync {
    /// Stable numeric id (the paper numbers its configurations #1–#5).
    fn id(&self) -> usize;

    /// Short name, e.g. `"thd"` or `"step_max_dev"`.
    fn name(&self) -> &str;

    /// Names of the attached test parameters, in vector order.
    fn param_names(&self) -> Vec<String>;

    /// Constraint values for the parameters (§3.1: determined by the
    /// macro's and the test equipment's specifications).
    fn space(&self) -> ParamSpace;

    /// The seed parameter vector the optimization starts from (§2.2: a
    /// seed consists of the configuration and a particular parameter set,
    /// supplied by e.g. the designer).
    fn seed(&self) -> Vec<f64>;

    /// Simulates the configuration on a circuit at parameter vector
    /// `params` and returns the raw measurement.
    ///
    /// # Errors
    ///
    /// [`CoreError::Configuration`] for a wrong-sized parameter vector;
    /// [`CoreError::Simulation`] if the circuit fails to converge.
    fn measure(&self, circuit: &Circuit, params: &[f64]) -> Result<Measurement, CoreError>;

    /// Maps a measurement (and the nominal measurement at the same
    /// parameters) to the configuration's return values.
    fn return_values(&self, measured: &Measurement, nominal: &Measurement) -> Vec<f64>;

    /// Tolerance-box half-widths for each return value at `params`,
    /// given the nominal return values.
    fn tolerance_box(&self, params: &[f64], nominal_returns: &[f64]) -> Vec<f64>;

    /// The structured description of this configuration (Fig. 1 of the
    /// paper); used for reporting and the textual description format.
    fn description(&self) -> ConfigDescription;
}

/// Validates a parameter vector against a configuration's space.
///
/// # Errors
///
/// [`CoreError::Configuration`] when the length differs or a value is
/// non-finite; values outside the bounds are *clamped* by the caller
/// rather than rejected here, since optimizers may probe the boundary.
pub fn check_params(config: &dyn TestConfiguration, params: &[f64]) -> Result<(), CoreError> {
    let dim = config.space().dim();
    if params.len() != dim {
        return Err(CoreError::Configuration {
            config: config.name().to_string(),
            reason: format!("expected {dim} parameters, got {}", params.len()),
        });
    }
    if let Some(bad) = params.iter().find(|p| !p.is_finite()) {
        return Err(CoreError::Configuration {
            config: config.name().to_string(),
            reason: format!("non-finite parameter value {bad}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::DividerMacro;
    use crate::AnalogMacro;

    #[test]
    fn measurement_accessors() {
        let m = Measurement::scalar(3.0);
        assert_eq!(m.as_scalars(), Some(&[3.0][..]));
        assert!(m.as_waveform().is_none());
        let w = Measurement::Waveform(UniformSamples::new(0.0, 1.0, vec![1.0]));
        assert!(w.as_scalars().is_none());
        assert!(w.as_waveform().is_some());
    }

    #[test]
    fn check_params_validates_length_and_finiteness() {
        let mac = DividerMacro::new();
        let configs = mac.configurations();
        let c = configs[0].as_ref();
        assert!(check_params(c, &c.seed()).is_ok());
        assert!(check_params(c, &[]).is_err());
        assert!(check_params(c, &[f64::NAN]).is_err());
    }
}
