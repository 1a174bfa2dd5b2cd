//! The sensitivity cost function `S_f(T_tc)` (§3.1) and the one place
//! a faulted variant is scored against its nominal:
//! [`Evaluator::sensitivity_outcome`]. Generation, compaction, the
//! tps-graph sweeps and the fault campaign all score through it.

use std::sync::Arc;

use castg_faults::Fault;
use castg_numeric::NumericError;
use castg_spice::{Circuit, SpiceError};

use crate::cache::NominalCache;
use crate::config::Measurement;
use crate::{CoreError, TestConfiguration};

/// Sensitivity value reported when the faulty circuit cannot be simulated
/// at all — a grossly broken device counts as strongly detected.
pub const SENSITIVITY_SIM_FAILURE: f64 = -1.0e3;

/// Why a *faulted* variant's simulation broke down. These are expected
/// campaign events, not errors: a hard bridge can legitimately produce
/// a circuit that no Newton strategy lands ([`SimFailure::Unconverged`]),
/// one whose MNA system loses rank ([`SimFailure::Singular`]), or one
/// that burns past its wall-clock budget ([`SimFailure::TimedOut`]).
/// The classification is carried through to the campaign's per-fault
/// outcome; the sensitivity itself stays [`SENSITIVITY_SIM_FAILURE`]
/// (counted as detected) in every case, so coverage figures do not
/// depend on *why* the variant broke.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SimFailure {
    /// The nonlinear solver exhausted its strategy ladder or its
    /// iteration budget without converging.
    Unconverged,
    /// The variant's MNA system is singular at the named unknown
    /// (`v(<node>)` / `i(<device>)`, or a raw pivot index when the
    /// failure surfaced below the circuit layer).
    Singular {
        /// The unknown whose pivot vanished.
        unknown: String,
    },
    /// The variant overran the campaign's per-item wall-clock budget
    /// ([`castg_spice::with_solve_budget`]).
    TimedOut,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimFailure::Unconverged => f.write_str("no convergence"),
            SimFailure::Singular { unknown } => write!(f, "singular at {unknown}"),
            SimFailure::TimedOut => f.write_str("wall-clock budget exceeded"),
        }
    }
}

/// Splits a faulted-variant simulation error into the expected
/// breakdown set (`Ok`) versus genuine errors (`Err` — unknown devices,
/// invalid analyses and other contract violations that must propagate).
fn classify_sim_failure(e: SpiceError) -> Result<SimFailure, SpiceError> {
    match e {
        SpiceError::NoConvergence { .. } => Ok(SimFailure::Unconverged),
        SpiceError::Singular { unknown } => Ok(SimFailure::Singular { unknown }),
        SpiceError::Numeric(NumericError::SingularMatrix { pivot }) => {
            Ok(SimFailure::Singular { unknown: format!("pivot {pivot}") })
        }
        SpiceError::Numeric(_) => Ok(SimFailure::Unconverged),
        SpiceError::Timeout { .. } => Ok(SimFailure::TimedOut),
        other => Err(other),
    }
}

/// Combines per-return deviations and box half-widths into the scalar
/// sensitivity
/// `S_f(T) = min_i (1 − |Δr_i| / box_i)`.
///
/// * `S = 1` — the faulty response is indistinguishable from nominal
///   (total insensitivity; the paper assigns cost value 1).
/// * `0 < S < 1` — a deviation exists but stays inside the tolerance box.
/// * `S < 0` — detection: the deviation exceeds the box.
///
/// Non-positive or non-finite boxes for a deviating return count as
/// immediate detection (an infinitely tight box, `S = −∞`); an empty
/// input yields `1.0` (nothing measured — nothing detected).
pub fn sensitivity(deviations: &[f64], boxes: &[f64]) -> f64 {
    debug_assert_eq!(deviations.len(), boxes.len());
    min_sensitivity(deviations.iter().copied().zip(boxes.iter().copied()))
}

/// The per-return term of `S_f(T)` and its min fold over
/// `(deviation, box)` pairs, written once for [`sensitivity`] and
/// [`Evaluator::sensitivity_outcome`].
fn min_sensitivity(terms: impl Iterator<Item = (f64, f64)>) -> f64 {
    terms.fold(1.0_f64, |s_min, (dev, b)| {
        let term = if b > 0.0 && b.is_finite() {
            1.0 - dev.abs() / b
        } else if dev.abs() > 0.0 {
            f64::NEG_INFINITY
        } else {
            1.0
        };
        s_min.min(term)
    })
}

/// Whether a sensitivity value means the fault is detected.
pub fn is_detected(s: f64) -> bool {
    s < 0.0
}

/// Scores faulted variants under one configuration for one macro,
/// caching nominal measurements (which are fault-independent) across
/// calls.
///
/// This is the inner loop of everything in this crate: tps-graph sweeps,
/// the per-fault optimizations, the impact searches, the compaction
/// screen and the campaign all compute `S_f(T)` through
/// [`sensitivity_outcome`](Evaluator::sensitivity_outcome), the one
/// place a faulted variant is scored.
pub struct Evaluator<'a> {
    config: &'a dyn TestConfiguration,
    nominal_circuit: &'a Circuit,
    cache: &'a NominalCache,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for `config` against the given nominal
    /// circuit, using `cache` for nominal measurements.
    pub fn new(
        config: &'a dyn TestConfiguration,
        nominal_circuit: &'a Circuit,
        cache: &'a NominalCache,
    ) -> Self {
        Evaluator { config, nominal_circuit, cache }
    }

    /// The configuration being evaluated.
    pub fn config(&self) -> &dyn TestConfiguration {
        self.config
    }

    /// Injects a fault into the evaluator's nominal circuit (callers
    /// that sweep parameters score one injected circuit many times).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Fault`] when the fault does not apply.
    pub fn inject(&self, fault: &Fault) -> Result<Circuit, CoreError> {
        Ok(fault.inject(self.nominal_circuit)?)
    }

    /// Nominal measurement at `params`, cached.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors (the nominal circuit is expected to
    /// simulate cleanly everywhere inside the parameter bounds).
    pub fn nominal(&self, params: &[f64]) -> Result<Arc<Measurement>, CoreError> {
        self.cache.get_or_insert(self.config.id(), params, || {
            self.config.measure(self.nominal_circuit, params)
        })
    }

    /// `S_f(T)` of an injected faulty circuit at `params` (see
    /// [`sensitivity`] for the formula) and, when the faulted
    /// simulation broke down, *why* (`None` means it simulated cleanly).
    ///
    /// A breakdown — non-convergence, a singular system, a numerical
    /// failure or a budget overrun, the marks of a grossly broken
    /// device — is not an error: it scores [`SENSITIVITY_SIM_FAILURE`]
    /// with its [`SimFailure`] classification.
    ///
    /// # Errors
    ///
    /// *Nominal* simulation failures and faulted-simulation errors
    /// outside the breakdown set (unknown devices, invalid analyses)
    /// propagate.
    pub fn sensitivity_outcome(
        &self,
        faulty_circuit: &Circuit,
        params: &[f64],
    ) -> Result<(f64, Option<SimFailure>), CoreError> {
        let nominal_m = self.nominal(params)?;
        let nominal_returns = self.config.return_values(&nominal_m, &nominal_m);
        let boxes = self.config.tolerance_box(params, &nominal_returns);
        let faulty_m = match self.config.measure(faulty_circuit, params) {
            Ok(m) => m,
            Err(CoreError::Simulation(e)) => {
                let failure = classify_sim_failure(e).map_err(CoreError::Simulation)?;
                return Ok((SENSITIVITY_SIM_FAILURE, Some(failure)));
            }
            Err(other) => return Err(other),
        };
        let faulty_returns = self.config.return_values(&faulty_m, &nominal_m);
        let deviations = faulty_returns.iter().zip(&nominal_returns).map(|(f, n)| f - n);
        Ok((min_sensitivity(deviations.zip(boxes.iter().copied())), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::DividerMacro;
    use crate::AnalogMacro;

    #[test]
    fn sensitivity_sign_convention() {
        // No deviation: total insensitivity = 1.
        assert_eq!(sensitivity(&[0.0], &[1.0]), 1.0);
        // Deviation inside the box: 0 < S < 1.
        let s = sensitivity(&[0.5], &[1.0]);
        assert!(s > 0.0 && s < 1.0);
        // Deviation at the box edge: S = 0.
        assert!(sensitivity(&[1.0], &[1.0]).abs() < 1e-12);
        // Outside: detection.
        assert!(is_detected(sensitivity(&[2.0], &[1.0])));
        assert!(!is_detected(0.5));
    }

    #[test]
    fn sensitivity_takes_worst_return_value() {
        // Second return deviates beyond its box → min wins.
        let s = sensitivity(&[0.1, 3.0], &[1.0, 1.0]);
        assert_eq!(s, -2.0);
    }

    #[test]
    fn degenerate_boxes() {
        assert_eq!(sensitivity(&[], &[]), 1.0);
        assert_eq!(sensitivity(&[0.5], &[0.0]), f64::NEG_INFINITY);
        assert_eq!(sensitivity(&[0.0], &[0.0]), 1.0);
    }

    #[test]
    fn evaluator_detects_a_hard_bridge_on_the_divider() {
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        let config = configs[0].as_ref(); // DC output voltage
        let ev = Evaluator::new(config, &circuit, &cache);

        // Strong bridge across the lower divider resistor.
        let faulty = ev.inject(&castg_faults::Fault::bridge("out", "0", 100.0)).unwrap();
        let (s, failure) = ev.sensitivity_outcome(&faulty, &config.seed()).unwrap();
        assert!(s < 0.0, "S = {s}");
        assert_eq!(failure, None);
    }

    #[test]
    fn evaluator_finds_weak_bridge_undetectable() {
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        let config = configs[0].as_ref();
        let ev = Evaluator::new(config, &circuit, &cache);

        // A 100 MΩ bridge barely moves a 1 kΩ divider.
        let faulty = ev.inject(&castg_faults::Fault::bridge("out", "0", 100e6)).unwrap();
        let (s, failure) = ev.sensitivity_outcome(&faulty, &config.seed()).unwrap();
        assert!(s > 0.0, "S = {s}");
        assert_eq!(failure, None);
    }

    #[test]
    fn nominal_measurements_are_cached() {
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        let config = configs[0].as_ref();
        let ev = Evaluator::new(config, &circuit, &cache);
        let p = config.seed();
        let a = ev.nominal(&p).unwrap();
        let b = ev.nominal(&p).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(cache.len(), 1);
    }
}
