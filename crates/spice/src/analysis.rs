use crate::solver::{OrderingKind, SolverKind};
use crate::SpiceError;

/// Tolerances and iteration limits shared by the DC and transient solvers.
///
/// The defaults mirror common SPICE practice and are adequate for the
/// IV-converter macro; tighten `reltol`/`vntol` for precision work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisOptions {
    /// Relative convergence tolerance on solution updates.
    pub reltol: f64,
    /// Absolute voltage tolerance (volts).
    pub vntol: f64,
    /// Absolute current tolerance for branch currents (amperes).
    pub abstol: f64,
    /// Maximum Newton iterations per solve.
    pub max_iter: usize,
    /// Conductance added from every node to ground; keeps otherwise
    /// floating nodes (capacitor-only or gate-only nodes) well posed.
    pub gmin: f64,
    /// Newton damping: the largest voltage change accepted per iteration
    /// and per node (volts). Prevents the exponential-free but still
    /// stiff MOS model from overshooting.
    pub max_step_v: f64,
    /// Linear-solver path for the MNA systems. `Auto` (the default)
    /// picks dense LU for macro-sized circuits and the sparse path for
    /// large, structurally sparse ones; `Dense`/`Sparse` force a path
    /// (the differential tests cross-check the two).
    pub solver: SolverKind,
    /// Column ordering for the sparse LU's elimination. `Auto` (the
    /// default) keeps natural MNA order unless the sparsity pattern's
    /// structural counts show natural order fill-blown and AMD beating
    /// it by a margin (see [`OrderingKind::Auto`]); it never resolves to
    /// BTF. `Natural`/`Amd`/`Btf` force an ordering (the four-way
    /// differential tests cross-check them). Ignored on the dense path.
    pub ordering: OrderingKind,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            reltol: 1e-4,
            vntol: 1e-6,
            abstol: 1e-12,
            max_iter: 120,
            gmin: 1e-12,
            max_step_v: 0.5,
            solver: SolverKind::Auto,
            ordering: OrderingKind::Auto,
        }
    }
}

impl AnalysisOptions {
    /// Checks the numbers every Newton solve relies on: finite,
    /// non-negative tolerances and gmin, and a positive update clamp.
    /// A NaN tolerance makes every convergence test pass after one
    /// iteration, and a negative gmin never reaches the end of a gmin
    /// walk.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidAnalysis`] naming the offending option.
    pub(crate) fn validate(&self) -> Result<(), SpiceError> {
        let tolerances = [
            ("reltol", self.reltol),
            ("vntol", self.vntol),
            ("abstol", self.abstol),
            ("gmin", self.gmin),
        ];
        for (name, v) in tolerances {
            if !v.is_finite() || v < 0.0 {
                return Err(SpiceError::InvalidAnalysis {
                    reason: format!("{name} must be finite and non-negative, got {v}"),
                });
            }
        }
        if self.max_step_v.is_nan() || self.max_step_v <= 0.0 {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!("max_step_v must be positive, got {}", self.max_step_v),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, DcAnalysis, IntegrationMethod, TranAnalysis, Waveform};

    #[test]
    fn defaults_are_sane() {
        let o = AnalysisOptions::default();
        assert!(o.reltol > 0.0 && o.reltol < 1e-2);
        assert!(o.vntol > 0.0);
        assert!(o.max_iter >= 50);
        assert!(o.gmin > 0.0 && o.gmin < 1e-9);
        assert!(o.max_step_v > 0.0);
    }

    /// Regression: a NaN tolerance made every Newton solve "converge"
    /// after one iteration, and a negative gmin could hang the gmin
    /// walk. DC and transient analyses now refuse such options.
    #[test]
    fn invalid_tolerances_are_rejected() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        c.add_resistor("R1", inp, out, 1e3).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let d = AnalysisOptions::default();
        let bad = [
            AnalysisOptions { reltol: f64::NAN, ..d },
            AnalysisOptions { vntol: -1e-6, ..d },
            AnalysisOptions { abstol: f64::INFINITY, ..d },
            AnalysisOptions { gmin: -1e-12, ..d },
            AnalysisOptions { max_step_v: 0.0, ..d },
            AnalysisOptions { max_step_v: f64::NAN, ..d },
        ];
        for opts in bad {
            let dc = DcAnalysis::with_options(&c, opts).solve();
            assert!(matches!(dc, Err(SpiceError::InvalidAnalysis { .. })), "{opts:?}: {dc:?}");
            let tran = TranAnalysis::with_options(&c, opts, IntegrationMethod::Trapezoidal)
                .run(1e-6, 1e-7, &[]);
            assert!(matches!(tran, Err(SpiceError::InvalidAnalysis { .. })), "{opts:?}: {tran:?}");
        }
        let edge = AnalysisOptions { gmin: 0.0, max_step_v: f64::INFINITY, ..d };
        assert!(DcAnalysis::with_options(&c, edge).solve().is_ok());
    }
}
