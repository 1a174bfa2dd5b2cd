//! Fixed-step transient analysis.
//!
//! Every reactance of the plan's list (explicit capacitors and
//! inductors, MOS gate and junction capacitances) is replaced by its
//! integration companion model — trapezoidal after the first step,
//! backward Euler on the first step and for sub-stepped recovery; the
//! transient keeps only each element's `(v_prev, i_prev)` history. The
//! resulting nonlinear system is solved by the DC analysis's own Newton
//! iteration ([`NewtonScratch::newton`]), with the companions as extra
//! stamps.
//!
//! The step size is caller-chosen and fixed; the test configurations of
//! the paper prescribe their own sample rates (100 MHz for the step
//! responses), so the engine simply honours whatever resolution the
//! configuration requests. A step that refuses to converge is retried
//! with two passes of the DC ladder's gmin walk ([`gmin_walk`]) and
//! then by recursive 8x step cutting (up to 512x), which copes with
//! steep stimulus ramps and with operating-branch snaps such as an
//! op-amp entering clipping.

use std::sync::Arc;

use castg_numeric::StampTarget;

use crate::analysis::AnalysisOptions;
use crate::budget::IterBudget;
use crate::circuit::Circuit;
use crate::dc::{
    gmin_walk, resolve_overrides, DcAnalysis, NewtonCfg, NewtonScratch, NewtonStrategy, RungStat,
};
use crate::probe::{Probe, Trace};
use crate::stamp::Reactance;
use crate::stimulus::Waveform;
use crate::SpiceError;

/// The tail of a linear plan's [`JacobianKey`](crate::dc::JacobianKey)
/// for a companion-augmented transient matrix: the companion
/// conductances are a pure function of the integration method and the
/// step size `h`, both carried verbatim (tags 1/2 keep the method
/// spaces disjoint from DC's zero tag and from each other).
fn companion_key(method: IntegrationMethod, h: f64) -> (u64, u64) {
    let tag: u64 = match method {
        IntegrationMethod::BackwardEuler => 1,
        IntegrationMethod::Trapezoidal => 2,
    };
    (tag, h.to_bits())
}

/// Time-integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntegrationMethod {
    /// First-order, L-stable; damps ringing but adds numerical loss.
    BackwardEuler,
    /// Second-order; the default, matching common SPICE practice.
    #[default]
    Trapezoidal,
}

/// Rewrites a gmin-ladder failure with the timepoint for diagnosis.
fn ladder_error(e: SpiceError, t1: f64) -> SpiceError {
    match e {
        SpiceError::NoConvergence { iterations, .. } => SpiceError::NoConvergence {
            analysis: format!("transient @ t={t1:.3e} (gmin ladder)"),
            iterations,
        },
        other => other,
    }
}

/// Levels of recursive 8× step cutting attempted on non-convergence.
const RETRY_DEPTH: usize = 3;

/// The integrator state of one reactance at the previous accepted
/// timepoint: `(v_prev, i_prev)`, terminal voltage and element current.
type History = (f64, f64);

/// Per-run solver state: the shared Newton scratch (compiled stamp
/// plan, matrix, rhs, LU workspace, update vector) plus the
/// transient-specific staging buffers. Allocated once in
/// [`TranAnalysis::run`]; every timestep and every Newton iteration
/// inside it then reuses these buffers.
#[derive(Debug)]
struct TranScratch {
    newton: NewtonScratch,
    /// Newton working state (candidate solution being iterated).
    x_iter: Vec<f64>,
    /// Per-reactance companion `(geq, i_hist)` for the current step.
    companions: Vec<(f64, f64)>,
}

impl TranScratch {
    fn new(
        circuit: &Circuit,
        solver: crate::solver::SolverKind,
        ordering: crate::solver::OrderingKind,
    ) -> Self {
        // Transient stamps companion conductances into the dynamic
        // slots, so its Newton systems live on the full pattern.
        let newton =
            NewtonScratch::new(circuit, solver, ordering, crate::stamp::PatternScope::Full);
        let n = newton.plan.dim();
        let companions = Vec::with_capacity(newton.plan.reactances().len());
        TranScratch { newton, x_iter: vec![0.0; n], companions }
    }
}

/// Fixed-step transient simulator for a [`Circuit`].
///
/// # Example
///
/// ```
/// use castg_spice::{Circuit, Probe, TranAnalysis, Waveform};
///
/// // RC low-pass step response: v(t) = 1 − e^(−t/RC).
/// let mut c = Circuit::new();
/// let inp = c.node("in");
/// let out = c.node("out");
/// c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-9))?;
/// c.add_resistor("R1", inp, out, 1e3)?;
/// c.add_capacitor("C1", out, Circuit::GROUND, 1e-9)?; // τ = 1 µs
/// let trace = TranAnalysis::new(&c).run(5e-6, 10e-9, &[Probe::NodeVoltage(out)])?;
/// let v_end = *trace.column(0).last().unwrap();
/// assert!((v_end - 1.0).abs() < 0.01); // settled after 5 τ
/// # Ok::<(), castg_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TranAnalysis<'c> {
    circuit: &'c Circuit,
    options: AnalysisOptions,
    method: IntegrationMethod,
    overrides: Vec<(String, Waveform)>,
}

impl<'c> TranAnalysis<'c> {
    /// Creates a transient solver with default options (trapezoidal).
    pub fn new(circuit: &'c Circuit) -> Self {
        TranAnalysis {
            circuit,
            options: AnalysisOptions::default(),
            method: IntegrationMethod::default(),
            overrides: Vec::new(),
        }
    }

    /// Creates a transient solver with explicit options and method.
    pub fn with_options(
        circuit: &'c Circuit,
        options: AnalysisOptions,
        method: IntegrationMethod,
    ) -> Self {
        TranAnalysis { circuit, options, method, overrides: Vec::new() }
    }

    /// Overrides the waveform of a named independent source for this
    /// run only (including its internal DC operating-point solve),
    /// without cloning or mutating the circuit — bit-identical to
    /// running a circuit built with `wave` on that source.
    pub fn override_stimulus(mut self, name: impl Into<String>, wave: Waveform) -> Self {
        self.overrides.push((name.into(), wave));
        self
    }

    /// Runs from `t = 0` to `t_stop` with step `dt`, starting from the DC
    /// operating point, recording `probes` at every timepoint (including
    /// `t = 0`).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidAnalysis`] for non-positive `t_stop`/`dt`
    /// or an unusable tolerance, gmin or clamp in the options, plus any
    /// DC or per-step convergence failure.
    pub fn run(&self, t_stop: f64, dt: f64, probes: &[Probe]) -> Result<Trace, SpiceError> {
        self.options.validate()?;
        if !(t_stop > 0.0 && t_stop.is_finite() && dt > 0.0 && dt.is_finite()) {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!("need positive t_stop and dt, got t_stop={t_stop}, dt={dt}"),
            });
        }
        if dt > t_stop {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!("dt={dt} exceeds t_stop={t_stop}"),
            });
        }

        let dc = DcAnalysis::with_options(self.circuit, self.options)
            .with_overrides(self.overrides.clone())
            .solve()?;
        let mut x = dc.state().to_vec();

        let labels: Vec<String> = probes.iter().map(|p| p.label(self.circuit)).collect();
        let mut trace = Trace::new(labels);

        let mut row = Vec::with_capacity(probes.len());
        self.record(probes, &x, &mut row)?;
        trace.push_row(0.0, &row);

        let n_steps = (t_stop / dt - 1e-9).ceil().max(1.0) as usize;
        let mut scratch =
            TranScratch::new(self.circuit, self.options.solver, self.options.ordering);
        scratch.newton.overrides = resolve_overrides(self.circuit, &self.overrides)?;
        // Every reactance starts in the DC steady state: a capacitance
        // at its DC voltage carrying no current, an inductor dropping
        // nothing while it carries its DC (short) branch current.
        let mut history: Vec<History> = scratch
            .newton
            .plan
            .reactances()
            .iter()
            .map(|r| match *r {
                Reactance::Cap { .. } => (r.voltage(&x), 0.0),
                Reactance::Ind { row, .. } => (0.0, x[row]),
            })
            .collect();

        // Every Newton iteration of every timestep (ladder stages and
        // sub-step retries included) charges the `with_solve_budget`
        // overlay, which also spans the initial DC operating point
        // above.
        let mut budget = IterBudget::start("transient");
        for k in 1..=n_steps {
            let t1 = (k as f64) * dt;
            let t0 = t1 - dt;
            let method = if k == 1 { IntegrationMethod::BackwardEuler } else { self.method };
            self.advance(
                &mut x,
                &mut history,
                t0,
                t1,
                method,
                RETRY_DEPTH,
                &mut scratch,
                &mut budget,
            )?;
            self.record(probes, &x, &mut row)?;
            trace.push_row(t1, &row);
        }
        Ok(trace)
    }

    /// Advances `x` from `t0` to `t1` in one step, recursively cutting
    /// the interval into eight backward-Euler sub-steps on convergence
    /// failure (each cut multiplies the capacitive companion
    /// conductances by eight, anchoring the iteration; two levels give
    /// an effective 64× step reduction). `x` is updated in place on
    /// success and left at the last accepted state on failure.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        x: &mut [f64],
        history: &mut [History],
        t0: f64,
        t1: f64,
        method: IntegrationMethod,
        depth: usize,
        scratch: &mut TranScratch,
        budget: &mut IterBudget,
    ) -> Result<(), SpiceError> {
        match self.step(x, history, t1, t1 - t0, method, scratch, budget) {
            Ok(()) => Ok(()),
            // A depleted budget caused the failure (or would cut every
            // sub-step off at its first iteration) — don't retry.
            Err(SpiceError::NoConvergence { .. }) if depth > 0 && !budget.depleted() => {
                let sub = 8;
                let h = (t1 - t0) / sub as f64;
                for j in 1..=sub {
                    let ta = t0 + h * (j - 1) as f64;
                    let tb = if j == sub { t1 } else { t0 + h * j as f64 };
                    self.advance(
                        x,
                        history,
                        ta,
                        tb,
                        IntegrationMethod::BackwardEuler,
                        depth - 1,
                        scratch,
                        budget,
                    )?;
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// One Newton solve at time `t1` with step `h` over the
    /// companion-augmented system; on success updates the reactance
    /// histories and `x` in place. On failure `x` is left untouched.
    ///
    /// If the warm-started Newton fails (e.g. the circuit snaps between
    /// operating branches, as an op-amp entering clipping does), the step
    /// is retried with the gmin walk of the DC ladder before giving up.
    ///
    /// For a linear plan the companion-augmented Jacobian is a pure
    /// function of `(gmin, method, h)` — constant across the Newton
    /// iterations of a step *and across timesteps* at a fixed step
    /// size — which the key tail `(method, h)` passes on, so a
    /// fixed-step transient of a linear circuit factors once and then
    /// pays only rhs re-derivation + substitution per step (and a later
    /// run at the same step size starts factored, see
    /// [`NewtonScratch::factor`]). History terms live purely in the rhs
    /// and never break the reuse.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        x: &mut [f64],
        history: &mut [History],
        t1: f64,
        h: f64,
        method: IntegrationMethod,
        scratch: &mut TranScratch,
        budget: &mut IterBudget,
    ) -> Result<(), SpiceError> {
        let opts = &self.options;
        let TranScratch { newton, x_iter, companions } = scratch;
        let plan = Arc::clone(&newton.plan);
        let reactances = plan.reactances();

        // Companion parameters per reactance (buffer reused across
        // steps): `(geq, history)` for capacitances, `(req, history)`
        // for inductors — both pure functions of (element, method, h)
        // and the previous accepted state.
        companions.clear();
        companions.extend(reactances.iter().zip(history.iter()).map(|(r, &(v_prev, i_prev))| {
            match (*r, method) {
                (Reactance::Cap { farads, .. }, IntegrationMethod::BackwardEuler) => {
                    let geq = farads / h;
                    (geq, geq * v_prev)
                }
                (Reactance::Cap { farads, .. }, IntegrationMethod::Trapezoidal) => {
                    let geq = 2.0 * farads / h;
                    (geq, geq * v_prev + i_prev)
                }
                // Inductor branch row: v(a) − v(b) − req·i = hist.
                (Reactance::Ind { henries, .. }, IntegrationMethod::BackwardEuler) => {
                    let req = henries / h;
                    (req, -req * i_prev)
                }
                (Reactance::Ind { henries, .. }, IntegrationMethod::Trapezoidal) => {
                    let req = 2.0 * henries / h;
                    (req, -req * i_prev - v_prev)
                }
            }
        }));
        let companions = &*companions;
        let stamps = |mat: &mut dyn StampTarget| {
            for (r, (geq, _)) in reactances.iter().zip(companions) {
                r.stamp(mat, *geq);
            }
        };
        let rhs_terms = |rhs: &mut [f64]| {
            for (r, (_, hist)) in reactances.iter().zip(companions) {
                r.stamp_history(rhs, *hist);
            }
        };

        newton.eval_sources(|w| w.eval(t1));
        let cfg = NewtonCfg {
            circuit: self.circuit,
            opts,
            gmin: opts.gmin,
            max_iter: opts.max_iter,
            clamp: opts.max_step_v,
            max_boost: 1.0,
            key: Some(companion_key(method, h)),
        };
        x_iter.copy_from_slice(x);
        let mut stat = RungStat::new(NewtonStrategy::Damped);
        match newton.newton(x_iter, &cfg, budget, &mut stat, stamps, rhs_terms) {
            Ok(()) => {}
            Err(SpiceError::NoConvergence { .. }) if !budget.depleted() => {
                // gmin walk: solve a heavily shunted version first and
                // relax decade by decade, warm-starting each stage. The
                // first attempt uses normal damping; if the circuit is
                // snapping between operating branches (clipping onset),
                // a second attempt with much stronger damping and a
                // higher iteration budget usually lands it.
                let attempts =
                    [(1e-2, opts.max_step_v, opts.max_iter), (1e-1, 0.05, 4 * opts.max_iter)];
                let mut result = Ok(());
                for (start, clamp, max_iter) in attempts {
                    x_iter.copy_from_slice(x);
                    let mut stat = RungStat::new(NewtonStrategy::GminStepping);
                    result = gmin_walk(start, opts.gmin, |gmin| {
                        let cfg = NewtonCfg { gmin, max_iter, clamp, ..cfg };
                        newton.newton(x_iter, &cfg, budget, &mut stat, stamps, rhs_terms)
                    })
                    .map_err(|e| ladder_error(e, t1));
                    if result.is_ok() {
                        break;
                    }
                }
                result?;
            }
            Err(other) => return Err(other),
        }

        // Accept: the converged solution is in x_iter.
        x.copy_from_slice(x_iter);
        // Update the histories from the converged solution.
        for ((r, (geq, hist)), (v_prev, i_prev)) in
            reactances.iter().zip(companions).zip(history.iter_mut())
        {
            match *r {
                Reactance::Cap { .. } => {
                    let v_new = r.voltage(x);
                    *i_prev = geq * v_new - hist;
                    *v_prev = v_new;
                }
                Reactance::Ind { row, .. } => {
                    *i_prev = x[row];
                    *v_prev = r.voltage(x);
                }
            }
        }
        Ok(())
    }

    fn record(&self, probes: &[Probe], x: &[f64], row: &mut Vec<f64>) -> Result<(), SpiceError> {
        row.clear();
        for p in probes {
            row.push(p.extract(self.circuit, x)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Waveform};

    fn rc_circuit(tau_r: f64, tau_c: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-9)).unwrap();
        c.add_resistor("R1", inp, out, tau_r).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, tau_c).unwrap();
        (c, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (c, out) = rc_circuit(1e3, 1e-9); // τ = 1 µs
        let trace = TranAnalysis::new(&c).run(3e-6, 5e-9, &[Probe::NodeVoltage(out)]).unwrap();
        let tau = 1e-6;
        let mut worst = 0.0_f64;
        for (t, v) in trace.times().iter().zip(trace.column(0)) {
            // The source ramps over the first 1 ns; skip that region.
            if *t < 5e-9 {
                continue;
            }
            let expected = 1.0 - (-(t - 1e-9) / tau).exp();
            worst = worst.max((v - expected).abs());
        }
        assert!(worst < 5e-3, "worst deviation {worst}");
    }

    #[test]
    fn rc_sine_amplitude_matches_transfer_function() {
        // Drive at the pole frequency: |H| = 1/√2, phase −45°.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        let (r, cap) = (1e3, 1e-9);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * r * cap); // ≈159 kHz
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::sine(0.0, 1.0, f0)).unwrap();
        c.add_resistor("R1", inp, out, r).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, cap).unwrap();
        let period = 1.0 / f0;
        let trace = TranAnalysis::new(&c)
            .run(8.0 * period, period / 200.0, &[Probe::NodeVoltage(out)])
            .unwrap();
        // Skip the first 5 periods (transient), measure peak of the rest.
        let n = trace.len();
        let peak = trace.column(0)[(5 * n / 8)..].iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let expected = 1.0 / 2.0_f64.sqrt();
        assert!((peak - expected).abs() < 0.02, "peak {peak}, expected {expected}");
    }

    #[test]
    fn backward_euler_also_tracks_rc() {
        let (c, out) = rc_circuit(1e3, 1e-9);
        let trace = TranAnalysis::with_options(
            &c,
            AnalysisOptions::default(),
            IntegrationMethod::BackwardEuler,
        )
        .run(3e-6, 5e-9, &[Probe::NodeVoltage(out)])
        .unwrap();
        let v_end = *trace.column(0).last().unwrap();
        assert!((v_end - 0.95).abs() < 0.05, "v_end {v_end}");
    }

    #[test]
    fn source_current_probe_records_capacitor_charging() {
        let (c, _) = rc_circuit(1e3, 1e-9);
        let trace =
            TranAnalysis::new(&c).run(10e-6, 10e-9, &[Probe::SourceCurrent("V1".into())]).unwrap();
        // Just after the step the full 1 V sits across R: i = −1 mA
        // (SPICE convention: + to − through the source is positive).
        let i_early = trace.column(0)[1];
        assert!((i_early + 1e-3).abs() < 0.1e-3, "i_early {i_early}");
        // Fully charged: no current.
        let i_late = *trace.column(0).last().unwrap();
        assert!(i_late.abs() < 1e-5, "i_late {i_late}");
    }

    /// A transient stimulus override must reproduce, bit for bit, the
    /// trace of a circuit built with the overriding waveform (the
    /// linear fixture also exercises the factor-once-per-run Jacobian
    /// reuse on both paths).
    #[test]
    fn transient_override_matches_set_stimulus_bitwise() {
        let (c, out) = rc_circuit(1e3, 1e-9);
        let wave = Waveform::step(0.5, 1.5, 0.2e-6, 1e-9);
        let via_override = TranAnalysis::new(&c)
            .override_stimulus("V1", wave.clone())
            .run(2e-6, 10e-9, &[Probe::NodeVoltage(out)])
            .unwrap();
        let mut rebuilt = Circuit::new();
        let inp = rebuilt.node("in");
        let out = rebuilt.node("out");
        rebuilt.add_vsource("V1", inp, Circuit::GROUND, wave).unwrap();
        rebuilt.add_resistor("R1", inp, out, 1e3).unwrap();
        rebuilt.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let direct =
            TranAnalysis::new(&rebuilt).run(2e-6, 10e-9, &[Probe::NodeVoltage(out)]).unwrap();
        assert_eq!(via_override.len(), direct.len());
        for (a, b) in via_override.column(0).iter().zip(direct.column(0)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// RL step response: i(t) = (V/R)·(1 − e^(−t·R/L)); the current is
    /// probed through the inductor's own branch unknown.
    #[test]
    fn rl_step_current_matches_analytic() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-9)).unwrap();
        c.add_resistor("R1", inp, mid, 1e3).unwrap();
        c.add_inductor("L1", mid, Circuit::GROUND, 1e-3).unwrap(); // τ = 1 µs
        let trace =
            TranAnalysis::new(&c).run(3e-6, 5e-9, &[Probe::SourceCurrent("L1".into())]).unwrap();
        let tau = 1e-3 / 1e3;
        let mut worst = 0.0_f64;
        for (t, i) in trace.times().iter().zip(trace.column(0)) {
            if *t < 5e-9 {
                continue; // source still ramping
            }
            let expected = 1e-3 * (1.0 - (-(t - 1e-9) / tau).exp());
            worst = worst.max((i - expected).abs());
        }
        assert!(worst < 5e-6, "worst current deviation {worst}");
    }

    /// Backward Euler also integrates the inductor (first step always
    /// uses it, and the sub-stepped recovery path relies on it).
    #[test]
    fn rl_backward_euler_settles() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-9)).unwrap();
        c.add_resistor("R1", inp, mid, 1e3).unwrap();
        c.add_inductor("L1", mid, Circuit::GROUND, 1e-3).unwrap();
        let trace = TranAnalysis::with_options(
            &c,
            AnalysisOptions::default(),
            IntegrationMethod::BackwardEuler,
        )
        .run(10e-6, 10e-9, &[Probe::SourceCurrent("L1".into())])
        .unwrap();
        let i_end = *trace.column(0).last().unwrap();
        assert!((i_end - 1e-3).abs() < 2e-5, "i_end {i_end}");
    }

    /// A second run of a linear circuit at the same step size starts
    /// from the plan's cached first factorizations — of the DC
    /// operating point and of the first step's companion matrix — and
    /// records the identical trace. (Later steps' `h = t1 − t0` rounds
    /// to a few distinct keys; those factor per run, as before.)
    #[test]
    fn later_linear_runs_start_factored() {
        let factorizations = || crate::solver::FACTORIZATIONS.with(|c| c.get());
        let (c, out) = rc_circuit(1e3, 1e-9);
        let run = |c: &Circuit| {
            let trace = TranAnalysis::new(c).run(2e-6, 20e-9, &[Probe::NodeVoltage(out)]).unwrap();
            trace.column(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let counted = |c: &Circuit| {
            let before = factorizations();
            let bits = run(c);
            (bits, factorizations() - before)
        };
        let (first, first_n) = counted(&c);
        let (second, second_n) = counted(&c);
        let (fresh, fresh_n) = counted(&rc_circuit(1e3, 1e-9).0);
        assert_eq!((first_n, fresh_n), (second_n + 2, second_n + 2));
        assert_eq!(first, second);
        assert_eq!(fresh, second);
    }

    #[test]
    fn rejects_bad_time_parameters() {
        let (c, out) = rc_circuit(1e3, 1e-9);
        let tr = TranAnalysis::new(&c);
        assert!(tr.run(0.0, 1e-9, &[Probe::NodeVoltage(out)]).is_err());
        assert!(tr.run(1e-6, 0.0, &[Probe::NodeVoltage(out)]).is_err());
        assert!(tr.run(1e-9, 1e-6, &[Probe::NodeVoltage(out)]).is_err());
    }

    #[test]
    fn records_t_zero_and_final_time() {
        let (c, out) = rc_circuit(1e3, 1e-9);
        let trace = TranAnalysis::new(&c).run(1e-6, 1e-8, &[Probe::NodeVoltage(out)]).unwrap();
        assert_eq!(trace.times()[0], 0.0);
        let t_end = *trace.times().last().unwrap();
        assert!((t_end - 1e-6).abs() < 1e-12);
        assert_eq!(trace.len(), 101);
    }

    #[test]
    fn unknown_current_probe_errors() {
        let (c, _) = rc_circuit(1e3, 1e-9);
        let err = TranAnalysis::new(&c)
            .run(1e-7, 1e-8, &[Probe::SourceCurrent("nope".into())])
            .unwrap_err();
        assert!(matches!(err, SpiceError::UnknownDevice { .. }));
    }
}
