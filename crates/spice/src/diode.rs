//! Junction diode model: Shockley exponential with series resistance
//! and built-in **pn-junction limiting**.
//!
//! The limiting scheme is stateless: beyond the critical voltage
//! `v_crit = n·Vt·ln(n·Vt / (Is·√2))` the exponential is continued
//! *linearly* (value- and slope-continuous), so the current and the
//! conductance a Newton iteration sees stay finite no matter how far a
//! cold-start iterate overshoots the junction. Below `v_crit` the model
//! is the exact Shockley equation, so converged operating points are
//! untouched — the continuation only reshapes the search landscape.
//! Combined with the damped ladder rung's per-terminal clamp (junction
//! terminals are registered in the plan's damped mask), this is what
//! lets a rectifier solve from zeros inside the plain/damped rungs.
//! Unlike the classic SPICE `pnjlim`, no per-device iteration state is
//! needed, which keeps [`evaluate`] a pure function of the terminal
//! voltages — the property every bit-identity contract in this repo
//! (delta vs rebuild, threads 1 vs N, dense vs sparse) is built on.

/// Thermal voltage `kT/q` at the simulator's fixed 300 K (volts).
pub const THERMAL_VOLTAGE: f64 = 0.02585;

/// Shockley diode parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeParams {
    /// Saturation current `Is` in amperes (> 0).
    pub is_sat: f64,
    /// Emission coefficient `n` (≥ 1 in practice, > 0 required).
    pub n: f64,
    /// Ohmic series resistance in ohms (≥ 0).
    pub rs: f64,
    /// Zero-bias junction capacitance in farads (≥ 0), stamped as a
    /// constant capacitance by the transient engine.
    pub cj0: f64,
}

impl DiodeParams {
    /// Generic small-signal silicon diode (1N4148-class).
    pub fn signal_default() -> Self {
        DiodeParams { is_sat: 1e-14, n: 1.0, rs: 5.0, cj0: 2e-12 }
    }
}

/// Linearized operating point of a diode with respect to the terminal
/// voltage `v = v(anode) − v(cathode)` across the *whole* device
/// (junction plus series resistance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeOperatingPoint {
    /// Current into the anode (A).
    pub id: f64,
    /// Conductance ∂id/∂v (A/V).
    pub gd: f64,
}

/// The limited junction primitive: current and conductance of an ideal
/// exponential junction at voltage `v`, with the exponential continued
/// linearly above `v_crit` (see the module docs). Shared by the diode
/// and the BJT's two junctions.
pub(crate) fn limited_junction(is_sat: f64, nvt: f64, v: f64) -> (f64, f64) {
    let v_crit = nvt * (nvt / (is_sat * std::f64::consts::SQRT_2)).ln();
    if v <= v_crit {
        let e = (v / nvt).exp();
        (is_sat * (e - 1.0), is_sat * e / nvt)
    } else {
        let e = (v_crit / nvt).exp();
        let g = is_sat * e / nvt;
        (is_sat * (e - 1.0) + g * (v - v_crit), g)
    }
}

/// Evaluates the diode at terminal voltages `(va, vk)`.
///
/// With `rs > 0` the junction voltage solves the scalar implicit
/// equation `vj + rs·i(vj) = va − vk` by a bounded local Newton — the
/// composite is strictly monotone and (thanks to the limiting) at worst
/// piecewise-exponential/linear, so the iteration is a pure,
/// deterministic function of the inputs. The returned conductance is
/// the exact implicit-function derivative `gj / (1 + rs·gj)`, verified
/// against finite differences in the tests.
pub fn evaluate(params: &DiodeParams, va: f64, vk: f64) -> DiodeOperatingPoint {
    let nvt = params.n * THERMAL_VOLTAGE;
    let v = va - vk;
    if params.rs == 0.0 {
        let (id, gd) = limited_junction(params.is_sat, nvt, v);
        return DiodeOperatingPoint { id, gd };
    }
    // Solve f(vj) = vj + rs·i(vj) − v = 0 for the junction voltage.
    let mut vj = v;
    for _ in 0..100 {
        let (i, g) = limited_junction(params.is_sat, nvt, vj);
        let f = vj + params.rs * i - v;
        let delta = f / (1.0 + params.rs * g);
        vj -= delta;
        if delta.abs() <= 1e-15 * vj.abs().max(1e-9) {
            break;
        }
    }
    let (id, gj) = limited_junction(params.is_sat, nvt, vj);
    DiodeOperatingPoint { id, gd: gj / (1.0 + params.rs * gj) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diode() -> DiodeParams {
        DiodeParams::signal_default()
    }

    #[test]
    fn reverse_bias_leaks_saturation_current() {
        let p = diode();
        let op = evaluate(&p, -5.0, 0.0);
        assert!((op.id + p.is_sat).abs() < 1e-20, "id = {}", op.id);
        assert!(op.gd >= 0.0 && op.gd < 1e-12);
    }

    #[test]
    fn forward_knee_sits_near_600_millivolts() {
        let p = DiodeParams { rs: 0.0, ..diode() };
        // 1 mA forward: v = n·Vt·ln(1 + I/Is) ≈ 0.655 V for Is = 1e-14.
        let v = p.n * THERMAL_VOLTAGE * (1e-3 / p.is_sat).ln();
        let op = evaluate(&p, v, 0.0);
        assert!((op.id - 1e-3).abs() / 1e-3 < 1e-6, "id = {}", op.id);
        assert!(op.gd > 0.0);
    }

    #[test]
    fn series_resistance_softens_the_exponential() {
        let ideal = DiodeParams { rs: 0.0, ..diode() };
        let resistive = DiodeParams { rs: 100.0, ..diode() };
        let v = 0.8;
        let i_ideal = evaluate(&ideal, v, 0.0).id;
        let i_res = evaluate(&resistive, v, 0.0).id;
        assert!(i_res < i_ideal, "{i_res} !< {i_ideal}");
        // The resistive branch approaches (v − vf)/rs.
        assert!(i_res > 0.5e-3, "i_res = {i_res}");
    }

    #[test]
    fn limiting_keeps_overshoot_currents_finite() {
        let p = DiodeParams { rs: 0.0, ..diode() };
        // A cold-start Newton iterate can land tens of volts past the
        // junction; the raw exponential would overflow near 40 V·/Vt.
        let op = evaluate(&p, 100.0, 0.0);
        assert!(op.id.is_finite() && op.gd.is_finite());
        // Linear continuation: conductance is frozen at the critical
        // value, so doubling the overshoot roughly doubles the current.
        let op2 = evaluate(&p, 200.0, 0.0);
        assert_eq!(op.gd.to_bits(), op2.gd.to_bits());
        assert!((op2.id / op.id - 2.0).abs() < 0.05);
    }

    #[test]
    fn limiting_is_value_and_slope_continuous() {
        let p = DiodeParams { rs: 0.0, ..diode() };
        let nvt = p.n * THERMAL_VOLTAGE;
        let v_crit = nvt * (nvt / (p.is_sat * std::f64::consts::SQRT_2)).ln();
        let below = evaluate(&p, v_crit - 1e-9, 0.0);
        let above = evaluate(&p, v_crit + 1e-9, 0.0);
        assert!((below.id - above.id).abs() / above.id < 1e-6);
        assert!((below.gd - above.gd).abs() / above.gd < 1e-6);
    }

    /// Central-difference check of gd over bias points spanning deep
    /// reverse, the knee, the limited region, and both rs regimes.
    #[test]
    fn derivative_matches_finite_differences() {
        let h = 1e-7;
        for rs in [0.0, 5.0, 250.0] {
            let p = DiodeParams { rs, ..diode() };
            for &v in &[-3.0, -0.2, 0.3, 0.55, 0.65, 0.75, 1.5, 10.0] {
                let op = evaluate(&p, v, 0.0);
                let fd = (evaluate(&p, v + h, 0.0).id - evaluate(&p, v - h, 0.0).id) / (2.0 * h);
                let scale = op.gd.abs().max(1e-12);
                assert!(
                    (op.gd - fd).abs() < 1e-4 * scale + 1e-12,
                    "gd mismatch at rs={rs}, v={v}: {} vs fd {}",
                    op.gd,
                    fd
                );
            }
        }
    }

    #[test]
    fn evaluate_is_a_pure_function() {
        let p = diode();
        let a = evaluate(&p, 0.71234, 0.1);
        let b = evaluate(&p, 0.71234, 0.1);
        assert_eq!(a.id.to_bits(), b.id.to_bits());
        assert_eq!(a.gd.to_bits(), b.gd.to_bits());
    }
}
