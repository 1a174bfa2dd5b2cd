//! Stimulus waveforms for independent sources.
//!
//! These mirror the stimulus templates of the paper's Table 1: DC levels
//! for configurations #1/#2, a DC-offset sine for the THD configuration
//! #3, and the `L(t=0: base, t=10ns: base+elev, t=∞: base+elev)` ramped
//! step for configurations #4/#5 (also expressible as [`Waveform::Pwl`]).

use std::f64::consts::PI;

/// A time-dependent source value.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// `offset + amplitude·sin(2π·freq·(t − delay) + phase)`, held at its
    /// `t = delay` value before `delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        freq: f64,
        /// Phase in radians at `t = delay`.
        phase: f64,
        /// Start time in seconds.
        delay: f64,
    },
    /// A linear ramp from `base` (before `t_step`) to `base + elev`
    /// (after `t_step + t_rise`). `t_rise` is the paper's slew-rate knob.
    Step {
        /// Level before the step.
        base: f64,
        /// Elevation added by the step.
        elev: f64,
        /// Time at which the ramp starts.
        t_step: f64,
        /// Ramp duration; `0` gives an ideal (single-timestep) step.
        t_rise: f64,
    },
    /// A periodic trapezoidal pulse (SPICE `PULSE`-like).
    Pulse {
        /// Level outside the pulse.
        low: f64,
        /// Level during the pulse.
        high: f64,
        /// Time of the first rising edge.
        delay: f64,
        /// Rise time.
        rise: f64,
        /// Fall time.
        fall: f64,
        /// Width of the flat top.
        width: f64,
        /// Repetition period; `0` disables repetition.
        period: f64,
    },
    /// Piece-wise linear interpolation through `(t, value)` points,
    /// clamped to the first/last value outside the covered range.
    /// Points must be sorted by time.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Convenience constructor for a DC waveform.
    pub fn dc(value: f64) -> Self {
        Waveform::Dc(value)
    }

    /// Convenience constructor for a phase-zero sine starting at `t = 0`.
    pub fn sine(offset: f64, amplitude: f64, freq: f64) -> Self {
        Waveform::Sine { offset, amplitude, freq, phase: 0.0, delay: 0.0 }
    }

    /// Convenience constructor for the paper's step stimulus: ramp from
    /// `base` to `base + elev` starting at `t_step` over `t_rise` seconds.
    pub fn step(base: f64, elev: f64, t_step: f64, t_rise: f64) -> Self {
        Waveform::Step { base, elev, t_step, t_rise }
    }

    /// Value of the waveform at time `t` (seconds).
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Sine { offset, amplitude, freq, phase, delay } => {
                let tt = (t - delay).max(0.0);
                offset + amplitude * (2.0 * PI * freq * tt + phase).sin()
            }
            Waveform::Step { base, elev, t_step, t_rise } => {
                if t <= *t_step {
                    *base
                } else if *t_rise <= 0.0 || t >= t_step + t_rise {
                    base + elev
                } else {
                    base + elev * (t - t_step) / t_rise
                }
            }
            Waveform::Pulse { low, high, delay, rise, fall, width, period } => {
                let mut tt = t - delay;
                if tt < 0.0 {
                    return *low;
                }
                if *period > 0.0 {
                    tt %= period;
                }
                if tt < *rise {
                    if *rise <= 0.0 {
                        *high
                    } else {
                        low + (high - low) * tt / rise
                    }
                } else if tt < rise + width {
                    *high
                } else if tt < rise + width + fall {
                    if *fall <= 0.0 {
                        *low
                    } else {
                        high - (high - low) * (tt - rise - width) / fall
                    }
                } else {
                    *low
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                let idx = points.partition_point(|(pt, _)| *pt <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 <= t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
        }
    }

    /// Value used for the DC operating point (the `t = 0` value).
    pub fn dc_value(&self) -> f64 {
        self.eval(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(2.5);
        assert_eq!(w.eval(0.0), 2.5);
        assert_eq!(w.eval(1e6), 2.5);
        assert_eq!(w.dc_value(), 2.5);
    }

    #[test]
    fn sine_basic_properties() {
        let w = Waveform::sine(1.0, 0.5, 1_000.0);
        assert!((w.eval(0.0) - 1.0).abs() < 1e-12); // phase 0 at t=0
        assert!((w.eval(0.25e-3) - 1.5).abs() < 1e-9); // quarter period: peak
        assert!((w.eval(0.75e-3) - 0.5).abs() < 1e-9); // trough
        assert!((w.eval(1e-3) - 1.0).abs() < 1e-9); // full period
    }

    #[test]
    fn sine_holds_before_delay() {
        let w = Waveform::Sine { offset: 2.0, amplitude: 1.0, freq: 1e3, phase: 0.0, delay: 1e-3 };
        assert_eq!(w.eval(0.0), 2.0);
        assert_eq!(w.eval(0.5e-3), 2.0);
    }

    #[test]
    fn step_ramp_shape() {
        // Paper Table 1: L(t=0: base, t=10ns: base+elev, t=inf: base+elev)
        let w = Waveform::step(1.0, 2.0, 0.0, 10e-9);
        assert_eq!(w.eval(0.0), 1.0);
        assert!((w.eval(5e-9) - 2.0).abs() < 1e-9); // midpoint of ramp
        assert_eq!(w.eval(10e-9), 3.0);
        assert_eq!(w.eval(1.0), 3.0);
    }

    #[test]
    fn step_with_zero_rise_is_ideal() {
        let w = Waveform::step(0.0, 1.0, 1e-6, 0.0);
        assert_eq!(w.eval(1e-6), 0.0); // value *at* the step time is base
        assert_eq!(w.eval(1.0000001e-6), 1.0);
    }

    #[test]
    fn pulse_shape_and_periodicity() {
        let w = Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.3,
            period: 1.0,
        };
        assert_eq!(w.eval(0.5), 0.0);
        assert!((w.eval(1.05) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.eval(1.2), 1.0); // flat top
        assert!((w.eval(1.45) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.eval(1.8), 0.0);
        assert_eq!(w.eval(2.2), 1.0); // next period's flat top
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 10.0), (2.0, 10.0)]);
        assert_eq!(w.eval(-1.0), 0.0);
        assert_eq!(w.eval(0.5), 5.0);
        assert_eq!(w.eval(1.5), 10.0);
        assert_eq!(w.eval(5.0), 10.0);
    }

    #[test]
    fn pwl_empty_is_zero() {
        assert_eq!(Waveform::Pwl(vec![]).eval(1.0), 0.0);
    }

    #[test]
    fn dc_value_of_step_is_base() {
        let w = Waveform::step(0.25, 0.5, 0.0, 10e-9);
        assert_eq!(w.dc_value(), 0.25);
    }
}
