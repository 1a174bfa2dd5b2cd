//! Property-based tests of the measurement layer.

use castg_dsp::{goertzel, metrics, thd, UniformSamples};
use proptest::prelude::*;
use std::f64::consts::PI;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Goertzel recovers the amplitude and is phase-invariant for any
    /// coherently sampled sine.
    #[test]
    fn goertzel_amplitude_recovery(
        amp in 0.01f64..100.0,
        phase in 0.0f64..(2.0 * PI),
        periods in 2usize..10,
    ) {
        let fs = 64_000.0;
        let f0 = 1_000.0;
        let n = periods * 64; // 64 samples per period
        let vals: Vec<f64> = (0..n)
            .map(|k| amp * (2.0 * PI * f0 * k as f64 / fs + phase).sin())
            .collect();
        let s = UniformSamples::new(0.0, 1.0 / fs, vals);
        let g = goertzel(&s, f0).unwrap();
        prop_assert!((g.amplitude - amp).abs() < 1e-6 * amp, "amp {}", g.amplitude);
    }

    /// THD of a two-tone signal matches the component ratio exactly
    /// under coherent sampling.
    #[test]
    fn thd_matches_component_ratio(h3 in 0.001f64..0.5) {
        let fs = 128_000.0;
        let f0 = 1_000.0;
        let vals: Vec<f64> = (0..1280)
            .map(|k| {
                let t = k as f64 / fs;
                (2.0 * PI * f0 * t).sin() + h3 * (2.0 * PI * 3.0 * f0 * t).sin()
            })
            .collect();
        let s = UniformSamples::new(0.0, 1.0 / fs, vals);
        let d = thd(&s, f0, 5).unwrap();
        prop_assert!((d - 100.0 * h3).abs() < 1e-3, "thd {d}, expected {}", 100.0 * h3);
    }

    /// Scaling a signal leaves THD unchanged.
    #[test]
    fn scaling_invariants(scale in 0.1f64..10.0) {
        let fs = 64_000.0;
        let base: Vec<f64> = (0..640)
            .map(|k| {
                let t = k as f64 / fs;
                (2.0 * PI * 1_000.0 * t).sin() + 0.1 * (2.0 * PI * 2_000.0 * t).sin()
            })
            .collect();
        let scaled: Vec<f64> = base.iter().map(|v| v * scale).collect();
        let a = UniformSamples::new(0.0, 1.0 / fs, base);
        let b = UniformSamples::new(0.0, 1.0 / fs, scaled);
        let ta = thd(&a, 1_000.0, 5).unwrap();
        let tb = thd(&b, 1_000.0, 5).unwrap();
        prop_assert!((ta - tb).abs() < 1e-6, "thd changed under scaling: {ta} vs {tb}");
    }

    /// max_abs_deviation is a metric-like quantity: symmetric, zero on
    /// identical records, and obeys the triangle inequality.
    #[test]
    fn deviation_is_metric_like(
        a in prop::collection::vec(-10.0f64..10.0, 16),
        b in prop::collection::vec(-10.0f64..10.0, 16),
        c in prop::collection::vec(-10.0f64..10.0, 16),
    ) {
        let sa = UniformSamples::new(0.0, 1.0, a);
        let sb = UniformSamples::new(0.0, 1.0, b);
        let sc = UniformSamples::new(0.0, 1.0, c);
        let dab = metrics::max_abs_deviation(&sa, &sb);
        let dba = metrics::max_abs_deviation(&sb, &sa);
        prop_assert!((dab - dba).abs() < 1e-12);
        prop_assert_eq!(metrics::max_abs_deviation(&sa, &sa), 0.0);
        let dac = metrics::max_abs_deviation(&sa, &sc);
        let dcb = metrics::max_abs_deviation(&sc, &sb);
        prop_assert!(dab <= dac + dcb + 1e-12);
    }

    /// Resampling a straight line is exact regardless of grids.
    #[test]
    fn resample_line_exact(
        slope in -10.0f64..10.0,
        intercept in -10.0f64..10.0,
        count in 2usize..50,
    ) {
        let times: Vec<f64> = (0..20).map(|i| i as f64 * 0.37).collect();
        let values: Vec<f64> = times.iter().map(|t| slope * t + intercept).collect();
        let dt = times[times.len() - 1] / count as f64;
        let s = UniformSamples::resample(&times, &values, 0.0, dt, count).unwrap();
        for (k, v) in s.values().iter().enumerate() {
            let t = k as f64 * dt;
            prop_assert!((v - (slope * t + intercept)).abs() < 1e-9, "at t={t}");
        }
    }

    /// accumulated_deviation is linear in the deviation.
    #[test]
    fn accumulation_linearity(offset in -5.0f64..5.0) {
        let a = UniformSamples::new(0.0, 0.5, vec![1.0; 10]);
        let b = UniformSamples::new(0.0, 0.5, vec![1.0 + offset; 10]);
        let acc = metrics::accumulated_deviation(&b, &a);
        prop_assert!((acc - offset * 10.0 * 0.5).abs() < 1e-9);
    }
}
