//! Scalar waveform metrics used as test-configuration return values.
//!
//! The paper's Table 1 defines return values through two helpers: `Δy`
//! (difference between faulty and nominal) and `Max(y_1..y_n)` (maximum
//! over samples). These functions compute the per-waveform quantities
//! those are built from.

use crate::UniformSamples;

/// `Max_i |a_i − b_i|` over the overlapping prefix of two records — the
/// return value of test configuration #4 (maximum deviation between the
/// faulty and nominal sampled step responses).
pub fn max_abs_deviation(a: &UniformSamples, b: &UniformSamples) -> f64 {
    a.values()
        .iter()
        .zip(b.values())
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
}

/// `Σ_i (a_i − b_i)·dt` over the overlapping prefix — the accumulated
/// (signed) deviation of test configuration #5. The paper's Fig. 1
/// describes the sampled output being "accumulated during the test
/// time"; multiplying by `dt` makes the value a time-integral,
/// independent of the sample rate chosen.
pub fn accumulated_deviation(a: &UniformSamples, b: &UniformSamples) -> f64 {
    let dt = a.dt();
    a.values().iter().zip(b.values()).map(|(x, y)| (x - y) * dt).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(vals: &[f64]) -> UniformSamples {
        UniformSamples::new(0.0, 1e-6, vals.to_vec())
    }

    #[test]
    fn max_abs_deviation_finds_worst_sample() {
        let a = samples(&[1.0, 2.0, 3.0]);
        let b = samples(&[1.0, 2.5, 2.0]);
        assert_eq!(max_abs_deviation(&a, &b), 1.0);
        assert_eq!(max_abs_deviation(&a, &a), 0.0);
    }

    #[test]
    fn accumulated_deviation_is_signed_integral() {
        let a = samples(&[1.0, 1.0, 1.0, 1.0]);
        let b = samples(&[0.0, 0.0, 2.0, 2.0]);
        // Deviations: +1, +1, −1, −1 → zero net integral.
        assert!(accumulated_deviation(&a, &b).abs() < 1e-18);
        let c = samples(&[0.0, 0.0, 0.0, 0.0]);
        assert!((accumulated_deviation(&a, &c) - 4.0 * 1e-6).abs() < 1e-18);
    }
}
