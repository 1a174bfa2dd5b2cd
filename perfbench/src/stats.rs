//! Small order statistics and timing helpers.

use std::time::Instant;

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail of a latency sample: the highest order statistic with at
/// least `beyond` samples above it, returned with its percentile. `None`
/// when the sample is too small to have one.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= beyond {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    Some((v[n - 1 - beyond], 100.0 * (n - beyond) as f64 / n as f64))
}

/// How many calls a median time takes: at least `min` calls and
/// `seconds` of measured time, but no more than `max` calls.
#[derive(Debug, Clone, Copy)]
pub struct Sampling {
    /// Fewest calls.
    pub min: usize,
    /// Most calls.
    pub max: usize,
    /// Measured time to reach unless `max` comes first (seconds).
    pub seconds: f64,
}

/// How `setup_s` samples set-up. Single calls, not batch means: the
/// daemon's set-up has a long tail (its accept loop polls every 2 ms)
/// that a median of single calls shrugs off.
pub const SETUP: Sampling = Sampling {
    min: 15,
    max: 401,
    seconds: 0.3,
};

/// How the traced runs sample the set-up layers.
pub const LAYER: Sampling = Sampling {
    min: 11,
    max: 201,
    seconds: 0.05,
};

/// Median time of one call of `f`.
pub fn median_time<E>(s: Sampling, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    median_sampled(s, || {
        let t0 = Instant::now();
        f()?;
        Ok(t0.elapsed().as_secs_f64())
    })
}

/// Like [`median_time`], but `f` returns the seconds it measured, so it
/// can keep its own preparation and teardown out of the timing. One
/// extra call runs first and is discarded, to warm caches and the
/// allocator.
pub fn median_sampled<E>(s: Sampling, mut f: impl FnMut() -> Result<f64, E>) -> Result<f64, E> {
    f()?;
    let (mut samples, mut total) = (Vec::new(), 0.0);
    while samples.len() < s.max && (samples.len() < s.min || total < s.seconds) {
        let dt = f()?;
        total += dt;
        samples.push(dt);
    }
    Ok(median(&samples))
}

/// This process's peak resident set size in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // Ten samples (11..=20) lie above the 10th value.
        assert_eq!(tail(&v, 10), Some((10.0, 50.0)));
        assert_eq!(tail(&v[..10], 10), None);
    }
}
