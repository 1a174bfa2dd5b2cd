//! The speed probe: a fixed kernel, independent of the crates, timed
//! before and after every measured stretch of work so that the work's
//! time can be rescaled to the reference box's uncontended speed.
//!
//! The reference box is a 2-core guest on a shared host. How fast a
//! thread runs there depends on what other tenants run on the same
//! physical core, which changes every few seconds, and on what the
//! thread itself does: dependent integer arithmetic barely slows, dense
//! floating-point updates slow by up to 2×, cache-missing loads fall in
//! between. One 30 s run can sit wholly in a quiet or a busy stretch, so
//! raw unit times spread by 25–30 % between runs of the same code. The
//! simulator does all three kinds of work, so the probe does all three
//! in fixed amounts: a dense LU, an xorshift chain and a pointer chase
//! through 4 MiB. Work time ÷ probe time around it then changes by a few
//! per cent when the host gets busier or quieter, and a change to the
//! crates moves it in proportion, because the probe does not run their
//! code.

use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;

/// Seconds one probe pass takes on the reference box while nothing else
/// runs on its core (the fast end of the probe's own spread there).
/// Rescaled times read in those seconds.
pub const REFERENCE_S: f64 = 0.027;

/// Order of the dense matrix the probe factors.
const LU_N: usize = 96;
/// Factorizations per pass.
const LU_REPS: usize = 40;
/// Xorshift steps per pass.
const XORSHIFT_STEPS: u32 = 2_000_000;
/// Entries of the pointer-chase cycle (4 MiB of `u32`).
const CHASE_LEN: usize = 1 << 20;
/// Loads per pass.
const CHASE_STEPS: usize = 100_000;

/// The probe's buffers, built once per process.
#[derive(Debug)]
struct Probe {
    matrix: Vec<f64>,
    chase: Vec<u32>,
}

impl Probe {
    /// Builds the probe: a seeded one-cycle permutation to chase
    /// (Sattolo's shuffle), and room for the matrix.
    fn new() -> Probe {
        let mut chase: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut rng = Rng::new(0, 0x9e0be);
        for i in (1..CHASE_LEN).rev() {
            chase.swap(i, rng.below(i));
        }
        Probe {
            matrix: vec![0.0; LU_N * LU_N],
            chase,
        }
    }

    /// Seconds of one probe pass.
    fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let n = LU_N;
        let mut acc = 0.0;
        for rep in 0..LU_REPS {
            let a = &mut self.matrix;
            for (k, x) in a.iter_mut().enumerate() {
                let (i, j) = (k / n, k % n);
                *x = if i == j {
                    (n + rep) as f64
                } else {
                    1.0 / (1 + i + 2 * j) as f64
                };
            }
            for k in 0..n {
                let pivot = a[k * n + k];
                for i in k + 1..n {
                    let f = a[i * n + k] / pivot;
                    for j in k..n {
                        a[i * n + j] -= f * a[k * n + j];
                    }
                }
            }
            acc += black_box(&*a)[n * n - 1];
        }
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..XORSHIFT_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        let mut at = 0usize;
        for _ in 0..CHASE_STEPS {
            at = self.chase[at] as usize;
        }
        black_box((acc, x, at));
        t0.elapsed().as_secs_f64()
    }
}

/// Work a paced unit does between probe passes (seconds).
const PACE_S: f64 = 0.5;

/// Rescales consecutive stretches of work. Each call to
/// [`Rescaler::rescale`] runs a probe pass and rescales the work done
/// since the previous pass by the mean of the two passes around it.
///
/// A unit of several seconds outlasts a stretch of host load, so it is
/// *paced*: between [`Rescaler::begin`] and [`Rescaler::end`], the
/// `measure()` decorator calls [`Rescaler::tick`], which closes the
/// current stretch with a probe pass once it has run 0.5 s. The
/// unit's time is then the sum of its stretches, each rescaled on its
/// own, and the probe passes are left out of it.
#[derive(Debug)]
pub struct Rescaler {
    probe: Probe,
    passes: Vec<f64>,
    /// End of the latest probe pass.
    since: Instant,
    /// Measured and rescaled work of the paced unit so far.
    paced: (f64, f64),
}

impl Default for Rescaler {
    fn default() -> Self {
        Self::new()
    }
}

impl Rescaler {
    /// Builds the probe and runs its first pass.
    #[must_use]
    pub fn new() -> Rescaler {
        let mut probe = Probe::new();
        let first = probe.sample();
        Rescaler {
            probe,
            passes: vec![first],
            since: Instant::now(),
            paced: (0.0, 0.0),
        }
    }

    /// `seconds` of work done since the previous probe pass, in
    /// reference-box seconds.
    pub fn rescale(&mut self, seconds: f64) -> f64 {
        let before = self.passes[self.passes.len() - 1];
        let after = self.probe.sample();
        self.passes.push(after);
        self.since = Instant::now();
        rescale(seconds, before, after)
    }

    /// Starts a paced unit: its first stretch starts now.
    pub fn begin(&mut self) {
        self.since = Instant::now();
        self.paced = (0.0, 0.0);
    }

    /// Closes the paced unit's current stretch if it has run `PACE_S`.
    pub fn tick(&mut self) {
        if self.since.elapsed().as_secs_f64() >= PACE_S {
            self.close_stretch();
        }
    }

    /// Ends the paced unit: its measured and its rescaled work, probe
    /// passes left out.
    pub fn end(&mut self) -> (f64, f64) {
        self.close_stretch();
        self.paced
    }

    fn close_stretch(&mut self) {
        let measured = self.since.elapsed().as_secs_f64();
        let rescaled = self.rescale(measured);
        self.paced.0 += measured;
        self.paced.1 += rescaled;
    }

    /// Every probe pass so far, in seconds.
    #[must_use]
    pub fn passes(&self) -> &[f64] {
        &self.passes
    }

    /// The probe's own resident memory in MB, which the workloads leave
    /// out of `peak_rss_mb`.
    #[must_use]
    pub fn resident_mb(&self) -> f64 {
        let bytes = self.probe.matrix.len() * std::mem::size_of::<f64>()
            + self.probe.chase.len() * std::mem::size_of::<u32>();
        bytes as f64 / (1024.0 * 1024.0)
    }
}

/// `seconds` of work measured between probe passes `before` and
/// `after`, in reference-box seconds.
fn rescale(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * REFERENCE_S / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle() {
        let probe = Probe::new();
        let (mut at, mut steps) = (0usize, 0usize);
        loop {
            at = probe.chase[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_LEN);
    }

    #[test]
    fn rescaling_is_proportional() {
        assert_eq!(rescale(2.0, REFERENCE_S, REFERENCE_S), 2.0);
        assert_eq!(rescale(2.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 1.0);
    }
}
