//! The outside-in tracer: a decorator around every
//! [`TestConfiguration`] the benchmark hands to the pipeline.
//!
//! Each `measure()` call is timed and the calling thread's
//! `castg_spice::ladder_stats()` is diffed around it, so Newton
//! iterations and DC-ladder landings become exact per-configuration
//! counts — during generation as well as evaluation — without any
//! change to the crates. The cost is two clock reads and two copies of
//! a small thread-local struct per call.
//!
//! Untraced units wear the same decorator with the other hook: it lets
//! the [`Rescaler`] close a stretch with a probe pass between two
//! `measure()` calls, at the cost of one clock read per call.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use castg_core::{ConfigDescription, CoreError, Measurement, TestConfiguration};
use castg_numeric::ParamSpace;
use castg_spice::{ladder_stats, Circuit, LadderStats};

use crate::probe::Rescaler;

/// Totals over a set of `measure()` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeasureCounts {
    /// `measure()` calls.
    pub calls: u64,
    /// Wall time inside them (ns). Not deterministic.
    pub nanos: u64,
    /// Ladder counters accumulated inside them.
    pub ladder: LadderStats,
    /// Newton iterations of calls in which some DC solve landed on the
    /// gmin, source-stepping or pseudo-transient rung.
    pub rescue_iterations: u64,
}

impl MeasureCounts {
    /// The counts with the (non-deterministic) time zeroed: what the
    /// determinism checks compare.
    pub fn counts_only(&self) -> MeasureCounts {
        MeasureCounts { nanos: 0, ..*self }
    }

    /// Wall time inside the calls, in seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }

    /// The calls made since the `earlier` snapshot of the same tallies.
    pub fn since(&self, earlier: &MeasureCounts) -> MeasureCounts {
        MeasureCounts {
            calls: self.calls - earlier.calls,
            nanos: self.nanos - earlier.nanos,
            ladder: self.ladder.since(&earlier.ladder),
            rescue_iterations: self.rescue_iterations - earlier.rescue_iterations,
        }
    }

    /// Adds `o`'s calls to these.
    pub fn add(&mut self, o: &MeasureCounts) {
        self.calls += o.calls;
        self.nanos += o.nanos;
        self.ladder = self.ladder + o.ladder;
        self.rescue_iterations += o.rescue_iterations;
    }
}

/// Lock-free accumulator of one configuration's calls (u64 sums
/// commute, so totals are the same at any thread count).
#[derive(Debug, Default)]
struct Tally {
    calls: AtomicU64,
    nanos: AtomicU64,
    plain: AtomicU64,
    damped: AtomicU64,
    gmin: AtomicU64,
    source: AtomicU64,
    ptc: AtomicU64,
    unconverged: AtomicU64,
    iterations: AtomicU64,
    rescue_iterations: AtomicU64,
}

impl Tally {
    fn record(&self, nanos: u64, d: &LadderStats) {
        self.calls.fetch_add(1, Relaxed);
        self.nanos.fetch_add(nanos, Relaxed);
        self.plain.fetch_add(d.plain, Relaxed);
        self.damped.fetch_add(d.damped, Relaxed);
        self.gmin.fetch_add(d.gmin_stepping, Relaxed);
        self.source.fetch_add(d.source_stepping, Relaxed);
        self.ptc.fetch_add(d.pseudo_transient, Relaxed);
        self.unconverged.fetch_add(d.unconverged, Relaxed);
        self.iterations.fetch_add(d.iterations, Relaxed);
        if d.gmin_stepping + d.source_stepping + d.pseudo_transient > 0 {
            self.rescue_iterations.fetch_add(d.iterations, Relaxed);
        }
    }

    fn snapshot(&self) -> MeasureCounts {
        MeasureCounts {
            calls: self.calls.load(Relaxed),
            nanos: self.nanos.load(Relaxed),
            ladder: LadderStats {
                plain: self.plain.load(Relaxed),
                damped: self.damped.load(Relaxed),
                gmin_stepping: self.gmin.load(Relaxed),
                source_stepping: self.source.load(Relaxed),
                pseudo_transient: self.ptc.load(Relaxed),
                unconverged: self.unconverged.load(Relaxed),
                iterations: self.iterations.load(Relaxed),
            },
            rescue_iterations: self.rescue_iterations.load(Relaxed),
        }
    }
}

/// What the decorator does around `measure()`.
enum Hook {
    /// Record the call into a tally (traced units).
    Trace(Arc<Tally>),
    /// Let the rescaler close a stretch first (untraced units).
    Pace(Arc<Mutex<Rescaler>>),
}

/// The decorator: forwards everything to the wrapped configuration and
/// runs its hook around each `measure()` call.
struct Decorated {
    inner: Arc<dyn TestConfiguration>,
    hook: Hook,
}

impl TestConfiguration for Decorated {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn param_names(&self) -> Vec<String> {
        self.inner.param_names()
    }

    fn space(&self) -> ParamSpace {
        self.inner.space()
    }

    fn seed(&self) -> Vec<f64> {
        self.inner.seed()
    }

    fn measure(&self, circuit: &Circuit, params: &[f64]) -> Result<Measurement, CoreError> {
        match &self.hook {
            Hook::Trace(tally) => {
                let before = ladder_stats();
                let t0 = Instant::now();
                let result = self.inner.measure(circuit, params);
                let nanos = t0.elapsed().as_nanos() as u64;
                tally.record(nanos, &ladder_stats().since(&before));
                result
            }
            Hook::Pace(rescaler) => {
                rescaler.lock().expect("rescaler lock").tick();
                self.inner.measure(circuit, params)
            }
        }
    }

    fn return_values(&self, measured: &Measurement, nominal: &Measurement) -> Vec<f64> {
        self.inner.return_values(measured, nominal)
    }

    fn tolerance_box(&self, params: &[f64], nominal_returns: &[f64]) -> Vec<f64> {
        self.inner.tolerance_box(params, nominal_returns)
    }

    fn description(&self) -> ConfigDescription {
        self.inner.description()
    }
}

/// The tallies of one traced run, keyed by configuration.
#[derive(Debug, Default)]
pub struct Tracer {
    tallies: Vec<(String, Arc<Tally>)>,
}

impl Tracer {
    /// Wraps `configs` (keyed by `keys`, in the same order) and returns
    /// the tracer that owns their tallies.
    pub fn wrap(
        keys: &[String],
        configs: Vec<Arc<dyn TestConfiguration>>,
    ) -> (Tracer, Vec<Arc<dyn TestConfiguration>>) {
        let mut tracer = Tracer::default();
        let wrapped = configs
            .into_iter()
            .zip(keys)
            .map(|(inner, key)| {
                let tally = Arc::new(Tally::default());
                tracer.tallies.push((key.clone(), Arc::clone(&tally)));
                Arc::new(Decorated {
                    inner,
                    hook: Hook::Trace(tally),
                }) as Arc<dyn TestConfiguration>
            })
            .collect();
        (tracer, wrapped)
    }

    /// Per-configuration totals so far.
    pub fn per_config(&self) -> Vec<(String, MeasureCounts)> {
        self.tallies
            .iter()
            .map(|(k, t)| (k.clone(), t.snapshot()))
            .collect()
    }

    /// Totals over every configuration so far.
    pub fn total(&self) -> MeasureCounts {
        let mut sum = MeasureCounts::default();
        for (_, t) in &self.tallies {
            sum.add(&t.snapshot());
        }
        sum
    }
}

/// Wraps `configs` so that `rescaler` can close a stretch of a paced unit
/// between their `measure()` calls.
pub fn pace(
    configs: Vec<Arc<dyn TestConfiguration>>,
    rescaler: &Arc<Mutex<Rescaler>>,
) -> Vec<Arc<dyn TestConfiguration>> {
    configs
        .into_iter()
        .map(|inner| {
            Arc::new(Decorated {
                inner,
                hook: Hook::Pace(Arc::clone(rescaler)),
            }) as Arc<dyn TestConfiguration>
        })
        .collect()
}
