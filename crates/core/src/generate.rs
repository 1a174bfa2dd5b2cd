//! Fault-specific test generation — the paper's §3.3 algorithm (Fig. 6).
//!
//! For each fault in the dictionary:
//!
//! 1. **Soft-fault optimization.** A low-impact (weakened) version of the
//!    fault is inserted and, for every test configuration in parallel,
//!    the test parameters are optimized to minimize the sensitivity
//!    `S_f(T_tc)` — Brent's method for one-parameter configurations,
//!    Powell's method otherwise. Because soft-fault tps-graphs are
//!    shape-stable (§3.2), the optimum found for the weakened model is
//!    (close to) the optimum for the fault *type* at that location.
//! 2. **Selection by impact manipulation.** Starting from the dictionary
//!    impact, the fault model is *relaxed* while more than one candidate
//!    test still detects it and *intensified* while none does, with a
//!    shrinking step factor, until exactly one test survives — the best
//!    test. Faults that stay undetectable even intensified are reported
//!    as such (the paper's §2.2 extension intensifies them so that the
//!    most sensitive test is still identified).
//! 3. **Critical impact.** The surviving test's *critical impact level* —
//!    the weakest impact scale it still detects — is located by
//!    bisection; the compaction screen can evaluate there.
//!
//! The three steps revisit points: Powell's second sweep replays the
//! first sweep's line search when the other axis did not move, step 3
//! starts at the scale-1 round the selection already ran, and the
//! bisection can land on the softened scale of step 1. Within one fault
//! each `S_f` is therefore simulated once per configuration, impact
//! scale and parameter point (bit for bit), and a repeat is answered
//! from a memo. [`BestTest::evaluations`] still counts every objective
//! call, repeats included.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use castg_faults::{Fault, FaultDictionary, FaultKind};
use castg_numeric::{brent_min, powell_min, BrentOptions, PowellOptions};
use castg_spice::Circuit;
use parking_lot::Mutex;

use crate::cache::NominalCache;
use crate::sensitivity::{is_detected, Evaluator};
use crate::{AnalogMacro, CoreError, TestConfiguration};

/// How the best test is selected among the per-configuration optima.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionMethod {
    /// The paper's iterative relax/intensify loop (§3.3).
    #[default]
    PaperIterative,
    /// Compute every candidate's critical impact scale by bisection and
    /// pick the maximum — slower but directly implements the §2.2
    /// optimality definition. Used as a cross-check of the iterative
    /// loop.
    MaxCriticalImpact,
}

/// Options controlling the generation algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorOptions {
    /// Impact-weakening factor applied before parameter optimization so
    /// the model sits in its soft-fault tps region (§3.2).
    pub soften_factor: f64,
    /// Initial multiplicative impact step of the selection loop.
    pub relax_factor: f64,
    /// Terminate the selection loop when the step factor drops below
    /// this (the impact scale is then localized to that ratio).
    pub scale_tol: f64,
    /// Upper clamp on the impact scale (weakest fault considered).
    pub max_scale: f64,
    /// Lower clamp on the impact scale (strongest fault considered).
    pub min_scale: f64,
    /// Hard cap on selection-loop rounds.
    pub max_rounds: usize,
    /// Which selection method to use.
    pub selection: SelectionMethod,
    /// Options for multi-parameter (Powell) optimization.
    pub powell: PowellOptions,
    /// Options for single-parameter (Brent) optimization.
    pub brent: BrentOptions,
    /// Worker threads used by [`Generator::generate`].
    pub threads: usize,
}

impl Default for GeneratorOptions {
    fn default() -> Self {
        GeneratorOptions {
            soften_factor: 8.0,
            relax_factor: 4.0,
            scale_tol: 1.05,
            max_scale: 1e4,
            min_scale: 1e-3,
            max_rounds: 48,
            selection: SelectionMethod::default(),
            // Simulator calls are the cost unit: keep the optimizers
            // frugal — the paper also relies on local optimization.
            powell: PowellOptions {
                ftol: 1e-4,
                max_iter: 12,
                line: BrentOptions { tol: 2e-3, max_iter: 18 },
            },
            brent: BrentOptions { tol: 1e-4, max_iter: 40 },
            threads: default_threads(),
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// The generated best test for one fault.
#[derive(Debug, Clone, PartialEq)]
pub struct BestTest {
    /// The dictionary fault this test was generated for.
    pub fault: Fault,
    /// Selected configuration id.
    pub config_id: usize,
    /// Selected configuration name.
    pub config_name: String,
    /// Optimized test parameter values.
    pub params: Vec<f64>,
    /// `S_f` of this test at the dictionary impact (scale 1).
    pub sensitivity_at_dictionary: f64,
    /// Whether the fault is detected at dictionary impact.
    pub detected_at_dictionary: bool,
    /// The weakest impact scale at which this test still detects the
    /// fault (≥ [`GeneratorOptions::min_scale`]; clamped to
    /// [`GeneratorOptions::max_scale`]).
    pub critical_scale: f64,
    /// `true` when no configuration detected the fault at dictionary
    /// impact and the model had to be intensified to find the most
    /// sensitive test.
    pub required_intensify: bool,
    /// Objective evaluations spent on this fault: every `S_f` the
    /// optimizers, the selection loop and the critical-impact search
    /// asked for, including repeats of an earlier point, which are
    /// answered without simulating (see the module doc). A column of
    /// `results/generation.csv`.
    pub evaluations: usize,
}

/// Aggregate outcome of a dictionary-wide generation run.
#[derive(Debug, Clone, Default)]
pub struct GenerationReport {
    /// One best test per dictionary fault, in dictionary order (faults
    /// whose generation failed are absent — see `failures`).
    pub tests: Vec<BestTest>,
    /// Faults whose generation failed, with the error.
    pub failures: Vec<(String, CoreError)>,
    /// Total wall-clock time of the run.
    pub wall_time: Duration,
}

/// One row of the paper's Table-2-style distribution: how many faults of
/// each kind selected a given configuration as their best test.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionRow {
    /// Configuration id.
    pub config_id: usize,
    /// Configuration name.
    pub config_name: String,
    /// Bridge faults whose best test uses this configuration.
    pub bridge: usize,
    /// Pinhole faults whose best test uses this configuration.
    pub pinhole: usize,
}

impl GenerationReport {
    /// Distribution of best tests over configurations, split by fault
    /// kind — the reproduction of the paper's Table 2.
    pub fn distribution(&self) -> Vec<DistributionRow> {
        let mut rows: Vec<DistributionRow> = Vec::new();
        for t in &self.tests {
            let row = match rows.iter_mut().find(|r| r.config_id == t.config_id) {
                Some(r) => r,
                None => {
                    rows.push(DistributionRow {
                        config_id: t.config_id,
                        config_name: t.config_name.clone(),
                        bridge: 0,
                        pinhole: 0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            match t.fault.kind() {
                FaultKind::Bridge => row.bridge += 1,
                FaultKind::Pinhole => row.pinhole += 1,
            }
        }
        rows.sort_by_key(|r| r.config_id);
        rows
    }

    /// Tests that required intensification (undetectable at dictionary
    /// impact).
    pub fn undetected(&self) -> Vec<&BestTest> {
        self.tests.iter().filter(|t| !t.detected_at_dictionary).collect()
    }

    /// Tests whose best configuration is `config_id`.
    pub fn tests_for_config(&self, config_id: usize) -> Vec<&BestTest> {
        self.tests.iter().filter(|t| t.config_id == config_id).collect()
    }

    /// Total simulator evaluations across all faults.
    pub fn total_evaluations(&self) -> usize {
        self.tests.iter().map(|t| t.evaluations).sum()
    }
}

/// Per-configuration optimization candidate (internal).
#[derive(Debug, Clone)]
struct Candidate {
    config_idx: usize,
    params: Vec<f64>,
    evaluations: usize,
}

/// A point of one fault's generation: configuration index, impact-scale
/// bits and parameter bits.
type Point = (usize, u64, Vec<u64>);

/// `S_f` of the fault under generation by [`Point`] (see the module
/// doc): a simulation is a pure function of the point.
#[derive(Default)]
struct SensitivityMemo(RefCell<HashMap<Point, f64>>);

impl SensitivityMemo {
    /// The memoized `S_f` of `fault` at `params` under configuration
    /// `config_idx`, running `measure` only on a miss. Errors are not
    /// kept.
    fn get_or_measure(
        &self,
        config_idx: usize,
        fault: &Fault,
        params: &[f64],
        measure: impl FnOnce() -> Result<f64, CoreError>,
    ) -> Result<f64, CoreError> {
        let key: Point = (
            config_idx,
            fault.impact_scale().to_bits(),
            params.iter().map(|p| p.to_bits()).collect(),
        );
        if let Some(&s) = self.0.borrow().get(&key) {
            return Ok(s);
        }
        let s = measure()?;
        self.0.borrow_mut().insert(key, s);
        Ok(s)
    }
}

/// The test generator: owns the macro's nominal circuit and configuration
/// set, and runs the Fig.-6 flow per fault.
pub struct Generator<'a> {
    configs: Vec<std::sync::Arc<dyn TestConfiguration>>,
    nominal: Circuit,
    cache: &'a NominalCache,
    options: GeneratorOptions,
}

impl<'a> Generator<'a> {
    /// Creates a generator for a macro with default options.
    pub fn new(macro_def: &dyn AnalogMacro, cache: &'a NominalCache) -> Self {
        Generator::with_options(macro_def, cache, GeneratorOptions::default())
    }

    /// Creates a generator with explicit options.
    pub fn with_options(
        macro_def: &dyn AnalogMacro,
        cache: &'a NominalCache,
        options: GeneratorOptions,
    ) -> Self {
        Generator {
            configs: macro_def.configurations(),
            nominal: macro_def.nominal_circuit(),
            cache,
            options,
        }
    }

    /// The configuration set the generator selects from.
    pub fn configurations(&self) -> &[std::sync::Arc<dyn TestConfiguration>] {
        &self.configs
    }

    /// The generator's options.
    pub fn options(&self) -> &GeneratorOptions {
        &self.options
    }

    /// Runs the full Fig.-6 flow for one fault.
    ///
    /// # Errors
    ///
    /// Fault-injection errors and nominal-circuit simulation failures;
    /// faulty-circuit non-convergence is *not* an error (it counts as
    /// detection).
    pub fn generate_for_fault(&self, fault: &Fault) -> Result<BestTest, CoreError> {
        self.generate_for_fault_logged(fault, &mut |_| {})
    }

    /// Like [`Generator::generate_for_fault`], but narrates every stage
    /// of the Fig.-6 flow through `log` — used to regenerate the paper's
    /// Fig. 6 as an algorithm trace.
    ///
    /// # Errors
    ///
    /// As for [`Generator::generate_for_fault`].
    pub fn generate_for_fault_logged(
        &self,
        fault: &Fault,
        log: &mut dyn FnMut(String),
    ) -> Result<BestTest, CoreError> {
        if self.configs.is_empty() {
            return Err(CoreError::InvalidOptions {
                reason: "macro provides no test configurations".to_string(),
            });
        }
        let mut evaluations = 0usize;
        let memo = SensitivityMemo::default();
        log(format!("fault under generation: {fault}"));

        // Step 1: per-configuration parameter optimization on the
        // softened fault model.
        let soft = fault.weakened(self.options.soften_factor);
        log(format!(
            "step 1: soften impact ×{} → R = {:.3e} Ω (soft-fault tps region), \
             optimize every configuration",
            self.options.soften_factor,
            soft.effective_resistance()
        ));
        let mut candidates = Vec::with_capacity(self.configs.len());
        for (idx, config) in self.configs.iter().enumerate() {
            let cand = self.optimize_config(&memo, idx, &soft)?;
            log(format!(
                "  config #{} {:<14} T* = {:?} ({} simulator evaluations)",
                config.id(),
                config.name(),
                cand.params,
                cand.evaluations
            ));
            evaluations += cand.evaluations;
            candidates.push(cand);
        }

        // Step 2: select the best test by impact manipulation.
        log("step 2: select by fault-impact relax/intensify".to_string());
        let (winner_idx, required_intensify, sel_evals) = match self.options.selection {
            SelectionMethod::PaperIterative => self.select_iterative(&memo, fault, &candidates)?,
            SelectionMethod::MaxCriticalImpact => {
                self.select_by_critical(&memo, fault, &candidates)?
            }
        };
        evaluations += sel_evals;
        let winner = &candidates[winner_idx];
        let config = &self.configs[winner.config_idx];
        log(format!(
            "  survivor: config #{} {} (intensification needed: {})",
            config.id(),
            config.name(),
            required_intensify
        ));

        // Step 3: dictionary-impact sensitivity and critical impact.
        let s_dict = self.sensitivity(&memo, winner.config_idx, fault, &winner.params)?;
        evaluations += 1;
        let (critical_scale, crit_evals) =
            self.critical_scale(&memo, winner.config_idx, fault, &winner.params, s_dict)?;
        evaluations += crit_evals;
        log(format!(
            "step 3: S_f at dictionary impact = {s_dict:.4}; critical impact scale = \
             {critical_scale:.3} (R_crit = {:.3e} Ω)",
            fault.base_resistance() * critical_scale
        ));

        Ok(BestTest {
            fault: fault.clone(),
            config_id: config.id(),
            config_name: config.name().to_string(),
            params: winner.params.clone(),
            sensitivity_at_dictionary: s_dict,
            detected_at_dictionary: is_detected(s_dict),
            critical_scale,
            required_intensify,
            evaluations,
        })
    }

    /// Generates best tests for the whole dictionary, fanned out over
    /// [`GeneratorOptions::threads`] workers. Individual fault failures
    /// are collected, not fatal.
    pub fn generate(&self, dictionary: &FaultDictionary) -> GenerationReport {
        let start = Instant::now();
        let n = dictionary.len();
        let results: Vec<Mutex<Option<Result<BestTest, CoreError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let counter = AtomicUsize::new(0);
        let workers = self.options.threads.clamp(1, n.max(1));

        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let fault = &dictionary.faults()[i];
                    let outcome = self.generate_for_fault(fault);
                    *results[i].lock() = Some(outcome);
                });
            }
        })
        .expect("generation workers must not panic");

        let mut report = GenerationReport { wall_time: start.elapsed(), ..Default::default() };
        for (i, slot) in results.into_iter().enumerate() {
            match slot.into_inner() {
                Some(Ok(test)) => report.tests.push(test),
                Some(Err(e)) => report.failures.push((dictionary.faults()[i].name(), e)),
                None => report.failures.push((
                    dictionary.faults()[i].name(),
                    CoreError::InvalidOptions { reason: "worker never ran this fault".into() },
                )),
            }
        }
        report
    }

    /// Optimizes one configuration's parameters against the softened
    /// fault. Seeds are evaluated explicitly so the optimizer can never
    /// do worse than the seed test.
    fn optimize_config(
        &self,
        memo: &SensitivityMemo,
        config_idx: usize,
        soft: &Fault,
    ) -> Result<Candidate, CoreError> {
        let config = self.configs[config_idx].as_ref();
        let ev = Evaluator::new(config, &self.nominal, self.cache);
        let faulty = ev.inject(soft)?;
        let space = config.space();
        let evals = AtomicUsize::new(0);
        let objective = |params: &[f64]| -> f64 {
            evals.fetch_add(1, Ordering::Relaxed);
            // Injection cannot fail here (already injected); nominal
            // failure means this parameter region is unusable.
            memo.get_or_measure(config_idx, soft, params, || ev.sensitivity_of(&faulty, params))
                .unwrap_or(f64::INFINITY)
        };

        let seed = space.clamp(&config.seed());
        let (params, value) = if space.dim() == 1 {
            let b = space.bounds(0);
            let m = brent_min(|x| objective(&[x]), b.lo(), b.hi(), &self.options.brent);
            (vec![m.x], m.value)
        } else {
            let r = powell_min(|x| objective(x), &seed, &space, &self.options.powell);
            (r.x, r.value)
        };
        // Keep whichever of {optimized point, seed} is more sensitive.
        let seed_value = objective(&seed);
        let (params, _value) =
            if seed_value < value { (seed, seed_value) } else { (params, value) };
        Ok(Candidate {
            config_idx,
            params,
            evaluations: evals.load(Ordering::Relaxed),
        })
    }

    /// The paper's selection loop: relax while >1 test detects,
    /// intensify while none does, shrinking the step on direction
    /// reversals, until one survivor remains.
    ///
    /// Returns `(winner index, required_intensify, evaluations)`.
    fn select_iterative(
        &self,
        memo: &SensitivityMemo,
        fault: &Fault,
        candidates: &[Candidate],
    ) -> Result<(usize, bool, usize), CoreError> {
        let opts = &self.options;
        let mut scale = 1.0_f64;
        let mut step = opts.relax_factor;
        let mut last_dir = 0i8;
        let mut evals = 0usize;
        let mut required_intensify = false;
        // Track the best candidate seen in case the loop terminates
        // without a unique survivor.
        let mut fallback: Option<(usize, f64)> = None;

        for _ in 0..opts.max_rounds {
            let scaled = fault.with_impact_scale(scale);
            let sens = self.sensitivities_at(memo, &scaled, candidates)?;
            evals += candidates.len();
            let (best_idx, best_s) = argmin(&sens);
            if fallback.is_none_or(|(_, s)| best_s < s) {
                fallback = Some((best_idx, best_s));
            }
            let detectors = sens.iter().filter(|s| is_detected(**s)).count();

            if detectors == 1 {
                let idx = sens.iter().position(|s| is_detected(*s)).expect("count == 1");
                return Ok((idx, required_intensify, evals));
            }
            let dir: i8 = if detectors > 1 { 1 } else { -1 };
            if dir < 0 && scale <= 1.0 {
                // Needed to intensify below the dictionary impact: the
                // fault is undetectable as modeled (§2.2 extension).
                required_intensify = true;
            }
            if last_dir != 0 && dir != last_dir {
                step = step.sqrt();
            }
            if step < opts.scale_tol {
                break;
            }
            last_dir = dir;
            let next = if dir > 0 { scale * step } else { scale / step };
            let clamped = next.clamp(opts.min_scale, opts.max_scale);
            if clamped == scale {
                break; // pinned at a clamp; no progress possible
            }
            scale = clamped;
        }
        let (idx, _) = fallback.expect("at least one round ran");
        Ok((idx, required_intensify, evals))
    }

    /// Alternative selection: per-candidate critical-scale bisection,
    /// pick the candidate that keeps detecting at the weakest impact.
    fn select_by_critical(
        &self,
        memo: &SensitivityMemo,
        fault: &Fault,
        candidates: &[Candidate],
    ) -> Result<(usize, bool, usize), CoreError> {
        let mut evals = 0usize;
        let mut best: Option<(usize, f64, f64)> = None; // (idx, crit, s_dict)
        for (i, cand) in candidates.iter().enumerate() {
            let s_dict = self.sensitivity(memo, cand.config_idx, fault, &cand.params)?;
            evals += 1;
            let (crit, e) =
                self.critical_scale(memo, cand.config_idx, fault, &cand.params, s_dict)?;
            evals += e;
            // Prefer the largest critical scale; break ties on s_dict.
            let better = match &best {
                None => true,
                Some((_, c, s)) => crit > *c || (crit == *c && s_dict < *s),
            };
            if better {
                best = Some((i, crit, s_dict));
            }
        }
        let (idx, crit, _) = best.expect("candidates are non-empty");
        // If even the best candidate's critical scale is below the
        // dictionary impact, the fault needed intensification.
        Ok((idx, crit < 1.0, evals))
    }

    /// Bisects (in log-scale space) the weakest impact scale at which the
    /// test at `params` still detects `fault`. `s_dict` is the already
    /// computed sensitivity at scale 1.
    fn critical_scale(
        &self,
        memo: &SensitivityMemo,
        config_idx: usize,
        fault: &Fault,
        params: &[f64],
        s_dict: f64,
    ) -> Result<(f64, usize), CoreError> {
        let opts = &self.options;
        let mut evals = 0usize;
        let mut probe = |scale: f64| -> Result<bool, CoreError> {
            evals += 1;
            let s = self.sensitivity(memo, config_idx, &fault.with_impact_scale(scale), params)?;
            Ok(is_detected(s))
        };

        // Establish a bracket [detected, undetected].
        let (mut lo, mut hi);
        if is_detected(s_dict) {
            lo = 1.0;
            hi = 1.0;
            loop {
                hi *= 4.0;
                if hi >= opts.max_scale {
                    hi = opts.max_scale;
                    if probe(hi)? {
                        return Ok((opts.max_scale, evals)); // detected everywhere
                    }
                    break;
                }
                if !probe(hi)? {
                    break;
                }
                lo = hi;
            }
        } else {
            hi = 1.0;
            lo = 1.0;
            loop {
                lo /= 4.0;
                if lo <= opts.min_scale {
                    lo = opts.min_scale;
                    if !probe(lo)? {
                        return Ok((opts.min_scale, evals)); // never detected
                    }
                    break;
                }
                if probe(lo)? {
                    break;
                }
                hi = lo;
            }
        }

        // Log-space bisection to the configured tolerance.
        while hi / lo > opts.scale_tol {
            let mid = (lo * hi).sqrt();
            if probe(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok((lo, evals))
    }

    /// Evaluates each candidate's sensitivity against a scaled fault.
    fn sensitivities_at(
        &self,
        memo: &SensitivityMemo,
        fault: &Fault,
        candidates: &[Candidate],
    ) -> Result<Vec<f64>, CoreError> {
        candidates
            .iter()
            .map(|cand| self.sensitivity(memo, cand.config_idx, fault, &cand.params))
            .collect()
    }

    /// `S_f` of `fault` at `params` under configuration `config_idx`,
    /// injecting and simulating only when `memo` has no value for the
    /// point.
    fn sensitivity(
        &self,
        memo: &SensitivityMemo,
        config_idx: usize,
        fault: &Fault,
        params: &[f64],
    ) -> Result<f64, CoreError> {
        memo.get_or_measure(config_idx, fault, params, || {
            let ev = Evaluator::new(self.configs[config_idx].as_ref(), &self.nominal, self.cache);
            ev.sensitivity_of(&ev.inject(fault)?, params)
        })
    }
}

fn argmin(values: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, v) in values.iter().enumerate() {
        if *v < best.1 {
            best = (i, *v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::DividerMacro;

    fn quick_options() -> GeneratorOptions {
        GeneratorOptions {
            threads: 2,
            powell: PowellOptions {
                ftol: 1e-3,
                max_iter: 6,
                line: BrentOptions { tol: 5e-3, max_iter: 10 },
            },
            brent: BrentOptions { tol: 1e-3, max_iter: 20 },
            ..GeneratorOptions::default()
        }
    }

    #[test]
    fn generates_a_best_test_for_a_strong_bridge() {
        let mac = DividerMacro::new();
        let cache = NominalCache::new();
        let gen = Generator::with_options(&mac, &cache, quick_options());
        let fault = castg_faults::Fault::bridge("out", "0", 10e3);
        let best = gen.generate_for_fault(&fault).unwrap();
        assert!(best.detected_at_dictionary, "10 kΩ across 2 kΩ leg must be detectable");
        assert!(!best.required_intensify);
        assert!(best.critical_scale > 1.0, "critical scale {}", best.critical_scale);
        assert!(best.evaluations > 0);
        assert!(!best.params.is_empty());
    }

    #[test]
    fn dc_config_wins_for_divider_ratio_fault_and_prefers_max_drive() {
        // For the divider, a bridge across R3 changes the DC ratio most
        // visibly at the largest drive level: the optimizer must push
        // `lev` toward the upper bound.
        let mac = DividerMacro::new();
        let cache = NominalCache::new();
        let gen = Generator::with_options(&mac, &cache, quick_options());
        let fault = castg_faults::Fault::bridge("out", "0", 10e3);
        let best = gen.generate_for_fault(&fault).unwrap();
        if best.config_id == 1 {
            assert!(best.params[0] > 6.0, "expected near-max drive, got {:?}", best.params);
        }
    }

    #[test]
    fn undetectable_fault_is_flagged() {
        // vin–mid bridges R1 (1 kΩ) with 10 kΩ: detectable. Make it very
        // weak instead so nothing detects at dictionary impact.
        let mac = DividerMacro::new();
        let cache = NominalCache::new();
        let gen = Generator::with_options(&mac, &cache, quick_options());
        let fault = castg_faults::Fault::bridge("vin", "mid", 100e6);
        let best = gen.generate_for_fault(&fault).unwrap();
        assert!(!best.detected_at_dictionary);
        assert!(best.required_intensify);
        assert!(best.critical_scale < 1.0);
    }

    #[test]
    fn selection_methods_agree_on_clear_cut_fault() {
        let mac = DividerMacro::new();
        let cache = NominalCache::new();
        let fault = castg_faults::Fault::bridge("out", "0", 10e3);
        let mut opts = quick_options();
        opts.selection = SelectionMethod::PaperIterative;
        let a = Generator::with_options(&mac, &cache, opts.clone())
            .generate_for_fault(&fault)
            .unwrap();
        opts.selection = SelectionMethod::MaxCriticalImpact;
        let b = Generator::with_options(&mac, &cache, opts).generate_for_fault(&fault).unwrap();
        assert_eq!(a.config_id, b.config_id, "selection methods disagree");
    }

    #[test]
    fn dictionary_run_covers_all_faults() {
        let mac = DividerMacro::new();
        let cache = NominalCache::new();
        let gen = Generator::with_options(&mac, &cache, quick_options());
        let dict = mac.fault_dictionary();
        let report = gen.generate(&dict);
        assert!(report.failures.is_empty(), "failures: {:?}", report.failures);
        assert_eq!(report.tests.len(), dict.len());
        let dist = report.distribution();
        let total: usize = dist.iter().map(|r| r.bridge + r.pinhole).sum();
        assert_eq!(total, dict.len());
        assert!(report.total_evaluations() > 0);
    }

    #[test]
    fn report_helpers_filter_correctly() {
        let mac = DividerMacro::new();
        let cache = NominalCache::new();
        let gen = Generator::with_options(&mac, &cache, quick_options());
        let report = gen.generate(&mac.fault_dictionary());
        for row in report.distribution() {
            assert_eq!(report.tests_for_config(row.config_id).len(), row.bridge + row.pinhole);
        }
        for t in report.undetected() {
            assert!(!t.detected_at_dictionary);
        }
    }

    /// A configuration that records, for every `measure()` on a bridged
    /// circuit, the bridge resistance and the parameter bits.
    struct Recording {
        inner: std::sync::Arc<dyn TestConfiguration>,
        faulted: Mutex<Vec<(u64, Vec<u64>)>>,
    }

    impl TestConfiguration for Recording {
        fn id(&self) -> usize {
            self.inner.id()
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn param_names(&self) -> Vec<String> {
            self.inner.param_names()
        }
        fn space(&self) -> castg_numeric::ParamSpace {
            self.inner.space()
        }
        fn seed(&self) -> Vec<f64> {
            self.inner.seed()
        }
        fn measure(
            &self,
            circuit: &Circuit,
            params: &[f64],
        ) -> Result<crate::Measurement, CoreError> {
            if let Some(bridge) = circuit.device("F_bridge") {
                let castg_spice::DeviceKind::Resistor { ohms, .. } = bridge.kind() else {
                    panic!("a bridge fault injects a resistor");
                };
                let bits = params.iter().map(|p| p.to_bits()).collect();
                self.faulted.lock().push((ohms.to_bits(), bits));
            }
            self.inner.measure(circuit, params)
        }
        fn return_values(
            &self,
            measured: &crate::Measurement,
            nominal: &crate::Measurement,
        ) -> Vec<f64> {
            self.inner.return_values(measured, nominal)
        }
        fn tolerance_box(&self, params: &[f64], nominal_returns: &[f64]) -> Vec<f64> {
            self.inner.tolerance_box(params, nominal_returns)
        }
        fn description(&self) -> crate::ConfigDescription {
            self.inner.description()
        }
    }

    /// One fault's generation simulates each (impact, parameter) point
    /// once — Powell revisits points, step 3 repeats the selection's
    /// scale-1 round and the bisection probes the softened scale — yet
    /// `evaluations` still counts every objective call.
    #[test]
    fn generation_simulates_each_point_once_and_counts_every_call() {
        let step = DividerMacro::new()
            .configurations()
            .into_iter()
            .find(|c| c.space().dim() == 2)
            .expect("the divider has a two-parameter configuration");
        let recording =
            std::sync::Arc::new(Recording { inner: step, faulted: Mutex::new(Vec::new()) });
        let cache = NominalCache::new();
        let gen = Generator {
            configs: vec![recording.clone()],
            nominal: DividerMacro::new().nominal_circuit(),
            cache: &cache,
            options: quick_options(),
        };
        let best = gen.generate_for_fault(&castg_faults::Fault::bridge("out", "0", 10e3)).unwrap();

        let faulted = recording.faulted.lock();
        let distinct: std::collections::HashSet<_> = faulted.iter().collect();
        assert_eq!(distinct.len(), faulted.len(), "a faulted point was simulated twice");
        // Without the memo each of the 67 objective calls simulated once
        // (42 distinct points); the memo must not change the count.
        assert_eq!(best.evaluations, 67);
        assert_eq!(faulted.len(), 42);
    }

    #[test]
    fn empty_config_set_is_an_error() {
        struct NoConfigs;
        impl AnalogMacro for NoConfigs {
            fn name(&self) -> &str {
                "empty"
            }
            fn macro_type(&self) -> &str {
                "none"
            }
            fn nominal_circuit(&self) -> Circuit {
                Circuit::new()
            }
            fn fault_site_nodes(&self) -> Vec<String> {
                vec![]
            }
            fn fault_dictionary(&self) -> FaultDictionary {
                FaultDictionary::default()
            }
            fn configurations(&self) -> Vec<std::sync::Arc<dyn TestConfiguration>> {
                vec![]
            }
        }
        let cache = NominalCache::new();
        let gen = Generator::new(&NoConfigs, &cache);
        let err = gen
            .generate_for_fault(&castg_faults::Fault::bridge("a", "b", 1e3))
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidOptions { .. }));
    }
}
