//! Test-set quality evaluation: fault coverage of an arbitrary test set
//! against a fault dictionary, run as a structure-sharing **fault
//! campaign**.
//!
//! Coverage evaluation is the second compute-bound half of the
//! generate→evaluate pipeline: every fault × test cell costs one full
//! faulty-circuit simulation. The campaign engine keeps it cheap by
//! amortizing every piece of per-circuit compilation across the run:
//!
//! * the nominal circuit's assembly plan is compiled **once** and
//!   shared (immutably) by every nominal measurement on every worker;
//! * workers pull whole faults through [`fan_out`]:
//!   each fault is injected **once per campaign**
//!   ([`Fault::inject`](castg_faults::Fault::inject): a bridge or a
//!   junction pinhole is one resistor patched into the nominal plan, a
//!   MOS pinhole recompiles), every test is scored against the variant
//!   in test order, and the variant — circuit, plan, sparse template,
//!   cached factorizations — is dropped before the worker takes its
//!   next fault.
//!
//! Per-fault rows are reduced in dictionary order, so the report is
//! identical — test indices, sensitivities, everything, bit for bit —
//! at any worker count. Parallelism is bounded by the dictionary size:
//! a campaign over fewer faults than workers leaves the extra workers
//! idle.
//!
//! # Robustness: campaigns never die on a broken variant
//!
//! A fault dictionary is untrusted input: a hard bridge can produce a
//! variant whose MNA system is singular, one that no Newton strategy
//! converges on, one that burns unbounded wall-clock, or (in the worst
//! case) one that trips a panic somewhere in the solver stack. None of
//! these may kill the campaign — each fault's injection and each of its
//! cells are wrapped in [`std::panic::catch_unwind`], each cell under
//! an optional solve budget ([`CampaignOptions::max_newton_iters`] /
//! [`CampaignOptions::budget_ms`]), and every breakdown degrades to a
//! typed per-fault [`FaultOutcome`] in the report. Only *nominal*
//! failures and contract violations stay hard errors: the nominal
//! circuit is the caller's own macro and must simulate cleanly.
//! Outcome tallies and the campaign's [`LadderStats`] are bit-identical
//! at any worker count (wall-clock budgets excepted — see
//! [`CampaignOptions::budget_ms`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use castg_faults::{Fault, FaultDictionary};
use castg_spice::{ladder_stats, with_solve_budget, Circuit, LadderStats};

use crate::cache::NominalCache;
use crate::compact::CompactionReport;
use crate::sensitivity::{is_detected, Evaluator, SimFailure};
use crate::{default_threads, fan_out, AnalogMacro, CoreError, TestConfiguration};

/// Options of a coverage-evaluation campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads. Each pulls whole faults (inject, score every
    /// test, drop the variant), so no more than the dictionary's fault
    /// count ever run.
    pub threads: usize,
    /// Newton-iteration allowance per `(fault, test)` cell, spanning
    /// every analysis the test performs on its faulted variant.
    /// Exhaustion degrades the cell to [`FaultOutcome::Unconverged`].
    /// Deterministic: the same cell exhausts at the same iteration on
    /// any machine at any thread count. `None` (the default) leaves
    /// only the solver's own limits.
    pub max_newton_iters: Option<usize>,
    /// Wall-clock budget per `(fault, test)` cell, in milliseconds;
    /// overrun degrades the cell to [`FaultOutcome::TimedOut`].
    /// Inherently machine- and
    /// scheduling-dependent — campaigns that must be bit-identical
    /// across thread counts should use
    /// [`CampaignOptions::max_newton_iters`] instead. `None` (the
    /// default) never times out.
    pub budget_ms: Option<u64>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: default_threads(),
            max_newton_iters: None,
            budget_ms: None,
        }
    }
}

/// A concrete test: configuration plus parameter values.
#[derive(Clone)]
pub struct TestInstance {
    /// The configuration the test uses.
    pub config: Arc<dyn TestConfiguration>,
    /// The parameter values.
    pub params: Vec<f64>,
}

impl std::fmt::Debug for TestInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestInstance")
            .field("config", &self.config.name())
            .field("params", &self.params)
            .finish()
    }
}

/// Robustness classification of one fault's campaign cells — *how* the
/// verdict was reached, on top of the `detected` flag.
///
/// When a fault's tests disagree (one detects cleanly, another panics),
/// the *worst* cell classifies the fault, in the severity order
/// `Panicked > TimedOut > Singular > Unconverged > Detected/Undetected`
/// — a fault is only as trustworthy as its least trustworthy
/// simulation. Breakdown cells still score
/// [`crate::SENSITIVITY_SIM_FAILURE`] (counted as detected), so
/// coverage percentages are independent of the classification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// Every cell simulated (cleanly or as a counted breakdown) and the
    /// best sensitivity crossed the detection threshold.
    Detected,
    /// Every cell simulated and no test detected the fault (a test
    /// escape).
    Undetected,
    /// At least one cell exhausted the Newton strategy ladder or its
    /// iteration budget.
    Unconverged,
    /// At least one cell's variant was singular at the named unknown.
    Singular {
        /// The unknown (first in test order) whose pivot vanished.
        unknown: String,
    },
    /// At least one cell overran its wall-clock budget.
    TimedOut,
    /// At least one cell panicked (caught and isolated by the worker).
    Panicked,
    /// The fault could not be injected into the nominal circuit at all
    /// (e.g. a degenerate self-bridge); no cell ever ran.
    InjectionFailed {
        /// The injection error, rendered.
        reason: String,
    },
}

impl std::fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultOutcome::Detected => f.write_str("detected"),
            FaultOutcome::Undetected => f.write_str("undetected"),
            FaultOutcome::Unconverged => f.write_str("unconverged"),
            FaultOutcome::Singular { unknown } => write!(f, "singular at {unknown}"),
            FaultOutcome::TimedOut => f.write_str("timed out"),
            FaultOutcome::Panicked => f.write_str("panicked"),
            FaultOutcome::InjectionFailed { reason } => write!(f, "injection failed: {reason}"),
        }
    }
}

/// Campaign-wide outcome counts, one per [`FaultOutcome`] variant.
/// Sums to the dictionary size; bit-identical at any worker count
/// (wall-clock budgets excepted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeTally {
    /// Faults classified [`FaultOutcome::Detected`].
    pub detected: usize,
    /// Faults classified [`FaultOutcome::Undetected`].
    pub undetected: usize,
    /// Faults classified [`FaultOutcome::Unconverged`].
    pub unconverged: usize,
    /// Faults classified [`FaultOutcome::Singular`].
    pub singular: usize,
    /// Faults classified [`FaultOutcome::TimedOut`].
    pub timed_out: usize,
    /// Faults classified [`FaultOutcome::Panicked`].
    pub panicked: usize,
    /// Faults classified [`FaultOutcome::InjectionFailed`].
    pub injection_failed: usize,
}

impl OutcomeTally {
    /// Faults whose verdict is robustness-suspect: unconverged, timed
    /// out or panicked (the `--strict` failure set; singular and
    /// injection-failed variants are deterministic properties of the
    /// fault itself, not solver fragility).
    pub fn suspect(&self) -> usize {
        self.unconverged + self.timed_out + self.panicked
    }
}

/// Per-fault outcome of a coverage evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCoverage {
    /// Fault name.
    pub fault: String,
    /// The most negative sensitivity any test in the set achieved.
    pub best_sensitivity: f64,
    /// Index (into the test set) of the test achieving it.
    pub best_test: usize,
    /// Whether the fault is detected by the set.
    pub detected: bool,
    /// How the verdict was reached (robustness classification).
    pub outcome: FaultOutcome,
}

/// Coverage of a test set over a dictionary.
#[derive(Debug, Clone, Default)]
pub struct CoverageReport {
    /// Per-fault outcomes, in dictionary order.
    pub per_fault: Vec<FaultCoverage>,
    /// Number of tests in the evaluated set.
    pub test_count: usize,
    /// Convergence-ladder statistics of every *faulted* solve the
    /// campaign ran (nominal measurements are excluded — they are
    /// cached, shared and pre-warmed outside the accounted window).
    /// Landings and iteration totals are bit-identical at any worker
    /// count.
    pub ladder: LadderStats,
}

impl CoverageReport {
    /// Number of detected faults.
    pub fn detected(&self) -> usize {
        self.per_fault.iter().filter(|f| f.detected).count()
    }

    /// Total number of faults evaluated.
    pub fn total(&self) -> usize {
        self.per_fault.len()
    }

    /// Fault coverage as a fraction in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.per_fault.is_empty() {
            return 0.0;
        }
        self.detected() as f64 / self.total() as f64
    }

    /// Names of undetected faults (test escapes).
    pub fn escapes(&self) -> Vec<&str> {
        self.per_fault.iter().filter(|f| !f.detected).map(|f| f.fault.as_str()).collect()
    }

    /// Mean of the per-fault best sensitivities (lower = more margin).
    pub fn mean_best_sensitivity(&self) -> f64 {
        if self.per_fault.is_empty() {
            return 0.0;
        }
        self.per_fault.iter().map(|f| f.best_sensitivity).sum::<f64>()
            / self.per_fault.len() as f64
    }

    /// Counts the per-fault outcomes by [`FaultOutcome`] variant.
    pub fn tally(&self) -> OutcomeTally {
        let mut t = OutcomeTally::default();
        for f in &self.per_fault {
            match f.outcome {
                FaultOutcome::Detected => t.detected += 1,
                FaultOutcome::Undetected => t.undetected += 1,
                FaultOutcome::Unconverged => t.unconverged += 1,
                FaultOutcome::Singular { .. } => t.singular += 1,
                FaultOutcome::TimedOut => t.timed_out += 1,
                FaultOutcome::Panicked => t.panicked += 1,
                FaultOutcome::InjectionFailed { .. } => t.injection_failed += 1,
            }
        }
        t
    }
}

/// Evaluates a test set's coverage of `dictionary` (faults at their
/// dictionary impact): the campaign engine behind every coverage
/// evaluation.
///
/// Fans the dictionary out one fault per item over
/// [`CampaignOptions::threads`] workers ([`fan_out`]). Each item
/// injects its fault once, scores every test against the variant in
/// test order, and drops the variant, so the heavy objects — circuits,
/// plans, templates, factorizations — are resident only for faults in
/// flight. Rows and ladder statistics are reduced in dictionary order,
/// so the report — test indices, sensitivities, everything — is
/// bit-identical at any worker count. The report holds one row per
/// dictionary fault, whatever the outcome (an empty test set detects
/// nothing and injects nothing).
///
/// # Errors
///
/// Nominal-simulation failures and contract violations propagate. A
/// hard-failing cell ends its fault's item and no further fault is
/// started (fail-fast); the earliest failure in dictionary order among
/// the faults that ran is returned. *Faulted-variant* breakdowns — panics, non-convergence,
/// singular systems, budget overruns, and injection failures on
/// degenerate fault sites — never error: they degrade to typed
/// [`FaultOutcome`]s.
pub fn evaluate_campaign(
    macro_def: &dyn AnalogMacro,
    cache: &NominalCache,
    tests: &[TestInstance],
    dictionary: &FaultDictionary,
    options: &CampaignOptions,
) -> Result<CoverageReport, CoreError> {
    let nominal = macro_def.nominal_circuit();
    let mut report = CoverageReport { test_count: tests.len(), ..Default::default() };

    if tests.is_empty() {
        // Nothing can detect anything; do not even inject.
        for fault in dictionary.iter() {
            report.per_fault.push(FaultCoverage {
                fault: fault.name(),
                best_sensitivity: f64::INFINITY,
                best_test: 0,
                detected: false,
                outcome: FaultOutcome::Undetected,
            });
        }
        return Ok(report);
    }

    // Compile the nominal plan before anything forks: every nominal
    // measurement shares it, and delta injection derives each variant's
    // plan from it.
    nominal.compile_plan();

    // Pre-warm every test's nominal measurement before the fan-out.
    // Three birds: nominal failures surface as hard errors here, with
    // no campaign machinery in the way; the per-cell solve budgets
    // below can never be charged for (or exhausted by) a nominal
    // solve; and the items' ladder statistics count faulted solves
    // only, so `CoverageReport::ladder` is a pure function of the
    // (fault, test) grid.
    for test in tests {
        Evaluator::new(test.config.as_ref(), &nominal, cache).nominal(&test.params)?;
    }

    // Only a hard-failing cell (nominal failure, contract violation)
    // stops the campaign; faulted breakdowns are typed outcomes and it
    // keeps going. Faults already in flight still finish.
    let failed = AtomicBool::new(false);
    let rows = fan_out(dictionary.len(), options.threads, |i| {
        if failed.load(Ordering::Relaxed) {
            return None;
        }
        let row = evaluate_fault(&dictionary.faults()[i], &nominal, cache, tests, options);
        if row.is_err() {
            failed.store(true, Ordering::Relaxed);
        }
        Some(row)
    });
    // Skipped faults are `None`, and only a hard failure skips any.
    for row in rows.into_iter().flatten() {
        let (row, ladder) = row?;
        report.per_fault.push(row);
        report.ladder = report.ladder + ladder;
    }
    Ok(report)
}

/// One campaign item: injects `fault` once, scores every test against
/// the variant in test order, and classifies the fault. Returns its row
/// with the ladder statistics of its faulted solves.
fn evaluate_fault(
    fault: &Fault,
    nominal: &Circuit,
    cache: &NominalCache,
    tests: &[TestInstance],
    options: &CampaignOptions,
) -> Result<(FaultCoverage, LadderStats), CoreError> {
    let before = ladder_stats();
    // Injection and every cell run inside `catch_unwind`: a panicking
    // variant poisons nothing (parking_lot locks release on unwind
    // without poisoning, and a panic mid-compute in the nominal cache
    // inserts nothing) and degrades to a typed outcome instead of
    // tearing the campaign down.
    let injected = catch_unwind(AssertUnwindSafe(|| fault.inject(nominal)));
    let (best, outcome) = 'scored: {
        let variant = match injected {
            Ok(Ok(variant)) => variant,
            // A degenerate fault site is a property of the dictionary,
            // not an error.
            Ok(Err(e)) => {
                let reason = e.to_string();
                break 'scored ((0, f64::INFINITY), FaultOutcome::InjectionFailed { reason });
            }
            Err(_panic) => break 'scored ((0, f64::INFINITY), FaultOutcome::Panicked),
        };
        let mut best = (0usize, f64::INFINITY);
        let mut panicked = false;
        let mut timed_out = false;
        let mut singular: Option<String> = None;
        let mut unconverged = false;
        for (ti, test) in tests.iter().enumerate() {
            let cell = catch_unwind(AssertUnwindSafe(|| {
                with_solve_budget(options.max_newton_iters, options.budget_ms, || {
                    Evaluator::new(test.config.as_ref(), nominal, cache)
                        .sensitivity_outcome(&variant, &test.params)
                })
            }));
            match cell {
                Ok(Ok((s, failure))) => {
                    if s < best.1 {
                        best = (ti, s);
                    }
                    match failure {
                        Some(SimFailure::TimedOut) => timed_out = true,
                        Some(SimFailure::Singular { unknown }) => {
                            singular.get_or_insert(unknown);
                        }
                        Some(SimFailure::Unconverged) => unconverged = true,
                        None => {}
                    }
                }
                Ok(Err(e)) => return Err(e),
                Err(_panic) => panicked = true,
            }
        }
        // Severity order: the least trustworthy cell classifies the
        // fault (the detected flag still reflects the best score).
        let outcome = if panicked {
            FaultOutcome::Panicked
        } else if timed_out {
            FaultOutcome::TimedOut
        } else if let Some(unknown) = singular {
            FaultOutcome::Singular { unknown }
        } else if unconverged {
            FaultOutcome::Unconverged
        } else if is_detected(best.1) {
            FaultOutcome::Detected
        } else {
            FaultOutcome::Undetected
        };
        (best, outcome)
    };
    let row = FaultCoverage {
        fault: fault.name(),
        best_sensitivity: best.1,
        best_test: best.0,
        detected: is_detected(best.1),
        outcome,
    };
    Ok((row, ladder_stats().since(&before)))
}

/// Materializes the tests of a [`CompactionReport`] as [`TestInstance`]s
/// using the macro's configuration set.
///
/// # Errors
///
/// [`CoreError::Configuration`] if a compact test references a
/// configuration id the macro does not provide.
pub fn test_instances_from_compaction(
    macro_def: &dyn AnalogMacro,
    compaction: &CompactionReport,
) -> Result<Vec<TestInstance>, CoreError> {
    let configs = macro_def.configurations();
    compaction
        .tests
        .iter()
        .map(|t| {
            let config = configs
                .iter()
                .find(|c| c.id() == t.config_id)
                .ok_or_else(|| CoreError::Configuration {
                    config: t.config_name.clone(),
                    reason: format!("macro has no configuration with id {}", t.config_id),
                })?;
            Ok(TestInstance { config: Arc::clone(config), params: t.params.clone() })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::tests::quick_options;
    use crate::run_pipeline;
    use crate::synthetic::DividerMacro;

    fn with_threads(threads: usize) -> CampaignOptions {
        CampaignOptions { threads, ..CampaignOptions::default() }
    }

    #[test]
    fn full_pipeline_coverage_on_divider() {
        let mac = DividerMacro::new();
        let dict = mac.fault_dictionary();
        let coverage =
            run_pipeline(&mac, &dict, &quick_options(), &with_threads(2)).unwrap().coverage;
        assert_eq!(coverage.total(), dict.len());
        // All three 10 kΩ divider bridges are detectable; the compacted
        // set must keep detecting each of them.
        assert_eq!(coverage.detected(), dict.len(), "escapes: {:?}", coverage.escapes());
        assert!(coverage.coverage() > 0.99);
        assert!(coverage.mean_best_sensitivity() < 0.0);
    }

    /// The parallel fan-out must reproduce the serial (threads = 1)
    /// report exactly: same fault order, same best test indices, same
    /// best sensitivities bit for bit.
    #[test]
    fn parallel_coverage_matches_serial() {
        let mac = DividerMacro::new();
        let dict = mac.fault_dictionary();
        let serial = run_pipeline(&mac, &dict, &quick_options(), &with_threads(1)).unwrap();
        let cache = NominalCache::new();
        for threads in [2, 4, 8] {
            let parallel =
                evaluate_campaign(&mac, &cache, &serial.tests, &dict, &with_threads(threads))
                    .unwrap();
            assert_eq!(parallel.test_count, serial.coverage.test_count);
            assert_eq!(parallel.per_fault, serial.coverage.per_fault, "threads = {threads}");
        }
    }

    #[test]
    fn empty_test_set_detects_nothing() {
        let mac = DividerMacro::new();
        let cache = NominalCache::new();
        let dict = mac.fault_dictionary();
        let coverage = evaluate_campaign(&mac, &cache, &[], &dict, &with_threads(1)).unwrap();
        assert_eq!(coverage.detected(), 0);
        assert_eq!(coverage.escapes().len(), dict.len());
        assert_eq!(coverage.coverage(), 0.0);
    }

    #[test]
    fn empty_dictionary_yields_empty_report() {
        let mac = DividerMacro::new();
        let cache = NominalCache::new();
        let empty = FaultDictionary::default();
        let coverage = evaluate_campaign(&mac, &cache, &[], &empty, &with_threads(1)).unwrap();
        assert_eq!(coverage.total(), 0);
        assert_eq!(coverage.coverage(), 0.0);
    }

    #[test]
    fn debug_format_of_test_instance() {
        let mac = DividerMacro::new();
        let configs = crate::AnalogMacro::configurations(&mac);
        let t = TestInstance { config: Arc::clone(&configs[0]), params: vec![5.0] };
        let s = format!("{t:?}");
        assert!(s.contains("dc_out"));
        assert!(s.contains("5.0"));
    }
}
