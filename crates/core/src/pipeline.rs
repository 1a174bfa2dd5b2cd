//! The paper's flow as one call: per-fault test generation (§3),
//! compaction of the per-fault tests (§4), then coverage evaluation of
//! the compacted set. [`run_pipeline`] is the one place that sequences
//! the three phases; the `castg` CLI, the campaign daemon and the
//! golden fixtures run the flow through it. Callers that time or sweep
//! one phase on its own call that phase directly.

use std::fmt;
use std::time::Instant;

use castg_faults::FaultDictionary;

use crate::cache::NominalCache;
use crate::compact::{compact, CompactionOptions, CompactionReport};
use crate::evaluate::{
    evaluate_campaign, test_instances_from_compaction, CampaignOptions, CoverageReport,
    TestInstance,
};
use crate::generate::{GenerationReport, Generator, GeneratorOptions};
use crate::{AnalogMacro, CoreError};

/// Wall-clock seconds of each pipeline phase (machine-dependent by
/// nature; everything else a [`PipelineRun`] holds is deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineTimings {
    /// Per-fault test generation.
    pub generate_s: f64,
    /// Test-set compaction.
    pub compact_s: f64,
    /// Coverage evaluation (the fault campaign).
    pub evaluate_s: f64,
}

/// Everything one [`run_pipeline`] call produces.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// One best test per dictionary fault, in dictionary order.
    pub generation: GenerationReport,
    /// The compacted test set.
    pub compaction: CompactionReport,
    /// The compacted tests, bound to the macro's configurations.
    pub tests: Vec<TestInstance>,
    /// Coverage of `tests` over the dictionary: one row per fault.
    pub coverage: CoverageReport,
    /// Wall-clock time of each phase.
    pub timings: PipelineTimings,
}

/// Why [`run_pipeline`] stopped, by phase. Its `Display` is the
/// failed phase's message, so front ends can print it as it is.
#[derive(Debug, Clone)]
pub enum PipelineError {
    /// At least one fault's generation failed; nothing was compacted.
    Generation {
        /// Every failed fault's name with its error, in dictionary
        /// order.
        failures: Vec<(String, CoreError)>,
        /// Size of the dictionary generation ran over.
        faults: usize,
    },
    /// Compaction, or binding its tests to the macro's
    /// configurations, failed.
    Compaction(CoreError),
    /// The coverage campaign failed (a nominal simulation or a
    /// contract violation; faulted breakdowns are outcomes, not
    /// errors).
    Evaluation(CoreError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Generation { failures, faults } => {
                write!(f, "{} of {faults} faults failed generation", failures.len())
            }
            PipelineError::Compaction(e) | PipelineError::Evaluation(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Runs generate → compact → evaluate for `macro_def` over
/// `dictionary`.
///
/// The three phases share one [`NominalCache`], so the nominal
/// measurements generation makes are reused by compaction and by the
/// campaign. Generation runs with `generator`; any failed fault stops
/// the run before compaction. Compaction uses
/// [`CompactionOptions::default`]. The compacted tests are evaluated by
/// [`evaluate_campaign`] with `campaign`.
///
/// # Errors
///
/// The phase that failed: [`PipelineError::Generation`] with every
/// failed fault, [`PipelineError::Compaction`] or
/// [`PipelineError::Evaluation`].
pub fn run_pipeline(
    macro_def: &dyn AnalogMacro,
    dictionary: &FaultDictionary,
    generator: &GeneratorOptions,
    campaign: &CampaignOptions,
) -> Result<PipelineRun, PipelineError> {
    let cache = NominalCache::new();

    let t0 = Instant::now();
    let generation =
        Generator::with_options(macro_def, &cache, generator.clone()).generate(dictionary);
    let generate_s = t0.elapsed().as_secs_f64();
    if !generation.failures.is_empty() {
        return Err(PipelineError::Generation {
            failures: generation.failures,
            faults: dictionary.len(),
        });
    }

    let t0 = Instant::now();
    let compaction = compact(macro_def, &cache, &generation, &CompactionOptions::default())
        .map_err(PipelineError::Compaction)?;
    let compact_s = t0.elapsed().as_secs_f64();
    let tests = test_instances_from_compaction(macro_def, &compaction)
        .map_err(PipelineError::Compaction)?;

    let t0 = Instant::now();
    let coverage = evaluate_campaign(macro_def, &cache, &tests, dictionary, campaign)
        .map_err(PipelineError::Evaluation)?;
    let evaluate_s = t0.elapsed().as_secs_f64();

    Ok(PipelineRun {
        generation,
        compaction,
        tests,
        coverage,
        timings: PipelineTimings { generate_s, compact_s, evaluate_s },
    })
}
