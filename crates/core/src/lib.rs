//! Compact structural test generation for analog macros.
//!
//! This crate implements the methodology of Kaal & Kerkhoff, *"Compact
//! Structural Test Generation for Analog Macros"* (ED&TC 1997): fault-
//! model driven, automatically *tailored* test generation for analog
//! circuit blocks, followed by compaction of the per-fault optimal tests
//! into a small high-quality test set.
//!
//! # Pipeline
//!
//! 1. Describe the device under test as an [`AnalogMacro`]: a netlist,
//!    fault sites, a fault dictionary, and a set of
//!    [`TestConfiguration`]s (stimulus templates with free parameters,
//!    bounds, seeds and tolerance-box functions).
//! 2. [`Generator::generate`] produces one optimal test per fault
//!    (§3.3, Fig. 6): parameters are optimized against a softened fault
//!    model (Brent/Powell minimizing the sensitivity [`sensitivity`](fn@sensitivity)),
//!    then the best configuration is selected by relaxing/intensifying
//!    the fault impact until exactly one test survives.
//! 3. [`compact`](fn@compact) collapses the per-fault tests into a compact set
//!    (§4.1), screening every collapse with the δ-criterion.
//! 4. [`evaluate_campaign`] measures the compacted set's fault coverage
//!    over the dictionary.
//!
//! [`run_pipeline`] runs steps 2–4 in that order over one shared
//! [`NominalCache`] and returns them as a [`PipelineRun`]. It is the
//! flow the `castg` CLI, the campaign daemon and the golden fixtures
//! run; the phases stay public for callers that time or sweep them one
//! by one. [`compare_with_baseline`] measures the generated tests
//! against the fixed-seed selection baseline the paper argues against.
//!
//! tps-graphs ([`tps_graph`]) visualize the sensitivity landscape the
//! optimizer works in (the paper's Figs. 2–4), and
//! [`ConfigDescription`] parses/serializes the textual configuration
//! description format of Fig. 1.
//!
//! # Fault-campaign engine
//!
//! Coverage evaluation runs as a structure-sharing campaign
//! ([`evaluate_campaign`]): the nominal circuit's compiled
//! plan is shared immutably by every worker, and workers pull whole
//! faults through [`fan_out`], the one worker pool generation and the
//! daemon's batches run on too. Each fault is injected exactly once —
//! by default through the delta path, where bridge variants patch the
//! nominal plan instead of recompiling (see [`InjectionMode`]) — then
//! every test is scored against it, in test order, over a sharded
//! [`NominalCache`]. Reports are bit-identical at any worker count and
//! under either injection mode; `tests/campaign_differential.rs` pins
//! that for the IV-converter and ladder-n=256 dictionaries on both
//! solver paths.
//!
//! # Convergence resilience: campaigns that never die
//!
//! Real dictionaries inject pathological variants — bridges that
//! collapse the faulted matrix, near-shorts that destroy its
//! conditioning — and one such variant must not abort thousands of
//! healthy work items. The campaign engine therefore treats every
//! faulted `(fault, test)` cell as fallible in a typed way:
//!
//! * Each fault's injection and each of its cells run inside
//!   `catch_unwind`, and each cell under its own solve budget
//!   ([`CampaignOptions::max_newton_iters`] / `budget_ms`, installed
//!   through `castg_spice::with_solve_budget`), so panics, runaway
//!   solves and singular factorizations are contained to the cell that
//!   caused them.
//! * Every fault's row in the [`CoverageReport`] carries a
//!   [`FaultOutcome`]: `Detected` / `Undetected` for healthy variants,
//!   `Unconverged`, `Singular` (naming the offending MNA unknown),
//!   `TimedOut`, `Panicked`, or `InjectionFailed` for broken ones.
//!   [`CoverageReport::tally`] aggregates the counts into an
//!   [`OutcomeTally`]; its `suspect()` subset (unconverged, timed out,
//!   panicked) is what `castg generate --strict` gates on.
//! * *Nominal* simulation failures remain hard errors — a macro whose
//!   fault-free circuit does not solve is a configuration bug, not a
//!   fault property — and are surfaced by a pre-warm pass before any
//!   worker fans out.
//! * The report's `ladder` field sums the Newton strategy-ladder
//!   statistics (`castg_spice::LadderStats`) over all faulted solves,
//!   so campaign reports show which rescue rungs earned their keep.
//!
//! Iteration-allowance outcomes are bit-identical at any worker count;
//! wall-clock budgets (`budget_ms`) are inherently machine-dependent
//! and left out of determinism guarantees.
//! `tests/campaign_robustness.rs` pins the contract with deliberately
//! singular, deliberately non-converging and degenerate-injection
//! variants, serial and parallel.
//!
//! # Example (a synthetic macro; the paper's IV converter is a deck under `tests/fixtures/`)
//!
//! ```
//! use castg_core::synthetic::DividerMacro;
//! use castg_core::{AnalogMacro, Generator, NominalCache};
//!
//! let mac = DividerMacro::new();
//! let cache = NominalCache::new();
//! let generator = Generator::new(&mac, &cache);
//! let fault = castg_faults::Fault::bridge("out", "0", 10e3);
//! let best = generator.generate_for_fault(&fault)?;
//! assert!(best.detected_at_dictionary);
//! # Ok::<(), castg_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod cache;
mod compact;
mod config;
mod descr;
mod error;
mod evaluate;
mod generate;
mod interp;
mod macro_def;
mod pipeline;
mod pool;
pub mod report;
mod sensitivity;
pub mod synthetic;
mod tps;

pub use baseline::{compare_with_baseline, seed_test_set, BaselineComparison};
pub use cache::NominalCache;
pub use compact::{compact, CompactTest, CompactionOptions, CompactionReport};
pub use config::{check_params, Measurement, TestConfiguration};
pub use descr::{ConfigDescription, ParamSpec, PortAction};
pub use error::CoreError;
pub use evaluate::{
    evaluate_campaign, test_instances_from_compaction, CampaignOptions, CoverageReport,
    FaultCoverage, FaultOutcome, InjectionMode, OutcomeTally, TestInstance,
};
pub use generate::{
    BestTest, DistributionRow, GenerationReport, Generator, GeneratorOptions, SelectionMethod,
};
pub use interp::DescribedConfig;
pub use macro_def::AnalogMacro;
pub use pipeline::{run_pipeline, PipelineError, PipelineRun, PipelineTimings};
pub use pool::{default_threads, fan_out};
pub use sensitivity::{is_detected, sensitivity, Evaluator, SimFailure, SENSITIVITY_SIM_FAILURE};
pub use tps::{tps_graph, tps_profile, TpsGraph};
