//! The three compute workloads: `iv_generate` (generate → compact →
//! evaluate on the paper's IV converter), and the evaluation-only
//! re-screens `mesh_screen` (linear, fill-heavy, AMD) and `ota_rescue`
//! (nonlinear, rescue-rung heavy, BTF).
//!
//! Every workload enters as deck text plus `.cfg` text through
//! `NetlistMacro`, the path `castg generate` and `castg serve` take.
//! One *unit* is what one `castg generate`-style invocation does after
//! set-up, on one worker thread with empty caches; a run repeats units
//! for `--seconds` and reports their median, each unit rescaled by the
//! [`crate::probe`] passes during and around it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use castg_core::synthetic::{MeshMacro, OtaChainMacro};
use castg_core::{
    compact, evaluate_campaign, test_instances_from_compaction, AnalogMacro, CampaignOptions,
    CompactionOptions, ConfigDescription, DescribedConfig, FaultOutcome, Generator,
    GeneratorOptions, NominalCache, TestConfiguration, TestInstance,
};
use castg_faults::{derive_fault_dictionary, BridgeDerivation, Fault, FaultDictionary, FaultKind};
use castg_netlist::{parse_deck_with_params, write_deck, NetlistMacro, NetlistMacroOptions};
use castg_spice::{
    sparse_fill_stats, AnalysisOptions, DcAnalysis, LadderStats, OrderingKind, SolverKind,
};

use crate::probe::Rescaler;
use crate::rng::Rng;
use crate::stats::{median, median_sampled, median_time, peak_rss_mb, LAYER, SETUP};
use crate::trace::{pace, MeasureCounts, Tracer};
use crate::RunResult;

/// Which compute workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Generate → compact → evaluate on the paper's IV converter.
    IvGenerate,
    /// Evaluation-only bridge re-screen of a 24×24 resistive mesh.
    MeshScreen,
    /// Evaluation-only re-screen of a 254-stage MOS chain.
    OtaRescue,
}

const IV_DECK: &str = "tests/fixtures/iv_converter.sp";
const IV_CONFIGS: [(&str, &str); 5] = [
    ("dc_transfer", "tests/fixtures/iv_configs/1_dc_transfer.cfg"),
    (
        "supply_current",
        "tests/fixtures/iv_configs/2_supply_current.cfg",
    ),
    ("thd", "tests/fixtures/iv_configs/3_thd.cfg"),
    (
        "step_max_dev",
        "tests/fixtures/iv_configs/4_step_max_dev.cfg",
    ),
    (
        "step_acc_dev",
        "tests/fixtures/iv_configs/5_step_acc_dev.cfg",
    ),
];

/// IV faults grouped by the configuration their generated test selects:
/// dc_transfer bridges, thd bridges, step_max_dev pinholes. Within a
/// group, generation costs agree within about 10 % (one-thread timings
/// of every dictionary fault). The seed picks one fault per group, so
/// every slice holds bridges and pinholes, compacts to one test per
/// group and costs about the same.
const IV_GROUPS: [&[&str]; 3] = [
    &["bridge(vdd,vref)", "bridge(vref,tail)", "bridge(nmir,out)"],
    &["bridge(vdd,nmir)", "bridge(na,out)", "bridge(nz,out)"],
    &["pinhole(M1)", "pinhole(M4)", "pinhole(M5)"],
];

/// DC levels of `ota_rescue` grouped by the rescue work a level costs
/// (about 4000–4500, 2600–3200 and 1700–1900 Newton iterations over the
/// chain's own six faults); the seed picks two per group. 1.5 V and
/// below fail the nominal solve and 2.4 V and 2.5 V failed a trial
/// screen, so they are not offered.
const OTA_LEVEL_GROUPS: [&[f64]; 3] = [
    &[1.6, 1.7, 2.8],
    &[2.1, 2.2, 2.3, 2.6],
    &[1.8, 1.9, 2.0, 3.0],
];

/// DC configuration of the mesh deck: drive the source, observe the far
/// corner. The tolerance box is a 1 µV metrology floor, so every
/// bridge the mesh conducts through is a detection.
const MESH_CFG: &str = "\
macro type: R-mesh
test configuration: DC output
control V1: dc(lev)
observe out: dc()
return: dV(out)
parameter lev: 1 .. 10
variable box_rel: 0
variable box_abs: 1e-6
seed lev: 5
";

/// DC configuration of the MOS chain: drive the input source, observe
/// the last drain, 50 mV box (the synthetic chain's own tolerance).
const OTA_CFG: &str = "\
macro type: OTA-chain
test configuration: DC output
control VIN: dc(lev)
observe out: dc()
return: dV(out)
parameter lev: 0 .. 5
variable box_rel: 0
variable box_abs: 0.05
seed lev: 2
";

/// Where a deck or configuration text comes from: a repository file
/// (read during set-up, as `castg generate` does) or text synthesized
/// once at start-up.
#[derive(Debug, Clone)]
enum Source {
    File(&'static str),
    Text(String),
}

impl Source {
    fn load(&self) -> Result<String, String> {
        match self {
            Source::File(path) => {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
            }
            Source::Text(text) => Ok(text.clone()),
        }
    }
}

/// A workload's inputs, all derived from the seed.
#[derive(Debug, Clone)]
pub struct Spec {
    kind: Kind,
    name: &'static str,
    deck: Source,
    configs: Vec<(String, Source)>,
    options: NetlistMacroOptions,
    /// The `castg --ordering` the workload runs under (`Auto` if none).
    ordering: OrderingKind,
    /// The faults to generate tests for or to re-screen.
    slice: Vec<Fault>,
    /// DC test levels of the evaluation-only workloads.
    levels: Vec<f64>,
}

impl Spec {
    /// Builds the inputs of `kind` for `seed`.
    ///
    /// # Errors
    ///
    /// Unreadable or unparsable fixtures, or a slice that lost the
    /// property the workload was chosen for.
    pub fn new(kind: Kind, seed: u64) -> Result<Spec, String> {
        let mut rng = Rng::new(seed, kind as u64 + 1);
        let adjacent = NetlistMacroOptions {
            derivation: BridgeDerivation::Adjacent,
            ..NetlistMacroOptions::default()
        };
        let mut spec = match kind {
            Kind::IvGenerate => Spec {
                kind,
                name: "iv_converter",
                deck: Source::File(IV_DECK),
                configs: IV_CONFIGS
                    .iter()
                    .map(|&(key, path)| (key.to_string(), Source::File(path)))
                    .collect(),
                options: NetlistMacroOptions::default(),
                ordering: OrderingKind::Auto,
                slice: Vec::new(),
                levels: Vec::new(),
            },
            Kind::MeshScreen => Spec {
                kind,
                name: "mesh",
                deck: Source::Text(
                    write_deck(&MeshMacro::with_unknowns(578).nominal_circuit())
                        .map_err(|e| e.to_string())?,
                ),
                configs: vec![("dc_out".to_string(), Source::Text(MESH_CFG.to_string()))],
                options: adjacent,
                ordering: OrderingKind::Auto,
                slice: Vec::new(),
                levels: (0..4).map(|_| 1.0 + 9.0 * rng.unit()).collect(),
            },
            Kind::OtaRescue => Spec {
                kind,
                name: "ota_chain",
                deck: Source::Text(
                    write_deck(&OtaChainMacro::with_unknowns(512).nominal_circuit())
                        .map_err(|e| e.to_string())?,
                ),
                configs: vec![("dc_out".to_string(), Source::Text(OTA_CFG.to_string()))],
                options: adjacent,
                // Auto resolves this fill-free chain to Natural; BTF runs
                // only when forced, as `castg generate --ordering btf`.
                ordering: OrderingKind::Btf,
                slice: Vec::new(),
                levels: OTA_LEVEL_GROUPS
                    .iter()
                    .flat_map(|group| rng.sample(group.len(), 2).into_iter().map(|i| group[i]))
                    .collect(),
            },
        };
        let dict = NetlistMacro::from_deck_text_with(spec.name, &spec.deck.load()?, spec.options)
            .map_err(|e| e.to_string())?
            .fault_dictionary();
        spec.slice = match kind {
            Kind::IvGenerate => IV_GROUPS
                .iter()
                .map(|group| {
                    let name = group[rng.below(group.len())];
                    dict.by_name(name)
                        .cloned()
                        .ok_or_else(|| format!("IV dictionary has no fault {name}"))
                })
                .collect::<Result<_, _>>()?,
            Kind::MeshScreen => rng
                .sample(dict.len(), 96)
                .into_iter()
                .map(|i| dict.faults()[i].clone())
                .collect(),
            // The chain's own dictionary (drain-pair bridges and pinholes at
            // stages n/3, 2n/3, n): the faults that climb the rescue rungs.
            // Seeded pinholes elsewhere would swing coverage with their
            // distance from the output, so the seed picks only levels.
            Kind::OtaRescue => OtaChainMacro::with_unknowns(512)
                .fault_dictionary()
                .faults()
                .to_vec(),
        };
        if kind == Kind::IvGenerate {
            let kinds: Vec<FaultKind> = spec.slice.iter().map(Fault::kind).collect();
            if !(kinds.contains(&FaultKind::Bridge) && kinds.contains(&FaultKind::Pinhole)) {
                return Err("self-check: the IV slice must hold bridges and pinholes".into());
            }
        }
        Ok(spec)
    }

    /// Analysis options of the workload's dispatch.
    fn analysis(&self) -> AnalysisOptions {
        match self.ordering {
            OrderingKind::Auto => AnalysisOptions::default(),
            ordering => AnalysisOptions {
                solver: SolverKind::Sparse,
                ordering,
                ..AnalysisOptions::default()
            },
        }
    }

    fn keys(&self) -> Vec<String> {
        self.configs.iter().map(|(k, _)| k.clone()).collect()
    }

    /// The same inputs cut to the first `faults` faults and `levels`
    /// levels: the small slices the determinism tests run.
    #[must_use]
    pub fn truncated(mut self, faults: usize, levels: usize) -> Spec {
        self.slice.truncate(faults);
        self.levels.truncate(levels);
        self
    }
}

/// What set-up hands to a unit.
struct Prepared {
    mac: NetlistMacro,
    slice: FaultDictionary,
}

/// Set-up, as timed by `setup_s`: read and parse the deck and `.cfg`
/// texts, derive the dictionary, compile the plan, solve the nominal DC
/// operating point.
fn setup(spec: &Spec) -> Result<Prepared, String> {
    let mac = NetlistMacro::from_deck_text_with(spec.name, &spec.deck.load()?, spec.options)
        .map_err(|e| e.to_string())?;
    let mut configs: Vec<Arc<dyn TestConfiguration>> = Vec::with_capacity(spec.configs.len());
    for (i, (_, source)) in spec.configs.iter().enumerate() {
        let description = ConfigDescription::parse(&source.load()?).map_err(|e| e.to_string())?;
        configs.push(Arc::new(
            DescribedConfig::new(i + 1, description).map_err(|e| e.to_string())?,
        ));
    }
    let slice = FaultDictionary::new(spec.slice.clone());
    DcAnalysis::with_options(mac.circuit(), spec.analysis())
        .solve()
        .map_err(|e| format!("nominal DC: {e}"))?;
    let mut mac = mac.with_configurations(configs);
    if spec.ordering != OrderingKind::Auto {
        mac = mac
            .with_solver(SolverKind::Sparse, spec.ordering)
            .map_err(|e| e.to_string())?;
    }
    Ok(Prepared { mac, slice })
}

/// What a unit wraps around its configurations' `measure()` calls.
#[derive(Debug, Clone, Copy)]
pub enum Wrap<'a> {
    /// Nothing: the pipeline as `castg generate` runs it.
    Bare,
    /// The tracer: per-layer counts and spans.
    Trace,
    /// The pacing hook of this rescaler: probe passes between stretches
    /// of the unit, which is then rescaled stretch by stretch.
    Pace(&'a Arc<Mutex<Rescaler>>),
}

/// One unit's outputs and timings.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Wall time of the unit's work (set-up and probe passes excluded).
    pub wall_s: f64,
    /// The same in reference-box seconds (paced units only).
    pub rescaled_s: Option<f64>,
    generate_s: f64,
    compact_s: f64,
    evaluate_s: f64,
    /// `measure()` totals inside generate, compact and evaluate (traced
    /// units only).
    phases: [MeasureCounts; 3],
    /// Per-configuration `measure()` totals (traced units only).
    pub per_config: Vec<(String, MeasureCounts)>,
    evals: usize,
    nominal_measures: usize,
    compact_candidates: usize,
    compact_tests: usize,
    cells: usize,
    detected: usize,
    faults: usize,
    /// Faults that failed generation, ended unconverged, timed out,
    /// panicked or failed injection, or that generation detected and
    /// the compacted tests miss.
    failed: Vec<String>,
    ladder: LadderStats,
    /// Every output bit of the unit: generated, compacted and coverage
    /// rows, with exact float formatting.
    pub fingerprint: String,
}

impl Unit {
    /// The unit's deterministic per-layer counts (for the determinism
    /// checks): everything but wall times.
    pub fn counts(&self) -> (Vec<(String, MeasureCounts)>, [MeasureCounts; 3], [usize; 5]) {
        (
            self.per_config
                .iter()
                .map(|(k, c)| (k.clone(), c.counts_only()))
                .collect(),
            self.phases.map(|p| p.counts_only()),
            [
                self.evals,
                self.nominal_measures,
                self.compact_candidates,
                self.compact_tests,
                self.cells,
            ],
        )
    }
}

/// Runs one unit on `threads` workers.
///
/// # Errors
///
/// Set-up failures and hard pipeline errors (nominal failures).
pub fn run_unit(spec: &Spec, threads: usize, wrap: Wrap) -> Result<Unit, String> {
    let Prepared { mut mac, slice } = setup(spec)?;
    let (mut tracer, mut pacer) = (None, None);
    match wrap {
        Wrap::Bare => {}
        Wrap::Trace => {
            let (t, wrapped) = Tracer::wrap(&spec.keys(), mac.configurations());
            mac = mac.with_configurations(wrapped);
            tracer = Some(t);
        }
        Wrap::Pace(rescaler) => {
            let wrapped = pace(mac.configurations(), rescaler);
            mac = mac.with_configurations(wrapped);
            pacer = Some(rescaler);
        }
    }
    let snap = || tracer.as_ref().map(Tracer::total).unwrap_or_default();
    let cache = NominalCache::new();
    let mut phases = [MeasureCounts::default(); 3];
    let (mut generate_s, mut compact_s) = (0.0, 0.0);
    let (mut evals, mut nominal_measures, mut compact_candidates) = (0, 0, 0);
    let mut failed = Vec::new();
    let mut fingerprint = String::new();
    let mut generated_detected = Vec::new();

    if let Some(rescaler) = pacer {
        rescaler.lock().expect("rescaler lock").begin();
    }
    let start = Instant::now();
    let tests: Vec<TestInstance> = if spec.kind == Kind::IvGenerate {
        let options = GeneratorOptions {
            threads,
            ..GeneratorOptions::default()
        };
        let (s0, t0) = (snap(), Instant::now());
        let generation = Generator::with_options(&mac, &cache, options).generate(&slice);
        generate_s = t0.elapsed().as_secs_f64();
        phases[0] = snap().since(&s0);
        evals = generation.total_evaluations();
        nominal_measures = cache.len();
        for (fault, e) in &generation.failures {
            failed.push(format!("{fault}: generation failed: {e}"));
        }
        generated_detected = generation
            .tests
            .iter()
            .filter(|t| t.detected_at_dictionary)
            .map(|t| t.fault.name())
            .collect();

        let (s0, t0) = (snap(), Instant::now());
        let compaction = compact(&mac, &cache, &generation, &CompactionOptions::default())
            .map_err(|e| format!("compaction: {e}"))?;
        let tests = test_instances_from_compaction(&mac, &compaction)
            .map_err(|e| format!("compaction: {e}"))?;
        compact_s = t0.elapsed().as_secs_f64();
        phases[1] = snap().since(&s0);
        compact_candidates = compaction.original_count;
        fingerprint = format!("{:?}\n{:?}\n", generation.tests, compaction.tests);
        tests
    } else {
        let config = Arc::clone(&mac.configurations()[0]);
        spec.levels
            .iter()
            .map(|&lev| TestInstance {
                config: Arc::clone(&config),
                params: vec![lev],
            })
            .collect()
    };

    let options = CampaignOptions {
        threads,
        ..CampaignOptions::default()
    };
    let (s0, t0) = (snap(), Instant::now());
    let coverage = evaluate_campaign(&mac, &cache, &tests, &slice, &options)
        .map_err(|e| format!("evaluation: {e}"))?;
    let evaluate_s = t0.elapsed().as_secs_f64();
    let (wall_s, rescaled_s) = match pacer {
        Some(rescaler) => {
            let (measured, rescaled) = rescaler.lock().expect("rescaler lock").end();
            (measured, Some(rescaled))
        }
        None => (start.elapsed().as_secs_f64(), None),
    };
    phases[2] = snap().since(&s0);

    for row in &coverage.per_fault {
        if matches!(
            row.outcome,
            FaultOutcome::Unconverged
                | FaultOutcome::TimedOut
                | FaultOutcome::Panicked
                | FaultOutcome::InjectionFailed { .. }
        ) {
            failed.push(format!("{}: {}", row.fault, row.outcome));
        }
        if !row.detected && generated_detected.contains(&row.fault) {
            failed.push(format!(
                "{}: generation detected it, the compacted tests miss it",
                row.fault
            ));
        }
    }
    fingerprint.push_str(&format!(
        "{:?}\n{:?}\n",
        coverage.per_fault, coverage.ladder
    ));

    Ok(Unit {
        wall_s,
        rescaled_s,
        generate_s,
        compact_s,
        evaluate_s,
        phases,
        per_config: tracer.as_ref().map(Tracer::per_config).unwrap_or_default(),
        evals,
        nominal_measures,
        compact_candidates,
        compact_tests: tests.len(),
        cells: slice.len() * tests.len(),
        detected: coverage.detected(),
        faults: coverage.total(),
        failed,
        ladder: coverage.ladder,
        fingerprint,
    })
}

/// Runs a compute workload for `seconds`.
///
/// # Errors
///
/// See [`crate::run`].
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let spec = Spec::new(kind, seed)?;
    let mut out = RunResult::default();
    self_check_ordering(&spec, &mut out)?;
    // Every timing is rescaled by the probe passes around it (see
    // `probe`). Set-up is sampled before the first unit and after the
    // last, so that a run's figure spans its stretches of host load.
    let rescaler = Arc::new(Mutex::new(Rescaler::new()));
    let lock = || rescaler.lock().expect("rescaler lock");
    let setup_block = || -> Result<(f64, f64), String> {
        let measured = median_time(SETUP, || setup(&spec).map(drop))?;
        Ok((measured, lock().rescale(measured)))
    };
    let mut setups = vec![setup_block()?];

    // Units until the next one would overrun the budget; traced runs
    // alternate untraced and traced units so drift hits both alike.
    // Untraced units are paced; a traced unit is rescaled as a whole,
    // so the probe passes stay out of its spans.
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<Unit>, Vec<Unit>) = (Vec::new(), Vec::new());
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    loop {
        let t0 = Instant::now();
        let unit = run_unit(&spec, 1, Wrap::Pace(&rescaler))?;
        plain_s.push(unit.rescaled_s.expect("a paced unit is rescaled"));
        plain.push(unit);
        if trace {
            let unit = run_unit(&spec, 1, Wrap::Trace)?;
            traced_s.push(lock().rescale(unit.wall_s));
            traced.push(unit);
        }
        let step = t0.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + step > seconds {
            break;
        }
    }
    setups.push(setup_block()?);
    let setup_s = median(&setups.iter().map(|s| s.1).collect::<Vec<_>>());
    let setup_measured = median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let (probe_median, probe_mb) = {
        let r = lock();
        (median(r.passes()), r.resident_mb())
    };

    let first = &plain[0];
    for (i, u) in plain.iter().enumerate().skip(1) {
        out.check(u.fingerprint == first.fingerprint, || {
            format!("unit {i}'s outputs differ from unit 0's")
        });
    }
    for (i, u) in traced.iter().enumerate() {
        out.check(u.fingerprint == first.fingerprint, || {
            format!("traced unit {i}'s outputs differ from the untraced run's")
        });
        out.check(u.counts() == traced[0].counts(), || {
            format!("traced unit {i}'s per-layer counts differ from traced unit 0's")
        });
    }
    for u in plain.iter().chain(&traced) {
        out.attempted += u.faults as u64;
        out.failed += u.failed.len() as u64;
    }
    if let Some(reason) = plain.iter().chain(&traced).flat_map(|u| &u.failed).next() {
        out.notes.push(format!("first failure: {reason}"));
    }

    let wall_s = median(&plain_s);
    let names: Vec<String> = spec.slice.iter().take(8).map(Fault::name).collect();
    out.notes.push(format!(
        "slice: {} ... levels {:?}",
        names.join(" "),
        spec.levels
    ));
    out.notes.push(format!(
        "{} x {} faults, {} units, setup {:.6} s (measured {:.6} s), wall median {:.4} s \
         (measured {:.4} s; units {:.3?}, traced {:.3?}), probe median {:.4} s",
        spec.name,
        first.faults,
        plain.len(),
        setup_s,
        setup_measured,
        wall_s,
        median(&plain.iter().map(|u| u.wall_s).collect::<Vec<_>>()),
        plain.iter().map(|u| u.wall_s).collect::<Vec<_>>(),
        traced.iter().map(|u| u.wall_s).collect::<Vec<_>>(),
        probe_median,
    ));
    if trace {
        let traced_wall = median(&traced_s);
        per_layer(&spec, &traced[0], &mut out)?;
        out.set("trace.overhead_frac", traced_wall / wall_s - 1.0);
        self_check_traced(&spec, &out)?;
    } else {
        if kind == Kind::OtaRescue {
            let l = &first.ladder;
            if l.gmin_stepping + l.source_stepping + l.pseudo_transient == 0 {
                return Err("self-check: ota_rescue no longer reaches the rescue rungs".into());
            }
        }
        out.set("setup_s", setup_s);
        out.set("wall_s", wall_s);
        out.set(
            "peak_rss_mb",
            peak_rss_mb().ok_or("no /proc/self/status")? - probe_mb,
        );
        out.set("coverage_frac", first.detected as f64 / first.faults as f64);
        out.set("compact_tests", first.compact_tests as f64);
        out.set("requests_per_s", first.faults as f64 / wall_s);
    }
    Ok(out)
}

/// mesh_screen must resolve to AMD at no more than half the natural
/// fill; ota_rescue must resolve to BTF with more than one block.
fn self_check_ordering(spec: &Spec, out: &mut RunResult) -> Result<(), String> {
    let circuit = setup(spec)?.mac.nominal_circuit();
    let fill = sparse_fill_stats(&circuit, spec.ordering).ok_or("singular nominal matrix")?;
    let natural =
        sparse_fill_stats(&circuit, OrderingKind::Natural).ok_or("singular nominal matrix")?;
    let summary = format!(
        "{}: {} unknowns, pattern nnz {}, {:?} -> {:?}: factor nnz {} (natural {}), {} blocks",
        spec.name,
        fill.unknowns,
        fill.pattern_nnz,
        spec.ordering,
        fill.resolved,
        fill.lu_nnz,
        natural.lu_nnz,
        fill.blocks
    );
    let verdict = match spec.kind {
        Kind::MeshScreen if fill.resolved != OrderingKind::Amd || 2 * fill.lu_nnz > natural.lu_nnz => {
            Err(format!("self-check: mesh_screen must resolve to AMD at <= half the natural fill ({summary})"))
        }
        Kind::OtaRescue if fill.resolved != OrderingKind::Btf || fill.blocks <= 1 => {
            Err(format!("self-check: ota_rescue must resolve to BTF with more than one block ({summary})"))
        }
        _ => Ok(()),
    };
    out.notes.push(summary);
    verdict
}

/// iv_generate must measure its transient/THD configurations;
/// ota_rescue must spend more than half its iterations on rescue rungs.
fn self_check_traced(spec: &Spec, out: &RunResult) -> Result<(), String> {
    let metric = |name: &str| out.metrics.get(name).copied().unwrap_or(0.0);
    match spec.kind {
        Kind::IvGenerate => {
            for key in ["thd", "step_max_dev", "step_acc_dev"] {
                if metric(&format!("spice.measure_calls.{key}")) == 0.0 {
                    return Err(format!("self-check: iv_generate never measured `{key}`"));
                }
            }
            Ok(())
        }
        Kind::OtaRescue if metric("spice.rescue_iters_frac") <= 0.5 => Err(format!(
            "self-check: ota_rescue spends only {:.3} of its iterations on rescue rungs",
            metric("spice.rescue_iters_frac")
        )),
        _ => Ok(()),
    }
}

/// The per-layer metrics of a traced run: timed calls into each crate's
/// public functions, plus the decorator's counts from `unit`.
fn per_layer(spec: &Spec, unit: &Unit, out: &mut RunResult) -> Result<(), String> {
    let deck = spec.deck.load()?;
    out.set(
        "netlist.parse_s",
        median_time(LAYER, || parse_deck_with_params(&deck, &[]).map(drop))
            .map_err(|e| e.to_string())?,
    );
    let cfg_texts: Vec<String> = spec
        .configs
        .iter()
        .map(|(_, s)| s.load())
        .collect::<Result<_, _>>()?;
    out.set(
        "netlist.configs_s",
        median_time(LAYER, || -> Result<(), String> {
            for (i, text) in cfg_texts.iter().enumerate() {
                let d = ConfigDescription::parse(text).map_err(|e| e.to_string())?;
                DescribedConfig::new(i + 1, d).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?,
    );
    let parsed = || -> Result<castg_spice::Circuit, String> {
        Ok(parse_deck_with_params(&deck, &[])
            .map_err(|e| e.to_string())?
            .into_circuit())
    };
    let circuit = parsed()?;
    let o = spec.options;
    let mut dict_len = 0;
    out.set(
        "faults.derive_s",
        median_time(LAYER, || -> Result<(), String> {
            dict_len =
                derive_fault_dictionary(&circuit, o.derivation, o.bridge_ohms, o.pinhole_ohms)
                    .len();
            Ok(())
        })?,
    );
    out.set("faults.dictionary_len", dict_len as f64);
    out.set(
        "spice.compile_s",
        median_sampled(LAYER, || -> Result<f64, String> {
            let c = parsed()?;
            let t0 = Instant::now();
            c.compile_plan();
            Ok(t0.elapsed().as_secs_f64())
        })?,
    );
    let mut op_iters = 0;
    out.set(
        "spice.op_s",
        median_sampled(LAYER, || -> Result<f64, String> {
            let c = parsed()?;
            c.compile_plan();
            let t0 = Instant::now();
            let sol = DcAnalysis::with_options(&c, spec.analysis())
                .solve()
                .map_err(|e| e.to_string())?;
            let dt = t0.elapsed().as_secs_f64();
            op_iters = sol.newton_iterations();
            Ok(dt)
        })?,
    );
    out.set("spice.op_iters", op_iters as f64);
    circuit.compile_plan();
    DcAnalysis::with_options(&circuit, spec.analysis())
        .solve()
        .map_err(|e| e.to_string())?;
    out.set(
        "numeric.dc_solve_s",
        median_time(LAYER, || {
            DcAnalysis::with_options(&circuit, spec.analysis())
                .solve()
                .map(drop)
        })
        .map_err(|e| e.to_string())?,
    );
    let fill = sparse_fill_stats(&circuit, spec.ordering).ok_or("singular nominal matrix")?;
    out.set("numeric.pattern_nnz", fill.pattern_nnz as f64);
    out.set("numeric.lu_nnz", fill.lu_nnz as f64);
    out.set("numeric.blocks", fill.blocks as f64);

    let prepared = setup(spec)?;
    let nominal = prepared.mac.nominal_circuit();
    out.set(
        "faults.inject_s",
        median_time(LAYER, || -> Result<(), String> {
            for f in prepared.slice.iter() {
                f.inject(&nominal).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?,
    );
    out.set("faults.injects", prepared.slice.len() as f64);

    // The decorator's counts and spans.
    let mut total = MeasureCounts::default();
    for phase in &unit.phases {
        total.add(phase);
    }
    for (key, c) in &unit.per_config {
        out.set(&format!("spice.measure_calls.{key}"), c.calls as f64);
        out.set(&format!("spice.measure_s.{key}"), c.seconds());
    }
    let l = &total.ladder;
    out.set("spice.newton_iters", l.iterations as f64);
    out.set(
        "spice.generate_newton_iters",
        unit.phases[0].ladder.iterations as f64,
    );
    out.set("spice.dc.plain", l.plain as f64);
    out.set("spice.dc.damped", l.damped as f64);
    out.set("spice.dc.gmin", l.gmin_stepping as f64);
    out.set("spice.dc.source", l.source_stepping as f64);
    out.set("spice.dc.ptc", l.pseudo_transient as f64);
    out.set("spice.dc.unconverged", l.unconverged as f64);
    out.set(
        "spice.rescue_iters_frac",
        total.rescue_iterations as f64 / l.iterations.max(1) as f64,
    );
    out.set("core.generate_s", unit.generate_s);
    out.set(
        "core.generate_self_s",
        unit.generate_s - unit.phases[0].seconds(),
    );
    out.set("core.evals", unit.evals as f64);
    out.set("core.nominal_measures", unit.nominal_measures as f64);
    if unit.evals > 0 {
        out.set(
            "core.nominal_hit_frac",
            1.0 - unit.nominal_measures as f64 / unit.evals as f64,
        );
    }
    out.set("core.compact_s", unit.compact_s);
    out.set("core.compact_candidates", unit.compact_candidates as f64);
    out.set("core.evaluate_s", unit.evaluate_s);
    out.set(
        "core.evaluate_self_s",
        unit.evaluate_s - unit.phases[2].seconds(),
    );
    out.set("core.cells", unit.cells as f64);

    out.notes.push(format!(
        "{:<15} {:>7} {:>10} {:>10} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5}",
        "config", "calls", "measure_s", "newton", "plain", "damped", "gmin", "src", "ptc", "unconv"
    ));
    for (key, c) in &unit.per_config {
        let l = &c.ladder;
        out.notes.push(format!(
            "{:<15} {:>7} {:>10.4} {:>10} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5}",
            key,
            c.calls,
            c.seconds(),
            l.iterations,
            l.plain,
            l.damped,
            l.gmin_stepping,
            l.source_stepping,
            l.pseudo_transient,
            l.unconverged
        ));
    }
    let phase_names = ["generate", "compact", "evaluate"];
    for (name, p) in phase_names.iter().zip(&unit.phases) {
        out.notes.push(format!(
            "phase {name}: {} measure() calls, {} Newton iterations, {} DC solves",
            p.calls,
            p.ladder.iterations,
            p.ladder.solves()
        ));
    }
    Ok(())
}
