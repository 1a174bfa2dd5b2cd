//! `castg` — run the paper's generate → compact → evaluate pipeline on
//! any SPICE deck, with zero Rust code.
//!
//! ```text
//! castg generate <deck.sp> --configs <dir> [options]
//!     --configs DIR        configuration description files (*.cfg/*.txt)
//!     --faults MODE        bridge derivation: exhaustive (default) | adjacent
//!     --ordering KIND      solver dispatch: auto (default) | natural | amd | btf
//!                          (a forced ordering also forces the sparse solver)
//!     --bridge-ohms R      dictionary bridge resistance   [10e3]
//!     --pinhole-ohms R     dictionary pinhole resistance  [2e3]
//!     --skip-faults N      skip the first N derived faults
//!     --max-faults N       truncate the derived dictionary (after skip)
//!     --param NAME=VALUE   set/override a deck `.param` (repeatable)
//!     --threads N          worker threads                 [all cores]
//!     --max-newton-iters N Newton-iteration allowance per (fault, test)
//!                          coverage cell (deterministic budget)
//!     --budget-ms MS       wall-clock budget per coverage cell
//!                          (machine-dependent; see --max-newton-iters)
//!     --strict             exit 1 when any fault's outcome is
//!                          unconverged, timed out or panicked (default:
//!                          exit 0 with a warning tally on stderr)
//!     --out PATH           write the full text report here (stdout otherwise)
//!     --json PATH          write a machine-readable summary here
//!
//! castg check <deck.sp> [--ordering KIND] [--param NAME=VALUE]...
//!     Parse the deck, print its resolved `.param` values, solve its DC
//!     operating point, print node voltages and source currents, and
//!     report the sparse-factor fill and block structure under each
//!     ordering — so users can see which solver path their macro will
//!     take before running a campaign.
//!
//! castg serve [--addr HOST:PORT] [--workers N] [--threads N]
//!     [--result-cache N] [--plan-cache N] [--ceiling-faults N]
//!     [--ceiling-newton-iters N] [--ceiling-budget-ms MS]
//!     Run the multi-tenant campaign daemon in the foreground until
//!     SIGINT/SIGTERM or POST /v1/shutdown (see castg_serve docs for
//!     the HTTP protocol and cache-key definition).
//! ```
//!
//! `generate` runs the flow through `castg_core::run_pipeline`, the
//! one entry point the daemon and the golden fixtures share. The text report
//! is the canonical rendering the golden fixtures pin
//! (`castg_core::report::render_pipeline_report`); the JSON summary is
//! the body `castg serve` answers with
//! (`castg_core::report::render_json_report`). When any fault's
//! generation fails, `generate` prints one line per failed fault,
//! writes no report, and exits 1.
//!
//! Report text goes to stdout. A reader that closes the pipe early
//! (`castg check deck.sp | head -1`) is not an error: the rest of the
//! text is dropped and the exit code is what it would have been.

use std::io::{ErrorKind, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;

use castg::core::report::{render_json_report, render_pipeline_report};
use castg::core::{
    default_threads, run_pipeline, AnalogMacro, CampaignOptions, GeneratorOptions, PipelineError,
};
use castg::faults::BridgeDerivation;
use castg::netlist::{parse_deck_with_params, parse_number, NetlistMacro, NetlistMacroOptions};
use castg::serve::ServerConfig;
use castg::spice::{sparse_fill_stats, DcAnalysis, OrderingKind, SolverKind};

const USAGE: &str = "\
castg — compact structural test generation for analog macros

USAGE:
    castg generate <deck.sp> --configs <dir> [--faults exhaustive|adjacent]
          [--ordering auto|natural|amd|btf] [--bridge-ohms R] [--pinhole-ohms R]
          [--skip-faults N] [--max-faults N] [--param NAME=VALUE]...
          [--threads N] [--max-newton-iters N] [--budget-ms MS] [--strict]
          [--out PATH] [--json PATH]
    castg check <deck.sp> [--ordering auto|natural|amd|btf] [--param NAME=VALUE]...
    castg serve [--addr HOST:PORT] [--workers N] [--threads N]
          [--result-cache N] [--plan-cache N] [--ceiling-faults N]
          [--ceiling-newton-iters N] [--ceiling-budget-ms MS]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("-h") | Some("--help") | None => write_stdout(USAGE),
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("castg: {e}");
            ExitCode::FAILURE
        }
    }
}

struct GenerateArgs {
    deck: PathBuf,
    configs: PathBuf,
    options: NetlistMacroOptions,
    dispatch: Option<(SolverKind, OrderingKind)>,
    params: Vec<(String, f64)>,
    skip_faults: usize,
    max_faults: Option<usize>,
    threads: usize,
    max_newton_iters: Option<usize>,
    budget_ms: Option<u64>,
    strict: bool,
    out: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse_generate_args(args: &[String]) -> Result<GenerateArgs, String> {
    let mut deck: Option<PathBuf> = None;
    let mut configs: Option<PathBuf> = None;
    let mut options = NetlistMacroOptions::default();
    let mut dispatch = None;
    let mut params = Vec::new();
    let mut skip_faults = 0usize;
    let mut max_faults = None;
    let mut threads = default_threads();
    let mut max_newton_iters = None;
    let mut budget_ms = None;
    let mut strict = false;
    let mut out = None;
    let mut json = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--configs" => configs = Some(PathBuf::from(value("--configs")?)),
            "--faults" => {
                options.derivation = match value("--faults")?.as_str() {
                    "exhaustive" => BridgeDerivation::Exhaustive,
                    "adjacent" => BridgeDerivation::Adjacent,
                    other => return Err(format!("--faults must be exhaustive or adjacent, got `{other}`")),
                }
            }
            "--ordering" => dispatch = Some(parse_ordering(value("--ordering")?)?),
            "--param" => params.push(parse_param_flag(value("--param")?)?),
            "--bridge-ohms" => {
                options.bridge_ohms = parse_ohms("--bridge-ohms", value("--bridge-ohms")?)?
            }
            "--pinhole-ohms" => {
                options.pinhole_ohms = parse_ohms("--pinhole-ohms", value("--pinhole-ohms")?)?
            }
            "--skip-faults" => {
                skip_faults =
                    value("--skip-faults")?.parse().map_err(|e| format!("--skip-faults: {e}"))?
            }
            "--max-faults" => {
                max_faults =
                    Some(value("--max-faults")?.parse().map_err(|e| format!("--max-faults: {e}"))?)
            }
            "--threads" => {
                threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--max-newton-iters" => {
                max_newton_iters = Some(
                    value("--max-newton-iters")?
                        .parse()
                        .map_err(|e| format!("--max-newton-iters: {e}"))?,
                )
            }
            "--budget-ms" => {
                budget_ms =
                    Some(value("--budget-ms")?.parse().map_err(|e| format!("--budget-ms: {e}"))?)
            }
            "--strict" => strict = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--json" => json = Some(PathBuf::from(value("--json")?)),
            other if !other.starts_with('-') && deck.is_none() => {
                deck = Some(PathBuf::from(other))
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(GenerateArgs {
        deck: deck.ok_or_else(|| format!("missing deck path\n\n{USAGE}"))?,
        configs: configs.ok_or_else(|| format!("missing --configs <dir>\n\n{USAGE}"))?,
        options,
        dispatch,
        params,
        skip_faults,
        max_faults,
        threads: threads.max(1),
        max_newton_iters,
        budget_ms,
        strict,
        out,
        json,
    })
}

/// Parses a `--param NAME=VALUE` flag into an override pair. The value
/// is a SPICE literal (scale suffixes welcome: `--param rload=2.2k`).
fn parse_param_flag(s: &str) -> Result<(String, f64), String> {
    let Some((name, value)) = s.split_once('=') else {
        return Err(format!("--param expects NAME=VALUE, got `{s}`"));
    };
    let name = name.trim();
    if name.is_empty() {
        return Err(format!("--param expects NAME=VALUE, got `{s}`"));
    }
    let v = parse_number(value)
        .ok_or_else(|| format!("--param {name}: `{value}` is not a number"))?;
    Ok((name.to_string(), v))
}

/// Parses a dictionary resistance flag: a SPICE literal (`10k`
/// welcome) that must be positive, as `castg serve` requires of the
/// same request fields.
fn parse_ohms(flag: &str, s: &str) -> Result<f64, String> {
    match parse_number(s) {
        Some(v) if v > 0.0 => Ok(v),
        Some(_) => Err(format!("{flag} must be positive, got `{s}`")),
        None => Err(format!("{flag}: `{s}` is not a number")),
    }
}

/// Parses the `--ordering` flag. Forcing a concrete ordering also
/// forces the sparse solver (otherwise the density heuristic could
/// route small macros to dense LU and the flag would silently do
/// nothing); `auto` keeps both heuristics.
fn parse_ordering(s: &str) -> Result<(SolverKind, OrderingKind), String> {
    match s {
        "auto" => Ok((SolverKind::Auto, OrderingKind::Auto)),
        "natural" => Ok((SolverKind::Sparse, OrderingKind::Natural)),
        "amd" => Ok((SolverKind::Sparse, OrderingKind::Amd)),
        "btf" => Ok((SolverKind::Sparse, OrderingKind::Btf)),
        other => Err(format!("--ordering must be auto, natural, amd or btf, got `{other}`")),
    }
}

/// Writes `text` to stdout. Once the reader has gone away (a closed
/// pipe) the text is dropped and the run goes on, so `--json` is still
/// written and `--strict` still decides the exit code; any other write
/// failure is an error.
fn write_stdout(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        result => result.map_err(|e| format!("cannot write to stdout: {e}")),
    }
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}

fn generate(args: &[String]) -> Result<(), String> {
    let a = parse_generate_args(args)?;
    let mut mac = NetlistMacro::from_files(&a.deck, &a.configs, a.options, &a.params)
        .map_err(|e| e.to_string())?;
    if let Some((solver, ordering)) = a.dispatch {
        mac = mac.with_solver(solver, ordering).map_err(|e| e.to_string())?;
    }
    if mac.configurations().is_empty() {
        return Err(format!("no configurations loaded from {}", a.configs.display()));
    }
    let dict = mac.fault_dictionary().window(a.skip_faults, a.max_faults);
    if dict.is_empty() {
        return Err("fault selection (--skip-faults/--max-faults) left no faults".to_string());
    }
    eprintln!(
        "castg: macro `{}` ({}): {} nodes, {} devices, {} faults, {} configurations",
        mac.name(),
        mac.macro_type(),
        mac.circuit().node_count(),
        mac.circuit().devices().len(),
        dict.len(),
        mac.configurations().len(),
    );

    let generator = GeneratorOptions { threads: a.threads, ..GeneratorOptions::default() };
    let campaign = CampaignOptions {
        threads: a.threads,
        max_newton_iters: a.max_newton_iters,
        budget_ms: a.budget_ms,
        ..CampaignOptions::default()
    };
    let run = run_pipeline(&mac, &dict, &generator, &campaign).map_err(|e| {
        if let PipelineError::Generation { failures, .. } = &e {
            for (fault, err) in failures {
                eprintln!("castg: generation failed for {fault}: {err}");
            }
        }
        e.to_string()
    })?;
    let (coverage, timings) = (&run.coverage, &run.timings);
    let tally = coverage.tally();

    let report = render_pipeline_report(mac.name(), &run);
    match &a.out {
        Some(path) => std::fs::write(path, &report)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
        None => write_stdout(&report)?,
    }
    eprintln!(
        "castg: {} tests compacted from {}, coverage {}/{}, generate {:.2}s, compact {:.3}s, \
         evaluate {:.4}s ({:.1} faults/s)",
        run.tests.len(),
        run.compaction.original_count,
        coverage.detected(),
        coverage.total(),
        timings.generate_s,
        timings.compact_s,
        timings.evaluate_s,
        coverage.total() as f64 / timings.evaluate_s,
    );
    eprintln!(
        "castg: outcomes: detected {} undetected {} unconverged {} singular {} timed_out {} \
         panicked {} injection_failed {}; ladder: {} solves, {} iterations",
        tally.detected,
        tally.undetected,
        tally.unconverged,
        tally.singular,
        tally.timed_out,
        tally.panicked,
        tally.injection_failed,
        coverage.ladder.solves(),
        coverage.ladder.iterations,
    );
    if tally.suspect() > 0 && !a.strict {
        eprintln!(
            "castg: warning: {} fault(s) have robustness-suspect outcomes \
             (unconverged/timed out/panicked); rerun with --strict to fail on these",
            tally.suspect(),
        );
    }

    if let Some(path) = &a.json {
        // The exact rendering `castg serve` returns for POST
        // /v1/campaign — one JSON shape, pinned by the golden fixture.
        let s = render_json_report(mac.name(), mac.macro_type(), a.threads, &run);
        std::fs::write(path, s).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if a.strict && tally.suspect() > 0 {
        return Err(format!(
            "--strict: {} fault(s) have robustness-suspect outcomes \
             (unconverged {}, timed out {}, panicked {})",
            tally.suspect(),
            tally.unconverged,
            tally.timed_out,
            tally.panicked,
        ));
    }
    Ok(())
}

fn check(args: &[String]) -> Result<(), String> {
    let mut deck_path: Option<&String> = None;
    let mut requested = (SolverKind::Auto, OrderingKind::Auto);
    let mut params = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ordering" => {
                let v = it.next().ok_or("--ordering needs a value")?;
                requested = parse_ordering(v)?;
            }
            "--param" => {
                let v = it.next().ok_or("--param needs a value")?;
                params.push(parse_param_flag(v)?);
            }
            other if !other.starts_with('-') && deck_path.is_none() => deck_path = Some(a),
            other => {
                return Err(format!("unknown argument `{other}`\n\n{USAGE}"));
            }
        }
    }
    let Some(deck_path) = deck_path else {
        return Err(format!(
            "usage: castg check <deck.sp> [--ordering KIND] [--param NAME=VALUE]\n\n{USAGE}"
        ));
    };
    let text = std::fs::read_to_string(deck_path).map_err(|e| format!("{deck_path}: {e}"))?;
    let deck = parse_deck_with_params(&text, &params).map_err(|e| format!("{deck_path}: {e}"))?;
    let c = deck.circuit();
    outln!(
        "deck `{}`: {} nodes, {} devices, {} MNA unknowns{}",
        deck_path,
        c.node_count(),
        c.devices().len(),
        c.unknown_count(),
        deck.title.as_deref().map(|t| format!(", title `{t}`")).unwrap_or_default(),
    )?;
    if !deck.params.is_empty() {
        outln!("resolved parameters:")?;
        for (name, value) in &deck.params {
            outln!("  .param {name} = {value:e}")?;
        }
    }

    let sol = DcAnalysis::new(c).solve().map_err(|e| format!("DC operating point: {e}"))?;
    outln!("DC operating point ({} Newton iterations):", sol.newton_iterations())?;
    for node in c.non_ground_nodes() {
        outln!("  v({}) = {:.6e}", c.node_name(node), sol.voltage(node))?;
    }
    for dev in c.devices() {
        if let Some(i) = sol.source_current(dev.name()) {
            outln!("  i({}) = {:.6e}", dev.name(), i)?;
        }
    }

    // Fill/block summary: the factor cost of every ordering on this
    // deck's static (DC) pattern, plus which path the requested
    // dispatch actually resolves to.
    outln!("sparse factor fill (static pattern):")?;
    for ordering in [OrderingKind::Natural, OrderingKind::Amd, OrderingKind::Btf] {
        match sparse_fill_stats(c, ordering) {
            Some(f) => {
                let blocks = if f.blocks > 1 {
                    format!(", {} blocks (largest {})", f.blocks, f.largest_block)
                } else {
                    String::new()
                };
                outln!(
                    "  {:8} pattern nnz {:6}, factor nnz {:6}{}{}",
                    format!("{ordering:?}").to_lowercase(),
                    f.pattern_nnz,
                    f.lu_nnz,
                    blocks,
                    if f.resolved != ordering {
                        format!(" (falls back to {:?})", f.resolved)
                    } else {
                        String::new()
                    },
                )?;
            }
            None => outln!("  {ordering:?}: canonical matrix is singular")?,
        }
    }
    let (solver, ordering) = requested;
    if let Some(f) = sparse_fill_stats(c, ordering) {
        outln!(
            "requested dispatch {:?}/{:?} resolves to ordering {:?} \
             ({} unknowns, factor nnz {})",
            solver, ordering, f.resolved, f.unknowns, f.lu_nnz
        )?;
    }
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut config =
        ServerConfig { addr: "127.0.0.1:7117".to_string(), ..ServerConfig::default() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--addr" => config.addr = value("--addr")?.clone(),
            "--workers" => {
                config.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--threads" => {
                config.threads_per_campaign =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--result-cache" => {
                config.result_capacity =
                    value("--result-cache")?.parse().map_err(|e| format!("--result-cache: {e}"))?
            }
            "--plan-cache" => {
                config.plan_capacity =
                    value("--plan-cache")?.parse().map_err(|e| format!("--plan-cache: {e}"))?
            }
            "--ceiling-faults" => {
                config.ceilings.max_faults = value("--ceiling-faults")?
                    .parse()
                    .map_err(|e| format!("--ceiling-faults: {e}"))?
            }
            "--ceiling-newton-iters" => {
                config.ceilings.max_newton_iters = value("--ceiling-newton-iters")?
                    .parse()
                    .map_err(|e| format!("--ceiling-newton-iters: {e}"))?
            }
            "--ceiling-budget-ms" => {
                config.ceilings.budget_ms = value("--ceiling-budget-ms")?
                    .parse()
                    .map_err(|e| format!("--ceiling-budget-ms: {e}"))?
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    castg::serve::serve_forever(config).map_err(|e| format!("serve: {e}"))
}
