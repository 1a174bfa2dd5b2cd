//! Experiment harness for `castg`: regenerates every table and figure
//! of the paper's evaluation (§3.4/§4.2) and the golden reports. The
//! performance benchmark is the separate `perfbench/` package.
//!
//! Each experiment is a library function in [`experiments`] so that the
//! thin `src/bin/*` wrappers, the `regen_all` driver and the integration
//! tests all share one implementation. Results are written to the
//! `results/` directory at the workspace root as CSV plus a rendered
//! text table, and a summary is printed to stdout.
//!
//! The full 55-fault generation run is expensive on small machines, so
//! its outcome is cached in `results/generation.csv`; downstream
//! experiments (Table 2, Table 3, Fig. 8, compaction, baseline) reuse
//! the cache unless it is missing or `--fresh` is passed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod golden;
mod persist;

pub use persist::{load_generation, save_generation};

use std::path::PathBuf;

use castg_core::{GeneratorOptions, NominalCache};
use castg_macros::IvConverter;

/// Where experiment outputs land (workspace-root `results/`).
pub fn results_dir() -> PathBuf {
    // Walk up from the current directory to the workspace root (the
    // directory holding both Cargo.toml and crates/).
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            let r = dir.join("results");
            let _ = std::fs::create_dir_all(&r);
            return r;
        }
        if !dir.pop() {
            let r = PathBuf::from("results");
            let _ = std::fs::create_dir_all(&r);
            return r;
        }
    }
}

/// Writes an experiment artifact under `results/`, returning its path.
pub fn write_result(name: &str, content: &str) -> PathBuf {
    let path = results_dir().join(name);
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// The device under test used by all experiments.
///
/// `calibrated` selects the Monte-Carlo box-functions (paper-faithful,
/// slower to start) versus the analytic boxes (fast demos).
pub fn iv_macro(calibrated: bool) -> IvConverter {
    if calibrated {
        IvConverter::new()
    } else {
        IvConverter::with_analytic_boxes()
    }
}

/// Generator options tuned for the experiment harness.
pub fn harness_options() -> GeneratorOptions {
    GeneratorOptions::default()
}

/// Runs the 55-fault generation or loads it from the results cache.
///
/// Returns the report plus a flag saying whether it was freshly
/// computed.
pub fn generation_cached(
    mac: &IvConverter,
    cache: &NominalCache,
    fresh: bool,
) -> (castg_core::GenerationReport, bool) {
    use castg_core::{AnalogMacro, Generator};
    let path = results_dir().join("generation.csv");
    if !fresh {
        if let Some(report) = load_generation(&path) {
            println!("[generation] loaded {} tests from {}", report.tests.len(), path.display());
            return (report, false);
        }
    }
    println!("[generation] running the full fault dictionary (55 faults)...");
    let generator = Generator::with_options(mac, cache, harness_options());
    let report = generator.generate(&mac.fault_dictionary());
    save_generation(&path, &report);
    println!(
        "[generation] {} tests, {} failures, {} simulator evaluations, {:.1?}",
        report.tests.len(),
        report.failures.len(),
        report.total_evaluations(),
        report.wall_time
    );
    (report, true)
}

/// True when the CLI arguments ask for a fresh (non-cached) run.
pub fn fresh_requested(args: &[String]) -> bool {
    args.iter().any(|a| a == "--fresh")
}

/// True when the CLI arguments ask for calibrated boxes.
pub fn calibrated_requested(args: &[String]) -> bool {
    args.iter().any(|a| a == "--calibrated")
}

/// Parses the experiment binaries' arguments (program name excluded)
/// into `(fresh, calibrated)`.
///
/// # Errors
///
/// The first argument that is neither `--fresh` nor `--calibrated`: a
/// misspelled flag must not silently fall back to cached results.
pub fn parse_flags(args: &[String]) -> Result<(bool, bool), String> {
    if let Some(bad) = args.iter().find(|a| *a != "--fresh" && *a != "--calibrated") {
        return Err(format!("unknown argument `{bad}`"));
    }
    Ok((fresh_requested(args), calibrated_requested(args)))
}

/// Convenience used by binaries: parse `(--fresh, --calibrated)` from
/// `std::env::args`, exiting with code 2 and a usage line on any other
/// argument.
pub fn cli_flags() -> (bool, bool) {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    parse_flags(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {program} [--fresh] [--calibrated]");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.exists());
    }

    #[test]
    fn flags_parse() {
        assert!(fresh_requested(&["--fresh".to_string()]));
        assert!(!fresh_requested(&[]));
        assert!(calibrated_requested(&["x".into(), "--calibrated".into()]));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_flags(&args(&[])), Ok((false, false)));
        assert_eq!(parse_flags(&args(&["--calibrated", "--fresh"])), Ok((true, true)));
        let err = parse_flags(&args(&["--fresh", "--fersh"])).unwrap_err();
        assert!(err.contains("--fersh"), "{err}");
        assert!(parse_flags(&args(&["fresh"])).is_err());
    }
}
