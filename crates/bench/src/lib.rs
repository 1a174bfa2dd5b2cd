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
//! The experiments run the IV-converter exactly as `castg generate`
//! does: the committed deck and `.cfg` files under `tests/fixtures/`,
//! loaded by [`iv_macro`].
//!
//! The full 55-fault generation run is expensive on small machines, so
//! its outcome is cached in `results/generation.csv`; downstream
//! experiments (Table 2, Table 3, Fig. 8, compaction, baseline) reuse
//! the cache unless it is missing, does not hold one test per
//! dictionary fault, or `--fresh` is passed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod golden;
mod persist;

pub use persist::{load_generation, save_generation};

use std::path::{Path, PathBuf};

use castg_core::{AnalogMacro, Generator, GeneratorOptions, NominalCache};
use castg_macros::BoxPolicy;
use castg_netlist::{NetlistMacro, NetlistMacroOptions};

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

/// The committed decks and configuration texts (workspace-root
/// `tests/fixtures/`): the definitions of the paper macros.
pub fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The device under test used by all experiments: the IV-converter
/// deck and its five Table-1 configurations, loaded exactly as
/// `castg generate tests/fixtures/iv_converter.sp --configs
/// tests/fixtures/iv_configs` loads them, with the topology-derived
/// 55-fault dictionary.
///
/// `calibrated` wraps the configurations in the Monte-Carlo
/// box-functions ([`BoxPolicy::calibrated_default`]; paper-faithful,
/// slower to start) instead of the `.cfg` files' analytic boxes.
pub fn iv_macro(calibrated: bool) -> NetlistMacro {
    let fixtures = fixtures_dir();
    let mac = NetlistMacro::from_files(
        &fixtures.join("iv_converter.sp"),
        &fixtures.join("iv_configs"),
        NetlistMacroOptions::default(),
    )
    .expect("IV-converter deck fixtures parse");
    if !calibrated {
        return mac;
    }
    let configs = BoxPolicy::calibrated_default().apply(mac.circuit(), mac.configurations());
    mac.with_configurations(configs)
}

/// Generator options tuned for the experiment harness.
pub fn harness_options() -> GeneratorOptions {
    GeneratorOptions::default()
}

/// Runs the 55-fault generation or loads it from the results cache.
/// The cache is used only when it holds one test for every fault of
/// `mac`'s dictionary.
///
/// Returns the report plus a flag saying whether it was freshly
/// computed.
pub fn generation_cached(
    mac: &dyn AnalogMacro,
    cache: &NominalCache,
    fresh: bool,
) -> (castg_core::GenerationReport, bool) {
    let path = results_dir().join("generation.csv");
    let dict = mac.fault_dictionary();
    if !fresh {
        if let Some(report) = load_generation(&path, &dict) {
            println!("[generation] loaded {} tests from {}", report.tests.len(), path.display());
            return (report, false);
        }
    }
    println!("[generation] running the full fault dictionary ({} faults)...", dict.len());
    let generator = Generator::with_options(mac, cache, harness_options());
    let report = generator.generate(&dict);
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
