//! Experiment harness for `castg`: regenerates every table and figure
//! of the paper's evaluation (§3.4/§4.2) and the golden reports. The
//! performance benchmark is the separate `perfbench/` package.
//!
//! Each experiment is a library function in [`experiments`]; the one
//! driver, `regen_all`, runs them all in order. Results are written to
//! the `results/` directory at the workspace root as CSV plus a
//! rendered text table, and a summary is printed to stdout.
//!
//! The experiments run the IV-converter exactly as `castg generate`
//! does: the committed deck and `.cfg` files under `tests/fixtures/`,
//! loaded by [`iv_macro`]. `regen_all` runs the 55-fault generation
//! once ([`experiments::generation`], which also writes
//! `results/generation.csv`) and hands that report to the experiments
//! built on it: Table 2, Fig. 8, Table 3, the compaction sweep and the
//! baseline ablation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod golden;

use std::path::{Path, PathBuf};

use castg_core::AnalogMacro;
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
        &[],
    )
    .expect("IV-converter deck fixtures parse");
    if !calibrated {
        return mac;
    }
    let configs = BoxPolicy::calibrated_default().apply(mac.circuit(), mac.configurations());
    mac.with_configurations(configs)
}

/// Parses `regen_all`'s arguments (program name excluded): `true` when
/// `--calibrated` asks for the Monte-Carlo box-functions.
///
/// # Errors
///
/// The first argument that is not `--calibrated`: a misspelled flag
/// must not silently fall back to the analytic boxes.
pub fn parse_calibrated(args: &[String]) -> Result<bool, String> {
    match args.iter().find(|a| *a != "--calibrated") {
        Some(bad) => Err(format!("unknown argument `{bad}`")),
        None => Ok(!args.is_empty()),
    }
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
        assert_eq!(parse_calibrated(&[]), Ok(false));
        assert_eq!(parse_calibrated(&["--calibrated".into()]), Ok(true));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = parse_calibrated(&args(&["--calibrated", "--calbrated"])).unwrap_err();
        assert!(err.contains("--calbrated"), "{err}");
        assert!(parse_calibrated(&args(&["--fresh"])).is_err());
        assert!(parse_calibrated(&args(&["calibrated"])).is_err());
    }
}
