//! Regression tests for the `castg` CLI surface: parameter overrides
//! reaching the lowered circuit, resolved-parameter printing, a quiet
//! exit when stdout's reader goes away, the named
//! structural-singularity diagnostic, `check`'s sparse fill table, the
//! `generate` robustness flags (`--max-newton-iters`, `--budget-ms`,
//! `--strict`) with their outcome accounting and exit codes, and a
//! `--json` summary that stays JSON under a zero tolerance box.

use std::io::Write;
use std::process::Command;

use castg::serve::json::{parse_json, Json};

fn castg() -> Command {
    Command::new(env!("CARGO_BIN_EXE_castg"))
}

fn write_deck(dir: &std::path::Path, name: &str, text: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(text.as_bytes()).unwrap();
    path
}

/// A per-test scratch directory, removed with its contents on drop.
struct TempDir(std::path::PathBuf);

impl std::ops::Deref for TempDir {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("castg-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

#[test]
fn check_prints_resolved_params_and_applies_overrides() {
    let dir = temp_dir("params");
    let deck = write_deck(
        &dir,
        "pdeck.sp",
        ".title param smoke\n\
         .param rload=2k\n\
         V1 vin 0 DC 5\n\
         R1 vin out 1k\n\
         R2 out 0 {rload}\n",
    );

    // Deck value: divider 1k over 2k -> v(out) = 10/3.
    let out = castg().arg("check").arg(&deck).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("resolved parameters:"), "stdout: {stdout}");
    assert!(stdout.contains(".param rload = 2e3"), "stdout: {stdout}");
    assert!(stdout.contains("v(out) = 3.333333e0"), "stdout: {stdout}");

    // Override shadows the deck definition: 1k over 4k -> v(out) = 4.
    let out =
        castg().arg("check").arg(&deck).args(["--param", "rload=4k"]).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(".param rload = 4e3"), "stdout: {stdout}");
    assert!(stdout.contains("v(out) = 4.000000e0"), "stdout: {stdout}");
}

/// A reader that goes away early (`castg check deck.sp | head -1`) is
/// not an error: exit 0, no panic.
#[test]
fn check_exits_quietly_when_its_reader_goes_away() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = castg()
        .arg("check")
        .arg(fixture("ladder_param.sp"))
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn check_rejects_malformed_param_flags() {
    let dir = temp_dir("badparam");
    let deck = write_deck(&dir, "d.sp", "V1 a 0 DC 1\nR1 a 0 1k\n");
    for bad in ["rload", "=4k", "rload=abc"] {
        let out = castg().arg("check").arg(&deck).args(["--param", bad]).output().unwrap();
        assert!(!out.status.success(), "--param {bad} should be rejected");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--param"), "stderr: {stderr}");
    }
}

#[test]
fn check_names_the_singular_unknown() {
    let dir = temp_dir("singular");
    // V2 and V3 disagree across the same node pair: the MNA system is
    // structurally singular at V3's branch-current column.
    let deck = write_deck(
        &dir,
        "sing.sp",
        "V1 a 0 DC 1\n\
         R1 a b 1k\n\
         V2 b 0 DC 1\n\
         V3 b 0 DC 2\n",
    );
    let out = castg().arg("check").arg(&deck).output().unwrap();
    assert!(!out.status.success(), "a singular deck must fail `check`");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("structurally singular at unknown i(V3)"),
        "diagnostic must name the branch unknown, got: {stderr}"
    );
    assert!(stderr.contains("voltage-source loop"), "stderr: {stderr}");
}

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// `check`'s fill table on the 259-unknown ladder deck: one row per
/// ordering, with the fills `tests/ordering_verdicts.rs` pins for that
/// deck, and the ordering the default dispatch resolves to.
#[test]
fn check_prints_the_fill_table() {
    let out = castg().arg("check").arg(fixture("ladder_param.sp")).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for line in [
        "  natural  pattern nnz    774, factor nnz   1030",
        "  amd      pattern nnz    774, factor nnz    774",
        "  btf      pattern nnz    774, factor nnz    774, 3 blocks (largest 257)",
        "requested dispatch Auto/Auto resolves to ordering Natural \
         (259 unknowns, factor nnz 1030)",
    ] {
        assert!(stdout.lines().any(|l| l == line), "no line {line:?} in:\n{stdout}");
    }
}

#[test]
fn generate_reports_outcomes_and_ladder_statistics() {
    let dir = temp_dir("outcomes");
    let json = dir.join("cov.json");
    let out = castg()
        .arg("generate")
        .arg(fixture("divider.sp"))
        .arg("--configs")
        .arg(fixture("divider_configs"))
        .arg("--json")
        .arg(&json)
        // The default resistances, spelled with SPICE scale suffixes.
        .args(["--bridge-ohms", "10k", "--pinhole-ohms", "2k"])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("castg: outcomes: detected"), "stderr: {stderr}");
    assert!(stderr.contains("ladder:"), "stderr: {stderr}");
    // A healthy campaign must not emit the robustness warning.
    assert!(!stderr.contains("robustness-suspect"), "stderr: {stderr}");
    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(json_text.contains("\"outcomes\": {\"detected\": "), "json: {json_text}");
    assert!(json_text.contains("\"convergence_stats\": {\"solves\": "), "json: {json_text}");
    assert!(json_text.contains("\"outcome\": \"detected\""), "json: {json_text}");
    assert!(json_text.contains("\"unconverged\": 0"), "json: {json_text}");
    assert!(json_text.contains("\"panicked\": 0"), "json: {json_text}");
}

#[test]
fn generate_strict_fails_on_exhausted_iteration_budget() {
    // A zero-iteration allowance makes every faulted solve exhaust its
    // budget deterministically: all faults come back `unconverged`.
    // Without --strict that is a warning and exit 0; with --strict the
    // run must exit 1 and name the flag.
    let dir = temp_dir("strict");
    let json = dir.join("cov.json");
    let base = |extra: &[&str]| {
        let mut cmd = castg();
        cmd.arg("generate")
            .arg(fixture("divider.sp"))
            .arg("--configs")
            .arg(fixture("divider_configs"))
            .arg("--json")
            .arg(&json)
            .args(["--max-newton-iters", "0"])
            .args(extra);
        cmd.output().unwrap()
    };

    let out = base(&[]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("robustness-suspect"), "stderr: {stderr}");
    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(json_text.contains("\"outcome\": \"unconverged\""), "json: {json_text}");

    let out = base(&["--strict"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--strict"), "stderr: {stderr}");
    assert!(stderr.contains("robustness-suspect"), "stderr: {stderr}");
}

/// A configuration that observes a node the deck lacks fails every
/// fault's generation: exit 1, one stderr line per failed fault, and
/// no `--json` summary.
#[test]
fn generate_fails_when_every_fault_fails_generation() {
    let dir = temp_dir("genfail");
    let configs = dir.join("configs");
    std::fs::create_dir_all(&configs).unwrap();
    let cfg = std::fs::read_to_string(fixture("divider_configs/1_dc_out.cfg")).unwrap();
    write_deck(&configs, "dc_output.cfg", &cfg.replace("observe out", "observe nowhere"));
    let json = dir.join("cov.json");
    let _ = std::fs::remove_file(&json);
    let out = castg()
        .arg("generate")
        .arg(fixture("divider.sp"))
        .arg("--configs")
        .arg(&configs)
        .arg("--json")
        .arg(&json)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.matches("generation failed for").count(), 3, "stderr: {stderr}");
    assert!(stderr.contains("3 of 3 faults failed generation"), "stderr: {stderr}");
    assert!(!json.exists(), "a failed run must not write its --json summary");
}

/// A configuration with no `box_*` variables has a zero tolerance box,
/// so every deviation scores `S_f = −∞`. The `--json` summary must
/// still parse (non-finite numbers written as `null`), and the three
/// tests, all at the same parameters, must compact.
#[test]
fn generate_json_parses_under_a_zero_tolerance_box() {
    let dir = temp_dir("zerobox");
    let configs = dir.join("configs");
    std::fs::create_dir_all(&configs).unwrap();
    let cfg = std::fs::read_to_string(fixture("divider_configs/1_dc_out.cfg")).unwrap();
    let no_box: String =
        cfg.lines().filter(|l| !l.starts_with("variable box_")).map(|l| format!("{l}\n")).collect();
    write_deck(&configs, "dc_output.cfg", &no_box);
    let json = dir.join("cov.json");
    let out = castg()
        .arg("generate")
        .arg(fixture("divider.sp"))
        .arg("--configs")
        .arg(&configs)
        .arg("--json")
        .arg(&json)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read(&json).unwrap();
    let report = parse_json(&text)
        .unwrap_or_else(|e| panic!("not JSON ({e}): {}", String::from_utf8_lossy(&text)));
    let per_fault = report.get("per_fault").and_then(Json::as_array).unwrap();
    assert_eq!(per_fault.len(), 3);
    for f in per_fault {
        assert_eq!(f.get("best_sensitivity"), Some(&Json::Null));
        assert_eq!(f.get("detected").and_then(Json::as_bool), Some(true));
        assert_eq!(f.get("outcome").and_then(Json::as_str), Some("detected"));
    }
    let tests = report.get("tests").and_then(Json::as_usize).unwrap();
    assert!(tests < 3, "{tests} tests from 3");
}

#[test]
fn generate_rejects_malformed_budget_flags() {
    let bad_flags: [&[&str]; 9] = [
        &["--max-newton-iters", "many"],
        &["--budget-ms", "-5"],
        &["--budget-ms"],
        &["--bridge-ohms", "-5"],
        &["--bridge-ohms", "0"],
        &["--bridge-ohms", "NaN"],
        &["--pinhole-ohms", "inf"],
        &["--pinhole-ohms", "0"],
        &["--pinhole-ohms", "ten"],
    ];
    for bad in bad_flags {
        let out = castg()
            .arg("generate")
            .arg(fixture("divider.sp"))
            .arg("--configs")
            .arg(fixture("divider_configs"))
            .args(bad)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{bad:?} should be rejected");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(bad[0]), "stderr: {stderr}");
    }
}

#[test]
fn check_reports_param_cycles_with_the_defining_line() {
    let dir = temp_dir("cycle");
    let deck = write_deck(
        &dir,
        "cycle.sp",
        ".param a={b+1}\n\
         .param b={a+1}\n\
         V1 x 0 DC {a}\n\
         R1 x 0 1k\n",
    );
    let out = castg().arg("check").arg(&deck).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cycle"), "stderr: {stderr}");
}
