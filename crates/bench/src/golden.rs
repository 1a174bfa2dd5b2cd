//! Golden-file report rendering: canonical, byte-stable text renderings
//! of the generate → compact → evaluate pipeline, used by the
//! `tests/golden_reports.rs` regression harness and regenerated by
//! `cargo run --release --bin regen_all` (which rewrites
//! `tests/golden/*.txt` at the workspace root).
//!
//! The pipeline is deterministic — fixed seeds, deterministic
//! optimizers, order-stable parallel fan-out — so these renderings
//! change only when an algorithm or a macro definition (a deck or
//! `.cfg` file under `tests/fixtures/`) changes. When that happens
//! intentionally, regenerate the goldens and review the diff like any
//! other code change. The decks themselves are source files: nothing
//! here writes them.

use castg_core::report::{render_json_report, render_pipeline_report};
use castg_core::synthetic::{DividerMacro, MeshMacro};
use castg_core::{
    run_pipeline, AnalogMacro, CampaignOptions, GeneratorOptions, PipelineRun, PipelineTimings,
};
use castg_faults::FaultDictionary;
use castg_numeric::{BrentOptions, PowellOptions};

use crate::{fixtures_dir, iv_macro};

/// Number of dictionary faults the IV-converter golden run covers. The
/// full 55-fault run is a release-binary workload; the golden fixture
/// pins the pipeline on a stable prefix that stays fast in debug-mode
/// `cargo test`.
pub const IV_GOLDEN_FAULTS: usize = 4;

/// Number of dictionary faults the mesh-macro golden run covers (a
/// stable prefix mixing tap-pair and tap-to-ground bridges, fast in
/// debug-mode `cargo test`).
pub const MESH_GOLDEN_FAULTS: usize = 4;

/// Dictionary faults the bipolar golden run covers: two bridges (a
/// supply-to-input short and an input-to-tail short) plus a diode
/// anode–cathode pinhole and a diff-pair base–emitter pinhole — a
/// stable mix of both fault models over the junction-device Newton
/// path that stays fast in debug-mode `cargo test`.
pub const BJT_GOLDEN_FAULTS: [&str; 4] =
    ["bridge(vcc,vin)", "bridge(vin,tail)", "pinhole(D1)", "pinhole(Q2:be)"];

/// Generator options for the golden runs: frugal optimizer budgets
/// (the fixtures pin behavior, not quality) and a fixed worker count.
/// Changing anything here changes the fixtures — regenerate them.
pub fn golden_options() -> GeneratorOptions {
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

/// The golden run of one macro over `dict`: [`golden_options`] and two
/// campaign threads.
fn golden_run(mac: &dyn AnalogMacro, dict: &FaultDictionary) -> PipelineRun {
    let campaign = CampaignOptions { threads: 2, ..CampaignOptions::default() };
    run_pipeline(mac, dict, &golden_options(), &campaign).expect("golden pipeline runs")
}

/// Runs the pipeline for one macro over `dict` and renders the golden
/// report — the text the `castg` CLI writes
/// ([`castg_core::report::render_pipeline_report`]).
fn pipeline_report(mac: &dyn AnalogMacro, dict: &FaultDictionary) -> String {
    render_pipeline_report(mac.name(), &golden_run(mac, dict))
}

/// The `DividerMacro` golden report (full dictionary).
pub fn divider_report() -> String {
    let mac = DividerMacro::new();
    let dict = mac.fault_dictionary();
    pipeline_report(&mac, &dict)
}

/// The machine-readable (`--json`) rendering of the divider pipeline —
/// pins the JSON shape `castg generate --json` writes and the body
/// `castg serve` returns for `POST /v1/campaign`, byte for byte.
/// Timings are wall-clock inputs, so the golden run fixes them to zero
/// (which also pins the `faults_per_s: 0.0` degenerate branch).
pub fn json_report() -> String {
    let mac = DividerMacro::new();
    let run = golden_run(&mac, &mac.fault_dictionary());
    let run = PipelineRun { timings: PipelineTimings::default(), ..run };
    render_json_report(mac.name(), mac.macro_type(), 2, &run)
}

/// The IV-converter golden report over the first [`IV_GOLDEN_FAULTS`]
/// dictionary faults (analytic tolerance boxes; the calibrated boxes
/// are Monte-Carlo-based and belong to the release experiments).
pub fn iv_report() -> String {
    let mac = iv_macro(false);
    pipeline_report(&mac, &mac.fault_dictionary().window(0, Some(IV_GOLDEN_FAULTS)))
}

/// The `MeshMacro` golden report: a 4×4 grid (18 unknowns — the
/// pipeline shape is what is pinned; the ordering machinery has its own
/// differential harness) over the first [`MESH_GOLDEN_FAULTS`]
/// dictionary faults.
pub fn mesh_report() -> String {
    let mac = MeshMacro::new(4, 4);
    pipeline_report(&mac, &mac.fault_dictionary().window(0, Some(MESH_GOLDEN_FAULTS)))
}

/// The bipolar (diode + BJT) golden report over the
/// [`BJT_GOLDEN_FAULTS`] dictionary picks.
pub fn bjt_report() -> String {
    let mac = bjt_macro(&fixtures_dir());
    let all = mac.fault_dictionary();
    let dict = BJT_GOLDEN_FAULTS
        .iter()
        .map(|name| all.by_name(name).expect("golden pick is a dictionary fault").clone())
        .collect();
    pipeline_report(&mac, &dict)
}

/// The bipolar op-amp: the `tests/fixtures/bjt_opamp.sp` deck and its
/// `bjt_configs/` descriptions, with the topology-derived 55-fault
/// dictionary (45 bridges over the 10 non-ground nets plus 10 junction
/// pinholes), entering the pipeline through the `castg-netlist`
/// frontend exactly as the `castg` CLI would.
pub fn bjt_macro(fixtures: &std::path::Path) -> castg_netlist::NetlistMacro {
    castg_netlist::NetlistMacro::from_files(
        &fixtures.join("bjt_opamp.sp"),
        &fixtures.join("bjt_configs"),
        castg_netlist::NetlistMacroOptions::default(),
        &[],
    )
    .expect("bjt op-amp deck fixtures parse")
}

/// The parsed-deck macro the netlist golden fixture runs: the divider
/// deck + description-file configurations under `tests/fixtures/`,
/// entering the pipeline through the `castg-netlist` frontend exactly
/// as the `castg` CLI would.
pub fn netlist_macro(fixtures: &std::path::Path) -> castg_netlist::NetlistMacro {
    castg_netlist::NetlistMacro::from_files(
        &fixtures.join("divider.sp"),
        &fixtures.join("divider_configs"),
        castg_netlist::NetlistMacroOptions::default(),
        &[],
    )
    .expect("divider deck fixtures parse")
}

/// The parsed-deck (netlist frontend) golden report over the divider
/// deck's full derived dictionary.
pub fn netlist_report(fixtures: &std::path::Path) -> String {
    let mac = netlist_macro(fixtures);
    let dict = castg_core::AnalogMacro::fault_dictionary(&mac);
    pipeline_report(&mac, &dict)
}

/// Writes every golden into `dir` (the workspace's `tests/golden/`).
pub fn write_fixtures(dir: &std::path::Path) {
    std::fs::create_dir_all(dir).expect("create golden dir");
    std::fs::write(dir.join("divider_generation.txt"), divider_report())
        .expect("write divider fixture");
    std::fs::write(dir.join("json_report.json"), json_report()).expect("write json fixture");
    std::fs::write(dir.join("iv_generation.txt"), iv_report()).expect("write iv fixture");
    std::fs::write(dir.join("mesh_generation.txt"), mesh_report()).expect("write mesh fixture");
    std::fs::write(dir.join("bjt_generation.txt"), bjt_report()).expect("write bjt fixture");
    std::fs::write(dir.join("netlist_generation.txt"), netlist_report(&fixtures_dir()))
        .expect("write netlist fixture");
    println!("golden fixtures regenerated into {}", dir.display());
}
