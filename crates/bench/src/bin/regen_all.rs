//! Regenerates every table and figure of the paper in order, then the
//! golden-report fixtures under `tests/golden/` (the byte-stable
//! pipeline renderings asserted by `tests/golden_reports.rs`).
//!
//! The 55-fault IV generation runs once, in this process, and every
//! experiment built on it (Table 2, Fig. 8, Table 3, the compaction
//! sweep, the baseline ablation) reads that one report. The only flag,
//! `--calibrated`, uses the Monte-Carlo box-functions instead of the
//! analytic ones; any other argument exits 2 with a usage line.
//!
//! ```text
//! cargo run --release -p castg-bench --bin regen_all [-- --calibrated]
//! ```
use castg_bench::experiments as ex;
use castg_core::NominalCache;

fn main() {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let calibrated = castg_bench::parse_calibrated(&args.collect::<Vec<_>>()).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {program} [--calibrated]");
        std::process::exit(2)
    });
    ex::fig1_description();
    ex::table1_configs();
    ex::fig7_pinhole();
    ex::fig5_tolerance_box();
    ex::figs234_tps_graphs(17, 17);
    ex::fig6_trace();
    let mac = castg_bench::iv_macro(calibrated);
    let cache = NominalCache::new();
    let generation = ex::generation(&mac, &cache);
    ex::table2_distribution(&generation);
    ex::fig8_scatter(&mac, &cache, &generation);
    ex::table3_config5(&generation);
    ex::compaction_sweep(&mac, &cache, &generation);
    ex::baseline_ablation(&mac, &cache, &generation);
    ex::tps_profiles_1param();
    let golden_dir = castg_bench::results_dir()
        .parent()
        .expect("results/ lives under the workspace root")
        .join("tests/golden");
    castg_bench::golden::write_fixtures(&golden_dir);
    println!("\nall artifacts regenerated into results/");
}
