//! The full pipeline of the paper on a slice of the IV-converter fault
//! dictionary: per-fault optimal test generation (§3), compaction into a
//! small test set (§4), and coverage evaluation.
//!
//! ```sh
//! cargo run --release --example generate_testset          # 8 faults
//! cargo run --release --example generate_testset -- 55    # full dictionary
//! ```

use castg::core::{
    compact, evaluate_test_set, test_instances_from_compaction, AnalogMacro,
    CompactionOptions, Generator, NominalCache,
};
use castg::faults::FaultDictionary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(8);

    let mac = castg_bench::iv_macro(false);
    let full = mac.fault_dictionary();
    let dict: FaultDictionary = full.faults().iter().take(n).cloned().collect();
    println!("generating optimal tests for {} / {} faults...", dict.len(), full.len());

    let cache = NominalCache::new();
    let generator = Generator::new(&mac, &cache);
    let report = generator.generate(&dict);
    println!(
        "generated {} tests in {:?} ({} simulator evaluations)",
        report.tests.len(),
        report.wall_time,
        report.total_evaluations()
    );
    for t in &report.tests {
        println!(
            "  {:<22} → config #{} {:<14} T = {:?}  S_dict = {:>8.3}  R_crit = {:.2e} Ω",
            t.fault.name(),
            t.config_id,
            t.config_name,
            t.params.iter().map(|p| format!("{p:.3e}")).collect::<Vec<_>>(),
            t.sensitivity_at_dictionary,
            t.fault.base_resistance() * t.critical_scale,
        );
    }

    // §4: collapse the per-fault tests.
    let compaction = compact(&mac, &cache, &report, &CompactionOptions::default())?;
    println!(
        "\ncompaction: {} → {} tests (ratio {:.1}x, {} screen rejections, δ = {})",
        compaction.original_count,
        compaction.tests.len(),
        compaction.ratio(),
        compaction.screen_rejections,
        compaction.delta
    );
    for (i, t) in compaction.tests.iter().enumerate() {
        println!("  T{i}: config #{} {:?} covers {:?}", t.config_id, t.params, t.covered_faults);
    }

    // Verify the compacted set still detects the dictionary.
    let instances = test_instances_from_compaction(&mac, &compaction)?;
    let coverage = evaluate_test_set(&mac, &cache, &instances, &dict)?;
    println!(
        "\ncompacted-set coverage: {}/{} faults detected ({:.1} %); escapes: {:?}",
        coverage.detected(),
        coverage.total(),
        100.0 * coverage.coverage(),
        coverage.escapes()
    );
    Ok(())
}
