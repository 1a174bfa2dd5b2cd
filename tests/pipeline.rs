//! End-to-end integration of the full pipeline on the fast synthetic
//! macro: generation → compaction → coverage → baseline, plus
//! determinism.

use castg::core::synthetic::DividerMacro;
use castg::core::{
    compare_with_baseline, run_pipeline, seed_test_set, AnalogMacro, CampaignOptions, Generator,
    GeneratorOptions, NominalCache, SelectionMethod,
};
use castg_bench::golden::golden_options;

#[test]
fn full_pipeline_on_synthetic_macro() {
    let mac = DividerMacro::new();
    let dict = mac.fault_dictionary();
    let run = run_pipeline(&mac, &dict, &golden_options(), &CampaignOptions::default()).unwrap();

    // §3: one optimal test per fault (a failed fault would have
    // stopped the run).
    let report = &run.generation;
    assert_eq!(report.tests.len(), dict.len());
    assert!(report.total_evaluations() > 0);

    // Table-2-style distribution accounts for every fault exactly once.
    let total: usize = report.distribution().iter().map(|r| r.bridge + r.pinhole).sum();
    assert_eq!(total, dict.len());

    // §4: compaction covers every fault exactly once and never grows.
    let compaction = &run.compaction;
    assert!(compaction.tests.len() <= report.tests.len());
    let covered: usize = compaction.tests.iter().map(|t| t.covered_faults.len()).sum();
    assert_eq!(covered, report.tests.len());

    // The compacted set detects what the per-fault set detected.
    let coverage = &run.coverage;
    assert_eq!(coverage.detected(), dict.len(), "escapes: {:?}", coverage.escapes());

    // §2.2: optimization is at least as good as the fixed-seed baseline.
    let cmp = compare_with_baseline(&mac, &NominalCache::new(), report, &dict).unwrap();
    assert!(cmp.optimized.detected() >= cmp.baseline.detected());
    assert!(cmp.optimized.mean_best_sensitivity() <= cmp.baseline.mean_best_sensitivity() + 1e-9);
}

#[test]
fn generation_is_deterministic() {
    let mac = DividerMacro::new();
    let dict = mac.fault_dictionary();
    let run = || {
        let cache = NominalCache::new();
        let generator = Generator::with_options(&mac, &cache, golden_options());
        let report = generator.generate(&dict);
        report
            .tests
            .iter()
            .map(|t| (t.fault.name(), t.config_id, t.params.clone(), t.critical_scale))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "two identical runs must select identical tests");
}

#[test]
fn selection_methods_agree_across_dictionary() {
    let mac = DividerMacro::new();
    let dict = mac.fault_dictionary();
    let run = |method: SelectionMethod| {
        let cache = NominalCache::new();
        let opts = GeneratorOptions { selection: method, ..golden_options() };
        let generator = Generator::with_options(&mac, &cache, opts);
        generator
            .generate(&dict)
            .tests
            .iter()
            .map(|t| (t.fault.name(), t.config_id))
            .collect::<Vec<_>>()
    };
    let iterative = run(SelectionMethod::PaperIterative);
    let critical = run(SelectionMethod::MaxCriticalImpact);
    // The two selection definitions coincide on clear-cut faults; demand
    // agreement on a solid majority (ties near equal criticality may
    // differ legitimately).
    let agree = iterative.iter().zip(&critical).filter(|(a, b)| a == b).count();
    assert!(
        agree * 3 >= iterative.len() * 2,
        "selection methods agree on only {agree}/{} faults",
        iterative.len()
    );
}

#[test]
fn seed_baseline_is_well_formed() {
    let mac = DividerMacro::new();
    let seeds = seed_test_set(&mac);
    assert_eq!(seeds.len(), mac.configurations().len());
    for t in &seeds {
        assert!(t.config.space().contains(&t.params));
    }
}
