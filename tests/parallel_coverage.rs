//! Parallel-equivalence coverage tests on the scalable macro family:
//! `evaluate_campaign` must produce the identical report —
//! fault order, best-test indices, sensitivities bit for bit — at any
//! worker count. The in-crate test pins this on the toy divider; these
//! extend it to a `LadderMacro` large enough (n ≥ 256) that the sparse
//! solver path carries the simulations and every worker is actually
//! busy.

use std::sync::Arc;

use castg::core::synthetic::{LadderMacro, OtaChainMacro};
use castg::core::{
    evaluate_campaign, run_pipeline, AnalogMacro, CampaignOptions, NominalCache, TestInstance,
};
use castg::faults::FaultDictionary;
use castg_bench::golden::golden_options;

fn with_threads(threads: usize) -> CampaignOptions {
    CampaignOptions { threads, ..CampaignOptions::default() }
}

/// DC-config test instances at a few stimulus levels (cheap to
/// evaluate, no generation run needed).
fn dc_instances(mac: &dyn AnalogMacro, levels: &[f64]) -> Vec<TestInstance> {
    let config = mac
        .configurations()
        .into_iter()
        .find(|c| c.name() == "dc_out")
        .expect("macro has a dc_out configuration");
    levels
        .iter()
        .map(|&lev| TestInstance { config: Arc::clone(&config), params: vec![lev] })
        .collect()
}

#[test]
fn ladder_256_parallel_reports_are_identical() {
    let mac = LadderMacro::with_unknowns(256);
    assert!(mac.unknowns() >= 256);
    let cache = NominalCache::new();
    let dict = mac.fault_dictionary();
    let tests = dc_instances(&mac, &[2.0, 5.0, 7.5]);

    let serial = evaluate_campaign(&mac, &cache, &tests, &dict, &with_threads(1)).unwrap();
    assert_eq!(serial.total(), dict.len());
    // The ladder family is built so its faults stay detectable at
    // scale; an all-escape report would make the equivalence vacuous.
    assert!(serial.detected() > 0, "escapes: {:?}", serial.escapes());

    for threads in [2, 4, 8] {
        let parallel =
            evaluate_campaign(&mac, &cache, &tests, &dict, &with_threads(threads)).unwrap();
        assert_eq!(parallel.test_count, serial.test_count, "threads = {threads}");
        assert_eq!(parallel.per_fault, serial.per_fault, "threads = {threads}");
    }
}

/// The full generate → compact → evaluate pipeline runs on a ladder
/// big enough that every simulation takes the sparse solver path
/// (`Auto` picks sparse from n = 64), proving the scalable family
/// plugs into the paper's algorithms end to end — not just into raw
/// coverage evaluation.
#[test]
fn ladder_generation_compaction_pipeline() {
    let mac = LadderMacro::with_unknowns(64);
    // A sub-dictionary of ground bridges (strongly detectable at any
    // ladder size) keeps the optimizer work debug-friendly; the full
    // dictionary is exercised by the release-mode coverage tests.
    let dict: FaultDictionary =
        mac.fault_dictionary().iter().filter(|f| f.name().ends_with(",0)")).cloned().collect();
    assert!(dict.len() >= 4, "expected ground bridges, got {}", dict.len());

    let run = run_pipeline(&mac, &dict, &golden_options(), &with_threads(4)).unwrap();
    assert_eq!(run.generation.tests.len(), dict.len());
    assert!(!run.compaction.tests.is_empty());
    assert!(run.compaction.tests.len() <= run.generation.tests.len());

    let coverage = &run.coverage;
    assert_eq!(
        coverage.detected(),
        dict.len(),
        "ground bridges must stay detected after compaction; escapes: {:?}",
        coverage.escapes()
    );
}

#[test]
fn ota_chain_parallel_reports_are_identical() {
    let mac = OtaChainMacro::with_unknowns(64);
    let cache = NominalCache::new();
    let dict = mac.fault_dictionary();
    let tests = dc_instances(&mac, &[1.0, 2.5, 4.0]);

    let serial = evaluate_campaign(&mac, &cache, &tests, &dict, &with_threads(1)).unwrap();
    for threads in [2, 8] {
        let parallel =
            evaluate_campaign(&mac, &cache, &tests, &dict, &with_threads(threads)).unwrap();
        assert_eq!(parallel.per_fault, serial.per_fault, "threads = {threads}");
    }
}
