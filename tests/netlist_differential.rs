//! The netlist frontend on the committed decks. The IV-converter and
//! bipolar op-amp decks under `tests/fixtures/` are the only definition
//! of those macros, so the checks here pin what the decks yield rather
//! than compare them with a second copy: the IV-converter's
//! topology-derived dictionary is the paper's 55 faults in order, and
//! the op-amp follows its input and runs the full pipeline robustly
//! over its derived dictionary. The divider deck still lowers to
//! exactly the synthetic [`DividerMacro`] circuit.
//!
//! [`DividerMacro`]: castg::core::synthetic::DividerMacro

use castg::core::{run_pipeline, AnalogMacro, CampaignOptions, Generator, NominalCache};
use castg::faults::{Fault, Junction};
use castg::netlist::{parse_deck, NetlistMacro};
use castg::spice::{DcAnalysis, Waveform};

fn bjt_macro() -> NetlistMacro {
    castg_bench::golden::bjt_macro(&castg_bench::fixtures_dir())
}

/// The IV-converter deck's derived dictionary is the paper's 55-fault
/// list, spelled out here: the C(10,2) bridges over the fault-site nets
/// in node order, then a pinhole per transistor in device order, at the
/// paper's 10 kΩ and 2 kΩ dictionary impacts (§3.4).
#[test]
fn derived_dictionary_matches_hand_enumeration() {
    let nets = ["vdd", "vref", "inn", "tail", "nmir", "na", "nz", "out", "biasp", "biasn"];
    let mosfets = ["M10", "M9", "M8", "M5", "M1", "M2", "M3", "M4", "M6", "M7"];
    let mut expected = Vec::new();
    for (i, a) in nets.iter().enumerate() {
        for b in &nets[i + 1..] {
            expected.push((format!("bridge({a},{b})"), 10e3));
        }
    }
    expected.extend(mosfets.iter().map(|m| (format!("pinhole({m})"), 2e3)));
    assert_eq!(expected.len(), 55);

    let mac = castg_bench::iv_macro(false);
    assert_eq!(mac.fault_site_nodes(), nets);
    let derived: Vec<(String, f64)> =
        mac.fault_dictionary().iter().map(|f| (f.name(), f.base_resistance())).collect();
    assert_eq!(derived, expected);
}

/// The unity-gain follower tracks its input across the DC range.
#[test]
fn follower_tracks_its_input() {
    let c = bjt_macro().nominal_circuit();
    for vin in [1.8, 2.5, 3.2] {
        let sol = DcAnalysis::new(&c).override_stimulus("VIN", Waveform::dc(vin)).solve().unwrap();
        let out = sol.voltage(c.find_node("out").unwrap());
        assert!((out - vin).abs() < 0.1, "vin {vin} → out {out}");
    }
}

/// End-to-end proof that nothing in the generator assumes MOS devices.
#[test]
fn generation_works_on_the_bipolar_macro() {
    let mac = bjt_macro();
    let cache = NominalCache::new();
    let generator = Generator::new(&mac, &cache);
    let fault = Fault::junction_pinhole("Q2", Junction::BaseEmitter, 2e3);
    let best = generator.generate_for_fault(&fault).unwrap();
    assert!(best.config_id == 1 || best.config_id == 2);
    assert!(!best.params.is_empty());
}

/// Acceptance pin: the bipolar macro runs the full generate → compact →
/// evaluate pipeline *from its `.sp` deck* (the netlist frontend, with
/// description-file configurations) over its entire derived dictionary
/// — 45 bridges over the 10 non-ground nets plus 10 junction pinholes —
/// with zero unconverged, panicked, timed-out or injection-failed
/// outcomes.
#[test]
fn bjt_netlist_macro_full_pipeline_is_robust() {
    let mac = bjt_macro();
    let dict = mac.fault_dictionary();
    assert_eq!(dict.len(), 45 + 10, "derived dictionary: C(10,2) bridges + 10 junction pinholes");

    let campaign = CampaignOptions { threads: 2, ..CampaignOptions::default() };
    let run = run_pipeline(&mac, &dict, &castg_bench::golden::golden_options(), &campaign)
        .expect("the bipolar pipeline runs");
    let tally = run.coverage.tally();
    assert_eq!(
        (tally.unconverged, tally.panicked, tally.timed_out, tally.injection_failed),
        (0, 0, 0, 0),
        "bipolar pipeline robustness regression: {tally:?}"
    );
    assert!(tally.detected > 40, "detected only {} of {} faults", tally.detected, dict.len());
}

/// The divider deck fixture equals the hand-coded synthetic macro's
/// circuit exactly (same element values, names, order).
#[test]
fn divider_deck_matches_synthetic_macro() {
    let text = std::fs::read_to_string(castg_bench::fixtures_dir().join("divider.sp")).unwrap();
    let parsed = parse_deck(&text).unwrap().into_circuit();
    let built = castg::core::synthetic::DividerMacro::new().nominal_circuit();
    assert_eq!(parsed, built);
}
