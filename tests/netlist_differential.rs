//! Differential harness for the `castg-netlist` frontend: the committed
//! IV-converter and bipolar op-amp deck fixtures must lower to
//! **exactly** the hand-built [`IvConverter`] and [`BjtOpAmp`] circuits
//! — same node table, same MNA dimensions, bit-identical DC and
//! transient solutions — and the bipolar deck must run the full
//! pipeline robustly. The configurations need no differential: the
//! hand-built macros run the same `.cfg` description files the parsed
//! decks load.
//!
//! The deck fixtures are the netlist writer's own output
//! (`castg_bench::golden::{iv_deck, bjt_deck}`, regenerated by
//! `regen_all`), so "≤ 1e-12 relative if device ordering differs" never
//! has to be invoked: ordering is identical by construction and the
//! comparison is exact.

use std::path::PathBuf;

use castg::core::{AnalogMacro, Generator, NominalCache};
use castg::macros::{BjtOpAmp, IvConverter};
use castg::netlist::{parse_deck, write_deck, NetlistMacro, NetlistMacroOptions};
use castg::spice::{DcAnalysis, Probe, TranAnalysis, Waveform};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_circuit() -> castg::spice::Circuit {
    let text = std::fs::read_to_string(fixtures_dir().join("iv_converter.sp"))
        .expect("iv_converter.sp fixture exists (regen: cargo run --release -p castg-bench --bin regen_all)");
    parse_deck(&text).expect("fixture deck parses").into_circuit()
}

/// The deck fixture lowers to the hand-built circuit *exactly*: same
/// node set (and interning order, via `.nodeorder`), same devices with
/// bit-identical values, same MNA dimensions.
#[test]
fn iv_deck_lowers_to_the_hand_built_circuit() {
    let parsed = fixture_circuit();
    let built = IvConverter::with_analytic_boxes().nominal_circuit();
    assert_eq!(parsed.node_count(), built.node_count());
    assert_eq!(parsed.unknown_count(), built.unknown_count());
    for id in built.non_ground_nodes() {
        assert_eq!(
            parsed.find_node(built.node_name(id)),
            Some(id),
            "node {} interned differently",
            built.node_name(id)
        );
    }
    assert_eq!(parsed, built, "parsed deck must equal the hand-built netlist");
}

/// The committed fixture really is the writer's output for the current
/// hand-built circuit (a stale fixture after an `IvConverter` change
/// fails here with a regen hint).
#[test]
fn iv_deck_fixture_is_current() {
    let text = std::fs::read_to_string(fixtures_dir().join("iv_converter.sp")).unwrap();
    let expected = write_deck(&IvConverter::with_analytic_boxes().nominal_circuit()).unwrap();
    assert!(
        text == expected,
        "tests/fixtures/iv_converter.sp is stale; regenerate with \
         `cargo run --release -p castg-bench --bin regen_all`"
    );
}

/// DC operating points of the parsed and hand-built circuits agree bit
/// for bit (the issue's ≤1e-12-relative bound is the fallback for
/// reordered decks; the fixture reproduces ordering exactly).
#[test]
fn iv_deck_dc_solution_is_bit_identical() {
    let parsed = fixture_circuit();
    let built = IvConverter::with_analytic_boxes().nominal_circuit();
    let sp = DcAnalysis::new(&parsed).solve().expect("parsed circuit converges");
    let sb = DcAnalysis::new(&built).solve().expect("built circuit converges");
    assert_eq!(sp.state().len(), sb.state().len());
    for (i, (a, b)) in sp.state().iter().zip(sb.state()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "unknown {i}: {a} vs {b}");
    }
}

/// A step-response transient (the shape configurations #4/#5 run)
/// agrees bit for bit as well.
#[test]
fn iv_deck_transient_is_bit_identical() {
    let parsed = fixture_circuit();
    let built = IvConverter::with_analytic_boxes().nominal_circuit();
    let wave = Waveform::step(0.0, 20e-6, 0.5e-6, 10e-9);
    let run = |c: &castg::spice::Circuit| {
        let out = c.find_node("out").unwrap();
        TranAnalysis::new(c)
            .override_stimulus("IIN", wave.clone())
            .run(2e-6, 10e-9, &[Probe::NodeVoltage(out)])
            .expect("transient converges")
    };
    let tp = run(&parsed);
    let tb = run(&built);
    assert_eq!(tp.len(), tb.len());
    for (a, b) in tp.column(0).iter().zip(tb.column(0)) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// The topology-derived dictionary of the parsed deck reproduces the
/// paper's 55-fault hand enumeration: same faults, same order, same
/// dictionary resistances.
#[test]
fn derived_dictionary_matches_hand_enumeration() {
    let mac = NetlistMacro::from_deck_text("iv_converter", &write_deck(
        &IvConverter::with_analytic_boxes().nominal_circuit(),
    ).unwrap())
    .unwrap();
    let hand = IvConverter::with_analytic_boxes();
    assert_eq!(mac.fault_site_nodes(), hand.fault_site_nodes());
    let derived = mac.fault_dictionary();
    let reference = hand.fault_dictionary();
    assert_eq!(derived.len(), reference.len(), "55-fault dictionary");
    for (d, r) in derived.iter().zip(reference.iter()) {
        assert_eq!(d.name(), r.name());
        assert_eq!(d.base_resistance(), r.base_resistance());
    }
}

/// The bipolar op-amp deck fixture lowers to the hand-built [`BjtOpAmp`]
/// circuit *exactly* — the `D`/`Q` cards and the `.model d`/`npn`/`pnp`
/// tables round-trip every diode and BJT parameter bit for bit.
#[test]
fn bjt_deck_lowers_to_the_hand_built_circuit() {
    let text = std::fs::read_to_string(fixtures_dir().join("bjt_opamp.sp"))
        .expect("bjt_opamp.sp fixture exists (regen: cargo run --release -p castg-bench --bin regen_golden)");
    let parsed = parse_deck(&text).expect("fixture deck parses").into_circuit();
    let built = BjtOpAmp::new().nominal_circuit();
    assert_eq!(parsed, built, "parsed bipolar deck must equal the hand-built netlist");
}

/// The committed bipolar fixture really is the writer's output for the
/// current hand-built circuit.
#[test]
fn bjt_deck_fixture_is_current() {
    let text = std::fs::read_to_string(fixtures_dir().join("bjt_opamp.sp")).unwrap();
    let expected = write_deck(&BjtOpAmp::new().nominal_circuit()).unwrap();
    assert!(
        text == expected,
        "tests/fixtures/bjt_opamp.sp is stale; regenerate with \
         `cargo run --release -p castg-bench --bin regen_golden`"
    );
}

/// DC operating points of the parsed and hand-built bipolar circuits
/// agree bit for bit.
#[test]
fn bjt_deck_dc_solution_is_bit_identical() {
    let text = std::fs::read_to_string(fixtures_dir().join("bjt_opamp.sp")).unwrap();
    let parsed = parse_deck(&text).unwrap().into_circuit();
    let built = BjtOpAmp::new().nominal_circuit();
    let sp = DcAnalysis::new(&parsed).solve().expect("parsed circuit converges");
    let sb = DcAnalysis::new(&built).solve().expect("built circuit converges");
    assert_eq!(sp.state().len(), sb.state().len());
    for (i, (a, b)) in sp.state().iter().zip(sb.state()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "unknown {i}: {a} vs {b}");
    }
}

/// Acceptance pin: the bipolar macro runs the full generate → compact →
/// evaluate pipeline *from its `.sp` deck* (the netlist frontend, with
/// description-file configurations) over its entire derived dictionary
/// — 45 bridges over the 10 non-ground nets plus 10 junction pinholes —
/// with zero unconverged, panicked, timed-out or injection-failed
/// outcomes.
#[test]
fn bjt_netlist_macro_full_pipeline_is_robust() {
    let mac = NetlistMacro::from_files(
        &fixtures_dir().join("bjt_opamp.sp"),
        &fixtures_dir().join("bjt_configs"),
        NetlistMacroOptions::default(),
    )
    .expect("bipolar deck + configs load");
    let dict = AnalogMacro::fault_dictionary(&mac);
    assert_eq!(dict.len(), 45 + 10, "derived dictionary: C(10,2) bridges + 10 junction pinholes");

    let cache = NominalCache::new();
    let generator = Generator::with_options(&mac, &cache, castg_bench::golden::golden_options());
    let generation = generator.generate(&dict);
    assert!(generation.failures.is_empty(), "generation failed: {:?}", generation.failures);
    let compaction = castg::core::compact(
        &mac,
        &cache,
        &generation,
        &castg::core::CompactionOptions::default(),
    )
    .expect("compaction");
    let instances = castg::core::test_instances_from_compaction(&mac, &compaction).expect("instances");
    let coverage =
        castg::core::evaluate_test_set_with_threads(&mac, &cache, &instances, &dict, 2)
            .expect("coverage");
    let tally = coverage.tally();
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
    let text = std::fs::read_to_string(fixtures_dir().join("divider.sp")).unwrap();
    let parsed = parse_deck(&text).unwrap().into_circuit();
    let built = castg::core::synthetic::DividerMacro::new().nominal_circuit();
    assert_eq!(parsed, built);
}
