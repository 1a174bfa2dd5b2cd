//! Differential harness for the `.param`/expression frontend: the
//! committed `ladder_param.sp` fixture — a fully parameterized deck
//! where every element value routes through a `.param` definition and a
//! braced `{…}` expression — must lower to **exactly** the hand-built
//! [`LadderMacro::new(256)`] circuit: same node table (interning
//! order), bit-identical device values, bit-identical DC state, and
//! (release-only) an identical generate → compact → evaluate coverage
//! report when driven by the reference macro's configurations and
//! dictionary.

use std::path::PathBuf;

use castg::core::synthetic::LadderMacro;
use castg::core::{
    report::render_pipeline_report, run_pipeline, AnalogMacro, CampaignOptions, GeneratorOptions,
};
use castg::netlist::{parse_deck, parse_deck_with_params, NetlistMacro};

const SECTIONS: usize = 256;

fn fixture_text() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ladder_param.sp");
    std::fs::read_to_string(&path).expect("ladder_param.sp fixture exists")
}

/// The parameterized deck lowers to the hand-built ladder *exactly*:
/// same node count and interning order, same devices with bit-identical
/// values (`Circuit` equality is value-exact on every `f64`).
#[test]
fn ladder_param_deck_lowers_to_the_hand_built_ladder() {
    let deck = parse_deck(&fixture_text()).expect("fixture deck parses");
    assert_eq!(deck.title.as_deref(), Some("parameterized RC ladder (256 sections)"));
    let parsed = deck.into_circuit();
    let built = LadderMacro::new(SECTIONS).nominal_circuit();
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
    assert_eq!(parsed, built, "parameterized deck must equal the hand-built ladder");
}

/// The resolved parameter report carries every `.param` under its deck
/// spelling, in deck order, with the exact values the reference macro's
/// constants hold (`10p` must resolve to the same bits as `10e-12`).
#[test]
fn ladder_param_resolved_values_are_exact() {
    let deck = parse_deck(&fixture_text()).unwrap();
    let expect = [
        ("vsrc", 5.0),
        ("rsrc", LadderMacro::R_SOURCE),
        ("rser", LadderMacro::R_SERIES),
        ("rshunt", LadderMacro::R_SHUNT),
        ("cshunt", LadderMacro::C_SHUNT),
    ];
    assert_eq!(deck.params.len(), expect.len());
    for ((name, value), (want_name, want)) in deck.params.iter().zip(expect) {
        assert_eq!(name, want_name);
        assert_eq!(value.to_bits(), want.to_bits(), "{name}: {value} vs {want}");
    }
}

/// DC operating points of the parsed and hand-built circuits agree bit
/// for bit across the full 259-unknown state vector.
#[test]
fn ladder_param_dc_state_is_bit_identical() {
    use castg::spice::DcAnalysis;
    let parsed = parse_deck(&fixture_text()).unwrap().into_circuit();
    let built = LadderMacro::new(SECTIONS).nominal_circuit();
    let sp = DcAnalysis::new(&parsed).solve().expect("parsed circuit converges");
    let sb = DcAnalysis::new(&built).solve().expect("built circuit converges");
    assert_eq!(sp.state().len(), sb.state().len());
    for (i, (a, b)) in sp.state().iter().zip(sb.state()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "unknown {i}: {a} vs {b}");
    }
}

/// An external override re-scales the whole ladder: `--param rsrc=2k`
/// must propagate through the dependent `rser={rsrc}` definition into
/// every series resistor, matching a hand-built circuit where both
/// constants changed.
#[test]
fn ladder_param_override_rescales_the_ladder() {
    let overridden = parse_deck_with_params(&fixture_text(), &[("rsrc".to_string(), 2e3)])
        .unwrap()
        .into_circuit();
    use castg::spice::DeviceKind;
    for name in ["Rsrc", "Rs1", "Rs256"] {
        match overridden.device(name).expect(name).kind() {
            DeviceKind::Resistor { ohms, .. } => {
                assert_eq!(*ohms, 2e3, "{name} must follow the rsrc override");
            }
            other => panic!("{name} should be a resistor, got {other:?}"),
        }
    }
}

/// End-to-end acceptance: driven by the reference macro's own
/// configurations and fault dictionary, the parsed parameterized deck
/// produces a byte-identical pipeline coverage report. Release-only:
/// the step configuration optimizes 259-unknown transients.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
fn ladder_param_coverage_report_is_identical() {
    let reference = LadderMacro::new(SECTIONS);
    let netlist_mac = NetlistMacro::from_deck_text("ladder", &fixture_text())
        .expect("fixture deck loads")
        .with_configurations(reference.configurations());
    let dict = reference.fault_dictionary();

    let report = |mac: &dyn AnalogMacro| -> String {
        let (generator, campaign) = (GeneratorOptions::default(), CampaignOptions::default());
        render_pipeline_report("ladder", &run_pipeline(mac, &dict, &generator, &campaign).unwrap())
    };

    let from_deck = report(&netlist_mac);
    let from_reference = report(&reference);
    assert_eq!(
        from_deck, from_reference,
        "parameterized deck and hand-built ladder must produce identical reports"
    );
}
