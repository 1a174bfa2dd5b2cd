//! Deck → report, with zero macro-specific Rust: parse a SPICE deck,
//! derive its fault dictionary from topology, interpret textual
//! configuration descriptions, and run the paper's full
//! generate → compact → evaluate pipeline — exactly what
//! `castg generate <deck.sp> --configs <dir>` does.
//!
//! ```sh
//! cargo run --release --example netlist_pipeline
//! ```

use std::sync::Arc;

use castg::core::report::render_pipeline_report;
use castg::core::{
    run_pipeline, AnalogMacro, CampaignOptions, ConfigDescription, DescribedConfig,
    GeneratorOptions,
};
use castg::netlist::{parse_deck, write_deck, NetlistMacro};

// Any macro netlist — a two-stage amplifier front-ended by a divider
// subcircuit, with a Level-1 model card, scale suffixes, continuations
// and comments.
const DECK: &str = "\
* demo macro: resistively biased NMOS amplifier
.title demo-amp
.model nch nmos (vto=0.75 kp=110u lambda=0.04)
.subckt bias top mid
Rt top mid 1MEG
Rb mid 0 1MEG
.ends bias
VDD vdd 0 DC 5
VIN in 0 DC 2
X1 vdd g bias
Rc in g 100k       ; input coupling
M1 out g 0 0 nch W=10u L=1u
RD vdd out 50k
CL out 0 1p
.end
";

const DC_CONFIG: &str = "\
macro type: demo-amp
test configuration: DC output
control VIN: dc(lev)
observe out: dc()
return: dV(out)
parameter lev: 0 .. 5
variable box_rel: 0.05
variable box_gain: 1.0
variable box_floor: 1e-3
seed lev: 2
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Parse the deck; the circuit is a first-class castg netlist.
    let mac = NetlistMacro::from_deck_text("demo_amp", DECK)?;
    println!(
        "parsed `{}`: {} nodes, {} devices, {} derived faults",
        mac.name(),
        mac.circuit().node_count(),
        mac.circuit().devices().len(),
        mac.fault_dictionary().len(),
    );

    // Configurations are textual descriptions (normally *.cfg files in
    // a directory next to the deck; see tests/fixtures/iv_configs/).
    let config = DescribedConfig::new(1, ConfigDescription::parse(DC_CONFIG)?)?;
    let mac = mac.with_configurations(vec![Arc::new(config)]);

    // The paper's pipeline, unchanged.
    let dict = mac.fault_dictionary();
    let run = run_pipeline(&mac, &dict, &GeneratorOptions::default(), &CampaignOptions::default())?;
    println!(
        "generated {} tests in {:.2?}, compacted to {} tests covering {}/{} faults\n",
        run.generation.tests.len(),
        run.generation.wall_time,
        run.tests.len(),
        run.coverage.detected(),
        run.coverage.total()
    );
    print!("{}", render_pipeline_report(mac.name(), &run));

    // Round trip: circuits write back out as decks, exactly (flattened
    // `X…`-prefixed subcircuit internals are the documented exception —
    // their names cannot start with their card letter — so demonstrate
    // on a hand-built RLC).
    let mut rlc = castg::spice::Circuit::new();
    let a = rlc.node("a");
    let b = rlc.node("b");
    rlc.add_vsource("V1", a, castg::spice::Circuit::GROUND, castg::spice::Waveform::dc(1.0))?;
    rlc.add_resistor("R1", a, b, 10.0)?;
    rlc.add_inductor("L1", b, castg::spice::Circuit::GROUND, 1e-3)?;
    rlc.add_capacitor("C1", b, castg::spice::Circuit::GROUND, 1e-9)?;
    let deck_text = write_deck(&rlc)?;
    assert_eq!(parse_deck(&deck_text)?.circuit(), &rlc);
    println!("\nwriter round-trip: exact\n{deck_text}");
    Ok(())
}
