//! The framework is macro-type agnostic: run the identical generation +
//! compaction pipeline on a different macro — a five-transistor OTA
//! unity-gain buffer with its own (DC-only, fast) configuration set.
//! The whole macro is data: a SPICE deck and two Fig.-1 description
//! texts. The fault dictionary is derived from the deck's topology.
//!
//! ```sh
//! cargo run --release --example custom_macro
//! ```

use std::sync::Arc;

use castg::core::{
    compact, AnalogMacro, CompactionOptions, ConfigDescription, DescribedConfig, Generator,
    NominalCache, TestConfiguration,
};
use castg::netlist::NetlistMacro;

/// NMOS diff pair (M1/M2) with a PMOS mirror load (M3/M4), wired as a
/// unity-gain follower (M2's gate is the output), and an NMOS tail sink
/// M5 biased by the diode-connected M5B through RB.
const OTA_DECK: &str = "\
.title OTA-buffer
.model nch nmos (vto=0.75 kp=0.00011 lambda=0.04 gamma=0.5 phi=0.7 cox=0.0023 cgso=3e-10)
.model pch pmos (vto=-0.9 kp=3.8e-5 lambda=0.05 gamma=0.45 phi=0.7 cox=0.0023 cgso=3e-10)
VDD vdd 0 DC 5
VIN vin 0 DC 2.5
M1 nmir vin tail 0 nch W=40u L=2u
M2 out out tail 0 nch W=40u L=2u
M3 nmir nmir vdd vdd pch W=80u L=2u
M4 out nmir vdd vdd pch W=80u L=2u
RB vdd bias 120k
M5B bias bias 0 0 nch W=20u L=2u
M5 tail bias 0 0 nch W=40u L=2u
CL out 0 2p
.end
";

/// The two test configurations: the DC follower output (2 % of the
/// input level plus a 1 mV voltmeter floor) and the VDD supply current
/// (8 µA plus a 50 nA ammeter floor), each with 0.5 % of the nominal
/// reading.
const OTA_CONFIGS: [&str; 2] = [
    "\
macro type: OTA-buffer
test configuration: DC follow
control VIN: dc(vin)
observe out: dc()
return: dV(out)
parameter vin: 1.2 .. 4
variable box_rel: 0.02
variable box_gain: 1
variable box_floor: 1e-3
variable box_rel_nom: 5e-3
seed vin: 2.5
",
    "\
macro type: OTA-buffer
test configuration: Supply current
control VIN: dc(vin)
observe VDD: i()
return: dI(VDD)
parameter vin: 1.2 .. 4
variable box_rel: 0
variable box_abs: 8e-6
variable box_floor: 5e-8
variable box_rel_nom: 5e-3
seed vin: 2.5
",
];

/// The OTA buffer macro: the deck, its derived dictionary and the two
/// configurations (ids 1 and 2).
fn ota_buffer() -> Result<NetlistMacro, Box<dyn std::error::Error>> {
    let mut configs: Vec<Arc<dyn TestConfiguration>> = Vec::new();
    for (i, text) in OTA_CONFIGS.iter().enumerate() {
        configs.push(Arc::new(DescribedConfig::new(i + 1, ConfigDescription::parse(text)?)?));
    }
    Ok(NetlistMacro::from_deck_text("ota_buffer", OTA_DECK)?.with_configurations(configs))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ota = ota_buffer()?;
    let dict = ota.fault_dictionary();
    println!(
        "macro `{}` ({}): {} faults ({} configurations)",
        ota.name(),
        ota.macro_type(),
        dict.len(),
        ota.configurations().len()
    );

    let cache = NominalCache::new();
    let generator = Generator::new(&ota, &cache);
    let report = generator.generate(&dict);
    println!(
        "generated {} best tests in {:?} ({} failures)",
        report.tests.len(),
        report.wall_time,
        report.failures.len()
    );
    for row in report.distribution() {
        println!(
            "  config #{} {:<14} detects best: {} bridges, {} pinholes",
            row.config_id, row.config_name, row.bridge, row.pinhole
        );
    }
    let undetected = report.undetected();
    println!("undetectable at dictionary impact: {}", undetected.len());

    let compaction = compact(&ota, &cache, &report, &CompactionOptions::default())?;
    println!(
        "compacted test set: {} → {} tests (ratio {:.1}x)",
        compaction.original_count,
        compaction.tests.len(),
        compaction.ratio()
    );
    for (i, t) in compaction.tests.iter().enumerate() {
        println!(
            "  T{i}: config #{} vin = {:.3} V covers {} fault(s)",
            t.config_id,
            t.params[0],
            t.covered_faults.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use castg::faults::{Fault, FaultKind};
    use castg::spice::{DcAnalysis, Waveform};

    #[test]
    fn buffer_follows_input() {
        let c = ota_buffer().unwrap().nominal_circuit();
        for vin in [1.8, 2.5, 3.2] {
            let sol =
                DcAnalysis::new(&c).override_stimulus("VIN", Waveform::dc(vin)).solve().unwrap();
            let out = sol.voltage(c.find_node("out").unwrap());
            assert!((out - vin).abs() < 0.1, "vin {vin} → out {out}");
        }
    }

    #[test]
    fn derived_dictionary_has_twenty_one_faults() {
        // C(6,2) bridges over vdd, vin, nmir, tail, out, bias plus a
        // pinhole in each of the six transistors.
        let ota = ota_buffer().unwrap();
        let dict = ota.fault_dictionary();
        assert_eq!((dict.count(FaultKind::Bridge), dict.count(FaultKind::Pinhole)), (15, 6));
        let c = ota.nominal_circuit();
        for f in dict.iter() {
            f.inject(&c).unwrap();
        }
    }

    #[test]
    fn generation_works_on_the_second_macro() {
        // End-to-end proof that the pipeline is macro-agnostic.
        let ota = ota_buffer().unwrap();
        let cache = NominalCache::new();
        let generator = Generator::new(&ota, &cache);
        let fault = Fault::bridge("out", "tail", 10e3);
        let best = generator.generate_for_fault(&fault).unwrap();
        assert!(best.config_id == 1 || best.config_id == 2);
        assert!(!best.params.is_empty());
    }
}
