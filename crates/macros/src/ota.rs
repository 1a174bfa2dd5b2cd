//! A second macro: a five-transistor OTA unity-gain buffer.
//!
//! The paper's framework is macro-type oriented; this small buffer
//! demonstrates (and tests) that nothing in the generation pipeline is
//! specific to the IV-converter. It reuses the DC-transfer and
//! supply-current configuration shapes with voltage stimulus.

use std::sync::Arc;

use castg_core::{AnalogMacro, TestConfiguration};
use castg_faults::{
    exhaustive_bridge_faults, exhaustive_pinhole_faults, FaultDictionary,
};
use castg_spice::{Circuit, MosParams, MosPolarity, Waveform};

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

/// A five-transistor NMOS-input OTA wired as a unity-gain voltage
/// follower. Fault sites: `vdd`, `vin`, `tail`, `nmir`, `out` (10
/// bridges) plus 5 pinholes — a 15-fault dictionary.
///
/// # Example
///
/// ```
/// use castg_core::AnalogMacro;
/// use castg_macros::OtaBuffer;
///
/// let ota = OtaBuffer::new();
/// assert_eq!(ota.fault_dictionary().len(), 15);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OtaBuffer {
    _private: (),
}

impl OtaBuffer {
    /// Creates the buffer macro.
    pub fn new() -> Self {
        OtaBuffer { _private: () }
    }

    /// Builds the netlist.
    pub fn build_circuit(&self) -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let tail = c.node("tail");
        let nmir = c.node("nmir");
        let out = c.node("out");
        let gnd = Circuit::GROUND;

        c.add_vsource("VDD", vdd, gnd, Waveform::dc(5.0)).expect("fresh netlist");
        c.add_vsource("VIN", vin, gnd, Waveform::dc(2.5)).expect("fresh netlist");
        // NMOS diff pair, PMOS mirror load, NMOS tail sink biased by a
        // resistor-set mirror.
        let n = MosParams::nmos_default(40e-6, 2e-6);
        let p = MosParams::pmos_default(80e-6, 2e-6);
        c.add_mosfet("M1", nmir, vin, tail, gnd, MosPolarity::Nmos, n).expect("fresh netlist");
        // Feedback: gate of M2 is the output (unity follower).
        c.add_mosfet("M2", out, out, tail, gnd, MosPolarity::Nmos, n).expect("fresh netlist");
        c.add_mosfet("M3", nmir, nmir, vdd, vdd, MosPolarity::Pmos, p).expect("fresh netlist");
        c.add_mosfet("M4", out, nmir, vdd, vdd, MosPolarity::Pmos, p).expect("fresh netlist");
        // Tail current sink: diode-connected reference through RB.
        let bias = c.node("bias");
        c.add_resistor("RB", vdd, bias, 120e3).expect("fresh netlist");
        c.add_mosfet(
            "M5B",
            bias,
            bias,
            gnd,
            gnd,
            MosPolarity::Nmos,
            MosParams::nmos_default(20e-6, 2e-6),
        )
        .expect("fresh netlist");
        c.add_mosfet(
            "M5",
            tail,
            bias,
            gnd,
            gnd,
            MosPolarity::Nmos,
            MosParams::nmos_default(40e-6, 2e-6),
        )
        .expect("fresh netlist");
        c.add_capacitor("CL", out, gnd, 2e-12).expect("fresh netlist");
        c
    }
}

impl AnalogMacro for OtaBuffer {
    fn name(&self) -> &str {
        "ota_buffer"
    }

    fn macro_type(&self) -> &str {
        "OTA-buffer"
    }

    fn nominal_circuit(&self) -> Circuit {
        self.build_circuit()
    }

    fn fault_site_nodes(&self) -> Vec<String> {
        ["vdd", "vin", "tail", "nmir", "out"].iter().map(|s| s.to_string()).collect()
    }

    fn fault_dictionary(&self) -> FaultDictionary {
        let nodes = self.fault_site_nodes();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        let mut dict = FaultDictionary::new(exhaustive_bridge_faults(&refs, 10e3));
        // Pinholes on the five signal-path transistors.
        let names: Vec<String> =
            ["M1", "M2", "M3", "M4", "M5"].iter().map(|s| s.to_string()).collect();
        dict.extend(exhaustive_pinhole_faults(&names, 2e3));
        dict
    }

    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>> {
        crate::described(&OTA_CONFIGS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castg_spice::DcAnalysis;

    #[test]
    fn buffer_follows_input() {
        let ota = OtaBuffer::new();
        let mut c = ota.build_circuit();
        for vin in [1.8, 2.5, 3.2] {
            c.set_stimulus("VIN", Waveform::dc(vin)).unwrap();
            let sol = DcAnalysis::new(&c).solve().unwrap();
            let out = sol.voltage(c.find_node("out").unwrap());
            assert!((out - vin).abs() < 0.1, "vin {vin} → out {out}");
        }
    }

    #[test]
    fn dictionary_has_fifteen_faults() {
        let ota = OtaBuffer::new();
        let dict = ota.fault_dictionary();
        assert_eq!(dict.len(), 15);
        let c = ota.build_circuit();
        for f in dict.iter() {
            f.inject(&c).unwrap();
        }
    }

    #[test]
    fn generation_works_on_the_second_macro() {
        // End-to-end proof that the pipeline is macro-agnostic.
        let ota = OtaBuffer::new();
        let cache = castg_core::NominalCache::new();
        let gen = castg_core::Generator::new(&ota, &cache);
        let fault = castg_faults::Fault::bridge("out", "tail", 10e3);
        let best = gen.generate_for_fault(&fault).unwrap();
        assert!(best.config_id == 1 || best.config_id == 2);
        assert!(!best.params.is_empty());
    }
}
