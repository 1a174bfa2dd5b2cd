//! A third macro: a two-stage bipolar op-amp unity-gain follower.
//!
//! Where [`OtaBuffer`](crate::OtaBuffer) proves the pipeline is not
//! IV-converter specific, this macro proves it is not *MOS* specific:
//! every nonlinear device is a pn junction — an NPN diff pair, a PNP
//! second stage, a diode bias chain and an NPN tail sink — so fault
//! simulation exercises the junction-limited Newton path and the
//! dictionary carries junction pinholes instead of gate-oxide ones.

use std::sync::Arc;

use castg_core::{AnalogMacro, TestConfiguration};
use castg_faults::{exhaustive_bridge_faults, Fault, FaultDictionary, Junction};
use castg_spice::{BjtParams, BjtPolarity, Circuit, DiodeParams, Waveform};

/// The two test configurations — DC follower output and VCC supply
/// current — as the committed `tests/fixtures/bjt_configs/*.cfg`
/// descriptions, byte for byte.
const BJT_CONFIGS: [&str; 2] = [
    include_str!("../../../tests/fixtures/bjt_configs/1_dc_follow.cfg"),
    include_str!("../../../tests/fixtures/bjt_configs/2_supply_current.cfg"),
];

/// A two-stage bipolar op-amp wired as a unity-gain voltage follower:
/// NPN diff pair (Q1/Q2) with 4 kΩ collector loads, PNP common-emitter
/// second stage (Q3), and a tail current sink (Q4) biased by a
/// two-diode chain (D1/D2). Fault sites: `vcc`, `vin`, `tail`, `c1`,
/// `c2`, `out`, `bias` (21 bridges) plus 10 junction pinholes (D1/D2
/// anode–cathode, Q1–Q4 base–emitter and base–collector) — a 31-fault
/// dictionary.
///
/// # Example
///
/// ```
/// use castg_core::AnalogMacro;
/// use castg_macros::BjtOpAmp;
///
/// let amp = BjtOpAmp::new();
/// assert_eq!(amp.fault_dictionary().len(), 31);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BjtOpAmp {
    _private: (),
}

impl BjtOpAmp {
    /// Creates the follower macro.
    pub fn new() -> Self {
        BjtOpAmp { _private: () }
    }

    /// Builds the netlist.
    pub fn build_circuit(&self) -> Circuit {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let vin = c.node("vin");
        let tail = c.node("tail");
        let c1 = c.node("c1");
        let c2 = c.node("c2");
        let out = c.node("out");
        let bias = c.node("bias");
        let gnd = Circuit::GROUND;

        c.add_vsource("VCC", vcc, gnd, Waveform::dc(5.0)).expect("fresh netlist");
        c.add_vsource("VIN", vin, gnd, Waveform::dc(2.5)).expect("fresh netlist");

        let npn = BjtParams::signal_default();
        let pnp = BjtParams::signal_default();
        // NPN diff pair: the input rides Q2's base; the feedback wire
        // from `out` closes the loop on Q1's base (the second stage
        // inverts once, the pair's c2 side inverts once — net negative
        // feedback, so the follower tracks the non-inverting Q2 input).
        c.add_bjt("Q1", c1, out, tail, BjtPolarity::Npn, npn).expect("fresh netlist");
        c.add_bjt("Q2", c2, vin, tail, BjtPolarity::Npn, npn).expect("fresh netlist");
        c.add_resistor("RC1", vcc, c1, 4e3).expect("fresh netlist");
        c.add_resistor("RC2", vcc, c2, 4e3).expect("fresh netlist");
        // PNP second stage with emitter degeneration, loaded by ROUT.
        let e3 = c.node("e3");
        c.add_resistor("RE3", vcc, e3, 1e3).expect("fresh netlist");
        c.add_bjt("Q3", out, c2, e3, BjtPolarity::Pnp, pnp).expect("fresh netlist");
        c.add_resistor("ROUT", out, gnd, 2e3).expect("fresh netlist");
        // Two-diode bias chain sets the tail sink Q4 to roughly 1 mA:
        // v(bias) ≈ 2 diode drops, Q4 loses one V_BE, RE4 sees the rest.
        let bmid = c.node("bmid");
        let e4 = c.node("e4");
        c.add_resistor("RB", vcc, bias, 10e3).expect("fresh netlist");
        c.add_diode("D1", bias, bmid, DiodeParams::signal_default()).expect("fresh netlist");
        c.add_diode("D2", bmid, gnd, DiodeParams::signal_default()).expect("fresh netlist");
        c.add_bjt("Q4", tail, bias, e4, BjtPolarity::Npn, npn).expect("fresh netlist");
        c.add_resistor("RE4", e4, gnd, 600.0).expect("fresh netlist");
        c.add_capacitor("CL", out, gnd, 2e-12).expect("fresh netlist");
        c
    }
}

impl AnalogMacro for BjtOpAmp {
    fn name(&self) -> &str {
        "bjt_opamp"
    }

    fn macro_type(&self) -> &str {
        "BJT-opamp"
    }

    fn nominal_circuit(&self) -> Circuit {
        self.build_circuit()
    }

    fn fault_site_nodes(&self) -> Vec<String> {
        ["vcc", "vin", "tail", "c1", "c2", "out", "bias"].iter().map(|s| s.to_string()).collect()
    }

    fn fault_dictionary(&self) -> FaultDictionary {
        let nodes = self.fault_site_nodes();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        let mut dict = FaultDictionary::new(exhaustive_bridge_faults(&refs, 10e3));
        // Junction pinholes: one per diode, two per BJT.
        dict.extend(vec![
            Fault::junction_pinhole("D1", Junction::AnodeCathode, 2e3),
            Fault::junction_pinhole("D2", Junction::AnodeCathode, 2e3),
        ]);
        let mut bjt = Vec::new();
        for q in ["Q1", "Q2", "Q3", "Q4"] {
            bjt.push(Fault::junction_pinhole(q, Junction::BaseEmitter, 2e3));
            bjt.push(Fault::junction_pinhole(q, Junction::BaseCollector, 2e3));
        }
        dict.extend(bjt);
        dict
    }

    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>> {
        crate::described(&BJT_CONFIGS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castg_spice::DcAnalysis;

    #[test]
    fn follower_tracks_its_input() {
        let amp = BjtOpAmp::new();
        let mut c = amp.build_circuit();
        for vin in [1.8, 2.5, 3.2] {
            c.set_stimulus("VIN", Waveform::dc(vin)).unwrap();
            let sol = DcAnalysis::new(&c).solve().unwrap();
            let out = sol.voltage(c.find_node("out").unwrap());
            assert!((out - vin).abs() < 0.1, "vin {vin} → out {out}");
        }
    }

    #[test]
    fn dictionary_has_thirty_one_faults() {
        let amp = BjtOpAmp::new();
        let dict = amp.fault_dictionary();
        assert_eq!(dict.len(), 31);
        assert_eq!(dict.count(castg_faults::FaultKind::Bridge), 21);
        assert_eq!(dict.count(castg_faults::FaultKind::Pinhole), 10);
        let c = amp.build_circuit();
        for f in dict.iter() {
            f.inject(&c).unwrap();
        }
    }

    #[test]
    fn generation_works_on_the_bipolar_macro() {
        // End-to-end proof that nothing in the pipeline assumes MOS.
        let amp = BjtOpAmp::new();
        let cache = castg_core::NominalCache::new();
        let gen = castg_core::Generator::new(&amp, &cache);
        let fault = Fault::junction_pinhole("Q2", Junction::BaseEmitter, 2e3);
        let best = gen.generate_for_fault(&fault).unwrap();
        assert!(best.config_id == 1 || best.config_id == 2);
        assert!(!best.params.is_empty());
    }
}
