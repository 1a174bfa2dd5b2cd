//! The CMOS IV-converter macro — the device under test of the paper's
//! evaluation (§3.4).
//!
//! The original design is a photodetector transimpedance amplifier from
//! MESA \[9\] and is not public; this is a representative substitute with
//! the same structural signature: a two-stage Miller-compensated CMOS
//! op-amp with a resistive feedback network converting an input current
//! into an output voltage, with exactly **10 fault-site nodes** (so the
//! exhaustive bridge list has C(10,2) = 45 members) and **10
//! transistors** (10 pinhole faults) — the paper's 55-fault dictionary.
//!
//! Topology (single 5 V supply):
//!
//! * `M1/M2` — PMOS input pair (gates: `vref` / `inn`), `M5` PMOS tail
//!   source from `vdd`, `M3/M4` NMOS current-mirror load (`nmir`, `na`).
//! * `M6` — NMOS common-source output device, `M7` PMOS current-source
//!   load (`out`).
//! * `M8` (PMOS diode) / `M9` / `M10` (NMOS mirror) — bias chain fed by
//!   `IBIAS`, producing `biasp` / `biasn`.
//! * `Rz`+`Cc` — Miller compensation through `nz`; `RF`∥`CF` — the
//!   transimpedance feedback from `out` to `inn`.
//! * `R1/R2` + `Cref` — the `vref` mid-supply divider.
//! * `IIN` — the photodiode stimulus: a current source pulling `Iin`
//!   out of `inn`, so `V(out) = V(vref) + Iin · RF`.
//!
//! The linear output range is bounded by the class-A output stage: `M7`
//! can source ≈ 40 µA, so the macro clips for `Iin` approaching +40 µA —
//! which is exactly why the paper's THD configuration sweeps
//! `Iin_dc ∈ [0, 40 µA]`.

use castg_core::{AnalogMacro, TestConfiguration};
use castg_faults::{
    exhaustive_bridge_faults, exhaustive_pinhole_faults, FaultDictionary,
};
use castg_spice::{Circuit, MosParams, MosPolarity, Waveform};
use std::sync::Arc;

use crate::iv_configs::IV_CONFIGS;
use crate::BoxPolicy;

/// The IV-converter macro (see the module docs for the topology). Its
/// five test configurations are the committed
/// `tests/fixtures/iv_configs/*.cfg` descriptions; the [`BoxPolicy`]
/// picks their tolerance boxes.
#[derive(Debug, Clone)]
pub struct IvConverter {
    box_policy: BoxPolicy,
}

impl IvConverter {
    /// Dictionary impact of bridge faults (10 kΩ, §3.4).
    pub const BRIDGE_R0: f64 = 10e3;
    /// Dictionary impact of pinhole faults (2 kΩ, §3.4).
    pub const PINHOLE_R0: f64 = 2e3;

    /// Creates the macro with Monte-Carlo calibrated box-functions.
    pub fn new() -> Self {
        IvConverter { box_policy: BoxPolicy::calibrated_default() }
    }

    /// Creates the macro with the `.cfg` files' analytic boxes — much
    /// faster to start up; used by unit tests, the goldens and quick
    /// demos.
    pub fn with_analytic_boxes() -> Self {
        IvConverter { box_policy: BoxPolicy::Analytic }
    }

    /// Overrides the box policy.
    pub fn with_box_policy(mut self, policy: BoxPolicy) -> Self {
        self.box_policy = policy;
        self
    }

    /// Builds the netlist.
    pub fn build_circuit(&self) -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vref = c.node("vref");
        let inn = c.node("inn");
        let tail = c.node("tail");
        let nmir = c.node("nmir");
        let na = c.node("na");
        let nz = c.node("nz");
        let out = c.node("out");
        let biasp = c.node("biasp");
        let biasn = c.node("biasn");
        let gnd = Circuit::GROUND;

        // Supply and stimulus.
        c.add_vsource("VDD", vdd, gnd, Waveform::dc(5.0)).expect("fresh netlist");
        c.add_isource("IIN", inn, gnd, Waveform::dc(0.0)).expect("fresh netlist");

        // Reference divider.
        c.add_resistor("R1", vdd, vref, 200e3).expect("fresh netlist");
        c.add_resistor("R2", vref, gnd, 200e3).expect("fresh netlist");
        c.add_capacitor("CREF", vref, gnd, 5e-12).expect("fresh netlist");

        // Bias chain: IBIAS into the NMOS diode M10; M9 mirrors it into
        // the PMOS diode M8, generating biasp.
        c.add_isource("IBIAS", vdd, biasn, Waveform::dc(20e-6)).expect("fresh netlist");
        c.add_mosfet(
            "M10",
            biasn,
            biasn,
            gnd,
            gnd,
            MosPolarity::Nmos,
            MosParams::nmos_default(20e-6, 2e-6),
        )
        .expect("fresh netlist");
        c.add_mosfet(
            "M9",
            biasp,
            biasn,
            gnd,
            gnd,
            MosPolarity::Nmos,
            MosParams::nmos_default(20e-6, 2e-6),
        )
        .expect("fresh netlist");
        c.add_mosfet(
            "M8",
            biasp,
            biasp,
            vdd,
            vdd,
            MosPolarity::Pmos,
            MosParams::pmos_default(40e-6, 2e-6),
        )
        .expect("fresh netlist");

        // First stage: PMOS pair with NMOS mirror load.
        c.add_mosfet(
            "M5",
            tail,
            biasp,
            vdd,
            vdd,
            MosPolarity::Pmos,
            MosParams::pmos_default(40e-6, 2e-6),
        )
        .expect("fresh netlist");
        // The mirror-diode branch (M1 → M3) is the *inverting* input:
        // raising M1's gate reduces the mirrored pull-down on `na`,
        // raising `na`... — worked through the two stages, the output
        // falls. Feedback RF therefore closes from `out` to M1's gate.
        c.add_mosfet(
            "M1",
            nmir,
            inn,
            tail,
            vdd,
            MosPolarity::Pmos,
            MosParams::pmos_default(60e-6, 2e-6),
        )
        .expect("fresh netlist");
        c.add_mosfet(
            "M2",
            na,
            vref,
            tail,
            vdd,
            MosPolarity::Pmos,
            MosParams::pmos_default(60e-6, 2e-6),
        )
        .expect("fresh netlist");
        c.add_mosfet(
            "M3",
            nmir,
            nmir,
            gnd,
            gnd,
            MosPolarity::Nmos,
            MosParams::nmos_default(20e-6, 2e-6),
        )
        .expect("fresh netlist");
        c.add_mosfet(
            "M4",
            na,
            nmir,
            gnd,
            gnd,
            MosPolarity::Nmos,
            MosParams::nmos_default(20e-6, 2e-6),
        )
        .expect("fresh netlist");

        // Output stage.
        c.add_mosfet(
            "M6",
            out,
            na,
            gnd,
            gnd,
            MosPolarity::Nmos,
            MosParams::nmos_default(80e-6, 1e-6),
        )
        .expect("fresh netlist");
        c.add_mosfet(
            "M7",
            out,
            biasp,
            vdd,
            vdd,
            MosPolarity::Pmos,
            MosParams::pmos_default(80e-6, 2e-6),
        )
        .expect("fresh netlist");

        // Compensation and feedback.
        c.add_resistor("RZ", na, nz, 2e3).expect("fresh netlist");
        c.add_capacitor("CC", nz, out, 4e-12).expect("fresh netlist");
        c.add_resistor("RF", out, inn, 39e3).expect("fresh netlist");
        c.add_capacitor("CF", out, inn, 1.5e-12).expect("fresh netlist");
        c
    }
}

impl Default for IvConverter {
    fn default() -> Self {
        IvConverter::new()
    }
}

impl AnalogMacro for IvConverter {
    fn name(&self) -> &str {
        "iv_converter"
    }

    fn macro_type(&self) -> &str {
        "IV-converter"
    }

    fn nominal_circuit(&self) -> Circuit {
        self.build_circuit()
    }

    fn fault_site_nodes(&self) -> Vec<String> {
        ["vdd", "vref", "inn", "tail", "nmir", "na", "nz", "out", "biasp", "biasn"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    fn fault_dictionary(&self) -> FaultDictionary {
        let nodes = self.fault_site_nodes();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        let mut dict = FaultDictionary::new(exhaustive_bridge_faults(&refs, Self::BRIDGE_R0));
        let circuit = self.build_circuit();
        dict.extend(exhaustive_pinhole_faults(&circuit.mosfet_names(), Self::PINHOLE_R0));
        dict
    }

    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>> {
        self.box_policy.apply(&self.build_circuit(), crate::described(&IV_CONFIGS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castg_spice::{DcAnalysis, NodeId};

    fn solve(c: &Circuit) -> castg_spice::DcSolution {
        DcAnalysis::new(c).solve().expect("IV-converter operating point must converge")
    }

    fn node(c: &Circuit, name: &str) -> NodeId {
        c.find_node(name).unwrap()
    }

    #[test]
    fn operating_point_is_sane() {
        let iv = IvConverter::new();
        let c = iv.build_circuit();
        let sol = solve(&c);
        let v = |n: &str| sol.voltage(node(c_ref(&c), n));
        fn c_ref(c: &Circuit) -> &Circuit {
            c
        }
        assert!((v("vref") - 2.5).abs() < 0.05, "vref = {}", v("vref"));
        // Virtual ground: inn tracks vref through feedback.
        assert!((v("inn") - v("vref")).abs() < 0.05, "inn = {}, vref = {}", v("inn"), v("vref"));
        // Output sits at vref with zero input current.
        assert!((v("out") - v("vref")).abs() < 0.1, "out = {}", v("out"));
        // Bias nodes in plausible ranges.
        assert!(v("biasn") > 0.7 && v("biasn") < 1.5, "biasn = {}", v("biasn"));
        assert!(v("biasp") > 3.0 && v("biasp") < 4.5, "biasp = {}", v("biasp"));
        assert!(v("tail") > v("vref"), "tail = {}", v("tail"));
    }

    #[test]
    fn transimpedance_gain_matches_rf() {
        let iv = IvConverter::new();
        let mut c = iv.build_circuit();
        let out = node(&c, "out");
        let v0 = solve(&c).voltage(out);
        c.set_stimulus("IIN", Waveform::dc(10e-6)).unwrap();
        let v1 = solve(&c).voltage(out);
        let gain = (v1 - v0) / 10e-6;
        assert!((gain - 39e3).abs() / 39e3 < 0.03, "transimpedance {gain} vs RF 39 kΩ");
    }

    #[test]
    fn negative_input_current_swings_down() {
        let iv = IvConverter::new();
        let mut c = iv.build_circuit();
        c.set_stimulus("IIN", Waveform::dc(-30e-6)).unwrap();
        let sol = solve(&c);
        let vout = sol.voltage(node(&c, "out"));
        assert!((vout - (2.5 - 30e-6 * 39e3)).abs() < 0.15, "vout = {vout}");
    }

    #[test]
    fn output_clips_when_source_limited() {
        // Beyond M7's drive the feedback loop loses control: the output
        // should fall visibly short of the ideal vref + Iin·RF.
        let iv = IvConverter::new();
        let mut c = iv.build_circuit();
        c.set_stimulus("IIN", Waveform::dc(60e-6)).unwrap();
        let sol = solve(&c);
        let vout = sol.voltage(node(&c, "out"));
        let ideal = 2.5 + 60e-6 * 39e3; // 4.84 V
        assert!(vout < ideal - 0.2, "vout = {vout}, ideal = {ideal}");
    }

    #[test]
    fn fault_universe_matches_paper() {
        let iv = IvConverter::new();
        let dict = iv.fault_dictionary();
        assert_eq!(dict.len(), 55, "the paper's fault list has 55 members");
        assert_eq!(dict.count(castg_faults::FaultKind::Bridge), 45);
        assert_eq!(dict.count(castg_faults::FaultKind::Pinhole), 10);
        // Every fault injects into the nominal circuit.
        let c = iv.build_circuit();
        for f in dict.iter() {
            f.inject(&c).unwrap();
        }
    }

    #[test]
    fn all_faulty_circuits_have_dc_operating_points() {
        // The generation loop relies on faulted circuits being solvable
        // (or detectably non-convergent). Check the whole dictionary at
        // dictionary impact solves or fails gracefully.
        let iv = IvConverter::new();
        let c = iv.build_circuit();
        let mut solved = 0usize;
        for f in iv.fault_dictionary().iter() {
            let fc = f.inject(&c).unwrap();
            if DcAnalysis::new(&fc).solve().is_ok() {
                solved += 1;
            }
        }
        // At these impact levels every bridge/pinhole circuit should
        // still converge (they are resistive perturbations).
        assert!(solved >= 50, "only {solved}/55 faulty circuits solved");
    }

    #[test]
    fn supply_current_is_class_a_quiescent() {
        let iv = IvConverter::new();
        let c = iv.build_circuit();
        let sol = solve(&c);
        let idd = sol.source_current("VDD").unwrap();
        // Tail (20 µA) + output (40 µA) + bias (2×20 µA) + divider
        // (12.5 µA) ≈ 110–140 µA flowing out of VDD (negative in SPICE
        // convention).
        assert!(idd < -60e-6 && idd > -300e-6, "idd = {idd}");
    }
}
