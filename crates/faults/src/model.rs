use std::fmt;

use castg_spice::{Circuit, DeviceKind};

use crate::FaultError;

/// Fraction of the channel length from the drain at which the pinhole
/// defect sits. The paper adopts Eckersall's observation that defects
/// near the drain have low detectability and fixes the position at 25 %
/// of the channel length from the drain (§3.4).
pub const PINHOLE_POSITION_FROM_DRAIN: f64 = 0.25;

/// The two fault classes of the paper's dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Resistive short between two nodes.
    Bridge,
    /// Gate-oxide pinhole short into the channel.
    Pinhole,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Bridge => write!(f, "bridge"),
            FaultKind::Pinhole => write!(f, "pinhole"),
        }
    }
}

/// Which pn junction of a diode or BJT a junction pinhole shorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Junction {
    /// The diode's anode–cathode junction.
    AnodeCathode,
    /// A BJT's base–emitter junction.
    BaseEmitter,
    /// A BJT's base–collector junction.
    BaseCollector,
}

impl fmt::Display for Junction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Junction::AnodeCathode => write!(f, "ak"),
            Junction::BaseEmitter => write!(f, "be"),
            Junction::BaseCollector => write!(f, "bc"),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Descriptor {
    Bridge { node_a: String, node_b: String, base_ohms: f64 },
    Pinhole { device: String, position: f64, base_ohms: f64 },
    JunctionPinhole { device: String, junction: Junction, base_ohms: f64 },
}

/// One modeled fault: a location, a fault type, a dictionary ("initial
/// impact") resistance, and a multiplicative impact scale.
///
/// The *impact* of a fault reflects the physical size of the defect
/// (§2.2). For both models a **larger resistance means a weaker fault**:
/// scale > 1 weakens the dictionary fault, scale < 1 intensifies it.
/// Locations are recorded as node/device *names* so a fault can be
/// injected into any circuit variant of the same macro (nominal, process
/// Monte-Carlo samples, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    descriptor: Descriptor,
    impact_scale: f64,
}

impl Fault {
    /// A bridging fault between two named nodes with the dictionary
    /// resistance `base_ohms`.
    pub fn bridge(node_a: impl Into<String>, node_b: impl Into<String>, base_ohms: f64) -> Self {
        Fault {
            descriptor: Descriptor::Bridge {
                node_a: node_a.into(),
                node_b: node_b.into(),
                base_ohms,
            },
            impact_scale: 1.0,
        }
    }

    /// A pinhole fault in the named MOSFET with dictionary shunt
    /// `base_ohms`, at the paper's standard position
    /// ([`PINHOLE_POSITION_FROM_DRAIN`]).
    pub fn pinhole(device: impl Into<String>, base_ohms: f64) -> Self {
        Fault {
            descriptor: Descriptor::Pinhole {
                device: device.into(),
                position: PINHOLE_POSITION_FROM_DRAIN,
                base_ohms,
            },
            impact_scale: 1.0,
        }
    }

    /// A pinhole fault at an explicit channel position (fraction of the
    /// channel length from the drain, in `(0, 1)`).
    ///
    /// # Panics
    ///
    /// Panics if `position` is outside the open interval `(0, 1)`.
    pub fn pinhole_at(device: impl Into<String>, base_ohms: f64, position: f64) -> Self {
        assert!(
            position > 0.0 && position < 1.0,
            "pinhole position must be in (0, 1), got {position}"
        );
        Fault {
            descriptor: Descriptor::Pinhole { device: device.into(), position, base_ohms },
            impact_scale: 1.0,
        }
    }

    /// A pinhole defect through a pn junction of the named diode or
    /// BJT: a resistive short across the junction's two terminals with
    /// dictionary resistance `base_ohms`. Diodes take
    /// [`Junction::AnodeCathode`]; BJTs take [`Junction::BaseEmitter`]
    /// or [`Junction::BaseCollector`].
    pub fn junction_pinhole(
        device: impl Into<String>,
        junction: Junction,
        base_ohms: f64,
    ) -> Self {
        Fault {
            descriptor: Descriptor::JunctionPinhole {
                device: device.into(),
                junction,
                base_ohms,
            },
            impact_scale: 1.0,
        }
    }

    /// The fault class.
    pub fn kind(&self) -> FaultKind {
        match self.descriptor {
            Descriptor::Bridge { .. } => FaultKind::Bridge,
            Descriptor::Pinhole { .. } | Descriptor::JunctionPinhole { .. } => FaultKind::Pinhole,
        }
    }

    /// A stable human-readable name, e.g. `bridge(out,inn)`,
    /// `pinhole(M3)` or `pinhole(Q1:be)`.
    pub fn name(&self) -> String {
        match &self.descriptor {
            Descriptor::Bridge { node_a, node_b, .. } => format!("bridge({node_a},{node_b})"),
            Descriptor::Pinhole { device, .. } => format!("pinhole({device})"),
            Descriptor::JunctionPinhole { device, junction, .. } => {
                match junction {
                    // A diode has one junction; the label would be noise.
                    Junction::AnodeCathode => format!("pinhole({device})"),
                    _ => format!("pinhole({device}:{junction})"),
                }
            }
        }
    }

    /// The dictionary (scale = 1) model resistance in ohms.
    pub fn base_resistance(&self) -> f64 {
        match &self.descriptor {
            Descriptor::Bridge { base_ohms, .. }
            | Descriptor::Pinhole { base_ohms, .. }
            | Descriptor::JunctionPinhole { base_ohms, .. } => *base_ohms,
        }
    }

    /// The current impact scale (1 = dictionary impact; larger = weaker).
    pub fn impact_scale(&self) -> f64 {
        self.impact_scale
    }

    /// Returns a copy of the fault with the given impact scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn with_impact_scale(&self, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "impact scale must be positive, got {scale}");
        Fault { descriptor: self.descriptor.clone(), impact_scale: scale }
    }

    /// Returns a weakened copy (impact scale multiplied by `factor > 1`).
    pub fn weakened(&self, factor: f64) -> Self {
        self.with_impact_scale(self.impact_scale * factor)
    }

    /// Returns an intensified copy (impact scale divided by `factor > 1`).
    pub fn intensified(&self, factor: f64) -> Self {
        self.with_impact_scale(self.impact_scale / factor)
    }

    /// The effective model resistance: `base · scale`.
    pub fn effective_resistance(&self) -> f64 {
        self.base_resistance() * self.impact_scale
    }

    /// Builds a faulty copy of `circuit` with this fault's model inserted.
    ///
    /// * Bridge: adds resistor `F_bridge` between the two named nodes.
    /// * Junction pinhole: adds resistor `F_pinhole` across the named
    ///   diode/BJT junction's terminals — a pure additive patch, like a
    ///   bridge.
    /// * Pinhole: replaces the target MOSFET `M` by two series segments
    ///   (`M__d` of length `position·L` on the drain side, `M__s` of
    ///   length `(1−position)·L` on the source side, joined at new node
    ///   `M__ph`) and shunts the gate to the joint through `F_pinhole`
    ///   (the Eckersall model of the paper's Fig. 7).
    ///
    /// # Delta injection
    ///
    /// When `circuit` carries a compiled assembly schedule (see
    /// [`Circuit::compile_plan`]), a variant that adds one resistor
    /// *shares and patches* it instead of recompiling: a **bridge** or
    /// a **junction pinhole** is a pure delta-stamp — up to four
    /// conductance ops appended to the nominal plan, no netlist walk,
    /// and a sparse pattern merged with at most two new slots. A MOS
    /// **pinhole** is structural (it removes the transistor and interns
    /// the mid-channel node), so its variant recompiles once, amortized
    /// across all tests of a campaign. A patched variant is
    /// bit-identical to the same variant after
    /// [`Circuit::drop_compiled_plan`]; the campaign differential
    /// harness pins this.
    ///
    /// # Errors
    ///
    /// [`FaultError::UnknownNode`] / [`FaultError::UnknownDevice`] /
    /// [`FaultError::NotAMosfet`] / [`FaultError::DegenerateBridge`] when
    /// the fault does not apply to this circuit, and
    /// [`FaultError::Netlist`] if injected names collide with existing
    /// devices.
    pub fn inject(&self, circuit: &Circuit) -> Result<Circuit, FaultError> {
        let mut faulty = circuit.clone();
        match &self.descriptor {
            Descriptor::Bridge { node_a, node_b, .. } => {
                let a = faulty
                    .find_node(node_a)
                    .ok_or_else(|| FaultError::UnknownNode { name: node_a.clone() })?;
                let b = faulty
                    .find_node(node_b)
                    .ok_or_else(|| FaultError::UnknownNode { name: node_b.clone() })?;
                if a == b {
                    return Err(FaultError::DegenerateBridge { name: node_a.clone() });
                }
                faulty.add_resistor("F_bridge", a, b, self.effective_resistance())?;
            }
            Descriptor::JunctionPinhole { device, junction, .. } => {
                let dev = faulty
                    .device(device)
                    .ok_or_else(|| FaultError::UnknownDevice { name: device.clone() })?;
                let (a, b) = match (dev.kind(), junction) {
                    (DeviceKind::Diode { a, k, .. }, Junction::AnodeCathode) => (*a, *k),
                    (DeviceKind::Bjt { b, e, .. }, Junction::BaseEmitter) => (*b, *e),
                    (DeviceKind::Bjt { c, b, .. }, Junction::BaseCollector) => (*b, *c),
                    _ => {
                        return Err(FaultError::NoSuchJunction {
                            name: device.clone(),
                            junction: junction.to_string(),
                        })
                    }
                };
                faulty.add_resistor("F_pinhole", a, b, self.effective_resistance())?;
            }
            Descriptor::Pinhole { device, position, .. } => {
                let dev = faulty
                    .device(device)
                    .ok_or_else(|| FaultError::UnknownDevice { name: device.clone() })?;
                let (d, g, s, b, polarity, params) = match dev.kind() {
                    DeviceKind::Mosfet { d, g, s, b, polarity, params } => {
                        (*d, *g, *s, *b, *polarity, *params)
                    }
                    _ => return Err(FaultError::NotAMosfet { name: device.clone() }),
                };
                faulty.remove(device)?;
                let mid = faulty.node(&format!("{device}__ph"));
                // Drain-side segment: `position` of the channel length.
                let mut p_drain = params;
                p_drain.l = params.l * position;
                let mut p_source = params;
                p_source.l = params.l * (1.0 - position);
                faulty.add_mosfet(&format!("{device}__d"), d, g, mid, b, polarity, p_drain)?;
                faulty.add_mosfet(&format!("{device}__s"), mid, g, s, b, polarity, p_source)?;
                faulty.add_resistor("F_pinhole", g, mid, self.effective_resistance())?;
            }
        }
        Ok(faulty)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [R = {:.3e} Ω, scale = {:.3}]",
            self.name(),
            self.effective_resistance(),
            self.impact_scale
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castg_spice::{DcAnalysis, MosParams, MosPolarity, Waveform};

    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        c
    }

    #[test]
    fn bridge_changes_operating_point() {
        let c = divider();
        let fault = Fault::bridge("b", "0", 1e3); // halves the lower leg
        let faulty = fault.inject(&c).unwrap();
        let v_nom = DcAnalysis::new(&c).solve().unwrap().voltage(c.find_node("b").unwrap());
        let v_flt =
            DcAnalysis::new(&faulty).solve().unwrap().voltage(faulty.find_node("b").unwrap());
        assert!((v_nom - 1.0).abs() < 1e-6);
        assert!((v_flt - 2.0 / 3.0).abs() < 1e-6, "v_flt {v_flt}");
    }

    #[test]
    fn bridge_validates_nodes() {
        let c = divider();
        assert!(matches!(
            Fault::bridge("nope", "b", 1e3).inject(&c),
            Err(FaultError::UnknownNode { .. })
        ));
        assert!(matches!(
            Fault::bridge("b", "b", 1e3).inject(&c),
            Err(FaultError::DegenerateBridge { .. })
        ));
    }

    #[test]
    fn impact_scaling_multiplies_resistance() {
        let f = Fault::bridge("a", "b", 10e3);
        assert_eq!(f.effective_resistance(), 10e3);
        assert_eq!(f.weakened(4.0).effective_resistance(), 40e3);
        assert_eq!(f.intensified(2.0).effective_resistance(), 5e3);
        assert_eq!(f.with_impact_scale(0.1).effective_resistance(), 1e3);
        // The original is unchanged (copies are returned).
        assert_eq!(f.impact_scale(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn impact_scale_must_be_positive() {
        Fault::bridge("a", "b", 1e3).with_impact_scale(0.0);
    }

    #[test]
    fn pinhole_splits_transistor_and_adds_shunt() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.add_vsource("VD", d, Circuit::GROUND, Waveform::dc(3.0)).unwrap();
        c.add_vsource("VG", g, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        c.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            MosParams::nmos_default(10e-6, 2e-6),
        )
        .unwrap();

        let faulty = Fault::pinhole("M1", 2e3).inject(&c).unwrap();
        assert!(faulty.device("M1").is_none());
        assert!(faulty.device("M1__d").is_some());
        assert!(faulty.device("M1__s").is_some());
        assert!(faulty.device("F_pinhole").is_some());
        assert!(faulty.find_node("M1__ph").is_some());
        // Channel lengths: 25 % on the drain side, 75 % on the source side.
        match faulty.device("M1__d").unwrap().kind() {
            DeviceKind::Mosfet { params, .. } => assert!((params.l - 0.5e-6).abs() < 1e-12),
            k => panic!("unexpected {k:?}"),
        }
        match faulty.device("M1__s").unwrap().kind() {
            DeviceKind::Mosfet { params, .. } => assert!((params.l - 1.5e-6).abs() < 1e-12),
            k => panic!("unexpected {k:?}"),
        }
        // The faulty circuit must still solve.
        let sol = DcAnalysis::new(&faulty).solve().unwrap();
        // The pinhole pulls gate current: VG's branch current is nonzero.
        let ig = sol.source_current("VG").unwrap();
        assert!(ig.abs() > 1e-9, "gate current {ig}");
    }

    #[test]
    fn junction_pinhole_shorts_the_right_terminals() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        let cb = c.node("cb");
        c.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_diode("D1", vin, out, castg_spice::DiodeParams::signal_default()).unwrap();
        c.add_resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        c.add_resistor("RB", vin, cb, 100e3).unwrap();
        c.add_bjt(
            "Q1",
            vin,
            cb,
            Circuit::GROUND,
            castg_spice::BjtPolarity::Npn,
            castg_spice::BjtParams::signal_default(),
        )
        .unwrap();

        // Diode a–k short: out rises toward vin through the 2k shunt.
        let f = Fault::junction_pinhole("D1", Junction::AnodeCathode, 2e3);
        assert_eq!(f.name(), "pinhole(D1)");
        assert_eq!(f.kind(), FaultKind::Pinhole);
        let faulty = f.inject(&c).unwrap();
        let dev = faulty.device("F_pinhole").unwrap();
        assert_eq!(dev.nodes(), c.device("D1").unwrap().nodes());

        // BJT b–e short drags the base to ground through 2k.
        let f_be = Fault::junction_pinhole("Q1", Junction::BaseEmitter, 2e3);
        assert_eq!(f_be.name(), "pinhole(Q1:be)");
        let v_nom = DcAnalysis::new(&c).solve().unwrap().voltage(c.find_node("cb").unwrap());
        let faulty = f_be.inject(&c).unwrap();
        let v_flt =
            DcAnalysis::new(&faulty).solve().unwrap().voltage(faulty.find_node("cb").unwrap());
        assert!(v_flt < v_nom, "b–e short must drop the base: {v_flt} vs {v_nom}");

        // BJT b–c junction names both terminals.
        let f_bc = Fault::junction_pinhole("Q1", Junction::BaseCollector, 2e3);
        assert_eq!(f_bc.name(), "pinhole(Q1:bc)");
        let faulty = f_bc.inject(&c).unwrap();
        let dev = faulty.device("F_pinhole").unwrap();
        assert!(dev.nodes().contains(&c.find_node("cb").unwrap()));
        assert!(dev.nodes().contains(&c.find_node("vin").unwrap()));
    }

    #[test]
    fn junction_pinhole_rejects_wrong_kinds() {
        let mut c = divider();
        let (a, b) = (c.find_node("a").unwrap(), c.find_node("b").unwrap());
        c.add_diode("D1", a, b, castg_spice::DiodeParams::signal_default()).unwrap();
        assert!(matches!(
            Fault::junction_pinhole("R1", Junction::AnodeCathode, 2e3).inject(&c),
            Err(FaultError::NoSuchJunction { .. })
        ));
        assert!(matches!(
            Fault::junction_pinhole("D1", Junction::BaseEmitter, 2e3).inject(&c),
            Err(FaultError::NoSuchJunction { .. })
        ));
        assert!(matches!(
            Fault::junction_pinhole("D9", Junction::AnodeCathode, 2e3).inject(&c),
            Err(FaultError::UnknownDevice { .. })
        ));
    }

    #[test]
    fn pinhole_rejects_non_mosfets_and_missing_devices() {
        let c = divider();
        assert!(matches!(
            Fault::pinhole("R1", 2e3).inject(&c),
            Err(FaultError::NotAMosfet { .. })
        ));
        assert!(matches!(
            Fault::pinhole("M9", 2e3).inject(&c),
            Err(FaultError::UnknownDevice { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "position")]
    fn pinhole_position_validated() {
        Fault::pinhole_at("M1", 2e3, 1.5);
    }

    #[test]
    fn names_and_display() {
        let f = Fault::bridge("out", "inn", 10e3);
        assert_eq!(f.name(), "bridge(out,inn)");
        assert_eq!(f.kind(), FaultKind::Bridge);
        assert!(f.to_string().contains("bridge(out,inn)"));
        let p = Fault::pinhole("M3", 2e3);
        assert_eq!(p.name(), "pinhole(M3)");
        assert_eq!(p.kind(), FaultKind::Pinhole);
        assert_eq!(format!("{}", FaultKind::Pinhole), "pinhole");
    }

    /// Delta injection (patched plan, the default when the base is
    /// compiled) must solve bit-identically to the recompile reference
    /// path, for both fault models.
    #[test]
    fn delta_injection_matches_rebuilt_bitwise() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.add_vsource("VD", d, Circuit::GROUND, Waveform::dc(3.0)).unwrap();
        c.add_vsource("VG", g, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        c.add_resistor("RL", d, g, 50e3).unwrap();
        c.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            MosParams::nmos_default(10e-6, 2e-6),
        )
        .unwrap();
        c.compile_plan();

        for fault in [Fault::bridge("d", "g", 1e3), Fault::pinhole("M1", 2e3)] {
            let patched = fault.inject(&c).unwrap();
            let mut rebuilt = fault.inject(&c).unwrap();
            rebuilt.drop_compiled_plan();
            assert_eq!(patched, rebuilt, "{}: netlists must agree", fault.name());
            let sp = DcAnalysis::new(&patched).solve().unwrap();
            let sr = DcAnalysis::new(&rebuilt).solve().unwrap();
            for (a, b) in sp.state().iter().zip(sr.state()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", fault.name());
            }
        }
    }

    #[test]
    fn injection_does_not_mutate_original() {
        let c = divider();
        let before = c.clone();
        let _ = Fault::bridge("a", "b", 1e3).inject(&c).unwrap();
        assert_eq!(c, before);
    }
}
