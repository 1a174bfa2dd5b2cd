use crate::bjt::{BjtParams, BjtPolarity};
use crate::diode::DiodeParams;
use crate::mos::{MosParams, MosPolarity};
use crate::node::NodeId;
use crate::stimulus::Waveform;

/// The concrete electrical element a [`Device`] represents.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceKind {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (> 0).
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b` (open in DC).
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (> 0).
        farads: f64,
    },
    /// Linear inductor between `a` and `b` (a short in DC; adds one MNA
    /// branch-current unknown carrying the inductor current).
    Inductor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries (> 0).
        henries: f64,
    },
    /// Independent voltage source from `pos` to `neg` (adds one MNA
    /// branch-current unknown).
    Vsource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Source value over time.
        wave: Waveform,
    },
    /// Independent current source driving current *out of* `from` and
    /// *into* `to` (through the source).
    Isource {
        /// Terminal the current is pulled out of.
        from: NodeId,
        /// Terminal the current is pushed into.
        to: NodeId,
        /// Source value over time.
        wave: Waveform,
    },
    /// Level-1 MOSFET.
    Mosfet {
        /// Drain terminal.
        d: NodeId,
        /// Gate terminal.
        g: NodeId,
        /// Source terminal.
        s: NodeId,
        /// Bulk/body terminal.
        b: NodeId,
        /// Channel polarity.
        polarity: MosPolarity,
        /// Model parameters.
        params: MosParams,
    },
    /// Voltage-controlled voltage source:
    /// `v(pos) − v(neg) = gain · (v(cp) − v(cn))`.
    Vcvs {
        /// Positive output terminal.
        pos: NodeId,
        /// Negative output terminal.
        neg: NodeId,
        /// Positive controlling terminal.
        cp: NodeId,
        /// Negative controlling terminal.
        cn: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Junction diode from anode `a` to cathode `k` (Shockley with
    /// series resistance and pn-junction limiting; see
    /// [`DiodeParams`]).
    Diode {
        /// Anode terminal.
        a: NodeId,
        /// Cathode terminal.
        k: NodeId,
        /// Model parameters.
        params: DiodeParams,
    },
    /// Bipolar junction transistor (Ebers-Moll; see [`BjtParams`]).
    Bjt {
        /// Collector terminal.
        c: NodeId,
        /// Base terminal.
        b: NodeId,
        /// Emitter terminal.
        e: NodeId,
        /// NPN or PNP.
        polarity: BjtPolarity,
        /// Model parameters.
        params: BjtParams,
    },
    /// Voltage-controlled current source: current
    /// `gm · (v(cp) − v(cn))` flows from `pos` through the source into
    /// `neg` (out of the `pos` node, into the `neg` node).
    Vccs {
        /// Terminal the controlled current leaves the circuit from.
        pos: NodeId,
        /// Terminal the controlled current returns into.
        neg: NodeId,
        /// Positive controlling terminal.
        cp: NodeId,
        /// Negative controlling terminal.
        cn: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// Current-controlled current source: current
    /// `gain · i(ctrl)` flows from `pos` through the source into `neg`,
    /// where `ctrl` names an already-added device that carries an MNA
    /// branch current (V/E/H/L).
    Cccs {
        /// Terminal the controlled current leaves the circuit from.
        pos: NodeId,
        /// Terminal the controlled current returns into.
        neg: NodeId,
        /// Name of the controlling branch-current device.
        ctrl: std::sync::Arc<str>,
        /// Current gain.
        gain: f64,
    },
    /// Current-controlled voltage source:
    /// `v(pos) − v(neg) = ohms · i(ctrl)` (adds one MNA branch-current
    /// unknown); `ctrl` names an already-added branch-current device.
    Ccvs {
        /// Positive output terminal.
        pos: NodeId,
        /// Negative output terminal.
        neg: NodeId,
        /// Name of the controlling branch-current device.
        ctrl: std::sync::Arc<str>,
        /// Transresistance in ohms.
        ohms: f64,
    },
}

/// A named circuit element.
///
/// Names identify devices for probing (source currents), fault injection
/// (replacing a MOSFET by its pinhole expansion) and reporting. Within a
/// [`Circuit`](crate::Circuit) names are unique.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// `Arc<str>`: fault campaigns clone whole netlists once per
    /// injected variant, and a shared name is a refcount bump instead
    /// of a heap copy. The same `Arc` keys the circuit's device index.
    name: std::sync::Arc<str>,
    kind: DeviceKind,
}

impl Device {
    /// Creates a device from a name and kind. Its values are checked
    /// when it is added to a circuit ([`Circuit::add`](crate::Circuit::add)).
    pub fn new(name: impl AsRef<str>, kind: DeviceKind) -> Self {
        Device { name: std::sync::Arc::from(name.as_ref()), kind }
    }

    /// The shared name handle (cheap to clone into index keys).
    pub(crate) fn name_arc(&self) -> std::sync::Arc<str> {
        std::sync::Arc::clone(&self.name)
    }

    /// The device's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The electrical element.
    pub fn kind(&self) -> &DeviceKind {
        &self.kind
    }

    /// Mutable access to the element, for in-place edits through
    /// [`Circuit::device_mut`](crate::Circuit::device_mut) (process
    /// variation retunes model parameters this way). Values changed here
    /// are not validated.
    pub fn kind_mut(&mut self) -> &mut DeviceKind {
        &mut self.kind
    }

    /// All nodes this device touches.
    pub fn nodes(&self) -> Vec<NodeId> {
        match &self.kind {
            DeviceKind::Resistor { a, b, .. }
            | DeviceKind::Capacitor { a, b, .. }
            | DeviceKind::Inductor { a, b, .. } => {
                vec![*a, *b]
            }
            DeviceKind::Vsource { pos, neg, .. } => vec![*pos, *neg],
            DeviceKind::Isource { from, to, .. } => vec![*from, *to],
            DeviceKind::Mosfet { d, g, s, b, .. } => vec![*d, *g, *s, *b],
            DeviceKind::Vcvs { pos, neg, cp, cn, .. } => vec![*pos, *neg, *cp, *cn],
            DeviceKind::Diode { a, k, .. } => vec![*a, *k],
            DeviceKind::Bjt { c, b, e, .. } => vec![*c, *b, *e],
            DeviceKind::Vccs { pos, neg, cp, cn, .. } => vec![*pos, *neg, *cp, *cn],
            DeviceKind::Cccs { pos, neg, .. } => vec![*pos, *neg],
            DeviceKind::Ccvs { pos, neg, .. } => vec![*pos, *neg],
        }
    }

    /// Whether this device contributes an MNA branch-current unknown.
    pub fn has_branch_current(&self) -> bool {
        matches!(
            self.kind,
            DeviceKind::Vsource { .. }
                | DeviceKind::Vcvs { .. }
                | DeviceKind::Inductor { .. }
                | DeviceKind::Ccvs { .. }
        )
    }

    /// The name of the branch-current device controlling this source,
    /// if it is current-controlled (F/H).
    pub fn controlling_device(&self) -> Option<&str> {
        match &self.kind {
            DeviceKind::Cccs { ctrl, .. } | DeviceKind::Ccvs { ctrl, .. } => Some(ctrl),
            _ => None,
        }
    }

    /// Why the device's values are unusable, if they are: the value
    /// check [`Circuit::add`](crate::Circuit::add) applies to every
    /// device. Source waveforms are not checked.
    pub(crate) fn invalid_value(&self) -> Option<String> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let non_negative = |v: f64| v.is_finite() && v >= 0.0;
        match &self.kind {
            DeviceKind::Resistor { ohms, .. } if !positive(*ohms) => {
                Some(format!("resistance must be positive and finite, got {ohms}"))
            }
            DeviceKind::Capacitor { farads, .. } if !positive(*farads) => {
                Some(format!("capacitance must be positive and finite, got {farads}"))
            }
            DeviceKind::Inductor { henries, .. } if !positive(*henries) => {
                Some(format!("inductance must be positive and finite, got {henries}"))
            }
            DeviceKind::Mosfet { params, .. } if !(params.w > 0.0 && params.l > 0.0) => {
                Some(format!("W and L must be positive, got W={} L={}", params.w, params.l))
            }
            DeviceKind::Diode { params: p, .. }
                if !(positive(p.is_sat)
                    && positive(p.n)
                    && non_negative(p.rs)
                    && non_negative(p.cj0)) =>
            {
                Some(format!(
                    "diode needs is>0, n>0, rs>=0, cj0>=0 (finite), got is={} n={} rs={} cj0={}",
                    p.is_sat, p.n, p.rs, p.cj0
                ))
            }
            DeviceKind::Bjt { params: p, .. }
                if !(positive(p.is_sat)
                    && positive(p.bf)
                    && positive(p.br)
                    && non_negative(p.cje)
                    && non_negative(p.cjc)) =>
            {
                Some(format!(
                    "bjt needs is>0, bf>0, br>0, cje>=0, cjc>=0 (finite), \
                     got is={} bf={} br={} cje={} cjc={}",
                    p.is_sat, p.bf, p.br, p.cje, p.cjc
                ))
            }
            DeviceKind::Vcvs { gain, .. } if !gain.is_finite() => {
                Some(format!("voltage gain must be finite, got {gain}"))
            }
            DeviceKind::Vccs { gm, .. } if !gm.is_finite() => {
                Some(format!("transconductance must be finite, got {gm}"))
            }
            DeviceKind::Cccs { gain, .. } if !gain.is_finite() => {
                Some(format!("current gain must be finite, got {gain}"))
            }
            DeviceKind::Ccvs { ohms, .. } if !ohms.is_finite() => {
                Some(format!("transresistance must be finite, got {ohms}"))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_enumerates_all_terminals() {
        let d = Device::new(
            "M1",
            DeviceKind::Mosfet {
                d: NodeId(1),
                g: NodeId(2),
                s: NodeId(3),
                b: NodeId(4),
                polarity: MosPolarity::Nmos,
                params: MosParams::nmos_default(1e-6, 1e-6),
            },
        );
        assert_eq!(d.nodes(), vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(d.name(), "M1");
    }

    #[test]
    fn branch_current_only_for_voltage_like_devices() {
        let v = Device::new(
            "V1",
            DeviceKind::Vsource { pos: NodeId(1), neg: NodeId(0), wave: Waveform::dc(1.0) },
        );
        let r = Device::new("R1", DeviceKind::Resistor { a: NodeId(1), b: NodeId(0), ohms: 1.0 });
        assert!(v.has_branch_current());
        assert!(!r.has_branch_current());
    }
}
