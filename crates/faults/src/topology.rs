//! Dictionary-from-topology constructors: derive a fault dictionary
//! from a netlist alone.
//!
//! A macro that arrives as a *parsed deck* (the `castg-netlist`
//! frontend) — the paper's IV-converter among them — has no Rust code
//! to enumerate its faults, so these constructors derive them purely
//! from circuit structure:
//!
//! * bridge faults between nets — either **exhaustively** over every
//!   pair of non-ground nets (the paper's §3.4 enumeration: over the
//!   IV-converter's ten fault-site nodes, its 45 bridges), or
//!   restricted to **topologically adjacent** nets (nets sharing at
//!   least one device — physically plausible shorts between
//!   neighboring layout wires);
//! * pinhole faults at **every MOS gate** (one per transistor, the
//!   paper's rule).
//!
//! Both derivations are deterministic: nets are ordered by circuit
//! interning order and transistors by device insertion order, so a deck
//! written and re-parsed by the netlist round-trip produces the same
//! dictionary as the circuit it came from.

use castg_spice::Circuit;

use crate::{
    exhaustive_bridge_faults, exhaustive_pinhole_faults, Fault, FaultDictionary, Junction,
};

/// Which node pairs the derived bridge list covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BridgeDerivation {
    /// Every pair of non-ground nets: `C(n, 2)` bridges, mirroring the
    /// paper's exhaustive enumeration over the fault-site nodes.
    #[default]
    Exhaustive,
    /// Only pairs of nets sharing at least one device (including pairs
    /// with ground) — shorts between wires that plausibly neighbor each
    /// other in layout.
    Adjacent,
}

/// The non-ground nets of a circuit, in interning order — the derived
/// fault-site list of a parsed-deck macro.
pub fn fault_site_nets(circuit: &Circuit) -> Vec<String> {
    circuit.non_ground_nodes().map(|n| circuit.node_name(n).to_string()).collect()
}

/// Bridge faults between topologically adjacent nets: every unordered
/// pair of *distinct* nets (ground included) that appear together on
/// some device's terminal list, each at dictionary resistance
/// `base_ohms`. Pairs are emitted ordered by (first, second) net
/// interning order; each pair appears once.
pub fn adjacent_bridge_faults(circuit: &Circuit, base_ohms: f64) -> Vec<Fault> {
    let n = circuit.node_count();
    let mut seen = vec![false; n * n];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for dev in circuit.devices() {
        let nodes = dev.nodes();
        for (k, a) in nodes.iter().enumerate() {
            for b in &nodes[k + 1..] {
                let (lo, hi) = if a.index() <= b.index() {
                    (a.index(), b.index())
                } else {
                    (b.index(), a.index())
                };
                if lo == hi || seen[lo * n + hi] {
                    continue;
                }
                seen[lo * n + hi] = true;
                pairs.push((lo, hi));
            }
        }
    }
    pairs.sort_unstable();
    // Node ids are not constructible outside `castg-spice`; build an
    // index → name table through the node iterator instead.
    let mut names: Vec<&str> = vec!["0"; n];
    for id in circuit.non_ground_nodes() {
        names[id.index()] = circuit.node_name(id);
    }
    pairs
        .into_iter()
        .map(|(lo, hi)| Fault::bridge(names[lo], names[hi], base_ohms))
        .collect()
}

/// One pinhole fault per pn structure in the circuit: every MOSFET gate
/// (the paper's rule, device insertion order), then every diode's
/// anode–cathode junction, then both junctions (base–emitter, then
/// base–collector) of every BJT — all with dictionary shunt
/// `base_ohms`. Circuits without diodes or BJTs get exactly the
/// MOS-only list the original derivation produced, so the paper's
/// 55-fault IV-converter dictionary is unchanged.
pub fn topology_pinhole_faults(circuit: &Circuit, base_ohms: f64) -> Vec<Fault> {
    let mut faults = exhaustive_pinhole_faults(&circuit.mosfet_names(), base_ohms);
    for name in circuit.diode_names() {
        faults.push(Fault::junction_pinhole(name, Junction::AnodeCathode, base_ohms));
    }
    for name in circuit.bjt_names() {
        faults.push(Fault::junction_pinhole(name.clone(), Junction::BaseEmitter, base_ohms));
        faults.push(Fault::junction_pinhole(name, Junction::BaseCollector, base_ohms));
    }
    faults
}

/// Derives a full dictionary from circuit topology: bridges per
/// `derivation` at `bridge_ohms`, plus a pinhole at every MOS gate at
/// `pinhole_ohms`.
///
/// With [`BridgeDerivation::Exhaustive`] on the IV-converter deck
/// (`tests/fixtures/iv_converter.sp`) this is the paper's 55-fault
/// dictionary: 45 bridges over the 10 non-ground nets in node order,
/// then the 10 pinholes in device order.
pub fn derive_fault_dictionary(
    circuit: &Circuit,
    derivation: BridgeDerivation,
    bridge_ohms: f64,
    pinhole_ohms: f64,
) -> FaultDictionary {
    let mut faults = match derivation {
        BridgeDerivation::Exhaustive => {
            let nets = fault_site_nets(circuit);
            let refs: Vec<&str> = nets.iter().map(String::as_str).collect();
            exhaustive_bridge_faults(&refs, bridge_ohms)
        }
        BridgeDerivation::Adjacent => adjacent_bridge_faults(circuit, bridge_ohms),
    };
    faults.extend(topology_pinhole_faults(circuit, pinhole_ohms));
    FaultDictionary::new(faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use castg_spice::{Circuit, MosParams, MosPolarity, Waveform};

    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        let out = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_resistor("R1", vin, mid, 1e3).unwrap();
        c.add_resistor("R2", mid, out, 1e3).unwrap();
        c.add_resistor("R3", out, Circuit::GROUND, 2e3).unwrap();
        c
    }

    #[test]
    fn sites_are_non_ground_nets_in_order() {
        assert_eq!(fault_site_nets(&divider()), vec!["vin", "mid", "out"]);
    }

    #[test]
    fn exhaustive_derivation_is_choose_two_plus_pinholes() {
        let mut c = divider();
        let g = c.node("g");
        c.add_resistor("RG", g, Circuit::GROUND, 1e6).unwrap();
        c.add_mosfet(
            "M1",
            c.find_node("out").unwrap(),
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            MosParams::nmos_default(10e-6, 1e-6),
        )
        .unwrap();
        let dict = derive_fault_dictionary(&c, BridgeDerivation::Exhaustive, 10e3, 2e3);
        // C(4,2) bridges + 1 pinhole.
        assert_eq!(dict.len(), 6 + 1);
        assert_eq!(dict.count(crate::FaultKind::Bridge), 6);
        assert_eq!(dict.count(crate::FaultKind::Pinhole), 1);
        assert!(dict.by_name("pinhole(M1)").is_some());
        // Every derived fault injects into the circuit it came from.
        for f in dict.iter() {
            f.inject(&c).unwrap();
        }
    }

    #[test]
    fn derived_pinholes_cover_diode_and_bjt_junctions() {
        let mut c = divider();
        let (vin, mid, out) =
            (c.find_node("vin").unwrap(), c.find_node("mid").unwrap(), c.find_node("out").unwrap());
        c.add_diode("D1", vin, mid, castg_spice::DiodeParams::signal_default()).unwrap();
        c.add_bjt(
            "Q1",
            vin,
            mid,
            out,
            castg_spice::BjtPolarity::Npn,
            castg_spice::BjtParams::signal_default(),
        )
        .unwrap();
        let faults = topology_pinhole_faults(&c, 2e3);
        let names: Vec<String> = faults.iter().map(Fault::name).collect();
        assert_eq!(names, vec!["pinhole(D1)", "pinhole(Q1:be)", "pinhole(Q1:bc)"]);
        // Every derived junction pinhole injects into its own circuit.
        for f in &faults {
            f.inject(&c).unwrap();
        }
        // Bridges enumerate the new devices' terminal adjacencies too.
        let bridges = adjacent_bridge_faults(&c, 10e3);
        let bnames: Vec<String> = bridges.iter().map(Fault::name).collect();
        assert!(bnames.contains(&"bridge(vin,out)".to_string()), "{bnames:?}");
    }

    #[test]
    fn adjacent_derivation_only_pairs_sharing_a_device() {
        let faults = adjacent_bridge_faults(&divider(), 10e3);
        let names: Vec<String> = faults.iter().map(Fault::name).collect();
        // vin–gnd (V1), vin–mid (R1), mid–out (R2), out–gnd (R3) — but
        // never vin–out (no shared device). Ground-inclusive pairs are
        // named with the "0" net.
        assert!(names.contains(&"bridge(0,vin)".to_string()));
        assert!(names.contains(&"bridge(vin,mid)".to_string()));
        assert!(names.contains(&"bridge(mid,out)".to_string()));
        assert!(names.contains(&"bridge(0,out)".to_string()));
        assert!(!names.iter().any(|n| n == "bridge(vin,out)"));
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn adjacent_derivation_dedupes_parallel_devices() {
        let mut c = divider();
        // A second device across vin–mid must not duplicate the pair.
        let (vin, mid) = (c.find_node("vin").unwrap(), c.find_node("mid").unwrap());
        c.add_capacitor("C1", vin, mid, 1e-12).unwrap();
        let faults = adjacent_bridge_faults(&c, 10e3);
        let n_vin_mid =
            faults.iter().filter(|f| f.name() == "bridge(vin,mid)").count();
        assert_eq!(n_vin_mid, 1);
    }

    #[test]
    fn degenerate_self_pairs_are_skipped() {
        let mut c = Circuit::new();
        let d = c.node("d");
        // Diode-connected MOSFET: d appears twice in the terminal list.
        c.add_isource("IB", Circuit::GROUND, d, Waveform::dc(1e-5)).unwrap();
        c.add_mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            MosParams::nmos_default(10e-6, 1e-6),
        )
        .unwrap();
        let faults = adjacent_bridge_faults(&c, 10e3);
        assert!(faults.iter().all(|f| !f.name().contains("bridge(d,d)")));
    }
}
