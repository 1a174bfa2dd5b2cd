//! Synthetic macros for tests, documentation, quick starts — and
//! scaling work.
//!
//! The real device under test (the paper's CMOS IV-converter) lives in
//! `castg-macros`; this module provides
//!
//! * [`DividerMacro`] — a three-node resistor divider whose simulations
//!   are near-instant, so the generation and compaction algorithms can
//!   be exercised and unit-tested without transistor-level cost;
//! * [`LadderMacro`] — a parameterized RC ladder generating circuits of
//!   **arbitrary unknown count** (tens to thousands). Its MNA matrix is
//!   tridiagonal-plus-a-branch-row, the canonical large-sparse shape,
//!   which makes it the workload for benchmarking the dense-vs-sparse
//!   solver dispatch and for exercising generation/compaction/coverage
//!   at n = 16…1024;
//! * [`OtaChainMacro`] — a chain of MOS common-source stages: the
//!   *nonlinear* scalable family, driving many-transistor Newton solves
//!   through the same dispatch;
//! * [`MeshMacro`] — a 2-D resistive grid with configurable aspect
//!   ratio and port placement. Its MNA matrix is the 5-point-Laplacian
//!   shape whose natural-order fill grows like O(n·√n) — the workload
//!   that makes the sparse LU's fill-reducing AMD ordering earn its
//!   keep (and the subject of the ordering differential harness);
//! * [`CrossbarMacro`] — two overlaid bar arrays (segmented row and
//!   column bars, resistively coupled at every crosspoint) with MOS
//!   readout stages: mesh-like fill *plus* nonlinear devices and a
//!   bridge+pinhole dictionary.
//!
//! Every family's test configurations are Fig.-1 description text
//! (`DC out`, `Step dev`) interpreted by [`DescribedConfig`], the same
//! interpreter that runs the `.cfg` files of a parsed deck. The
//! scalable macros accept a solver/ordering override (`with_solver`,
//! forwarded to [`DescribedConfig::with_solver`]) so the four-way
//! differential tests can force Dense, Sparse-Natural, Sparse-AMD and
//! Sparse-BTF evaluation of one workload; the default is `Auto`/`Auto`,
//! identical to every other analysis.

use std::sync::Arc;

use castg_faults::{exhaustive_bridge_faults, Fault, FaultDictionary};
use castg_spice::{Circuit, MosParams, MosPolarity, OrderingKind, SolverKind, Waveform};

use crate::descr::ConfigDescription;
use crate::{AnalogMacro, DescribedConfig, TestConfiguration};

/// Tolerance-box variables of the DC and step configurations: 2 % of
/// half the drive (the divider-like output level) plus a 1 mV meter
/// floor.
const HALF_DRIVE_BOX: &str = "\
variable box_rel: 0.02
variable box_gain: 0.5
variable box_floor: 1e-3
";

/// Tolerance-box variable of the MOS families' DC configuration: a
/// flat 50 mV on a 0–5 V output swing.
const FLAT_BOX: &str = "variable box_abs: 0.05\n";

/// Configuration `DC out`: drive the `source` device with a DC level
/// `lev` from `lo` to `hi` and return `ΔV(out)`.
fn dc_out(macro_type: &str, source: &str, lo: f64, hi: f64, seed: f64, tolerance: &str) -> String {
    format!(
        "macro type: {macro_type}\n\
         test configuration: DC out\n\
         control {source}: dc(lev)\n\
         observe out: dc()\n\
         return: dV(out)\n\
         parameter lev: {lo} .. {hi}\n\
         {tolerance}\
         seed lev: {seed}\n"
    )
}

/// Configuration `Step dev`: step `V1` from `base` to `base + elev` at
/// `t0` over `rise`, sample `v(out)` at `rate` for `time`, and return
/// the maximum absolute deviation from nominal.
fn step_dev(macro_type: &str, t0: f64, rise: f64, rate: f64, time: f64) -> String {
    format!(
        "macro type: {macro_type}\n\
         test configuration: Step dev\n\
         control V1: step(base, elev, slew_rate=sl)\n\
         observe out: sample(rate=sa, time=t)\n\
         return: Max(dV(out))\n\
         parameter base: 0 .. 4\n\
         parameter elev: -4 .. 4\n\
         variable sl: {rise:e}\n\
         variable t0: {t0:e}\n\
         variable sa: {rate:e}\n\
         variable t: {time:e}\n\
         {HALF_DRIVE_BOX}\
         seed base: 1\n\
         seed elev: 2\n"
    )
}

/// Interprets a macro's description texts (ids 1… in order), every
/// measurement dispatching through `solver`/`ordering`.
fn described(
    texts: &[String],
    solver: SolverKind,
    ordering: OrderingKind,
) -> Vec<Arc<dyn TestConfiguration>> {
    texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let descr = ConfigDescription::parse(text).expect("built-in descriptions parse");
            let config = DescribedConfig::new(i + 1, descr)
                .expect("built-in descriptions interpret")
                .with_solver(solver, ordering);
            Arc::new(config) as Arc<dyn TestConfiguration>
        })
        .collect()
}

/// A three-node resistive divider with an output capacitor, driven by a
/// voltage source `V1`.
///
/// Fault sites: `vin`, `mid`, `out` (3 bridging faults). Two test
/// configurations are provided: a one-parameter DC output measurement
/// and a two-parameter step-response deviation measurement, mirroring
/// the *shapes* of the paper's configuration set at toy scale.
///
/// # Example
///
/// ```
/// use castg_core::synthetic::DividerMacro;
/// use castg_core::AnalogMacro;
///
/// let m = DividerMacro::new();
/// assert_eq!(m.fault_dictionary().len(), 3);
/// assert_eq!(m.configurations().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DividerMacro {
    _private: (),
}

impl DividerMacro {
    /// Creates the synthetic macro.
    pub fn new() -> Self {
        DividerMacro { _private: () }
    }
}

impl AnalogMacro for DividerMacro {
    fn name(&self) -> &str {
        "divider"
    }

    fn macro_type(&self) -> &str {
        "R-divider"
    }

    fn nominal_circuit(&self) -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        let out = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(5.0)).expect("fresh netlist");
        c.add_resistor("R1", vin, mid, 1e3).expect("fresh netlist");
        c.add_resistor("R2", mid, out, 1e3).expect("fresh netlist");
        c.add_resistor("R3", out, Circuit::GROUND, 2e3).expect("fresh netlist");
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-9).expect("fresh netlist");
        c
    }

    fn fault_site_nodes(&self) -> Vec<String> {
        vec!["vin".into(), "mid".into(), "out".into()]
    }

    fn fault_dictionary(&self) -> FaultDictionary {
        let nodes = self.fault_site_nodes();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        FaultDictionary::new(exhaustive_bridge_faults(&refs, 10e3))
    }

    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>> {
        described(
            &[
                dc_out("R-divider", "V1", 1.0, 8.0, 5.0, HALF_DRIVE_BOX),
                step_dev("R-divider", 1e-6, 0.1e-6, 5e6, 10e-6),
            ],
            SolverKind::Auto,
            OrderingKind::Auto,
        )
    }
}

/// A parameterized RC ladder macro: `sections` identical cells of a
/// 1 kΩ series resistor with a 1 GΩ ∥ 10 pF shunt, driven by a voltage
/// source `V1` through a 1 kΩ source resistance into node `in`; the
/// last tap is node `out`. The shunt is deliberately huge: a resistive
/// ladder attenuates like `exp(−sections/√(Rp/Rs))`, and √(Rp/Rs) =
/// 1000 sections keeps the far end of even a 1022-section ladder at a
/// measurable level. The source resistance makes even a bridge from
/// `in` to ground observable at `out` (an ideal source would simply
/// absorb it), so every dictionary fault is detectable at every size
/// in the family.
///
/// The MNA matrix is tridiagonal plus one source branch row — the
/// canonical sparse structure — and the section count maps directly to
/// the unknown count ([`LadderMacro::unknowns`] = `sections + 3`), so
/// one constructor argument dials any system size from toy to
/// thousands of nodes. Fault sites are a fixed number of evenly spaced
/// taps; the dictionary holds all tap-pair bridges plus each tap
/// bridged to ground, all at 10 kΩ.
///
/// # Example
///
/// ```
/// use castg_core::synthetic::LadderMacro;
/// use castg_core::AnalogMacro;
///
/// let m = LadderMacro::new(253); // 256 MNA unknowns
/// assert_eq!(m.unknowns(), 256);
/// assert!(!m.fault_dictionary().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LadderMacro {
    sections: usize,
    solver: SolverKind,
    ordering: OrderingKind,
}

impl LadderMacro {
    /// Source resistance between `V1` and node `in` (ohms).
    pub const R_SOURCE: f64 = 1e3;
    /// Series resistance per section (ohms).
    pub const R_SERIES: f64 = 1e3;
    /// Shunt resistance per section (ohms).
    pub const R_SHUNT: f64 = 1e9;
    /// Shunt capacitance per section (farads).
    pub const C_SHUNT: f64 = 10e-12;
    /// Dictionary resistance of every bridge fault (ohms).
    pub const BRIDGE_R0: f64 = 10e3;
    /// Number of evenly spaced fault-site taps.
    const FAULT_TAPS: usize = 4;

    /// Creates a ladder with the given number of sections (at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `sections < 2`.
    pub fn new(sections: usize) -> Self {
        assert!(sections >= 2, "a ladder needs at least 2 sections");
        LadderMacro {
            sections,
            solver: SolverKind::Auto,
            ordering: OrderingKind::Auto,
        }
    }

    /// Creates the smallest ladder with at least `n` MNA unknowns.
    pub fn with_unknowns(n: usize) -> Self {
        LadderMacro::new(n.saturating_sub(3).max(2))
    }

    /// Forces the linear-solver path and sparse-LU ordering every
    /// configuration of this macro solves with (default `Auto`/`Auto`).
    /// The three-way differential harness evaluates one dictionary
    /// through Dense, Sparse-Natural and Sparse-AMD variants built
    /// with this.
    pub fn with_solver(mut self, solver: SolverKind, ordering: OrderingKind) -> Self {
        self.solver = solver;
        self.ordering = ordering;
        self
    }

    /// Number of sections.
    pub fn sections(&self) -> usize {
        self.sections
    }

    /// MNA unknown count of the nominal circuit: `sections` tap nodes
    /// plus the `src` and `in` nodes plus the source branch current.
    pub fn unknowns(&self) -> usize {
        self.sections + 3
    }

    /// Name of tap `i` (`1 ≤ i ≤ sections`); the last tap is `"out"`.
    fn tap_name(&self, i: usize) -> String {
        if i == self.sections {
            "out".to_string()
        } else {
            format!("n{i}")
        }
    }
}

impl AnalogMacro for LadderMacro {
    fn name(&self) -> &str {
        "ladder"
    }

    fn macro_type(&self) -> &str {
        "RC-ladder"
    }

    fn nominal_circuit(&self) -> Circuit {
        let mut c = Circuit::new();
        let src = c.node("src");
        let mut prev = c.node("in");
        c.add_vsource("V1", src, Circuit::GROUND, Waveform::dc(5.0)).expect("fresh netlist");
        c.add_resistor("Rsrc", src, prev, Self::R_SOURCE).expect("fresh netlist");
        for i in 1..=self.sections {
            let tap = c.node(&self.tap_name(i));
            c.add_resistor(&format!("Rs{i}"), prev, tap, Self::R_SERIES)
                .expect("fresh netlist");
            c.add_resistor(&format!("Rp{i}"), tap, Circuit::GROUND, Self::R_SHUNT)
                .expect("fresh netlist");
            c.add_capacitor(&format!("Cp{i}"), tap, Circuit::GROUND, Self::C_SHUNT)
                .expect("fresh netlist");
            prev = tap;
        }
        c
    }

    fn fault_site_nodes(&self) -> Vec<String> {
        // `in` plus FAULT_TAPS evenly spaced taps (the last is `out`).
        // Round up: taps are numbered from 1, so flooring would name a
        // nonexistent `n0` on ladders shorter than FAULT_TAPS sections.
        let mut sites = vec!["in".to_string()];
        for k in 1..=Self::FAULT_TAPS {
            sites.push(self.tap_name((k * self.sections).div_ceil(Self::FAULT_TAPS)));
        }
        sites.dedup();
        sites
    }

    fn fault_dictionary(&self) -> FaultDictionary {
        let nodes = self.fault_site_nodes();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        let mut faults = exhaustive_bridge_faults(&refs, Self::BRIDGE_R0);
        faults.extend(nodes.iter().map(|n| Fault::bridge(n.clone(), "0", Self::BRIDGE_R0)));
        FaultDictionary::new(faults)
    }

    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>> {
        described(
            &[
                dc_out("RC-ladder", "V1", 1.0, 8.0, 5.0, HALF_DRIVE_BOX),
                step_dev("RC-ladder", 0.2e-6, 0.05e-6, 20e6, 2e-6),
            ],
            self.solver,
            self.ordering,
        )
    }
}

/// A chain of NMOS common-source stages: the *nonlinear* scalable
/// synthetic macro.
///
/// Each stage is a locally biased common-source amplifier: the gate
/// bias is the Norton equivalent of a 1 MΩ divider to ≈2.5 V (5 µA
/// into the gate against 500 kΩ to ground) and the drain load is the
/// Norton equivalent of 50 kΩ to the 5 V rail (100 µA into the drain
/// against 50 kΩ to ground), with 100 kΩ coupling from the previous
/// drain and a 1 pF load capacitor; the input source `VIN` drives the
/// first gate and the last drain is node `out`. Every stage adds one
/// MOSFET and two nodes, so [`OtaChainMacro::unknowns`] = `2·stages +
/// 4` scales the many-transistor Newton workload directly. The fault
/// dictionary mixes drain-pair bridges with gate-oxide pinholes in
/// evenly spaced transistors.
///
/// The Norton form solves the *same node equations* as the rail-tied
/// divider/load form (each `(V(rail) − v)/R` branch contributes the
/// identical `v/R − V/R` terms), but it keeps the 5 V rail out of
/// every stage's connectivity: with no resistor touching `vdd`, the
/// MNA digraph decomposes into a chain of small strongly connected
/// components — `{vdd, br_VDD}`, `{vin, br_VIN, g1}`, one `{dᵢ,
/// gᵢ₊₁}` pair per interior stage (the MOS gate draws no DC current,
/// so `gᵢ → dᵢ` is one-directional while the coupling resistor is
/// symmetric), and `{out}` — which is exactly the structure the
/// sparse LU's BTF ordering exploits. A rail-tied chain is one giant
/// SCC and BTF degenerates to a single block.
///
/// # Example
///
/// ```
/// use castg_core::synthetic::OtaChainMacro;
/// use castg_core::AnalogMacro;
///
/// let m = OtaChainMacro::new(6); // 16 MNA unknowns
/// assert_eq!(m.unknowns(), 16);
/// assert_eq!(m.nominal_circuit().mosfet_names().len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct OtaChainMacro {
    stages: usize,
    solver: SolverKind,
    ordering: OrderingKind,
}

impl OtaChainMacro {
    /// Gate bias Norton current (amperes): 2.5 V across `BIAS_R`.
    pub const BIAS_I: f64 = 5e-6;
    /// Gate bias Norton resistance (ohms): the 1 MΩ ∥ 1 MΩ divider.
    pub const BIAS_R: f64 = 500e3;
    /// Drain load Norton current (amperes): 5 V across `LOAD_R`.
    pub const LOAD_I: f64 = 100e-6;
    /// Drain load Norton resistance (ohms).
    pub const LOAD_R: f64 = 50e3;
    /// Dictionary resistance of bridge faults (ohms).
    pub const BRIDGE_R0: f64 = 10e3;
    /// Dictionary resistance of pinhole faults (ohms).
    pub const PINHOLE_R0: f64 = 2e3;
    /// Number of fault-site stages (drains / transistors).
    const FAULT_STAGES: usize = 3;

    /// Creates a chain with the given number of stages (at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `stages < 2`.
    pub fn new(stages: usize) -> Self {
        assert!(stages >= 2, "a chain needs at least 2 stages");
        OtaChainMacro {
            stages,
            solver: SolverKind::Auto,
            ordering: OrderingKind::Auto,
        }
    }

    /// Forces the linear-solver path and sparse-LU ordering every
    /// configuration of this macro solves with (default `Auto`/`Auto`).
    /// The four-way differential harness evaluates one dictionary
    /// through Dense, Sparse-Natural, Sparse-AMD and Sparse-BTF
    /// variants built with this.
    pub fn with_solver(mut self, solver: SolverKind, ordering: OrderingKind) -> Self {
        self.solver = solver;
        self.ordering = ordering;
        self
    }

    /// Creates the smallest chain with at least `n` MNA unknowns.
    pub fn with_unknowns(n: usize) -> Self {
        OtaChainMacro::new(n.saturating_sub(4).div_ceil(2).max(2))
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// MNA unknown count: two nodes per stage (gate, drain) plus `vdd`
    /// and `vin` plus the two source branch currents.
    pub fn unknowns(&self) -> usize {
        2 * self.stages + 4
    }

    /// Name of stage `i`'s drain (`1 ≤ i ≤ stages`); the last is `"out"`.
    fn drain_name(&self, i: usize) -> String {
        if i == self.stages {
            "out".to_string()
        } else {
            format!("d{i}")
        }
    }

    /// Stage indices carrying fault sites (evenly spaced, ending at the
    /// last stage). Rounded up: stages are numbered from 1, so flooring
    /// would name a nonexistent `d0`/`M0` on chains shorter than
    /// FAULT_STAGES stages.
    fn fault_stages(&self) -> Vec<usize> {
        let mut stages: Vec<usize> = (1..=Self::FAULT_STAGES)
            .map(|k| (k * self.stages).div_ceil(Self::FAULT_STAGES))
            .collect();
        stages.dedup();
        stages
    }
}

impl AnalogMacro for OtaChainMacro {
    fn name(&self) -> &str {
        "ota_chain"
    }

    fn macro_type(&self) -> &str {
        "OTA-chain"
    }

    fn nominal_circuit(&self) -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0)).expect("fresh netlist");
        c.add_vsource("VIN", vin, Circuit::GROUND, Waveform::dc(2.0)).expect("fresh netlist");
        let _ = vdd; // the rail feeds only its source branch: see the type-level docs
        let mut prev = vin;
        for i in 1..=self.stages {
            let g = c.node(&format!("g{i}"));
            let d = c.node(&self.drain_name(i));
            c.add_isource(&format!("IB_{i}"), Circuit::GROUND, g, Waveform::dc(Self::BIAS_I))
                .expect("fresh netlist");
            c.add_resistor(&format!("RB_{i}"), g, Circuit::GROUND, Self::BIAS_R)
                .expect("fresh netlist");
            c.add_resistor(&format!("RC_{i}"), prev, g, 100e3).expect("fresh netlist");
            c.add_mosfet(
                &format!("M{i}"),
                d,
                g,
                Circuit::GROUND,
                Circuit::GROUND,
                MosPolarity::Nmos,
                MosParams::nmos_default(10e-6, 1e-6),
            )
            .expect("fresh netlist");
            c.add_isource(&format!("ID_{i}"), Circuit::GROUND, d, Waveform::dc(Self::LOAD_I))
                .expect("fresh netlist");
            c.add_resistor(&format!("RD_{i}"), d, Circuit::GROUND, Self::LOAD_R)
                .expect("fresh netlist");
            c.add_capacitor(&format!("CL_{i}"), d, Circuit::GROUND, 1e-12)
                .expect("fresh netlist");
            prev = d;
        }
        c
    }

    fn fault_site_nodes(&self) -> Vec<String> {
        self.fault_stages().iter().map(|&i| self.drain_name(i)).collect()
    }

    fn fault_dictionary(&self) -> FaultDictionary {
        let nodes = self.fault_site_nodes();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        let mut faults = exhaustive_bridge_faults(&refs, Self::BRIDGE_R0);
        faults.extend(
            self.fault_stages().iter().map(|&i| Fault::pinhole(format!("M{i}"), Self::PINHOLE_R0)),
        );
        FaultDictionary::new(faults)
    }

    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>> {
        described(
            &[dc_out("OTA-chain", "VIN", 0.0, 5.0, 2.0, FLAT_BOX)],
            self.solver,
            self.ordering,
        )
    }
}

/// Where a [`MeshMacro`] places its drive and observe ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeshPorts {
    /// Drive at grid corner `(0, 0)`, observe at `(rows−1, cols−1)` —
    /// the longest diagonal current path.
    #[default]
    OppositeCorners,
    /// Drive at the middle of the top edge, observe at the middle of
    /// the bottom edge — a shorter, column-aligned path that leaves the
    /// corners floating-ish.
    EdgeMidpoints,
}

/// A 2-D resistive grid macro: `rows × cols` nodes, 1 kΩ between
/// lattice neighbors, each node shunted to ground by 1 MΩ ∥ 10 pF,
/// driven by a voltage source `V1` through a 1 kΩ source resistance
/// into the drive port (`"in"`); the observe port is `"out"`.
///
/// The MNA matrix is the 5-point Laplacian — the canonical structure
/// whose **natural-order fill blows up** (O(n·√n) for a square grid,
/// against O(nnz) for the ladder family): this is the workload that
/// justifies the sparse LU's fill-reducing AMD ordering, and the
/// subject of the ordering differential and fill-reduction CI gates.
/// The per-node shunts keep real current flowing through the lattice,
/// so node potentials form a gradient from `in` to `out` and bridge
/// faults between distant taps are observable at DC.
///
/// Aspect ratio is configurable through the constructor (`rows` vs
/// `cols`), port placement through [`MeshMacro::with_ports`], and the
/// solver/ordering used by its configurations through
/// [`MeshMacro::with_solver`] (the three-way differential harness).
///
/// # Example
///
/// ```
/// use castg_core::synthetic::MeshMacro;
/// use castg_core::AnalogMacro;
///
/// let m = MeshMacro::with_unknowns(256); // 16×16 grid + source
/// assert!(m.unknowns() >= 256);
/// assert!(!m.fault_dictionary().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct MeshMacro {
    rows: usize,
    cols: usize,
    ports: MeshPorts,
    solver: SolverKind,
    ordering: OrderingKind,
}

impl MeshMacro {
    /// Source resistance between `V1` and the drive port (ohms).
    pub const R_SOURCE: f64 = 1e3;
    /// Lattice resistance between neighboring grid nodes (ohms).
    pub const R_SERIES: f64 = 1e3;
    /// Shunt resistance from every grid node to ground (ohms). Low
    /// enough that milliamp-scale current flows through the lattice and
    /// the node potentials form a measurable gradient.
    pub const R_SHUNT: f64 = 1e6;
    /// Shunt capacitance from every grid node to ground (farads).
    pub const C_SHUNT: f64 = 10e-12;
    /// Dictionary resistance of every bridge fault (ohms).
    pub const BRIDGE_R0: f64 = 10e3;

    /// Creates a mesh with the given aspect (both dimensions at
    /// least 2), corner ports, `Auto` solver and ordering.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "a mesh needs at least 2×2 nodes");
        MeshMacro {
            rows,
            cols,
            ports: MeshPorts::default(),
            solver: SolverKind::Auto,
            ordering: OrderingKind::Auto,
        }
    }

    /// Creates the smallest square mesh with at least `n` MNA unknowns.
    pub fn with_unknowns(n: usize) -> Self {
        let mut side = 2usize;
        while side * side + 2 < n {
            side += 1;
        }
        MeshMacro::new(side, side)
    }

    /// Selects the drive/observe port placement.
    pub fn with_ports(mut self, ports: MeshPorts) -> Self {
        self.ports = ports;
        self
    }

    /// Forces the linear-solver path and sparse-LU ordering every
    /// configuration of this macro solves with (default `Auto`/`Auto`).
    pub fn with_solver(mut self, solver: SolverKind, ordering: OrderingKind) -> Self {
        self.solver = solver;
        self.ordering = ordering;
        self
    }

    /// Grid dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// MNA unknown count: the grid nodes plus the source node plus the
    /// source branch current.
    pub fn unknowns(&self) -> usize {
        self.rows * self.cols + 2
    }

    /// `(row, col)` of the drive and observe ports.
    fn port_coords(&self) -> ((usize, usize), (usize, usize)) {
        match self.ports {
            MeshPorts::OppositeCorners => ((0, 0), (self.rows - 1, self.cols - 1)),
            MeshPorts::EdgeMidpoints => {
                ((0, self.cols / 2), (self.rows - 1, self.cols / 2))
            }
        }
    }

    /// Name of the grid node at `(r, c)`; the drive port is `"in"`,
    /// the observe port `"out"`.
    fn node_name(&self, r: usize, c: usize) -> String {
        let (drive, observe) = self.port_coords();
        if (r, c) == drive {
            "in".to_string()
        } else if (r, c) == observe {
            "out".to_string()
        } else {
            format!("m{r}_{c}")
        }
    }
}

impl AnalogMacro for MeshMacro {
    fn name(&self) -> &str {
        "mesh"
    }

    fn macro_type(&self) -> &str {
        "R-mesh"
    }

    fn nominal_circuit(&self) -> Circuit {
        let mut c = Circuit::new();
        let src = c.node("src");
        // Grid nodes in row-major order: this *is* the natural MNA
        // ordering the fill comparison judges, so keep it canonical.
        for r in 0..self.rows {
            for col in 0..self.cols {
                c.node(&self.node_name(r, col));
            }
        }
        c.add_vsource("V1", src, Circuit::GROUND, Waveform::dc(5.0)).expect("fresh netlist");
        let drive = c.find_node("in").expect("drive port exists");
        c.add_resistor("Rsrc", src, drive, Self::R_SOURCE).expect("fresh netlist");
        for r in 0..self.rows {
            for col in 0..self.cols {
                let here = c.find_node(&self.node_name(r, col)).expect("grid node");
                c.add_resistor(&format!("Rp{r}_{col}"), here, Circuit::GROUND, Self::R_SHUNT)
                    .expect("fresh netlist");
                c.add_capacitor(&format!("Cp{r}_{col}"), here, Circuit::GROUND, Self::C_SHUNT)
                    .expect("fresh netlist");
                if col + 1 < self.cols {
                    let east = c.find_node(&self.node_name(r, col + 1)).expect("grid node");
                    c.add_resistor(&format!("Rh{r}_{col}"), here, east, Self::R_SERIES)
                        .expect("fresh netlist");
                }
                if r + 1 < self.rows {
                    let south = c.find_node(&self.node_name(r + 1, col)).expect("grid node");
                    c.add_resistor(&format!("Rv{r}_{col}"), here, south, Self::R_SERIES)
                        .expect("fresh netlist");
                }
            }
        }
        c
    }

    fn fault_site_nodes(&self) -> Vec<String> {
        // The two ports, the grid center, and two far-apart edge taps:
        // sites at genuinely different lattice potentials, so tap-pair
        // bridges have DC signatures.
        let candidates = [
            self.node_name(0, 0),
            self.node_name(self.rows / 2, self.cols / 2),
            self.node_name(self.rows - 1, 0),
            self.node_name(0, self.cols - 1),
            self.node_name(self.rows - 1, self.cols - 1),
        ];
        let (drive, observe) = self.port_coords();
        let mut sites = vec![
            self.node_name(drive.0, drive.1),
            self.node_name(observe.0, observe.1),
        ];
        for cand in candidates {
            if !sites.contains(&cand) {
                sites.push(cand);
            }
        }
        sites
    }

    fn fault_dictionary(&self) -> FaultDictionary {
        let nodes = self.fault_site_nodes();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        let mut faults = exhaustive_bridge_faults(&refs, Self::BRIDGE_R0);
        faults.extend(nodes.iter().map(|n| Fault::bridge(n.clone(), "0", Self::BRIDGE_R0)));
        FaultDictionary::new(faults)
    }

    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>> {
        described(
            &[
                dc_out("R-mesh", "V1", 1.0, 8.0, 5.0, HALF_DRIVE_BOX),
                step_dev("R-mesh", 0.2e-6, 0.05e-6, 20e6, 2e-6),
            ],
            self.solver,
            self.ordering,
        )
    }
}

/// A crossbar macro: `rows` segmented row bars overlaid on `cols`
/// segmented column bars, resistively coupled at every crosspoint,
/// with NMOS common-source readout stages on a few columns.
///
/// Every row bar is a chain of 100 Ω segments fed from the drive port
/// `"in"` (behind a 1 kΩ source resistance); every column bar is a
/// chain of 100 Ω segments loaded to ground at its tail; crosspoint
/// `(i, j)` couples row segment `i,j` to column segment `i,j` through
/// 10 kΩ. Three evenly spaced column tails bias NMOS readout
/// transistors (`M1`…) whose last drain is `"out"`. Structurally this
/// is *two overlaid meshes* — worse natural-order fill than the plain
/// grid — and the MOS stages make it the nonlinear member of the
/// fill-reducing-ordering workload family, with gate-oxide **pinhole**
/// faults joining the bridge dictionary.
///
/// # Example
///
/// ```
/// use castg_core::synthetic::CrossbarMacro;
/// use castg_core::AnalogMacro;
///
/// let m = CrossbarMacro::new(4, 4);
/// assert_eq!(m.unknowns(), m.nominal_circuit().unknown_count());
/// assert!(m.fault_dictionary().iter().any(|f| f.name().starts_with("pinhole")));
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarMacro {
    rows: usize,
    cols: usize,
    solver: SolverKind,
    ordering: OrderingKind,
}

impl CrossbarMacro {
    /// Source resistance between `V1` and the drive port (ohms).
    pub const R_SOURCE: f64 = 1e3;
    /// Feed resistance from the drive port into each row-bar head (ohms).
    pub const R_FEED: f64 = 1e3;
    /// Bar segment resistance between adjacent crosspoints (ohms).
    pub const R_BAR: f64 = 100.0;
    /// Crosspoint coupling resistance (ohms).
    pub const R_CROSS: f64 = 10e3;
    /// Column tail load to ground (ohms).
    pub const R_LOAD: f64 = 10e3;
    /// Readout drain load to the 5 V rail (ohms).
    pub const R_DRAIN: f64 = 50e3;
    /// Readout drain load capacitance (farads).
    pub const C_OUT: f64 = 1e-12;
    /// Dictionary resistance of bridge faults (ohms).
    pub const BRIDGE_R0: f64 = 10e3;
    /// Dictionary resistance of pinhole faults (ohms).
    pub const PINHOLE_R0: f64 = 2e3;
    /// Number of readout stages (and pinhole fault sites).
    const READOUTS: usize = 3;

    /// Creates a crossbar with the given bar counts (both at least 2),
    /// `Auto` solver and ordering.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "a crossbar needs at least 2×2 bars");
        CrossbarMacro {
            rows,
            cols,
            solver: SolverKind::Auto,
            ordering: OrderingKind::Auto,
        }
    }

    /// Creates the smallest square crossbar with at least `n` MNA
    /// unknowns.
    pub fn with_unknowns(n: usize) -> Self {
        let mut side = 2usize;
        while CrossbarMacro::new(side, side).unknowns() < n {
            side += 1;
        }
        CrossbarMacro::new(side, side)
    }

    /// Forces the linear-solver path and sparse-LU ordering every
    /// configuration of this macro solves with (default `Auto`/`Auto`).
    pub fn with_solver(mut self, solver: SolverKind, ordering: OrderingKind) -> Self {
        self.solver = solver;
        self.ordering = ordering;
        self
    }

    /// MNA unknown count: two bar nodes per crosspoint, the `src`,
    /// `in` and `vdd` nodes, one drain node per readout stage, and the
    /// two source branch currents.
    pub fn unknowns(&self) -> usize {
        2 * self.rows * self.cols + self.readout_cols().len() + 5
    }

    /// Column indices carrying readout stages (evenly spaced, ending at
    /// the last column; deduplicated for narrow crossbars).
    fn readout_cols(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = (1..=Self::READOUTS)
            .map(|k| (k * self.cols).div_ceil(Self::READOUTS) - 1)
            .collect();
        cols.dedup();
        cols
    }

    /// Name of the row-bar node at `(bar i, segment j)`.
    fn row_node(&self, i: usize, j: usize) -> String {
        format!("rb{i}_{j}")
    }

    /// Name of the column-bar node at `(segment i, bar j)`.
    fn col_node(&self, i: usize, j: usize) -> String {
        format!("cb{i}_{j}")
    }

    /// Name of readout stage `k`'s drain; the last is `"out"`.
    fn drain_name(&self, k: usize) -> String {
        if k + 1 == self.readout_cols().len() {
            "out".to_string()
        } else {
            format!("do{k}")
        }
    }
}

impl AnalogMacro for CrossbarMacro {
    fn name(&self) -> &str {
        "crossbar"
    }

    fn macro_type(&self) -> &str {
        "RX-crossbar"
    }

    fn nominal_circuit(&self) -> Circuit {
        let mut c = Circuit::new();
        let src = c.node("src");
        let inp = c.node("in");
        let vdd = c.node("vdd");
        c.add_vsource("V1", src, Circuit::GROUND, Waveform::dc(5.0)).expect("fresh netlist");
        c.add_resistor("Rsrc", src, inp, Self::R_SOURCE).expect("fresh netlist");
        c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0)).expect("fresh netlist");
        // Row bars (row-major), then column bars: the natural ordering
        // interleaves the two lattices only through the crosspoints.
        for i in 0..self.rows {
            for j in 0..self.cols {
                let here = c.node(&self.row_node(i, j));
                if j == 0 {
                    c.add_resistor(&format!("Rf{i}"), inp, here, Self::R_FEED)
                        .expect("fresh netlist");
                } else {
                    let west = c.find_node(&self.row_node(i, j - 1)).expect("row node");
                    c.add_resistor(&format!("Rr{i}_{j}"), west, here, Self::R_BAR)
                        .expect("fresh netlist");
                }
            }
        }
        for j in 0..self.cols {
            for i in 0..self.rows {
                let here = c.node(&self.col_node(i, j));
                if i > 0 {
                    let north = c.find_node(&self.col_node(i - 1, j)).expect("col node");
                    c.add_resistor(&format!("Rc{i}_{j}"), north, here, Self::R_BAR)
                        .expect("fresh netlist");
                }
            }
            let tail = c.find_node(&self.col_node(self.rows - 1, j)).expect("col node");
            c.add_resistor(&format!("Rl{j}"), tail, Circuit::GROUND, Self::R_LOAD)
                .expect("fresh netlist");
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                let rn = c.find_node(&self.row_node(i, j)).expect("row node");
                let cn = c.find_node(&self.col_node(i, j)).expect("col node");
                c.add_resistor(&format!("Rx{i}_{j}"), rn, cn, Self::R_CROSS)
                    .expect("fresh netlist");
            }
        }
        // Readout stages: column tails bias NMOS common-source stages.
        for (k, &j) in self.readout_cols().iter().enumerate() {
            let gate = c.find_node(&self.col_node(self.rows - 1, j)).expect("col tail");
            let drain = c.node(&self.drain_name(k));
            c.add_mosfet(
                &format!("M{}", k + 1),
                drain,
                gate,
                Circuit::GROUND,
                Circuit::GROUND,
                MosPolarity::Nmos,
                MosParams::nmos_default(10e-6, 1e-6),
            )
            .expect("fresh netlist");
            c.add_resistor(&format!("Rd{k}"), vdd, drain, Self::R_DRAIN)
                .expect("fresh netlist");
            c.add_capacitor(&format!("Cd{k}"), drain, Circuit::GROUND, Self::C_OUT)
                .expect("fresh netlist");
        }
        c
    }

    fn fault_site_nodes(&self) -> Vec<String> {
        let mut sites = vec![
            "in".to_string(),
            self.row_node(0, self.cols - 1),
            self.col_node(self.rows - 1, 0),
        ];
        let last_readout = *self.readout_cols().last().expect("at least one readout");
        let gate = self.col_node(self.rows - 1, last_readout);
        if !sites.contains(&gate) {
            sites.push(gate);
        }
        sites.push("out".to_string());
        sites
    }

    fn fault_dictionary(&self) -> FaultDictionary {
        let nodes = self.fault_site_nodes();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        let mut faults = exhaustive_bridge_faults(&refs, Self::BRIDGE_R0);
        faults.extend(
            (1..=self.readout_cols().len())
                .map(|k| Fault::pinhole(format!("M{k}"), Self::PINHOLE_R0)),
        );
        FaultDictionary::new(faults)
    }

    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>> {
        described(
            &[dc_out("RX-crossbar", "V1", 0.5, 8.0, 5.0, FLAT_BOX)],
            self.solver,
            self.ordering,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Measurement;
    use castg_spice::DcAnalysis;

    #[test]
    fn nominal_divider_solves() {
        let m = DividerMacro::new();
        let c = m.nominal_circuit();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        // 5 V over 1k + 1k + 2k: out = 5 * 2/4 = 2.5 V.
        assert!((sol.voltage(c.find_node("out").unwrap()) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn dc_config_measures_divider_ratio() {
        let m = DividerMacro::new();
        let c = m.nominal_circuit();
        let cfg = &m.configurations()[0];
        let meas = cfg.measure(&c, &[4.0]).unwrap();
        assert!((meas.as_scalars().unwrap()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dc_config_rejects_wrong_arity() {
        let m = DividerMacro::new();
        let c = m.nominal_circuit();
        assert!(m.configurations()[0].measure(&c, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn step_config_produces_waveform() {
        let m = DividerMacro::new();
        let c = m.nominal_circuit();
        let cfg = &m.configurations()[1];
        let meas = cfg.measure(&c, &[1.0, 2.0]).unwrap();
        let w = meas.as_waveform().unwrap();
        assert!(w.len() > 10);
        // Starts at base/2 (divider halves), ends near (base+elev)/2.
        assert!((w.values()[0] - 0.5).abs() < 0.01);
        assert!((w.values().last().unwrap() - 1.5).abs() < 0.01);
    }

    #[test]
    fn return_values_are_deltas() {
        let cfg = &DividerMacro::new().configurations()[0];
        let nom = Measurement::scalar(2.0);
        let flt = Measurement::scalar(2.4);
        let rv = cfg.return_values(&flt, &nom);
        assert!((rv[0] - 0.4).abs() < 1e-12);
        assert_eq!(cfg.return_values(&nom, &nom), vec![0.0]);
    }

    #[test]
    fn descriptions_roundtrip_through_text() {
        for cfg in DividerMacro::new().configurations() {
            let d = cfg.description();
            let text = d.to_string();
            let parsed = ConfigDescription::parse(&text).unwrap();
            assert_eq!(d, parsed, "config {} description must round-trip", cfg.name());
        }
    }

    #[test]
    fn ladder_unknown_count_matches_circuit() {
        for n in [16, 64, 256] {
            let m = LadderMacro::with_unknowns(n);
            let c = m.nominal_circuit();
            assert_eq!(c.unknown_count(), m.unknowns());
            assert!(m.unknowns() >= n);
        }
    }

    #[test]
    fn ladder_dc_attenuates_mildly() {
        let m = LadderMacro::new(64);
        let c = m.nominal_circuit();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        let v_out = sol.voltage(c.find_node("out").unwrap());
        // 64 sections of 1 kΩ over 1 GΩ shunts: sub-percent droop.
        assert!(v_out > 4.5 && v_out < 5.0, "v_out = {v_out}");
    }

    #[test]
    fn ladder_faults_inject_and_perturb_output() {
        let m = LadderMacro::new(32);
        let c = m.nominal_circuit();
        let nominal = DcAnalysis::new(&c).solve().unwrap();
        let out = c.find_node("out").unwrap();
        for fault in m.fault_dictionary().iter() {
            let faulty = fault.inject(&c).unwrap();
            let sol = DcAnalysis::new(&faulty).solve().unwrap();
            // A ground bridge collapses the output; tap-tap bridges
            // shift it measurably. Either way the circuit stays
            // solvable.
            assert!(sol.voltage(out).is_finite(), "{}", fault.name());
        }
        // At least the out-to-ground bridge must move the output a lot.
        let gnd_bridge = Fault::bridge("out", "0", LadderMacro::BRIDGE_R0);
        let sol = DcAnalysis::new(&gnd_bridge.inject(&c).unwrap()).solve().unwrap();
        assert!((sol.voltage(out) - nominal.voltage(out)).abs() > 0.5);
    }

    #[test]
    fn ladder_configs_measure_and_roundtrip() {
        let m = LadderMacro::new(16);
        let c = m.nominal_circuit();
        for cfg in m.configurations() {
            let meas = cfg.measure(&c, &cfg.seed()).unwrap();
            let rv = cfg.return_values(&meas, &meas);
            assert!(rv.iter().all(|v| v.abs() < 1e-12), "{rv:?}");
            let d = cfg.description();
            assert_eq!(d, ConfigDescription::parse(&d.to_string()).unwrap());
        }
    }

    #[test]
    fn ota_chain_unknowns_and_convergence() {
        let m = OtaChainMacro::with_unknowns(32);
        let c = m.nominal_circuit();
        assert_eq!(c.unknown_count(), m.unknowns());
        let sol = DcAnalysis::new(&c).solve().unwrap();
        let out = sol.voltage(c.find_node("out").unwrap());
        assert!((0.0..=5.0).contains(&out), "out = {out}");
    }

    #[test]
    fn ota_chain_fault_dictionary_injects() {
        let m = OtaChainMacro::new(8);
        let c = m.nominal_circuit();
        let dict = m.fault_dictionary();
        assert!(!dict.is_empty());
        for fault in dict.iter() {
            fault.inject(&c).unwrap();
        }
    }

    /// The smallest sizes the constructors permit must still produce
    /// injectable dictionaries (fault sites are rounded *up* to
    /// existing taps/stages — flooring used to name a nonexistent
    /// `n0`/`d0`/`M0`).
    #[test]
    fn minimum_size_macros_have_injectable_dictionaries() {
        for sections in 2..=5 {
            let m = LadderMacro::new(sections);
            let c = m.nominal_circuit();
            let dict = m.fault_dictionary();
            assert!(!dict.is_empty(), "sections={sections}");
            for fault in dict.iter() {
                fault.inject(&c).unwrap_or_else(|e| {
                    panic!("sections={sections}, fault {}: {e}", fault.name())
                });
            }
        }
        for stages in 2..=4 {
            let m = OtaChainMacro::new(stages);
            let c = m.nominal_circuit();
            for fault in m.fault_dictionary().iter() {
                fault.inject(&c).unwrap_or_else(|e| {
                    panic!("stages={stages}, fault {}: {e}", fault.name())
                });
            }
        }
    }

    #[test]
    fn mesh_unknown_count_and_aspect() {
        for n in [16, 64, 256] {
            let m = MeshMacro::with_unknowns(n);
            let c = m.nominal_circuit();
            assert_eq!(c.unknown_count(), m.unknowns());
            assert!(m.unknowns() >= n);
        }
        let wide = MeshMacro::new(3, 9);
        assert_eq!(wide.shape(), (3, 9));
        assert_eq!(wide.nominal_circuit().unknown_count(), 3 * 9 + 2);
    }

    #[test]
    fn mesh_dc_has_a_gradient_and_ports_work() {
        for ports in [MeshPorts::OppositeCorners, MeshPorts::EdgeMidpoints] {
            let m = MeshMacro::new(6, 6).with_ports(ports);
            let c = m.nominal_circuit();
            let sol = DcAnalysis::new(&c).solve().unwrap();
            let v_in = sol.voltage(c.find_node("in").unwrap());
            let v_out = sol.voltage(c.find_node("out").unwrap());
            // The shunt load pulls real current through the lattice:
            // measurable drop from the source, gradient toward `out`.
            assert!(v_in > 3.0 && v_in < 5.0, "{ports:?}: v_in = {v_in}");
            assert!(v_out > 0.0 && v_out < v_in, "{ports:?}: v_out = {v_out} v_in = {v_in}");
        }
    }

    #[test]
    fn mesh_faults_inject_and_ground_bridge_collapses_output() {
        let m = MeshMacro::new(5, 5);
        let c = m.nominal_circuit();
        let nominal = DcAnalysis::new(&c).solve().unwrap();
        let out = c.find_node("out").unwrap();
        for fault in m.fault_dictionary().iter() {
            let faulty = fault.inject(&c).unwrap();
            let sol = DcAnalysis::new(&faulty).solve().unwrap();
            assert!(sol.voltage(out).is_finite(), "{}", fault.name());
        }
        let gnd = Fault::bridge("out", "0", MeshMacro::BRIDGE_R0);
        let sol = DcAnalysis::new(&gnd.inject(&c).unwrap()).solve().unwrap();
        assert!((sol.voltage(out) - nominal.voltage(out)).abs() > 0.1);
    }

    #[test]
    fn mesh_configs_measure_and_roundtrip() {
        let m = MeshMacro::new(4, 4);
        let c = m.nominal_circuit();
        for cfg in m.configurations() {
            let meas = cfg.measure(&c, &cfg.seed()).unwrap();
            let rv = cfg.return_values(&meas, &meas);
            assert!(rv.iter().all(|v| v.abs() < 1e-12), "{rv:?}");
            let d = cfg.description();
            assert_eq!(d, ConfigDescription::parse(&d.to_string()).unwrap());
        }
    }

    /// The mesh is the workload the AMD ordering exists for: at
    /// n ≥ 400 unknowns the ordered factors must carry at most half the
    /// natural-order fill, and Auto must therefore resolve to AMD.
    #[test]
    fn mesh_amd_halves_fill_and_auto_picks_it() {
        use castg_spice::{sparse_fill_stats, OrderingKind};
        let m = MeshMacro::new(24, 24);
        let c = m.nominal_circuit();
        let natural = sparse_fill_stats(&c, OrderingKind::Natural).unwrap();
        let amd = sparse_fill_stats(&c, OrderingKind::Amd).unwrap();
        assert!(
            amd.lu_nnz * 2 <= natural.lu_nnz,
            "amd {} vs natural {}",
            amd.lu_nnz,
            natural.lu_nnz
        );
        let auto = sparse_fill_stats(&c, OrderingKind::Auto).unwrap();
        assert_eq!(auto.resolved, OrderingKind::Amd);
        assert_eq!(auto.lu_nnz, amd.lu_nnz);
    }

    /// The Norton-biased OTA chain is the workload the BTF ordering
    /// exists for: the cascade must condense into many small strongly
    /// connected components (one per stage pair, roughly), and the
    /// summed per-block fill must not exceed the global-AMD fill.
    #[test]
    fn ota_chain_btf_condenses_and_fill_beats_amd() {
        use castg_spice::{sparse_fill_stats, OrderingKind};
        let m = OtaChainMacro::with_unknowns(512);
        let c = m.nominal_circuit();
        let amd = sparse_fill_stats(&c, OrderingKind::Amd).unwrap();
        let btf = sparse_fill_stats(&c, OrderingKind::Btf).unwrap();
        assert_eq!(btf.resolved, OrderingKind::Btf, "cascade must condense");
        assert!(btf.blocks > 1, "expected >1 diagonal block, got {}", btf.blocks);
        assert!(
            btf.largest_block < m.unknowns() / 2,
            "largest block {} should be far below n={}",
            btf.largest_block,
            m.unknowns()
        );
        assert!(btf.lu_nnz <= amd.lu_nnz, "btf {} vs amd {}", btf.lu_nnz, amd.lu_nnz);
    }

    #[test]
    fn mesh_solver_override_agrees_across_paths() {
        use castg_spice::{OrderingKind, SolverKind};
        let variants = [
            MeshMacro::new(5, 5).with_solver(SolverKind::Dense, OrderingKind::Natural),
            MeshMacro::new(5, 5).with_solver(SolverKind::Sparse, OrderingKind::Natural),
            MeshMacro::new(5, 5).with_solver(SolverKind::Sparse, OrderingKind::Amd),
        ];
        let reference: Vec<f64> = {
            let m = &variants[0];
            let cfg = &m.configurations()[0];
            let meas = cfg.measure(&m.nominal_circuit(), &[5.0]).unwrap();
            meas.as_scalars().unwrap().to_vec()
        };
        for m in &variants[1..] {
            let cfg = &m.configurations()[0];
            let meas = cfg.measure(&m.nominal_circuit(), &[5.0]).unwrap();
            let got = meas.as_scalars().unwrap();
            assert!((got[0] - reference[0]).abs() <= 1e-9 * reference[0].abs().max(1.0));
        }
    }

    #[test]
    fn crossbar_unknowns_solves_and_responds() {
        for n in [32, 64] {
            let m = CrossbarMacro::with_unknowns(n);
            let c = m.nominal_circuit();
            assert_eq!(c.unknown_count(), m.unknowns());
            assert!(m.unknowns() >= n);
        }
        let m = CrossbarMacro::new(4, 4);
        let c = m.nominal_circuit();
        let cfg = &m.configurations()[0];
        let lo = cfg.measure(&c, &[1.0]).unwrap();
        let hi = cfg.measure(&c, &[6.0]).unwrap();
        let d = (lo.as_scalars().unwrap()[0] - hi.as_scalars().unwrap()[0]).abs();
        assert!(d > 0.01, "crossbar output must depend on the input, moved {d}");
        let desc = cfg.description();
        assert_eq!(desc, ConfigDescription::parse(&desc.to_string()).unwrap());
    }

    #[test]
    fn crossbar_dictionary_has_pinholes_and_injects() {
        for (rows, cols) in [(2, 2), (3, 5), (4, 4)] {
            let m = CrossbarMacro::new(rows, cols);
            let c = m.nominal_circuit();
            let dict = m.fault_dictionary();
            assert!(
                dict.iter().any(|f| f.name().starts_with("pinhole")),
                "{rows}x{cols}: dictionary must carry pinhole faults"
            );
            for fault in dict.iter() {
                fault.inject(&c).unwrap_or_else(|e| {
                    panic!("{rows}x{cols}, fault {}: {e}", fault.name())
                });
            }
        }
    }

    #[test]
    fn ota_chain_dc_config_responds_to_input() {
        let m = OtaChainMacro::new(4);
        let c = m.nominal_circuit();
        let cfg = &m.configurations()[0];
        let lo = cfg.measure(&c, &[0.5]).unwrap();
        let hi = cfg.measure(&c, &[3.5]).unwrap();
        let d = (lo.as_scalars().unwrap()[0] - hi.as_scalars().unwrap()[0]).abs();
        assert!(d > 0.01, "chain output must depend on the input, moved {d}");
    }
}
