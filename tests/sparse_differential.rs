//! Differential test harness: the sparse solver path against the dense
//! one, end to end through the circuit simulator.
//!
//! Every analysis here is run through multiple solver configurations —
//! dense LU, sparse LU in natural order, sparse LU under AMD, sparse
//! LU under the BTF block-triangular decomposition (the four-way) — on
//! the same circuit, and the solutions must agree to 1e-9 *relative*.
//! The circuits come from the scalable synthetic families
//! (`LadderMacro`, `OtaChainMacro`, `MeshMacro`, `CrossbarMacro`),
//! from the paper's IV-converter, and from a diode bridge and the
//! bipolar op-amp deck, nominal **and** after fault injection, so the
//! cross-check covers linear, MOS and junction-nonlinear systems, DC
//! and transient, at sizes where `Auto` would pick any path.

use castg::core::synthetic::{CrossbarMacro, LadderMacro, MeshMacro, OtaChainMacro};
use castg::core::AnalogMacro;
use castg::faults::{Fault, Junction};
use castg::spice::{
    AnalysisOptions, Circuit, DcAnalysis, DiodeParams, NewtonStrategy, OrderingKind, Probe,
    SolverKind, TranAnalysis, Waveform,
};
use proptest::prelude::*;

/// The bipolar op-amp deck and its configurations.
fn bjt_macro() -> castg::netlist::NetlistMacro {
    castg_bench::golden::bjt_macro(&castg_bench::fixtures_dir())
}

/// Relative agreement both solver paths must reach.
const REL_TOL: f64 = 1e-9;

fn opts(solver: SolverKind) -> AnalysisOptions {
    AnalysisOptions { solver, ..AnalysisOptions::default() }
}

/// Options for the nonlinear (MOS and junction) differential cases:
/// Newton stops at `reltol`, so with the default 1e-4 two solver paths
/// can legitimately halt at iterates ~1e-4 apart. Driving the
/// tolerances near machine precision pins every path to the same fixed
/// point, making the 1e-9 cross-check meaningful.
fn tight(solver: SolverKind, ordering: OrderingKind) -> AnalysisOptions {
    AnalysisOptions {
        reltol: 1e-12,
        vntol: 1e-13,
        abstol: 1e-16,
        max_iter: 400,
        ..opts3(solver, ordering)
    }
}

/// Solves the DC operating point through both paths and compares every
/// MNA unknown.
fn assert_dc_paths_agree(c: &Circuit, context: &str) {
    assert_dc_paths_agree_with(c, context, opts3, None, REL_TOL);
}

/// As [`assert_dc_paths_agree`], with explicit per-path options, an
/// optional `(source, waveform)` stimulus override and an agreement
/// tolerance.
fn assert_dc_paths_agree_with(
    c: &Circuit,
    context: &str,
    make_opts: fn(SolverKind, OrderingKind) -> AnalysisOptions,
    stimulus: Option<(&str, Waveform)>,
    tol: f64,
) {
    let solve = |solver| {
        let dc = DcAnalysis::with_options(c, make_opts(solver, OrderingKind::Auto));
        match &stimulus {
            Some((name, wave)) => dc.override_stimulus(*name, wave.clone()),
            None => dc,
        }
        .solve()
        .unwrap()
    };
    let dense = solve(SolverKind::Dense);
    let sparse = solve(SolverKind::Sparse);
    for (i, (d, s)) in dense.state().iter().zip(sparse.state()).enumerate() {
        let scale = d.abs().max(s.abs()).max(1.0);
        assert!(
            (d - s).abs() <= tol * scale,
            "{context}: unknown {i} diverges: dense {d} vs sparse {s}"
        );
    }
}

#[test]
fn ladder_dc_dense_vs_sparse_across_sizes() {
    for n in [16, 64, 256] {
        let mac = LadderMacro::with_unknowns(n);
        assert_dc_paths_agree(&mac.nominal_circuit(), &format!("ladder n={n}"));
    }
}

#[test]
fn ladder_dc_agrees_after_fault_injection() {
    let mac = LadderMacro::with_unknowns(128);
    let c = mac.nominal_circuit();
    for fault in mac.fault_dictionary().iter() {
        let faulty = fault.inject(&c).unwrap();
        assert_dc_paths_agree(&faulty, &format!("ladder fault {}", fault.name()));
    }
}

#[test]
fn ota_chain_dc_dense_vs_sparse_nominal_and_faulted() {
    let mac = OtaChainMacro::with_unknowns(48);
    let c = mac.nominal_circuit();
    assert_dc_paths_agree_with(&c, "ota chain nominal", tight, None, REL_TOL);
    for fault in mac.fault_dictionary().iter() {
        let faulty = fault.inject(&c).unwrap();
        assert_dc_paths_agree_with(
            &faulty,
            &format!("ota chain fault {}", fault.name()),
            tight,
            None,
            REL_TOL,
        );
    }
}

#[test]
fn iv_converter_dc_agrees_with_sparse_forced() {
    // The paper's real macro: 10 MOSFETs at n = 11 — a size Auto solves
    // densely, so forcing sparse here cross-checks the nonlinear path
    // on the exact circuit the generation pipeline hammers.
    let mac = castg_bench::iv_macro(false);
    let c = mac.nominal_circuit();
    let iin = || Some(("IIN", Waveform::dc(20e-6)));
    assert_dc_paths_agree_with(&c, "iv-converter nominal", tight, iin(), REL_TOL);
    // Faulted variants: some bridges (supply into the high-gain bias
    // loop) drive the Jacobian's condition number to ~1e8, where two
    // equally correct factorizations can only agree to κ·ε ≈ 1e-8 in
    // f64 — so the faulted cross-check uses a conditioning-aware bound
    // instead of the well-conditioned 1e-9.
    for fault in mac.fault_dictionary().iter().take(12) {
        let faulty = fault.inject(&c).unwrap();
        assert_dc_paths_agree_with(
            &faulty,
            &format!("iv-converter fault {}", fault.name()),
            tight,
            iin(),
            1e-6,
        );
    }
}

#[test]
fn ladder_transient_dense_vs_sparse() {
    let mac = LadderMacro::with_unknowns(96);
    let c = mac.nominal_circuit();
    let out = c.find_node("out").unwrap();
    let probes = [Probe::NodeVoltage(out)];
    let run = |kind| {
        TranAnalysis::with_options(&c, opts(kind), Default::default())
            .override_stimulus("V1", Waveform::step(1.0, 2.0, 0.2e-6, 0.05e-6))
            .run(2e-6, 0.05e-6, &probes)
            .unwrap()
    };
    let dense = run(SolverKind::Dense);
    let sparse = run(SolverKind::Sparse);
    assert_eq!(dense.len(), sparse.len());
    for (i, (d, s)) in dense.column(0).iter().zip(sparse.column(0)).enumerate() {
        let scale = d.abs().max(s.abs()).max(1.0);
        assert!(
            (d - s).abs() <= REL_TOL * scale,
            "transient t[{i}]: dense {d} vs sparse {s}"
        );
    }
}

#[test]
fn auto_matches_forced_paths_at_the_boundary() {
    // Auto must agree with both forced paths regardless of which side
    // of the selection threshold a circuit lands on.
    for n in [32, 200] {
        let mac = LadderMacro::with_unknowns(n);
        let c = mac.nominal_circuit();
        let auto = DcAnalysis::with_options(&c, opts(SolverKind::Auto)).solve().unwrap();
        let dense = DcAnalysis::with_options(&c, opts(SolverKind::Dense)).solve().unwrap();
        for (a, d) in auto.state().iter().zip(dense.state()) {
            assert!((a - d).abs() <= REL_TOL * d.abs().max(1.0), "n={n}: {a} vs {d}");
        }
    }
}

/// The four solver configurations the ordering differential
/// cross-checks: dense LU, sparse LU in natural order, sparse LU under
/// the AMD fill-reducing permutation, and sparse LU under the BTF
/// block-triangular decomposition (which falls back to AMD on
/// irreducible circuits, so forcing it is always well-defined).
const FOUR_WAY: [(SolverKind, OrderingKind); 4] = [
    (SolverKind::Dense, OrderingKind::Natural),
    (SolverKind::Sparse, OrderingKind::Natural),
    (SolverKind::Sparse, OrderingKind::Amd),
    (SolverKind::Sparse, OrderingKind::Btf),
];

fn opts3(solver: SolverKind, ordering: OrderingKind) -> AnalysisOptions {
    AnalysisOptions { solver, ordering, ..AnalysisOptions::default() }
}

/// Solves the DC operating point through all four paths and compares
/// every MNA unknown pairwise against the dense reference.
fn assert_dc_four_way_agrees(c: &Circuit, context: &str, tol: f64) {
    let solutions: Vec<_> = FOUR_WAY
        .iter()
        .map(|&(solver, ordering)| {
            DcAnalysis::with_options(c, opts3(solver, ordering)).solve().unwrap_or_else(|e| {
                panic!("{context}: {solver:?}/{ordering:?} failed: {e}")
            })
        })
        .collect();
    for (idx, sol) in solutions.iter().enumerate().skip(1) {
        let (solver, ordering) = FOUR_WAY[idx];
        for (i, (d, s)) in solutions[0].state().iter().zip(sol.state()).enumerate() {
            let scale = d.abs().max(s.abs()).max(1.0);
            assert!(
                (d - s).abs() <= tol * scale,
                "{context}: {solver:?}/{ordering:?} unknown {i} diverges: dense {d} vs {s}"
            );
        }
    }
}

#[test]
fn mesh_dc_four_way_across_sizes_nominal_and_faulted() {
    for n in [64usize, 256] {
        let mac = MeshMacro::with_unknowns(n);
        let c = mac.nominal_circuit();
        assert_dc_four_way_agrees(&c, &format!("mesh n={n}"), REL_TOL);
        for fault in mac.fault_dictionary().iter() {
            let faulty = fault.inject(&c).unwrap();
            assert_dc_four_way_agrees(
                &faulty,
                &format!("mesh n={n} fault {}", fault.name()),
                REL_TOL,
            );
        }
    }
}

#[test]
fn ladder_dc_four_way_nominal_and_faulted() {
    let mac = LadderMacro::with_unknowns(256);
    let c = mac.nominal_circuit();
    assert_dc_four_way_agrees(&c, "ladder n=256", REL_TOL);
    for fault in mac.fault_dictionary().iter() {
        let faulty = fault.inject(&c).unwrap();
        assert_dc_four_way_agrees(&faulty, &format!("ladder fault {}", fault.name()), REL_TOL);
    }
}

/// The OTA chain is the workload BTF exists for: its Norton-biased
/// cascade condenses into per-stage blocks under the static (DC)
/// pattern, so the forced-BTF column here actually exercises the
/// block-wise factor/solve path (on the other macros it falls back to
/// AMD). Nonlinear, so the tight tolerances pin every path to the same
/// Newton fixed point.
#[test]
fn ota_chain_dc_four_way_nominal_and_faulted() {
    let mac = OtaChainMacro::with_unknowns(128);
    let c = mac.nominal_circuit();
    let reference = DcAnalysis::with_options(&c, tight(SolverKind::Dense, OrderingKind::Natural))
        .solve()
        .unwrap();
    for &(solver, ordering) in &FOUR_WAY[1..] {
        let sol = DcAnalysis::with_options(&c, tight(solver, ordering)).solve().unwrap();
        for (i, (d, s)) in reference.state().iter().zip(sol.state()).enumerate() {
            let scale = d.abs().max(s.abs()).max(1.0);
            assert!(
                (d - s).abs() <= REL_TOL * scale,
                "ota chain {solver:?}/{ordering:?} unknown {i}: {d} vs {s}"
            );
        }
    }
    for fault in mac.fault_dictionary().iter() {
        let faulty = fault.inject(&c).unwrap();
        let dense =
            DcAnalysis::with_options(&faulty, tight(SolverKind::Dense, OrderingKind::Natural))
                .solve()
                .unwrap();
        let btf = DcAnalysis::with_options(&faulty, tight(SolverKind::Sparse, OrderingKind::Btf))
            .solve()
            .unwrap();
        for (d, s) in dense.state().iter().zip(btf.state()) {
            let scale = d.abs().max(s.abs()).max(1.0);
            assert!(
                (d - s).abs() <= REL_TOL * scale,
                "ota chain fault {}: {d} vs {s}",
                fault.name()
            );
        }
    }
}

/// Transient on the OTA chain across all four configurations: the
/// transient Newton systems live on the full (companion-augmented)
/// pattern, where the gate-drain capacitances make the cascade
/// irreducible — forced BTF must fall back to AMD and still agree.
#[test]
fn ota_chain_transient_four_way() {
    let mac = OtaChainMacro::with_unknowns(64);
    let c = mac.nominal_circuit();
    let out = c.find_node("out").unwrap();
    let probes = [Probe::NodeVoltage(out)];
    let run = |solver, ordering| {
        TranAnalysis::with_options(&c, tight(solver, ordering), Default::default())
            .override_stimulus("VIN", Waveform::step(1.5, 3.0, 0.2e-6, 0.05e-6))
            .run(1e-6, 0.05e-6, &probes)
            .unwrap()
    };
    let reference = run(SolverKind::Dense, OrderingKind::Natural);
    for &(solver, ordering) in &FOUR_WAY[1..] {
        let got = run(solver, ordering);
        assert_eq!(reference.len(), got.len());
        for (i, (d, s)) in reference.column(0).iter().zip(got.column(0)).enumerate() {
            let scale = d.abs().max(s.abs()).max(1.0);
            assert!(
                (d - s).abs() <= 1e-8 * scale,
                "ota transient {solver:?}/{ordering:?} t[{i}]: {d} vs {s}"
            );
        }
    }
}

/// The crossbar is the *nonlinear* mesh-fill workload: MOS readout
/// stages on two overlaid bar lattices. Newton must converge to the
/// same fixed point through all four solver paths, nominal and with
/// bridge + pinhole faults injected.
#[test]
fn crossbar_dc_four_way_nominal_and_faulted() {
    let mac = CrossbarMacro::with_unknowns(96);
    let c = mac.nominal_circuit();
    let reference = DcAnalysis::with_options(&c, tight(SolverKind::Dense, OrderingKind::Natural))
        .solve()
        .unwrap();
    for &(solver, ordering) in &FOUR_WAY[1..] {
        let sol = DcAnalysis::with_options(&c, tight(solver, ordering)).solve().unwrap();
        for (d, s) in reference.state().iter().zip(sol.state()) {
            let scale = d.abs().max(s.abs()).max(1.0);
            assert!(
                (d - s).abs() <= REL_TOL * scale,
                "crossbar {solver:?}/{ordering:?}: {d} vs {s}"
            );
        }
    }
    for fault in mac.fault_dictionary().iter() {
        let faulty = fault.inject(&c).unwrap();
        let dense = DcAnalysis::with_options(&faulty, tight(SolverKind::Dense, OrderingKind::Natural))
            .solve()
            .unwrap();
        let amd = DcAnalysis::with_options(&faulty, tight(SolverKind::Sparse, OrderingKind::Amd))
            .solve()
            .unwrap();
        for (d, s) in dense.state().iter().zip(amd.state()) {
            let scale = d.abs().max(s.abs()).max(1.0);
            assert!(
                (d - s).abs() <= 1e-7 * scale,
                "crossbar fault {}: {d} vs {s}",
                fault.name()
            );
        }
    }
}

#[test]
fn mesh_transient_four_way() {
    let mac = MeshMacro::with_unknowns(144);
    let c = mac.nominal_circuit();
    let out = c.find_node("out").unwrap();
    let probes = [Probe::NodeVoltage(out)];
    let run = |solver, ordering| {
        TranAnalysis::with_options(&c, opts3(solver, ordering), Default::default())
            .override_stimulus("V1", Waveform::step(1.0, 2.0, 0.2e-6, 0.05e-6))
            .run(2e-6, 0.05e-6, &probes)
            .unwrap()
    };
    let reference = run(SolverKind::Dense, OrderingKind::Natural);
    for &(solver, ordering) in &FOUR_WAY[1..] {
        let got = run(solver, ordering);
        assert_eq!(reference.len(), got.len());
        for (i, (d, s)) in reference.column(0).iter().zip(got.column(0)).enumerate() {
            let scale = d.abs().max(s.abs()).max(1.0);
            assert!(
                (d - s).abs() <= REL_TOL * scale,
                "mesh transient {solver:?}/{ordering:?} t[{i}]: {d} vs {s}"
            );
        }
    }
}

/// A full-wave diode bridge rectifier with source resistance, a
/// smoothing capacitor and a load — the pure-diode workload of the
/// junction-device differentials. With a +3 V input, D1 and D4 conduct
/// while D2 and D3 sit in reverse, so the DC operating point exercises
/// both sides of the exponential.
fn rectifier() -> Circuit {
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let a = c.node("a");
    let p = c.node("p");
    let m = c.node("m");
    let gnd = Circuit::GROUND;
    let d = DiodeParams::signal_default();
    c.add_vsource("V1", vin, gnd, Waveform::dc(3.0)).unwrap();
    c.add_resistor("RS", vin, a, 50.0).unwrap();
    c.add_diode("D1", a, p, d).unwrap();
    c.add_diode("D2", gnd, p, d).unwrap();
    c.add_diode("D3", m, a, d).unwrap();
    c.add_diode("D4", m, gnd, d).unwrap();
    c.add_resistor("RL", p, m, 1e3).unwrap();
    c.add_capacitor("CF", p, m, 1e-6).unwrap();
    c
}

/// Bridge and junction-pinhole faults of the rectifier differential.
fn rectifier_faults() -> Vec<Fault> {
    let mut faults = vec![
        Fault::bridge("a", "p", 10e3),
        Fault::bridge("p", "m", 10e3),
        Fault::bridge("vin", "m", 10e3),
    ];
    for d in ["D1", "D2", "D3", "D4"] {
        faults.push(Fault::junction_pinhole(d, Junction::AnodeCathode, 2e3));
    }
    faults
}

/// The diode bridge through all four solver paths, nominal and under
/// every differential fault: the exponential junction Newton must land
/// on the same fixed point everywhere.
#[test]
fn rectifier_dc_four_way_nominal_and_faulted() {
    let c = rectifier();
    let reference = DcAnalysis::with_options(&c, tight(SolverKind::Dense, OrderingKind::Natural))
        .solve()
        .unwrap();
    // Sanity: the bridge really rectifies (one diode drop per leg).
    let p = reference.voltage(c.find_node("p").unwrap());
    let m = reference.voltage(c.find_node("m").unwrap());
    assert!(p - m > 1.0 && p - m < 3.0, "rectified output {}", p - m);
    for &(solver, ordering) in &FOUR_WAY[1..] {
        let sol = DcAnalysis::with_options(&c, tight(solver, ordering)).solve().unwrap();
        for (i, (d, s)) in reference.state().iter().zip(sol.state()).enumerate() {
            let scale = d.abs().max(s.abs()).max(1.0);
            assert!(
                (d - s).abs() <= REL_TOL * scale,
                "rectifier {solver:?}/{ordering:?} unknown {i}: {d} vs {s}"
            );
        }
    }
    for fault in rectifier_faults() {
        let faulty = fault.inject(&c).unwrap();
        let dense =
            DcAnalysis::with_options(&faulty, tight(SolverKind::Dense, OrderingKind::Natural))
                .solve()
                .unwrap();
        for &(solver, ordering) in &FOUR_WAY[1..] {
            let sol = DcAnalysis::with_options(&faulty, tight(solver, ordering)).solve().unwrap();
            for (d, s) in dense.state().iter().zip(sol.state()) {
                let scale = d.abs().max(s.abs()).max(1.0);
                assert!(
                    (d - s).abs() <= REL_TOL * scale,
                    "rectifier fault {} {solver:?}/{ordering:?}: {d} vs {s}",
                    fault.name()
                );
            }
        }
    }
}

/// Runs a 2 µs transient of `c` with `source` driven by `wave` at step
/// `dt` through the dense and the sparse path under [`tight`],
/// checks that `V(node)` agrees to 1e-8 relative at every step, and
/// returns the dense waveform.
fn tight_transient_dense_vs_sparse(
    c: &Circuit,
    (source, wave): (&str, Waveform),
    node: &str,
    dt: f64,
) -> Vec<f64> {
    let probes = [Probe::NodeVoltage(c.find_node(node).unwrap())];
    let run = |kind| {
        TranAnalysis::with_options(c, tight(kind, OrderingKind::Auto), Default::default())
            .override_stimulus(source, wave.clone())
            .run(2e-6, dt, &probes)
            .unwrap()
    };
    let dense = run(SolverKind::Dense);
    let sparse = run(SolverKind::Sparse);
    assert_eq!(dense.len(), sparse.len());
    for (i, (d, s)) in dense.column(0).iter().zip(sparse.column(0)).enumerate() {
        let scale = d.abs().max(s.abs()).max(1.0);
        assert!(
            (d - s).abs() <= 1e-8 * scale,
            "v({node}) transient t[{i}]: dense {d} vs sparse {s}"
        );
    }
    dense.column(0).to_vec()
}

/// Transient on the rectifier: junction capacitances enter the
/// companion-augmented pattern, and the step drives the diodes across
/// their conduction threshold mid-run.
#[test]
fn rectifier_transient_dense_vs_sparse() {
    let step = ("V1", Waveform::step(0.0, 3.0, 0.2e-6, 0.05e-6));
    tight_transient_dense_vs_sparse(&rectifier(), step, "p", 0.05e-6);
}

/// Transient on the bipolar op-amp: a small input step moves the
/// output through the junction-limited Newton path, and the cje/cjc/cj0
/// junction capacitances enter the companion-augmented sparse pattern.
#[test]
fn bjt_opamp_transient_dense_vs_sparse() {
    let c = bjt_macro().nominal_circuit();
    let step = ("VIN", Waveform::step(2.5, 0.2, 0.2e-6, 0.05e-6));
    let out = tight_transient_dense_vs_sparse(&c, step, "out", 20e-9);
    let (lo, hi) =
        out.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    assert!(hi - lo > 0.1, "bjt transient output barely moves: {lo} .. {hi}");
}

/// The bipolar op-amp through all four solver paths, nominal and under
/// its entire 55-fault dictionary (45 bridges + 10 junction pinholes).
/// Faulted variants get a conditioning-aware bound like the
/// IV-converter's: a supply bridge into the high-gain loop leaves two
/// equally correct factorizations ~κ·ε apart.
#[test]
fn bjt_opamp_dc_four_way_nominal_and_faulted() {
    let mac = bjt_macro();
    let c = mac.nominal_circuit();
    let reference = DcAnalysis::with_options(&c, tight(SolverKind::Dense, OrderingKind::Natural))
        .solve()
        .unwrap();
    for &(solver, ordering) in &FOUR_WAY[1..] {
        let sol = DcAnalysis::with_options(&c, tight(solver, ordering)).solve().unwrap();
        for (i, (d, s)) in reference.state().iter().zip(sol.state()).enumerate() {
            let scale = d.abs().max(s.abs()).max(1.0);
            assert!(
                (d - s).abs() <= REL_TOL * scale,
                "bjt opamp {solver:?}/{ordering:?} unknown {i}: {d} vs {s}"
            );
        }
    }
    for fault in mac.fault_dictionary().iter() {
        let faulty = fault.inject(&c).unwrap();
        let dense =
            DcAnalysis::with_options(&faulty, tight(SolverKind::Dense, OrderingKind::Natural))
                .solve()
                .unwrap();
        for &(solver, ordering) in &FOUR_WAY[1..] {
            let sol = DcAnalysis::with_options(&faulty, tight(solver, ordering)).solve().unwrap();
            for (d, s) in dense.state().iter().zip(sol.state()) {
                let scale = d.abs().max(s.abs()).max(1.0);
                assert!(
                    (d - s).abs() <= 1e-6 * scale,
                    "bjt opamp fault {} {solver:?}/{ordering:?}: {d} vs {s}",
                    fault.name()
                );
            }
        }
    }
}

/// Acceptance pin: pn-junction limiting must keep the cold start (all
/// unknowns at zero) of both junction macros on the cheap rungs of the
/// Newton ladder. Without limiting, the rectifier's first iterate puts
/// ~3 V across an exponential and overflows into the rescue rungs; with
/// it, plain or damped Newton lands every solve.
#[test]
fn junction_cold_starts_stay_on_the_cheap_rungs() {
    for (name, c) in [
        ("rectifier", rectifier()),
        ("bjt_opamp", bjt_macro().nominal_circuit()),
    ] {
        let sol = DcAnalysis::new(&c).solve().unwrap();
        let report = sol.convergence();
        assert!(
            matches!(report.strategy, NewtonStrategy::Plain | NewtonStrategy::Damped),
            "{name}: cold start escalated to {}",
            report.strategy
        );
        for rung in &report.rungs {
            assert!(
                matches!(rung.strategy, NewtonStrategy::Plain | NewtonStrategy::Damped),
                "{name}: ladder attempted {}",
                rung.strategy
            );
        }
        assert!(
            report.total_iterations() < 200,
            "{name}: cold start took {} iterations",
            report.total_iterations()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random `LadderMacro` instances — random size, stimulus level and
    /// injected bridge fault — agree between the two solver paths at
    /// the DC operating point.
    #[test]
    fn random_ladder_instances_agree(
        sections in 8usize..220,
        lev in 1.0f64..8.0,
        fault_choice in 0usize..12,
    ) {
        let mac = LadderMacro::new(sections);
        let c = mac.nominal_circuit();
        let dict = mac.fault_dictionary();
        let fault: &Fault = &dict.faults()[fault_choice % dict.len()];
        let faulty = fault.inject(&c).unwrap();

        for circuit in [&c, &faulty] {
            let solve = |solver| {
                DcAnalysis::with_options(circuit, opts(solver))
                    .override_stimulus("V1", Waveform::dc(lev))
                    .solve()
                    .unwrap()
            };
            let dense = solve(SolverKind::Dense);
            let sparse = solve(SolverKind::Sparse);
            for (d, s) in dense.state().iter().zip(sparse.state()) {
                let scale = d.abs().max(s.abs()).max(1.0);
                prop_assert!(
                    (d - s).abs() <= REL_TOL * scale,
                    "sections={}, lev={}, fault={}: {} vs {}",
                    sections, lev, fault.name(), d, s
                );
            }
        }
    }
}
