//! Integration checks of the IV-converter device under test against the
//! paper's §3.4 experimental setup. Kept to DC-dominated work so the
//! debug-mode test run stays fast; the transient-heavy experiments live
//! in the release-mode bench binaries.

use castg::core::{tps_profile, AnalogMacro, Evaluator, NominalCache};
use castg::faults::{Fault, FaultKind};
use castg::macros::IvConverter;
use castg::spice::DcAnalysis;

/// The IV-converter operating point from a zero start is the dominant
/// per-solve cost of its campaigns now that each iteration is LU-bound.
/// Under the convergence strategy ladder (plain rung capped, damped
/// rung with bounded clamp growth) it takes exactly 24 iterations —
/// down from the 25 fixed-damping iterations the ladder replaced. The
/// count is deterministic (bit-stable assembly, power-of-two damping),
/// so this pins it exactly; an intentional convergence improvement
/// should update the number *downward* alongside a golden fixture
/// regeneration. A warm start from the solution must converge in a
/// single verification iteration.
#[test]
fn cold_start_newton_iteration_count_is_pinned() {
    let mac = IvConverter::with_analytic_boxes();
    let c = mac.nominal_circuit();
    let cold = DcAnalysis::new(&c).solve().unwrap();
    assert_eq!(
        cold.newton_iterations(),
        24,
        "cold-start Newton iteration count moved — regression or intentional \
         convergence change?"
    );
    let warm = DcAnalysis::new(&c).solve_from(cold.state()).unwrap();
    assert_eq!(warm.newton_iterations(), 1, "warm start must verify in one iteration");
    for (a, b) in cold.state().iter().zip(warm.state()) {
        // One verification iteration from a tolerance-converged state
        // may polish the iterate within the solver's own tolerances;
        // it must not move it materially.
        assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
    }
}

#[test]
fn fault_universe_is_the_papers() {
    let mac = IvConverter::with_analytic_boxes();
    let dict = mac.fault_dictionary();
    assert_eq!(dict.len(), 55);
    assert_eq!(dict.count(FaultKind::Bridge), 45);
    assert_eq!(dict.count(FaultKind::Pinhole), 10);
    assert_eq!(mac.fault_site_nodes().len(), 10);
    assert_eq!(mac.nominal_circuit().mosfet_names().len(), 10);
}

#[test]
fn five_configurations_with_paper_structure() {
    let mac = IvConverter::with_analytic_boxes();
    let configs = mac.configurations();
    assert_eq!(configs.len(), 5);
    let one_param = configs.iter().filter(|c| c.space().dim() == 1).count();
    let two_param = configs.iter().filter(|c| c.space().dim() == 2).count();
    assert_eq!((one_param, two_param), (2, 3));
    let ids: Vec<usize> = configs.iter().map(|c| c.id()).collect();
    assert_eq!(ids, [1, 2, 3, 4, 5]);
}

#[test]
fn transimpedance_operating_point() {
    let mac = IvConverter::with_analytic_boxes();
    let mut circuit = mac.nominal_circuit();
    circuit.set_stimulus("IIN", castg::spice::Waveform::dc(20e-6)).unwrap();
    let sol = DcAnalysis::new(&circuit).solve().unwrap();
    let out = sol.voltage(circuit.find_node("out").unwrap());
    // V(out) = vref + Iin·RF = 2.5 + 20 µA · 39 kΩ = 3.28 V.
    assert!((out - 3.28).abs() < 0.1, "out = {out}");
}

#[test]
fn dc_profile_detects_feedback_bridge_everywhere() {
    let mac = IvConverter::with_analytic_boxes();
    let circuit = mac.nominal_circuit();
    let cache = NominalCache::new();
    let configs = mac.configurations();
    let dc = configs.iter().find(|c| c.id() == 1).unwrap();
    let ev = Evaluator::new(dc.as_ref(), &circuit, &cache);
    // Bridging the feedback resistor halves the transimpedance — a
    // gross fault the DC transfer sees at every drive level but zero.
    let fault = Fault::bridge("out", "inn", 10e3);
    let profile = tps_profile(&ev, &fault, 9).unwrap();
    let detecting = profile.iter().filter(|(_, s)| *s < 0.0).count();
    assert!(detecting >= 7, "only {detecting}/9 profile points detect");
}

#[test]
fn weakening_a_pinhole_reduces_its_detectability() {
    // The impact knob of §2.2: raising the model resistance (a smaller
    // physical defect) must monotonically raise the best sensitivity
    // (toward undetectable).
    let mac = IvConverter::with_analytic_boxes();
    let circuit = mac.nominal_circuit();
    let cache = NominalCache::new();
    let configs = mac.configurations();
    let dc = configs.iter().find(|c| c.id() == 1).unwrap();
    let ev = Evaluator::new(dc.as_ref(), &circuit, &cache);

    let best_s = |fault: &Fault| -> f64 {
        tps_profile(&ev, fault, 9)
            .unwrap()
            .into_iter()
            .map(|(_, s)| s)
            .fold(f64::INFINITY, f64::min)
    };
    let base = Fault::pinhole("M4", 2e3);
    let s_strong = best_s(&base);
    let s_weak = best_s(&base.weakened(50.0));
    let s_weaker = best_s(&base.weakened(2500.0));
    assert!(s_strong < s_weak, "weakening must lose sensitivity: {s_strong} !< {s_weak}");
    assert!(s_weak < s_weaker, "weakening must lose sensitivity: {s_weak} !< {s_weaker}");
}

#[test]
fn all_dictionary_faults_inject_and_solve_dc() {
    let mac = IvConverter::with_analytic_boxes();
    let circuit = mac.nominal_circuit();
    let mut convergent = 0;
    for fault in mac.fault_dictionary().iter() {
        let faulty = fault.inject(&circuit).unwrap();
        if DcAnalysis::new(&faulty).solve().is_ok() {
            convergent += 1;
        }
    }
    assert!(convergent >= 50, "{convergent}/55 faulty circuits converge in DC");
}
