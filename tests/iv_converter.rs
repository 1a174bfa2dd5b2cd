//! Checks of the IV-converter device under test — the committed deck
//! `tests/fixtures/iv_converter.sp` and its five Table-1 configurations
//! under `tests/fixtures/iv_configs/`, loaded by
//! [`castg_bench::iv_macro`] — against the paper's §3.4 experimental
//! setup: the circuit's operating point and transimpedance, the
//! configurations' measurements and boxes, and the fault dictionary.
//! Each measurement is a single simulation, so the debug-mode test run
//! stays fast; the full generation runs in the release-mode
//! `regen_all`.

use std::sync::Arc;

use castg::core::{
    tps_profile, AnalogMacro, ConfigDescription, Evaluator, NominalCache, TestConfiguration,
};
use castg::faults::{fault_site_nets, Fault, FaultKind};
use castg::macros::BoxPolicy;
use castg::spice::{Circuit, DcAnalysis, DcSolution, Waveform};
use castg_bench::iv_macro;

fn solve(c: &Circuit) -> DcSolution {
    DcAnalysis::new(c).solve().expect("IV-converter operating point must converge")
}

/// The operating point with a DC input current of `iin` amperes.
fn solve_at(c: &Circuit, iin: f64) -> DcSolution {
    DcAnalysis::new(c)
        .override_stimulus("IIN", Waveform::dc(iin))
        .solve()
        .expect("IV-converter operating point must converge")
}

fn configs() -> Vec<Arc<dyn TestConfiguration>> {
    iv_macro(false).configurations()
}

fn circuit() -> Circuit {
    iv_macro(false).nominal_circuit()
}

#[test]
fn operating_point_is_sane() {
    let c = circuit();
    let sol = solve(&c);
    let v = |n: &str| sol.voltage(c.find_node(n).unwrap());
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
    let c = circuit();
    let out = c.find_node("out").unwrap();
    let v0 = solve(&c).voltage(out);
    let v1 = solve_at(&c, 10e-6).voltage(out);
    let gain = (v1 - v0) / 10e-6;
    assert!((gain - 39e3).abs() / 39e3 < 0.03, "transimpedance {gain} vs RF 39 kΩ");
}

#[test]
fn negative_input_current_swings_down() {
    let c = circuit();
    let vout = solve_at(&c, -30e-6).voltage(c.find_node("out").unwrap());
    assert!((vout - (2.5 - 30e-6 * 39e3)).abs() < 0.15, "vout = {vout}");
}

#[test]
fn output_clips_when_source_limited() {
    // Beyond M7's drive the feedback loop loses control: the output
    // should fall visibly short of the ideal vref + Iin·RF.
    let c = circuit();
    let vout = solve_at(&c, 60e-6).voltage(c.find_node("out").unwrap());
    let ideal = 2.5 + 60e-6 * 39e3; // 4.84 V
    assert!(vout < ideal - 0.2, "vout = {vout}, ideal = {ideal}");
}

#[test]
fn supply_current_is_class_a_quiescent() {
    let idd = solve(&circuit()).source_current("VDD").unwrap();
    // Tail (20 µA) + output (40 µA) + bias (2×20 µA) + divider
    // (12.5 µA) ≈ 110–140 µA flowing out of VDD (negative in SPICE
    // convention).
    assert!(idd < -60e-6 && idd > -300e-6, "idd = {idd}");
}

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
    let mac = iv_macro(false);
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
    let mac = iv_macro(false);
    let dict = mac.fault_dictionary();
    assert_eq!(dict.len(), 55);
    assert_eq!(dict.count(FaultKind::Bridge), 45);
    assert_eq!(dict.count(FaultKind::Pinhole), 10);
    assert_eq!(fault_site_nets(mac.circuit()).len(), 10);
    assert_eq!(mac.nominal_circuit().mosfet_names().len(), 10);
}

#[test]
fn five_configurations_with_paper_structure() {
    let mac = iv_macro(false);
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
    let c = circuit();
    let out = solve_at(&c, 20e-6).voltage(c.find_node("out").unwrap());
    // V(out) = vref + Iin·RF = 2.5 + 20 µA · 39 kΩ = 3.28 V.
    assert!((out - 3.28).abs() < 0.1, "out = {out}");
}

#[test]
fn dc_profile_detects_feedback_bridge_everywhere() {
    let mac = iv_macro(false);
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
    let mac = iv_macro(false);
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
    let mac = iv_macro(false);
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

#[test]
fn seeds_are_inside_bounds() {
    for c in configs() {
        assert!(c.space().contains(&c.seed()), "seed of {} out of bounds", c.name());
    }
}

#[test]
fn dc_transfer_tracks_rf() {
    let (circuit, configs) = (circuit(), configs());
    let c1 = &configs[0];
    let v0 = c1.measure(&circuit, &[0.0]).unwrap().as_scalars().unwrap()[0];
    let v1 = c1.measure(&circuit, &[10e-6]).unwrap().as_scalars().unwrap()[0];
    assert!(((v1 - v0) / 10e-6 - 39e3).abs() < 2e3, "gain {}", (v1 - v0) / 10e-6);
}

#[test]
fn supply_current_measures_vdd_branch() {
    let m = configs()[1].measure(&circuit(), &[0.0]).unwrap();
    let idd = m.as_scalars().unwrap()[0];
    assert!(idd < -50e-6 && idd > -400e-6, "idd {idd}");
}

#[test]
fn thd_is_small_mid_range_and_larger_near_clipping() {
    let (circuit, configs) = (circuit(), configs());
    let thd = |p: [f64; 2]| configs[2].measure(&circuit, &p).unwrap().as_scalars().unwrap()[0];
    let mid = thd([10e-6, 10e3]);
    let edge = thd([40e-6, 10e3]);
    assert!((0.0..10.0).contains(&mid), "mid-range THD {mid}");
    assert!(edge > mid, "clipping must raise THD: {edge} !> {mid}");
}

#[test]
fn step_config_samples_at_100mhz_for_7us5() {
    let m = configs()[3].measure(&circuit(), &[0.0, 20e-6]).unwrap();
    let w = m.as_waveform().unwrap();
    assert_eq!(w.dt(), 1.0 / 100e6);
    assert_eq!(w.len(), 751); // t = 0 plus 750 samples
    // Step of 20 µA over 39 kΩ ≈ 0.78 V swing.
    let swing = w.values().last().unwrap() - w.values()[0];
    assert!((swing - 0.78).abs() < 0.08, "swing {swing}");
}

#[test]
fn step_acc_dev_is_zero_for_nominal_vs_nominal() {
    let configs = configs();
    let m = configs[4].measure(&circuit(), &[0.0, 10e-6]).unwrap();
    assert_eq!(configs[4].return_values(&m, &m), vec![0.0]);
}

#[test]
fn boxes_are_positive_everywhere() {
    for c in configs() {
        let space = c.space();
        for p in [space.center(), space.clamp(&c.seed())] {
            let b = c.tolerance_box(&p, &[0.0]);
            assert!(b[0] > 0.0, "box of {} at {:?} is {}", c.name(), p, b[0]);
        }
    }
}

#[test]
fn descriptions_have_table1_structure() {
    for c in configs() {
        let d = c.description();
        assert_eq!(d.macro_type, "IV-converter");
        assert_eq!(d.controls.len(), 1);
        assert_eq!(d.controls[0].node, "IIN");
        let observed = if c.id() == 2 { "VDD" } else { "out" };
        assert_eq!(d.observes[0].node, observed);
        assert_eq!(d.parameters.len(), c.space().dim());
        // Round-trip through the Fig.-1 text format.
        let parsed = ConfigDescription::parse(&d.to_string()).unwrap();
        assert_eq!(parsed, d);
    }
}

#[test]
fn calibrated_box_policy_measures_real_spread() {
    // Small calibration (3 grid points × 3 Monte-Carlo samples) on
    // the two DC-based configurations: the calibrated box must exceed
    // the `.cfg` floor (process spread is real) and stay finite.
    let mac = iv_macro(false);
    let policy = BoxPolicy::Calibrated { grid_points: 3, mc_samples: 3, seed: 11, margin: 1.2 };
    let configs = policy.apply(&mac.nominal_circuit(), mac.configurations());
    for c in configs.iter().filter(|c| c.id() <= 2) {
        let b = c.tolerance_box(&c.seed(), &[0.0])[0];
        let floor = if c.id() == 1 { 1e-3 } else { 50e-9 };
        assert!(b > floor, "config {} calibrated box {b} not above floor", c.name());
        assert!(b.is_finite() && b < 1.0, "config {} box {b} implausible", c.name());
    }
}

#[test]
fn strong_bridge_detected_by_dc_transfer() {
    let (circuit, configs) = (circuit(), configs());
    let cache = NominalCache::new();
    let ev = Evaluator::new(configs[0].as_ref(), &circuit, &cache);
    // Bridge the output to the input node: destroys the closed loop.
    let fault = Fault::bridge("out", "inn", 10e3);
    let (s, _) = ev.sensitivity_outcome(&ev.inject(&fault).unwrap(), &[20e-6]).unwrap();
    assert!(s < 0.0, "S = {s}");
}
