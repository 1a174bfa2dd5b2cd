//! Cross-validation of the AC small-signal engine against the transient
//! engine and against the IV-converter's designed behaviour. Two
//! independent numerical paths agreeing is strong evidence both are
//! right.

use castg::core::AnalogMacro;
use castg::spice::{
    AcAnalysis, AcSource, Circuit, Probe, TranAnalysis, Waveform,
};

#[test]
fn ac_matches_transient_steady_state_for_rc() {
    // Drive an RC low-pass at its pole frequency: the transient
    // steady-state amplitude must equal the AC magnitude.
    let (r, c) = (1e3, 1e-9);
    let f0 = 1.0 / (2.0 * std::f64::consts::PI * r * c);
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::sine(0.0, 1.0, f0)).unwrap();
    ckt.add_resistor("R1", vin, out, r).unwrap();
    ckt.add_capacitor("C1", out, Circuit::GROUND, c).unwrap();

    // AC path.
    let sweep = AcAnalysis::new(&ckt)
        .source(AcSource { name: "V1".into(), magnitude: 1.0 })
        .run(&[f0])
        .unwrap();
    let h_ac = sweep.voltage(0, out).abs();

    // Transient path: simulate 8 periods, measure the peak of the tail.
    let period = 1.0 / f0;
    let trace = TranAnalysis::new(&ckt)
        .run(8.0 * period, period / 256.0, &[Probe::NodeVoltage(out)])
        .unwrap();
    let tail = &trace.column(0)[trace.len() * 3 / 4..];
    let h_tran = tail.iter().fold(0.0_f64, |m, v| m.max(v.abs()));

    assert!(
        (h_ac - h_tran).abs() < 0.02,
        "AC says {h_ac:.4}, transient steady state says {h_tran:.4}"
    );
}

#[test]
fn iv_converter_ac_transimpedance_is_rf_in_band() {
    let circuit = castg_bench::iv_macro(false).nominal_circuit();
    let out = circuit.find_node("out").unwrap();
    let sweep = AcAnalysis::new(&circuit)
        .source(AcSource { name: "IIN".into(), magnitude: 1.0 })
        .run(&[1e3, 10e3, 100e3])
        .unwrap();
    let z = sweep.magnitude(out);
    // In-band transimpedance ≈ RF = 39 kΩ, flat through 100 kHz.
    for (f, zi) in sweep.freqs().iter().zip(&z) {
        assert!(
            (zi - 39e3).abs() / 39e3 < 0.05,
            "|Z({f} Hz)| = {zi}, expected ≈ 39 kΩ"
        );
    }
}

#[test]
fn iv_converter_bandwidth_is_finite_and_reasonable() {
    // Far above the loop bandwidth the transimpedance must roll off.
    let circuit = castg_bench::iv_macro(false).nominal_circuit();
    let out = circuit.find_node("out").unwrap();
    let sweep = AcAnalysis::new(&circuit)
        .source(AcSource { name: "IIN".into(), magnitude: 1.0 })
        .run(&[10e3, 100e6])
        .unwrap();
    let z = sweep.magnitude(out);
    assert!(
        z[1] < 0.5 * z[0],
        "no roll-off: |Z(100 MHz)| = {} vs |Z(10 kHz)| = {}",
        z[1],
        z[0]
    );
}

#[test]
fn bridge_fault_shifts_ac_response() {
    // A feedback bridge halves the transimpedance — visible in AC too,
    // foreshadowing gain-style extension test configurations.
    let circuit = castg_bench::iv_macro(false).nominal_circuit();
    let faulty = castg::faults::Fault::bridge("out", "inn", 39e3).inject(&circuit).unwrap();
    let out = circuit.find_node("out").unwrap();
    let run = |c: &Circuit| {
        AcAnalysis::new(c)
            .source(AcSource { name: "IIN".into(), magnitude: 1.0 })
            .run(&[1e3])
            .unwrap()
            .voltage(0, out)
            .abs()
    };
    let z_nom = run(&circuit);
    let z_flt = run(&faulty);
    assert!(
        (z_flt - z_nom / 2.0).abs() / z_nom < 0.1,
        "z_nom = {z_nom}, z_faulty = {z_flt} (expected ≈ half)"
    );
}
