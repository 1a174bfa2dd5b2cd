//! Pins the transient step's rescue stages — the gmin walk (both
//! attempts) and the recursive 8× sub-step cuts — on a CMOS inverter
//! switching into a capacitive load, bit for bit: the recorded trace and
//! the Newton iterations the run spends.
//!
//! Case A (0.1 pF load, `max_iter` 8, 0.1 V clamp) fails the plain step
//! on the input edge, lands second gmin attempts, and cuts steps at all
//! three recursion depths. Case B (10 fF load, `max_iter` 12) lands one
//! step on a first gmin attempt. Any change to the Newton iteration,
//! the gmin walk or the sub-step recursion shows up here.

use castg_spice::{
    ladder_stats, AnalysisOptions, Circuit, IntegrationMethod, MosParams, MosPolarity, Probe,
    TranAnalysis, Waveform,
};

/// Runs the inverter transient and returns `(v(out) bits, Newton
/// iterations spent)`.
fn inverter_run(c_load: f64, opts: AnalysisOptions) -> (Vec<u64>, u64) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
    c.add_vsource("VIN", inp, Circuit::GROUND, Waveform::step(0.0, 5.0, 1e-9, 1e-12)).unwrap();
    c.add_mosfet("MP", out, inp, vdd, vdd, MosPolarity::Pmos, MosParams::pmos_default(20e-6, 1e-6))
        .unwrap();
    c.add_mosfet(
        "MN",
        out,
        inp,
        Circuit::GROUND,
        Circuit::GROUND,
        MosPolarity::Nmos,
        MosParams::nmos_default(10e-6, 1e-6),
    )
    .unwrap();
    c.add_capacitor("CL", out, Circuit::GROUND, c_load).unwrap();
    let before = ladder_stats();
    let trace = TranAnalysis::with_options(&c, opts, IntegrationMethod::Trapezoidal)
        .run(4e-9, 1e-10, &[Probe::NodeVoltage(out)])
        .unwrap();
    let iterations = ladder_stats().since(&before).iterations;
    (trace.column(0).iter().map(|v| v.to_bits()).collect(), iterations)
}

#[test]
fn second_gmin_attempts_and_all_cut_depths_are_pinned() {
    let opts = AnalysisOptions { max_iter: 8, max_step_v: 0.1, ..AnalysisOptions::default() };
    let (bits, iterations) = inverter_run(0.1e-12, opts);
    assert_eq!(iterations, 814);
    assert_eq!(bits, CASE_A_BITS);
}

#[test]
fn first_gmin_attempt_is_pinned() {
    let opts = AnalysisOptions { max_iter: 12, ..AnalysisOptions::default() };
    let (bits, iterations) = inverter_run(10e-15, opts);
    assert_eq!(iterations, 164);
    assert_eq!(bits, CASE_B_BITS);
}

const CASE_A_BITS: [u64; 41] = [
    0x4013ffffffe46ecd, 0x4013ffffffe46ecd, 0x4013ffffffe46ecd, 0x4013ffffffe46ece,
    0x4013ffffffe46ece, 0x4013ffffffe46ece, 0x4013ffffffe46ece, 0x4013ffffffe46ecd,
    0x4013ffffffe46ecd, 0x4013ffffffe46ecd, 0x4013ffffffe46ecd, 0x3fcf713971a6a239,
    0xbfb5c432acadb006, 0x3fa07495060bdc4e, 0xbf87cd37bcfe6a62, 0x3f716a87c384483d,
    0xbf595578ce048db5, 0x3f4274444fb56841, 0xbf2add24b24f1273, 0x3f138e93b4974264,
    0xbefc78d2cfa9b277, 0x3ee4b9dc26848686, 0xbece2ca2b35cc249, 0x3eb5f70c429cc79b,
    0xbe9ffa6f0805460b, 0x3e87473315fb67cc, 0xbe70f1ea24a7a015, 0x3e58ab726ef62b15,
    0xbe41f53d72583b15, 0x3e2a24fdc4e6a0b3, 0xbe13081166da5970, 0x3dfbb51ae9eb5eb4,
    0xbde42b5351fee794, 0x3dcd5d236c10ed64, 0xbdb560023eb07750, 0x3d9f1e7b381ffa44,
    0xbd86a7266bdf3510, 0x3d707d3a92b9ac60, 0xbd58020118c694e8, 0x3d417af32998cc38,
    0xbd2970204d9d87e8,
];

const CASE_B_BITS: [u64; 41] = [
    0x401400000011f396, 0x4013ffffffe70c80, 0x4013ffffffe262af, 0x4013ffffffe608f9,
    0x4013ffffffe32dca, 0x4013ffffffe56a06, 0x4013ffffffe3aa31, 0x4013ffffffe508ab,
    0x4013ffffffe3f662, 0x4013ffffffe4cd0a, 0x4013ffffffe4250d, 0x3fe28599e69a3ff5,
    0xbfdb3a6d8ef4a1d0, 0x3fda99d8b716f8a8, 0xbfd4588675a1d403, 0x3fd325c697ea6d8b,
    0xbfce24e4bc67a8dc, 0x3fcb99d1d84dfe90, 0xbfc62f609c95cd6c, 0x3fc3e83d5c5d0cb4,
    0xbfc03f1b2e7dcaa1, 0x3fbcba3a4a5ad4e9, 0xbfb7b4bea6f32260, 0x3fb4bb7cb3fca75a,
    0xbfb13f2bc21735e2, 0x3fadedaf21ac0428, 0xbfa90aec12a4b1a9, 0x3fa59a725844239e,
    0xbfa2273f920f7d92, 0x3f9f306f22272d53, 0xbf9a49f2df686e17, 0x3f9683cca7d6cce1,
    0xbf9305013824acda, 0x3f9040d51028ac6b, 0xbf8b8110f7ec71ba, 0x3f87776386c4c3fd,
    0xbf83e0d3ac405a10, 0x3f80f0bef32ab594, 0xbf7cb96da7d52fdd, 0x3f78756fcdf4148b,
    0xbf74bfb0e7c3810b,
];
