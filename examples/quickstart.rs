//! Quickstart: measure how visibly a single bridging defect disturbs the
//! IV-converter, exactly the way the test generator scores it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use castg::core::{AnalogMacro, Evaluator, NominalCache};
use castg::faults::Fault;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The device under test: the IV-converter deck
    // (`tests/fixtures/iv_converter.sp`), a CMOS transimpedance
    // amplifier with standardized node names (vdd, inn, out, ...).
    let mac = castg_bench::iv_macro(false);
    let circuit = mac.nominal_circuit();
    println!(
        "macro `{}` ({}): {} nodes, {} devices, {} faults in the dictionary",
        mac.name(),
        mac.macro_type(),
        circuit.node_count(),
        circuit.devices().len(),
        mac.fault_dictionary().len()
    );

    // A 10 kΩ resistive short between the second-stage input and the
    // output — one of the paper's 45 bridging faults.
    let fault = Fault::bridge("na", "out", 10e3);
    println!("\ninjected fault: {fault}");

    // Score it with test configuration #1 (DC transfer) at a few drive
    // levels. S < 0 means the tolerance box is violated → detected.
    let cache = NominalCache::new();
    let configs = mac.configurations();
    let dc = configs.iter().find(|c| c.id() == 1).expect("config #1 exists");
    let ev = Evaluator::new(dc.as_ref(), &circuit, &cache);
    println!("\nconfig #1 (dc_transfer): sensitivity S_f(lev)");
    for lev in [-40e-6, -20e-6, 0.0, 20e-6, 40e-6] {
        let report = ev.evaluate(&fault, &[lev])?;
        println!(
            "  lev = {:>8.1} µA   ΔV(out) = {:>12.5e} V   box = {:>10.3e} V   S = {:>8.3}  {}",
            lev * 1e6,
            report.faulty_returns[0] - report.nominal_returns[0],
            report.boxes[0],
            report.sensitivity,
            if report.sensitivity < 0.0 { "DETECTED" } else { "undetected" }
        );
    }
    println!("\n(negative sensitivity = the deviation leaves the tolerance box)");
    Ok(())
}
