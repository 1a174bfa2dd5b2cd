//! Test-configuration descriptions as text (the paper's Fig. 1): parse a
//! description, inspect it, and round-trip it back to text. This is the
//! exchange format that makes a test engineer's configuration work
//! reusable across macros of a type (§2.1).
//!
//! ```sh
//! cargo run --release --example dsl_config
//! ```

use castg::core::{AnalogMacro, ConfigDescription};

const STEP_RESPONSE: &str = "\
# A test configuration description for IV-converter macros,
# in the spirit of the paper's Fig. 1.
macro type: IV-converter
test configuration: Step response 1
control Iin: step(base, elev, slew_rate=sl)
observe Vout: sample(rate=sa, time=t)
return: Max(dV(Vout))
parameter base: -2e-5 .. 2e-5
parameter elev: -4e-5 .. 4e-5
variable sl: 1e-8
variable sa: 1e8
variable t: 7.5e-6
seed base: 0
seed elev: 2e-5
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Parse the textual description.
    let parsed = ConfigDescription::parse(STEP_RESPONSE)?;
    println!("parsed `{}` for macro type `{}`", parsed.title, parsed.macro_type);
    println!("  control nodes : {:?}", parsed.controls.iter().map(|c| &c.node).collect::<Vec<_>>());
    println!("  observe nodes : {:?}", parsed.observes.iter().map(|o| &o.node).collect::<Vec<_>>());
    println!("  return value  : {}", parsed.return_value);
    for p in &parsed.parameters {
        println!("  parameter {:<6} ∈ [{:.2e}, {:.2e}]", p.name, p.lo, p.hi);
    }
    println!("  seed vector   : {:?}", parsed.seed_vector());

    // Round-trip: serialize and re-parse.
    let text = parsed.to_string();
    let reparsed = ConfigDescription::parse(&text)?;
    assert_eq!(parsed, reparsed);
    println!("\nround-trip through the text format: ok");

    // Compare with configuration #4 of the IV-converter macro
    // (`tests/fixtures/iv_configs/4_step_max_dev.cfg`).
    let mac = castg_bench::iv_macro(false);
    let configs = mac.configurations();
    let live = configs.iter().find(|c| c.id() == 4).expect("config #4 exists");
    let live_d = live.description();
    println!("\nlive configuration #4 (`{}`) description:\n{live_d}", live.name());
    Ok(())
}
