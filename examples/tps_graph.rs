//! Renders tps-graphs (the paper's Figs. 2–4): the sensitivity landscape
//! of the THD test configuration for a bridging fault at three impact
//! levels, as ASCII heat maps.
//!
//! ```sh
//! cargo run --release --example tps_graph            # 9×9 grid
//! cargo run --release --example tps_graph -- 17      # finer grid
//! ```

use castg::core::{tps_graph, AnalogMacro, Evaluator, NominalCache};
use castg::faults::Fault;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(9);

    let mac = castg_bench::iv_macro(false);
    let circuit = mac.nominal_circuit();
    let cache = NominalCache::new();
    let configs = mac.configurations();
    let thd = configs.iter().find(|c| c.id() == 3).expect("config #3 exists");
    let ev = Evaluator::new(thd.as_ref(), &circuit, &cache);

    // The same fault at a hard impact (10 kΩ) and two soft impacts
    // (34 kΩ, 75 kΩ): the soft-fault graphs share a stable optimum.
    for ohms in [10e3, 34e3, 75e3] {
        let fault = Fault::bridge("tail", "out", ohms);
        let graph = tps_graph(&ev, &fault, n, n)?;
        println!("{}", graph.render_ascii());
        if let Some((x, y, s)) = graph.optimum() {
            println!(
                "optimum: Iin_dc = {:.1} µA, freq = {:.1} kHz, S = {s:.3}\n",
                x * 1e6,
                y / 1e3
            );
        }
    }
    Ok(())
}
