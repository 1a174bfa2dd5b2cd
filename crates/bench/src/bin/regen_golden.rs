//! Regenerates only the golden-report fixtures under `tests/golden/`,
//! skipping the full experiment suite that `regen_all` re-runs first.
//! It writes nothing under `tests/fixtures/`: the decks and `.cfg`
//! files there are the macro definitions, edited by hand. Use after a
//! change that intentionally moves a pipeline rendering:
//!
//! ```text
//! cargo run --release -p castg-bench --bin regen_golden
//! ```
fn main() {
    let golden_dir = castg_bench::results_dir()
        .parent()
        .expect("results/ lives under the workspace root")
        .join("tests/golden");
    castg_bench::golden::write_fixtures(&golden_dir);
}
