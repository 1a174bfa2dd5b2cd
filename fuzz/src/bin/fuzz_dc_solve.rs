//! Fuzz target: a budgeted DC operating-point solve must never panic
//! and never run away, whatever deck arrives.
//!
//! The contract under test is the solver's robustness promise: over
//! any circuit the frontend lowers, the Newton strategy ladder either
//! lands, or fails with a typed `Err` — no unwinds anywhere in the
//! assemble/factor/iterate stack — and the solve budget
//! ([`with_solve_budget`]: 2,000 Newton iterations, 250 ms) actually
//! bounds the work: a solve that ignores its caps shows up here as a
//! wall-clock overrun, which panics the harness and saves the deck.
//!
//! Successful solves must also return finite state: a converged
//! residual over non-finite unknowns would mean the convergence test
//! itself is broken.
//!
//! Every deck is solved twice: under the default solver dispatch, and
//! with the sparse LU forced. Almost every fuzzed deck has fewer
//! unknowns than [`SPARSE_MIN_N`](castg_spice::SPARSE_MIN_N), so the
//! default pass reaches only the dense LU; the forced pass holds the
//! sparse solver's own first pivoting factorization, its
//! singular-matrix errors and its pivot-decay fallback to the same
//! contract.
//!
//! Each pass then holds the delta path (the resistor patch a bridge
//! fault rides) to its contract: a 10 kΩ bridge between the deck's
//! first and last net (ground when it has one net), added to a clone of
//! the compiled circuit, must solve exactly like the same circuit after
//! [`Circuit::drop_compiled_plan`]: the same state bits, or the same
//! error text. Both solve under an iteration-only budget, so both stop
//! at the same iteration.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use castg_netlist::parse_deck;
use castg_spice::{with_solve_budget, AnalysisOptions, Circuit, DcAnalysis, SolverKind};

/// Decks above this MNA size are skipped: the budget caps Newton
/// iterations, not factorization cost, and the mutation loop should
/// spend its time on device/topology shapes rather than giant systems.
const MAX_UNKNOWNS: usize = 192;

/// Hard wall-clock ceiling per solve. The budget below is 250 ms; a
/// solve that takes longer than this despite it has escaped its caps.
const OVERRUN: Duration = Duration::from_secs(10);

fn main() -> ExitCode {
    castg_fuzz::fuzz_main("dc_solve", |data: &[u8]| {
        let text = String::from_utf8_lossy(data);
        let Ok(deck) = parse_deck(&text) else { return };
        let circuit = deck.circuit();
        if circuit.unknown_count() == 0 || circuit.unknown_count() > MAX_UNKNOWNS {
            return;
        }
        let sparse = AnalysisOptions { solver: SolverKind::Sparse, ..Default::default() };
        for options in [AnalysisOptions::default(), sparse] {
            let solver = options.solver;
            let t0 = Instant::now();
            let solve = || DcAnalysis::with_options(circuit, options).solve();
            match with_solve_budget(Some(2_000), Some(250), solve) {
                Ok(sol) => {
                    assert!(
                        sol.state().iter().all(|v| v.is_finite()),
                        "converged DC solution ({solver:?} solver) has non-finite state:\n{text}"
                    );
                }
                // Typed failures (no convergence, singular, timeout) are
                // legitimate outcomes for arbitrary decks; their Display
                // paths stay under fuzz.
                Err(e) => {
                    let _ = e.to_string();
                }
            }
            let elapsed = t0.elapsed();
            assert!(
                elapsed < OVERRUN,
                "budgeted DC solve ({solver:?} solver) overran its caps: {elapsed:?} for:\n{text}"
            );
            check_bridge_patch(circuit, options, &text);
        }
    })
}

/// Bridges the deck's first and last net on a clone of the compiled
/// `circuit` and requires the patched plan to solve exactly like a
/// recompiled one.
fn check_bridge_patch(circuit: &Circuit, options: AnalysisOptions, text: &str) {
    let mut nets = circuit.non_ground_nodes();
    let Some(first) = nets.next() else { return };
    let last = nets.last().unwrap_or(Circuit::GROUND);
    circuit.compile_plan();
    let mut patched = circuit.clone();
    // No deck card can name a device with a space.
    patched.add_resistor("F bridge", first, last, 10e3).expect("a new name between existing nets");
    let mut rebuilt = patched.clone();
    rebuilt.drop_compiled_plan();
    let solve = |c: &Circuit| {
        with_solve_budget(Some(2_000), None, || DcAnalysis::with_options(c, options).solve())
            .map(|sol| sol.state().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .map_err(|e| e.to_string())
    };
    assert_eq!(
        solve(&patched),
        solve(&rebuilt),
        "patched and recompiled bridge variants ({:?} solver) diverged for:\n{text}",
        options.solver
    );
}
