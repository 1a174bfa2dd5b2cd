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

use std::process::ExitCode;
use std::time::{Duration, Instant};

use castg_netlist::parse_deck;
use castg_spice::{with_solve_budget, AnalysisOptions, DcAnalysis, SolverKind};

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
        }
    })
}
