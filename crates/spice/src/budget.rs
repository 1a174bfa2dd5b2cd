//! Solve budgets: the thread-local overlay that caps Newton iterations
//! and wall clock.
//!
//! [`with_solve_budget`] installs a **thread-local overlay** spanning
//! everything the closure runs — one fuzzed DC solve, or one
//! `(fault, test)` campaign cell, which may perform several
//! analyses. The fault campaign engine uses it to bound each faulted
//! measurement without threading budget parameters through the
//! `TestConfiguration` trait.
//!
//! Every Newton iteration anywhere (DC ladder rungs, transient
//! timesteps, gmin stages, sub-step retries) charges the overlay
//! through [`IterBudget::charge`]. Iteration allowances are exact and
//! deterministic: the same cell exhausts its allowance at the same
//! iteration on any machine at any thread count. Wall-clock deadlines
//! are checked per iteration and are inherently *non*-deterministic —
//! campaigns that need bit-identical reports must budget by iterations
//! only.

use std::cell::Cell;
use std::time::{Duration, Instant};

use crate::SpiceError;

thread_local! {
    /// Remaining Newton iterations of the innermost overlay scope
    /// (`None` = unlimited).
    static ITER_ALLOWANCE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Deadline of the innermost overlay scope, with the budget that
    /// produced it (for the error message).
    static DEADLINE: Cell<Option<(Instant, u64)>> = const { Cell::new(None) };
}

/// Runs `f` under a solve budget: at most `max_iters` Newton iterations
/// and `budget_ms` milliseconds of wall clock, shared by **all**
/// analyses the closure performs on this thread. Exhaustion surfaces
/// from the offending solve as [`SpiceError::NoConvergence`] (iteration
/// allowance — deterministic) or [`SpiceError::Timeout`] (wall clock —
/// machine-dependent). Scopes nest; an inner scope cannot extend an
/// outer one's deadline but does replace the iteration allowance for
/// its extent (the campaign engine never nests them).
pub fn with_solve_budget<R>(
    max_iters: Option<usize>,
    budget_ms: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    let prev_allow = ITER_ALLOWANCE.with(|c| c.replace(max_iters));
    let deadline = budget_ms.map(|ms| (Instant::now() + Duration::from_millis(ms), ms));
    let prev_deadline = DEADLINE.with(|c| {
        let prev = c.get();
        // Keep the earlier of the two deadlines when scopes nest.
        let effective = match (prev, deadline) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
            (a, b) => b.or(a),
        };
        c.set(effective);
        prev
    });
    // Restored on unwind too: a campaign catches a panicking cell and
    // runs its next cell, and later unbudgeted solves, on this thread.
    let _restore = Restore { allow: prev_allow, deadline: prev_deadline };
    f()
}

/// Puts back the overlay a [`with_solve_budget`] scope replaced.
struct Restore {
    allow: Option<usize>,
    deadline: Option<(Instant, u64)>,
}

impl Drop for Restore {
    fn drop(&mut self) {
        ITER_ALLOWANCE.with(|c| c.set(self.allow));
        DEADLINE.with(|c| c.set(self.deadline));
    }
}

/// One analysis run's handle on the thread's [`with_solve_budget`]
/// overlay. Created once per analysis run; charged once per Newton
/// iteration.
#[derive(Debug)]
pub(crate) struct IterBudget {
    analysis: &'static str,
    /// Iterations granted so far (for the exhaustion diagnostic).
    spent: usize,
    /// Whether an overlay deadline exists — skips the clock read
    /// entirely on the common unbudgeted path.
    timed: bool,
    /// Set once a charge has been refused. A depleted budget ends the
    /// strategy ladder: further rungs could only re-trip it.
    depleted: bool,
}

impl IterBudget {
    pub(crate) fn start(analysis: &'static str) -> Self {
        let timed = DEADLINE.with(|c| c.get().is_some());
        IterBudget { analysis, spent: 0, timed, depleted: false }
    }

    /// Whether a charge has been refused (allowance exhausted or
    /// deadline passed). Distinguishes budget-caused rung failures —
    /// which must end the ladder — from ordinary non-convergence.
    pub(crate) fn depleted(&self) -> bool {
        self.depleted
    }

    /// Charges one Newton iteration against the overlay's limits.
    ///
    /// # Errors
    ///
    /// [`SpiceError::NoConvergence`] when the iteration allowance is
    /// exhausted; [`SpiceError::Timeout`] when the deadline has passed.
    pub(crate) fn charge(&mut self) -> Result<(), SpiceError> {
        let allowed = ITER_ALLOWANCE.with(|c| match c.get() {
            Some(0) => false,
            Some(rem) => {
                c.set(Some(rem - 1));
                true
            }
            None => true,
        });
        if !allowed {
            self.depleted = true;
            return Err(SpiceError::NoConvergence {
                analysis: format!("{} (iteration budget exhausted)", self.analysis),
                iterations: self.spent,
            });
        }
        if self.timed {
            if let Some((deadline, ms)) = DEADLINE.with(|c| c.get()) {
                if Instant::now() >= deadline {
                    self.depleted = true;
                    return Err(SpiceError::Timeout {
                        analysis: self.analysis.to_string(),
                        budget_ms: ms,
                    });
                }
            }
        }
        self.spent += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbudgeted_charges_freely() {
        let mut b = IterBudget::start("t");
        for _ in 0..10_000 {
            b.charge().unwrap();
        }
    }

    #[test]
    fn own_iteration_cap_is_exact() {
        with_solve_budget(Some(3), None, || {
            let mut b = IterBudget::start("t");
            b.charge().unwrap();
            b.charge().unwrap();
            b.charge().unwrap();
            match b.charge().unwrap_err() {
                SpiceError::NoConvergence { analysis, iterations } => {
                    assert!(analysis.contains("budget exhausted"), "{analysis}");
                    assert_eq!(iterations, 3);
                }
                other => panic!("expected NoConvergence, got {other:?}"),
            }
            assert!(b.depleted());
        });
    }

    #[test]
    fn overlay_caps_across_budgets() {
        with_solve_budget(Some(5), None, || {
            let mut a = IterBudget::start("a");
            for _ in 0..3 {
                a.charge().unwrap();
            }
            // A second analysis in the same scope shares the allowance;
            // its diagnostic counts its own iterations.
            let mut b = IterBudget::start("b");
            b.charge().unwrap();
            b.charge().unwrap();
            match b.charge().unwrap_err() {
                SpiceError::NoConvergence { iterations, .. } => assert_eq!(iterations, 2),
                other => panic!("expected NoConvergence, got {other:?}"),
            }
        });
        // Outside the scope the allowance is gone.
        let mut c = IterBudget::start("c");
        for _ in 0..100 {
            c.charge().unwrap();
        }
    }

    #[test]
    fn overlay_scopes_nest_and_restore() {
        with_solve_budget(Some(10), None, || {
            with_solve_budget(Some(1), None, || {
                let mut b = IterBudget::start("inner");
                b.charge().unwrap();
                assert!(b.charge().is_err());
            });
            // Outer allowance restored (inner replaced it wholesale).
            let mut b = IterBudget::start("outer");
            for _ in 0..10 {
                b.charge().unwrap();
            }
            assert!(b.charge().is_err());
        });
    }

    #[test]
    fn a_panicking_scope_restores_the_overlay() {
        let caught = std::panic::catch_unwind(|| {
            with_solve_budget(Some(1), Some(0), || panic!("cell panics"));
        });
        assert!(caught.is_err());
        assert_eq!(ITER_ALLOWANCE.with(|c| c.get()), None);
        assert_eq!(DEADLINE.with(|c| c.get()), None);
    }

    #[test]
    fn elapsed_deadline_times_out() {
        with_solve_budget(None, Some(0), || {
            let mut b = IterBudget::start("t");
            std::thread::sleep(Duration::from_millis(2));
            match b.charge().unwrap_err() {
                SpiceError::Timeout { analysis, budget_ms } => {
                    assert_eq!(analysis, "t");
                    assert_eq!(budget_ms, 0);
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
        });
    }

    #[test]
    fn overlay_deadline_times_out() {
        with_solve_budget(None, Some(0), || {
            std::thread::sleep(Duration::from_millis(2));
            let mut b = IterBudget::start("t");
            assert!(matches!(b.charge(), Err(SpiceError::Timeout { .. })));
        });
    }
}
