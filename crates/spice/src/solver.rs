//! Dense/sparse linear-solver dispatch for the MNA analyses.
//!
//! Every analysis (DC Newton, transient timesteps) bottoms out in
//! "assemble the MNA system, factor it, substitute". For macro-sized
//! circuits the dense [`LuWorkspace`] is unbeatable — no indices, no
//! indirection, hot in cache. Past a hundred-odd unknowns the O(n³)
//! factor and the O(n²) per-iteration clear take over, and the sparse
//! [`SparseLu`]/[`SparseMatrix`] path (O(nnz) assembly, fill-bounded
//! factorization with symbolic reuse across iterations) wins by orders
//! of magnitude.
//!
//! [`SolverKind`] selects the path: the default `Auto` picks sparse
//! when the system is large **and** structurally sparse
//! ([`SPARSE_MIN_N`], [`SPARSE_MAX_DENSITY`]); `Dense`/`Sparse` force a
//! path, which the differential test harness uses to cross-check the
//! two implementations against each other.

use std::sync::{Mutex, MutexGuard, PoisonError};

use castg_numeric::{
    LuWorkspace, Matrix, NumericError, SparseLu, SparseMatrix, StampTarget,
};

use crate::dc::JacobianKey;
use crate::stamp::{PatternScope, StampPlan};

/// Below this unknown count `Auto` never considers the sparse path:
/// dense LU on a macro-sized system beats any index-chasing.
pub const SPARSE_MIN_N: usize = 64;

/// `Auto` uses sparse only when the structural fill `nnz / n²` is at
/// most this; denser systems gain nothing from sparse bookkeeping.
pub const SPARSE_MAX_DENSITY: f64 = 0.25;

/// `OrderingKind::Auto` switches to the AMD ordering only when AMD's
/// `nnz(L+U)` count
/// ([`SparsePattern::symmetric_fill`](castg_numeric::SparsePattern::symmetric_fill))
/// is at most this fraction of natural order's: a fill-reducing
/// permutation must *earn* the switch. AMD ÷ natural reads 0.34 on the
/// 4×4 crossbar and 0.48 and 0.41 on the 256- and 578-unknown meshes;
/// patterns that are not fill-blown never get this far (see
/// [`AMD_AUTO_MIN_BLOWUP`]).
pub const AMD_AUTO_MARGIN: f64 = 0.8;

/// `Auto` considers AMD at all only when natural order's `nnz(L+U)`
/// count is at least this multiple of `nnz(A + Aᵀ)`, the symmetrized
/// pattern with a full diagonal — i.e. when elimination genuinely
/// *blows up* under natural order. Both counts come from the pattern
/// alone, so the verdict factors nothing and a fault variant that keeps
/// its nominal's pattern inherits it. Natural ÷ `nnz(A + Aᵀ)` reads
/// 1.40–1.67 on the divider, the IV converter, both ladders and both
/// OTA chains, 2.12 on the BJT op-amp (all Natural), and 5.21, 6.94
/// and 10.13 on the 4×4 crossbar and the 256- and 578-unknown meshes
/// (Amd).
pub const AMD_AUTO_MIN_BLOWUP: f64 = 3.0;

/// Which column ordering the sparse LU eliminates under.
///
/// Orthogonal to [`SolverKind`]: the ordering only matters on the
/// sparse path (dense LU ignores it). The permutation is computed once
/// per sparsity pattern and cached on the circuit's plan. Every sparse
/// solver instance factors under it: its first pivoting factorization,
/// its refactorizations and their stability fallbacks. A whole fault
/// campaign therefore pays one AMD run per sparsity pattern: a
/// delta-patched variant that adds no slot reuses its nominal's
/// permutation and `Auto` verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrderingKind {
    /// Resolve per sparsity pattern to one of two outcomes: `Amd` when
    /// natural order is fill-blown ([`AMD_AUTO_MIN_BLOWUP`]) and AMD
    /// beats it by [`AMD_AUTO_MARGIN`], `Natural` otherwise. Both gates
    /// compare structural counts, so the verdict reads no values. The
    /// right choice everywhere except differential testing.
    #[default]
    Auto,
    /// Natural MNA order (node index, then branch rows) — optimal for
    /// chain/ladder structure, bit-identical to the pre-ordering code.
    Natural,
    /// Approximate minimum degree
    /// ([`castg_numeric::SparsePattern::amd_ordering`]), the
    /// fill-reducing choice for mesh/crossbar structure.
    Amd,
    /// Block-triangular form
    /// ([`castg_numeric::SparsePattern::btf_order`], KLU-style):
    /// maximum transversal + SCC condensation + per-block AMD. Only the
    /// diagonal blocks are factored. Forced only — `Auto` never picks
    /// it — and slated for deletion: on the cascaded OTA chain it was
    /// built for, it costs more per Newton iteration than Natural or
    /// AMD (ROADMAP.md, item 2). Falls back to `Amd` when the condensation
    /// is trivial (a single diagonal block) or the pattern is
    /// structurally singular, so forcing `Btf` on an irreducible
    /// circuit is bit-identical to forcing `Amd`.
    Btf,
}

/// Structural fill statistics of a circuit's sparse factorization under
/// one ordering, as reported by [`sparse_fill_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillStats {
    /// MNA unknown count.
    pub unknowns: usize,
    /// Structural nonzeros of the assembled MNA pattern.
    pub pattern_nnz: usize,
    /// Structural nonzeros the factorization stores: `L + U` with the
    /// diagonal counted once, plus (under BTF) the raw off-diagonal
    /// coupling entries.
    pub lu_nnz: usize,
    /// The ordering the factorization actually used (`Auto` resolved to
    /// `Natural` or `Amd`; `Btf` resolved to `Amd` when the
    /// condensation is trivial).
    pub resolved: OrderingKind,
    /// Diagonal-block count of the factorization (1 for every non-BTF
    /// ordering).
    pub blocks: usize,
    /// Size of the largest diagonal block (`unknowns` for every non-BTF
    /// ordering).
    pub largest_block: usize,
}

/// Factors the circuit's canonical MNA matrix (static scope) under
/// `ordering` and reports the fill of the resulting factors — the
/// metric the fill-reducing-ordering machinery is judged by. `castg
/// check` prints it, the benchmark's self-check asserts the mesh
/// workload's AMD reduction through it, and
/// `tests/ordering_verdicts.rs` pins every committed circuit's row.
///
/// The canonical matrix is the one a DC solve from `x = 0` under the
/// default options factors first: assembled at `x = 0` with the default
/// gmin and the DC source values. It is factored afresh on every call,
/// exactly as a sparse solver instance's first factorization would,
/// and nothing is kept.
///
/// Returns `None` when the canonical matrix is singular (a grossly
/// broken netlist).
pub fn sparse_fill_stats(circuit: &crate::Circuit, ordering: OrderingKind) -> Option<FillStats> {
    let plan = circuit.plan();
    let scope = PatternScope::Static;
    let n = plan.dim();
    let resolved = plan.resolve_ordering(ordering, scope);
    let mut lu = SparseLu::new();
    plan.install_ordering(&mut lu, resolved, scope);
    let mut mat = plan.sparse_template(scope).clone();
    let mut src_vals = Vec::new();
    plan.source_values(&mut src_vals, |w| w.dc_value());
    let gmin = crate::analysis::AnalysisOptions::default().gmin;
    plan.assemble_into_sparse(&vec![0.0; n], &mut mat, &mut vec![0.0; n], gmin, &src_vals);
    lu.factor(&mat).ok()?;
    let symbolic = lu.symbolic()?;
    Some(FillStats {
        unknowns: n,
        pattern_nnz: mat.pattern().nnz(),
        lu_nnz: symbolic.fill_nnz(),
        resolved,
        blocks: symbolic.block_count(),
        largest_block: symbolic
            .blocks()
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0),
    })
}

/// Which linear-solver path an analysis uses for its MNA systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// Select per circuit: sparse iff `n ≥ 64` and structural density
    /// `≤ 0.25`, dense otherwise. The right choice everywhere except
    /// differential testing.
    #[default]
    Auto,
    /// Always dense LU ([`castg_numeric::LuWorkspace`]).
    Dense,
    /// Always sparse LU ([`castg_numeric::SparseLu`]), regardless of
    /// size.
    Sparse,
}

impl SolverKind {
    /// Resolves `self` against a circuit's compiled plan: `true` means
    /// the sparse path.
    pub(crate) fn use_sparse(self, plan: &StampPlan) -> bool {
        match self {
            SolverKind::Dense => false,
            SolverKind::Sparse => true,
            SolverKind::Auto => {
                let n = plan.dim();
                n >= SPARSE_MIN_N
                    && plan
                        .sparse_template(PatternScope::Full)
                        .pattern()
                        .density()
                        <= SPARSE_MAX_DENSITY
            }
        }
    }
}

/// Everything a fresh [`MnaSolver::for_plan`] state depends on besides
/// the plan: pattern scope and path (and, on the sparse path, the
/// resolved ordering to install in the instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dispatch {
    scope: PatternScope,
    /// `None` on the dense path.
    ordering: Option<OrderingKind>,
}

impl Dispatch {
    /// Resolves the solver options against `plan`.
    pub(crate) fn resolve(
        plan: &StampPlan,
        kind: SolverKind,
        ordering: OrderingKind,
        scope: PatternScope,
    ) -> Self {
        let ordering = kind.use_sparse(plan).then(|| plan.resolve_ordering(ordering, scope));
        Dispatch { scope, ordering }
    }
}

/// How many factorizations a plan's [`FactorCache`] keeps. Only an
/// analysis's first factorization is kept — one per DC gmin and one
/// per transient step size (its first, backward-Euler step) — under
/// one dispatch outside differential tests.
const FACTOR_CACHE_CAP: usize = 8;

/// The first factorization of each linear-plan Jacobian, kept on the
/// plan so that later analyses of the same circuit start already
/// factored.
///
/// A linear plan's Jacobian is a pure function of its
/// [`JacobianKey`], and a fresh solver's state is a pure function of
/// its [`Dispatch`]: the solver state right after a fresh solver's
/// first factorization of a key is therefore the same whichever
/// analysis — or thread — computes it. The cache keeps that state per
/// `(key, dispatch)`; an analysis whose solver is still fresh and needs
/// a cached key adopts a copy instead of factoring, which is exactly
/// the state it would have reached itself. Bounded by
/// [`FACTOR_CACHE_CAP`] (entries past it are simply not kept) and
/// filled by whichever thread factors first.
#[derive(Debug, Default)]
pub(crate) struct FactorCache(Mutex<Vec<(JacobianKey, Dispatch, MnaSolver)>>);

impl Clone for FactorCache {
    fn clone(&self) -> Self {
        FactorCache(Mutex::new(self.entries().clone()))
    }
}

impl FactorCache {
    fn entries(&self) -> MutexGuard<'_, Vec<(JacobianKey, Dispatch, MnaSolver)>> {
        // Entries are complete values or absent: a panic elsewhere
        // while the lock was held leaves nothing half-written.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of the solver state cached for `(key, dispatch)`.
    pub(crate) fn get(&self, key: JacobianKey, dispatch: Dispatch) -> Option<MnaSolver> {
        self.entries().iter().find(|(k, d, _)| (*k, *d) == (key, dispatch)).map(|e| e.2.clone())
    }

    /// Keeps `solver` — a fresh solver right after factoring `key` — if
    /// the key is new and the cache has room.
    pub(crate) fn insert(&self, key: JacobianKey, dispatch: Dispatch, solver: &MnaSolver) {
        let mut entries = self.entries();
        if entries.len() < FACTOR_CACHE_CAP
            && !entries.iter().any(|(k, d, _)| (*k, *d) == (key, dispatch))
        {
            entries.push((key, dispatch, solver.clone()));
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Factorizations this thread's solvers performed (test-only).
    pub(crate) static FACTORIZATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The per-analysis solver state behind the dispatch: assembly matrix
/// plus factorization workspace for whichever path was selected.
///
/// Both arms follow the same lifecycle per Newton iteration: replay the
/// stamp plan into the matrix, apply any extra stamps (transient
/// companions), factor, substitute. The dense arm swaps the matrix into
/// the LU workspace exactly as before this dispatch existed, so small
/// circuits keep their bit-identical allocation-free hot path; the
/// sparse arm clears O(nnz) values and refactors against the symbolic
/// skeleton its first factorization recorded.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one solver per analysis, not per element
pub(crate) enum MnaSolver {
    /// Dense path: assembled matrix + in-place LU workspace.
    Dense { mat: Matrix, lu: LuWorkspace },
    /// Sparse path: pattern-fixed CSC matrix + sparse LU with symbolic
    /// reuse.
    Sparse { mat: SparseMatrix, lu: SparseLu },
}

impl MnaSolver {
    /// Creates the fresh solver state `dispatch` selects for `plan`.
    ///
    /// The sparse arm installs the plan's cached ordering for the scope
    /// (the AMD permutation, the BTF order, or nothing for natural
    /// order) in a fresh LU workspace. The instance's first
    /// factorization then picks its own pivots under that ordering, and
    /// its later ones refactor the skeleton it recorded.
    pub(crate) fn for_plan(plan: &StampPlan, dispatch: Dispatch) -> Self {
        let Dispatch { scope, ordering } = dispatch;
        match ordering {
            Some(ordering) => {
                let mut lu = SparseLu::new();
                plan.install_ordering(&mut lu, ordering, scope);
                MnaSolver::Sparse { mat: plan.sparse_template(scope).clone(), lu }
            }
            None => {
                let n = plan.dim();
                MnaSolver::Dense { mat: Matrix::zeros(n, n), lu: LuWorkspace::new(n) }
            }
        }
    }

    /// One assembly + factorization: replays `plan` into the matrix,
    /// lets `extra` add companion stamps, then factors. The plan replay
    /// is monomorphized per arm; `extra` goes through a trait object
    /// because companion stamping is a handful of adds per timestep.
    ///
    /// # Errors
    ///
    /// Factorization errors ([`NumericError::SingularMatrix`] for a
    /// structurally singular system) propagate.
    pub(crate) fn assemble_and_factor<F>(
        &mut self,
        plan: &StampPlan,
        x: &[f64],
        rhs: &mut [f64],
        gmin: f64,
        src_vals: &[f64],
        extra: F,
    ) -> Result<(), NumericError>
    where
        F: FnOnce(&mut dyn StampTarget),
    {
        #[cfg(test)]
        FACTORIZATIONS.with(|c| c.set(c.get() + 1));
        match self {
            MnaSolver::Dense { mat, lu } => {
                plan.assemble_into(x, mat, rhs, gmin, src_vals);
                extra(mat);
                lu.factor_in_place(mat)
            }
            MnaSolver::Sparse { mat, lu } => {
                // Specialized replay: precomputed slot indices instead
                // of a binary search per add (bit-identical result).
                plan.assemble_into_sparse(x, mat, rhs, gmin, src_vals);
                extra(mat);
                lu.factor(mat)
            }
        }
    }

    /// Substitutes against the last successful factorization.
    ///
    /// # Errors
    ///
    /// [`NumericError::NotFactored`] before the first factorization;
    /// [`NumericError::DimensionMismatch`] for wrong-sized buffers.
    pub(crate) fn solve_into(&mut self, b: &[f64], x: &mut [f64]) -> Result<(), NumericError> {
        match self {
            MnaSolver::Dense { lu, .. } => lu.solve_into(b, x),
            MnaSolver::Sparse { lu, .. } => lu.solve_into(b, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, Waveform};

    fn ladder(sections: usize) -> Circuit {
        let mut c = Circuit::new();
        let mut prev = c.node("in");
        c.add_vsource("V1", prev, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        for i in 0..sections {
            let next = c.node(&format!("n{i}"));
            c.add_resistor(&format!("Rs{i}"), prev, next, 100.0).unwrap();
            c.add_resistor(&format!("Rp{i}"), next, Circuit::GROUND, 1e6).unwrap();
            prev = next;
        }
        c
    }

    #[test]
    fn auto_is_dense_for_small_and_sparse_for_large() {
        let small = ladder(4);
        assert!(!SolverKind::Auto.use_sparse(&small.plan()));
        let large = ladder(200);
        assert!(SolverKind::Auto.use_sparse(&large.plan()));
        assert!(SolverKind::Sparse.use_sparse(&small.plan()));
        assert!(!SolverKind::Dense.use_sparse(&large.plan()));
    }

    #[test]
    fn factor_cache_keeps_one_entry_per_key_up_to_its_cap() {
        let c = ladder(4);
        let plan = c.plan();
        let (kind, ordering, scope) = (SolverKind::Auto, OrderingKind::Auto, PatternScope::Static);
        let dispatch = Dispatch::resolve(&plan, kind, ordering, scope);
        let solver = MnaSolver::for_plan(&plan, dispatch);
        let cache = FactorCache::default();
        for k in 0..2 * FACTOR_CACHE_CAP as u64 {
            cache.insert((k, 0, 0), dispatch, &solver);
            cache.insert((k, 0, 0), dispatch, &solver);
        }
        assert_eq!(cache.entries().len(), FACTOR_CACHE_CAP);
        assert!(cache.get((0, 0, 0), dispatch).is_some());
        assert!(cache.get((FACTOR_CACHE_CAP as u64, 0, 0), dispatch).is_none());
        let other = Dispatch { scope: PatternScope::Full, ..dispatch };
        assert!(cache.get((0, 0, 0), other).is_none());
    }

    #[test]
    fn both_arms_solve_the_same_system() {
        let c = ladder(24);
        let plan = c.plan();
        let n = plan.dim();
        let x0 = vec![0.0; n];
        let mut src = Vec::new();
        plan.source_values(&mut src, |w| w.dc_value());

        let mut solutions = Vec::new();
        for kind in [SolverKind::Dense, SolverKind::Sparse] {
            let dispatch = Dispatch::resolve(&plan, kind, OrderingKind::Auto, PatternScope::Full);
            let mut solver = MnaSolver::for_plan(&plan, dispatch);
            assert_eq!(matches!(solver, MnaSolver::Sparse { .. }), kind == SolverKind::Sparse);
            let mut rhs = vec![0.0; n];
            let mut x = vec![0.0; n];
            solver
                .assemble_and_factor(&plan, &x0, &mut rhs, 1e-12, &src, |_| {})
                .unwrap();
            solver.solve_into(&rhs, &mut x).unwrap();
            solutions.push(x);
        }
        for (d, s) in solutions[0].iter().zip(&solutions[1]) {
            assert!((d - s).abs() <= 1e-9 * d.abs().max(1.0), "{d} vs {s}");
        }
    }
}
