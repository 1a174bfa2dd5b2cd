//! DC operating-point analysis.
//!
//! A Newton–Raphson **strategy ladder** over the MNA system, attempted
//! in order until one rung converges:
//!
//! 1. **Plain Newton** — undamped, cheaply capped. Lands warm starts
//!    and linear/mildly nonlinear circuits in a handful of iterations;
//!    a stiff cold start falls through fast.
//! 2. **Damped Newton** — per-node update clamping
//!    ([`AnalysisOptions::max_step_v`]) with *adaptive clamp growth*:
//!    monotone progress doubles the effective clamp (powers of two, so
//!    the arithmetic stays bit-stable), a residual increase snaps it
//!    back to the base. Cuts the creep phase of deeply cold starts
//!    without the oscillation a statically larger clamp invites.
//! 3. **gmin stepping** — a strong shunt everywhere, relaxed decade by
//!    decade.
//! 4. **Source stepping** — all independent sources ramped from zero.
//! 5. **Pseudo-transient continuation** — a conductance `α` from every
//!    node to an *anchor* state (backward-Euler pseudo-time stepping),
//!    relaxed geometrically and polished at `α = 0`. The anchoring
//!    keeps high-gain feedback loops from rattling; branch rows are
//!    left un-augmented so structural singularities (voltage-source
//!    loops) still surface as [`SpiceError::Singular`].
//!
//! Each solve reports the landing strategy and per-rung iteration/
//! residual accounting in a typed [`ConvergenceReport`], and charges
//! every iteration against the per-analysis caps of
//! [`AnalysisOptions`] and any thread-local
//! [`crate::with_solve_budget`] overlay a fault campaign has installed.
//!
//! This module also owns the two pieces every Newton solve of the crate
//! is built from, DC and transient alike: [`NewtonScratch::newton`], the
//! one damped Newton iteration (update clamp, convergence test,
//! verification-iteration skip, iteration accounting), and
//! [`gmin_walk`], the one decade-by-decade gmin relaxation. A rung is a
//! short sequence of calls to them; so is the transient step's rescue
//! (`transient.rs`).

use castg_numeric::StampTarget;

use crate::analysis::AnalysisOptions;
use crate::budget::IterBudget;
use crate::circuit::Circuit;
use crate::node::NodeId;
use crate::solver::{Dispatch, MnaSolver, OrderingKind, SolverKind};
use crate::stamp::StampPlan;
use crate::stimulus::Waveform;
use crate::SpiceError;

/// Resolves by-name stimulus overrides against a circuit into
/// waveform-slot overrides for its compiled plan.
///
/// # Errors
///
/// [`SpiceError::UnknownDevice`] for a missing device,
/// [`SpiceError::InvalidValue`] when the device is not an independent
/// source.
pub(crate) fn resolve_overrides(
    circuit: &Circuit,
    overrides: &[(String, Waveform)],
) -> Result<Vec<(usize, Waveform)>, SpiceError> {
    overrides
        .iter()
        .map(|(name, wave)| match circuit.wave_slot(name) {
            Some(slot) => Ok((slot, wave.clone())),
            None if circuit.device(name).is_some() => Err(SpiceError::InvalidValue {
                device: name.clone(),
                reason: "stimulus override requires an independent source".to_string(),
            }),
            None => Err(SpiceError::UnknownDevice { name: name.clone() }),
        })
        .collect()
}

/// Exact identity of a linear plan's assembled Jacobian:
/// `(gmin bits, integration-method tag, step-size bits)`. DC solves use
/// a zero tag/step; the transient engine tags its integration method
/// and carries the step size verbatim, so two keys are equal iff the
/// matrices are bit-identical.
pub(crate) type JacobianKey = (u64, u64, u64);

/// Whether an applied Newton update landed bit-exactly on the solved
/// state `target` — the precondition for skipping a linear plan's
/// verification iteration. Requires bit equality (not `==`) and rules
/// out a `-0.0` target: the follow-up `x += +0.0` would rewrite `-0.0`
/// to `+0.0`, so only a non-negative-zero exact landing makes the next
/// iteration a provable state-preserving no-op.
#[inline]
pub(crate) fn landed_on(x: f64, target: f64) -> bool {
    x.to_bits() == target.to_bits() && target.to_bits() != (-0.0_f64).to_bits()
}

/// Reusable per-solve state: the compiled stamp plan plus the
/// dispatched linear solver (dense or sparse matrix + factorization
/// workspace), right-hand side and Newton update buffer. Created once
/// per analysis so the Newton iteration itself performs zero heap
/// allocations.
#[derive(Debug, Clone)]
pub(crate) struct NewtonScratch {
    pub(crate) plan: std::sync::Arc<StampPlan>,
    pub(crate) solver: MnaSolver,
    pub(crate) rhs: Vec<f64>,
    pub(crate) x_new: Vec<f64>,
    /// Stimulus values for the solve in progress (constant across the
    /// Newton iterations of one solve; refreshed per solve/timestep).
    pub(crate) src_vals: Vec<f64>,
    /// Waveform-slot stimulus overrides applied on top of the plan's
    /// waveform table at every source evaluation; lets analyses re-aim
    /// a shared circuit's stimulus without cloning or mutating it.
    pub(crate) overrides: Vec<(usize, Waveform)>,
    /// `Some(key)` when the stored factorization is *exactly* the
    /// Jacobian a linear plan would assemble under `key` =
    /// `(gmin bits, integration-method tag, step-size bits)` — every
    /// input the companion-augmented matrix of a linear plan depends
    /// on, carried verbatim (no hashing). Newton loops then skip the
    /// assembly + refactorization entirely (Shamanskii stepping with a
    /// zero threshold: reuse only when the matrix is provably
    /// bit-identical, so results never change). Nonlinear plans never
    /// set this.
    factored_for: Option<JacobianKey>,
    /// How `solver` was dispatched: with a [`JacobianKey`], the key of
    /// the plan's factor cache.
    dispatch: Dispatch,
    /// Whether `solver` is still exactly as dispatched (no
    /// factorization attempted yet): only a pristine scratch adopts a
    /// cached first factorization or publishes its own.
    pristine: bool,
}

impl NewtonScratch {
    pub(crate) fn new(
        circuit: &Circuit,
        kind: SolverKind,
        ordering: OrderingKind,
        scope: crate::stamp::PatternScope,
    ) -> Self {
        let plan = circuit.plan();
        let n = plan.dim();
        let dispatch = Dispatch::resolve(&plan, kind, ordering, scope);
        let solver = MnaSolver::for_plan(&plan, dispatch);
        NewtonScratch {
            plan,
            solver,
            rhs: vec![0.0; n],
            x_new: vec![0.0; n],
            src_vals: Vec::new(),
            overrides: Vec::new(),
            factored_for: None,
            dispatch,
            pristine: true,
        }
    }

    /// Brings the solver to the Newton system at `x`: assembles the
    /// plan (plus the stamps `extra` adds) into `rhs` and the matrix
    /// and factors it — unless `key` is the exact [`JacobianKey`] of a
    /// linear plan's matrix (`None`: the matrix carries stamps no key
    /// describes) and the stored factors already are that matrix's,
    /// when only `rhs` is re-derived. A pristine scratch takes the
    /// factors of `key` from the plan's factor cache when another
    /// analysis put them there, and puts its own first factorization
    /// there otherwise, so every analysis of a linear circuit after the
    /// first starts factored. Returns whether the factors are exactly
    /// those of `key`.
    pub(crate) fn factor<F>(
        &mut self,
        x: &[f64],
        gmin: f64,
        key: Option<JacobianKey>,
        extra: F,
    ) -> Result<bool, castg_numeric::NumericError>
    where
        F: FnOnce(&mut dyn castg_numeric::StampTarget),
    {
        let key = key.filter(|_| self.plan.is_linear());
        if let Some(k) = key {
            if self.pristine {
                if let Some(solver) = self.plan.factor_cache().get(k, self.dispatch) {
                    self.solver = solver;
                    self.factored_for = key;
                    self.pristine = false;
                }
            }
            if self.factored_for == key {
                self.plan.assemble_rhs_only(&mut self.rhs, &self.src_vals);
                return Ok(true);
            }
        }
        let first = std::mem::replace(&mut self.pristine, false);
        self.factored_for = None;
        self.solver.assemble_and_factor(&self.plan, x, &mut self.rhs, gmin, &self.src_vals, extra)?;
        let Some(k) = key else { return Ok(false) };
        self.factored_for = key;
        if first {
            self.plan.factor_cache().insert(k, self.dispatch, &self.solver);
        }
        Ok(true)
    }

    /// Evaluates every stimulus waveform through `f` into the reused
    /// source-value buffer, then applies the stimulus overrides through
    /// the same transform.
    pub(crate) fn eval_sources<F: Fn(&Waveform) -> f64>(&mut self, f: F) {
        self.plan.source_values(&mut self.src_vals, &f);
        for (slot, wave) in &self.overrides {
            self.src_vals[*slot] = f(wave);
        }
    }

    /// One Newton solve — the iteration every DC rung stage and every
    /// transient step runs — from `x` (updated in place; on error it
    /// holds the last iterate and the caller decides whether to restart
    /// it), at the current source values. Each iteration is charged to
    /// `budget` and counted into `stat`; the iterations spent also go to
    /// the thread's [`LadderStats`](crate::LadderStats).
    ///
    /// An iteration brings the solver to the system at `x` through
    /// [`factor`](Self::factor) — `stamps` adds on top of the plan's
    /// matrix (pseudo-transient anchors, transient companions),
    /// `rhs_terms` on top of its right-hand side — solves, and applies
    /// the update. Only nonlinear-device terminals are clamped, to
    /// `cfg.clamp` times an adaptive boost: monotone progress doubles
    /// the boost up to `cfg.max_boost` (powers of two, so the clamp
    /// stays exact), a growing update snaps it back to 1. Linear nodes
    /// and branch currents take the exact Newton step.
    ///
    /// The loop allocates nothing: assembly replays the compiled plan,
    /// the factorization swaps buffers with the LU workspace and the
    /// solve substitutes into a reused update vector. For a linear plan
    /// the matrix is a pure function of its [`JacobianKey`], so once
    /// factored, every further iteration — and every further stage or
    /// timestep at the same key — only re-derives the right-hand side.
    ///
    /// # Errors
    ///
    /// [`SpiceError::NoConvergence`] at the iteration cap or on a
    /// non-finite update, counting this solve's iterations (callers
    /// relabel it); singular or numeric factorization failures; budget
    /// verdicts.
    pub(crate) fn newton<S, R>(
        &mut self,
        x: &mut [f64],
        cfg: &NewtonCfg<'_>,
        budget: &mut IterBudget,
        stat: &mut RungStat,
        stamps: S,
        rhs_terms: R,
    ) -> Result<(), SpiceError>
    where
        S: Fn(&mut dyn StampTarget),
        R: Fn(&mut [f64]),
    {
        let before = stat.iterations;
        let result = self.iterate(x, cfg, budget, stat, stamps, rhs_terms);
        crate::stats::record_iterations((stat.iterations - before) as u64);
        result
    }

    /// The loop of [`newton`](Self::newton).
    fn iterate<S, R>(
        &mut self,
        x: &mut [f64],
        cfg: &NewtonCfg<'_>,
        budget: &mut IterBudget,
        stat: &mut RungStat,
        stamps: S,
        rhs_terms: R,
    ) -> Result<(), SpiceError>
    where
        S: Fn(&mut dyn StampTarget),
        R: Fn(&mut [f64]),
    {
        let n = self.plan.dim();
        let n_nodes = self.plan.node_unknowns();
        let opts = cfg.opts;
        let key = cfg.key.map(|(tag, h)| (cfg.gmin.to_bits(), tag, h));
        let before = stat.iterations;
        let mut boost = 1.0_f64;
        let mut prev_norm = f64::INFINITY;
        for _ in 0..cfg.max_iter {
            budget.charge()?;
            stat.iterations += 1;
            let exact = self
                .factor(x, cfg.gmin, key, &stamps)
                .map_err(|e| cfg.circuit.singular_error(e))?;
            let NewtonScratch { plan, solver, rhs, x_new, .. } = &mut *self;
            rhs_terms(rhs);
            solver.solve_into(rhs, x_new)?;

            let damped = plan.damped();
            let eff_clamp = cfg.clamp * boost;
            let mut converged = true;
            let mut landed_exactly = true;
            let mut norm = 0.0_f64;
            for i in 0..n {
                let mut delta = x_new[i] - x[i];
                if !delta.is_finite() {
                    return Err(SpiceError::NoConvergence {
                        analysis: "newton (non-finite update)".to_string(),
                        iterations: stat.iterations - before,
                    });
                }
                norm = norm.max(delta.abs());
                let (tol, clamp) = if i < n_nodes {
                    let clamp = if damped[i] { eff_clamp } else { f64::INFINITY };
                    (opts.vntol + opts.reltol * x_new[i].abs().max(x[i].abs()), clamp)
                } else {
                    (opts.abstol + opts.reltol * x_new[i].abs().max(x[i].abs()), f64::INFINITY)
                };
                if delta.abs() > tol {
                    converged = false;
                }
                if delta.abs() > clamp {
                    delta = clamp.copysign(delta);
                }
                x[i] += delta;
                landed_exactly &= landed_on(x[i], x_new[i]);
            }
            stat.residual_norm = norm;
            // A linear plan whose update landed bit-exactly on the
            // solved state needs no verification iteration: the next
            // one would reuse identical factors, re-derive an identical
            // rhs, solve to the identical x_new, take a delta of
            // exactly +0.0 and converge without changing the state.
            // (`x += (x_new − x)` does NOT always round to `x_new` —
            // a warm start many orders of magnitude off misses — so
            // the landing really is checked, bit for bit, not assumed.)
            if converged || (exact && landed_exactly) {
                stat.converged = true;
                return Ok(());
            }
            if cfg.max_boost > 1.0 {
                boost = if norm <= prev_norm { (boost * 2.0).min(cfg.max_boost) } else { 1.0 };
            }
            prev_norm = norm;
        }
        Err(SpiceError::NoConvergence {
            analysis: "newton".to_string(),
            iterations: stat.iterations - before,
        })
    }
}

/// The gmin walk shared by DC rung 3 and the transient step's rescue:
/// `solve` at a shunt conductance starting from `start` and divided by
/// ten per stage, each stage warm-started from the last, until a stage
/// at `floor` (the analysis's own gmin) converges. Stops at the first
/// failing stage.
pub(crate) fn gmin_walk(
    start: f64,
    floor: f64,
    mut solve: impl FnMut(f64) -> Result<(), SpiceError>,
) -> Result<(), SpiceError> {
    let mut gmin = start;
    loop {
        let stage = if gmin > floor { gmin } else { floor };
        solve(stage)?;
        if stage <= floor {
            return Ok(());
        }
        gmin /= 10.0;
    }
}

/// One rung of the DC Newton strategy ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NewtonStrategy {
    /// Undamped Newton, cheaply capped.
    Plain,
    /// Damped Newton with adaptive clamp growth.
    Damped,
    /// gmin stepping (shunt relaxation).
    GminStepping,
    /// Source stepping (stimulus ramp).
    SourceStepping,
    /// Pseudo-transient continuation (anchored relaxation).
    PseudoTransient,
}

impl std::fmt::Display for NewtonStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NewtonStrategy::Plain => "plain",
            NewtonStrategy::Damped => "damped",
            NewtonStrategy::GminStepping => "gmin-stepping",
            NewtonStrategy::SourceStepping => "source-stepping",
            NewtonStrategy::PseudoTransient => "pseudo-transient",
        })
    }
}

/// Per-rung accounting of one DC solve: what the rung spent and where
/// it left the iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct RungStat {
    /// The strategy this rung ran.
    pub strategy: NewtonStrategy,
    /// Newton iterations the rung spent (all its stages summed — gmin
    /// decades, ramp steps, pseudo-transient stages).
    pub iterations: usize,
    /// The update ∞-norm `max_i |Δx_i|` (before damping) of the rung's
    /// last iteration — the residual proxy the convergence test is
    /// built on. `0.0` if the rung never completed an iteration.
    pub residual_norm: f64,
    /// Whether the rung converged (the ladder stops at the first that
    /// does).
    pub converged: bool,
}

impl RungStat {
    pub(crate) fn new(strategy: NewtonStrategy) -> Self {
        RungStat { strategy, iterations: 0, residual_norm: 0.0, converged: false }
    }
}

/// Iteration cap of the plain (undamped) rung: long enough for warm
/// starts and mildly nonlinear circuits, short enough that a stiff cold
/// start falls through to the damped rung cheaply.
const PLAIN_RUNG_CAP: usize = 4;

/// Largest adaptive clamp multiplier on the damped rung: tight, tuned
/// for iteration count on well-behaved cold starts (the IV-converter
/// macro lands in ~20 damped iterations here; larger caps overshoot and
/// oscillate). Boost multipliers are powers of two only, so the
/// effective clamp stays exact in binary floating point and iterate
/// trajectories are bit-reproducible.
const DAMPED_MAX_BOOST: f64 = 2.0;

/// Largest adaptive clamp multiplier on the rescue rungs (gmin
/// stepping, source stepping, pseudo-transient): generous — by the time
/// the ladder is here, landing at all beats landing fast, and the
/// stiffest bridge-fault variants need clamp excursions this large.
const RESCUE_MAX_BOOST: f64 = 64.0;

/// Initial source-stepping advance: the classic 25-step ramp. The ramp
/// is adaptive — a step whose Newton fails is retried from the last
/// converged state at half the advance (down to [`SOURCE_STEP_MIN`]),
/// and the advance regrows ×2 after every success — so a stiff stretch
/// of the continuation path costs fine steps only where it is stiff.
/// Halving/doubling keeps every scale exactly representable, so the
/// trajectory is bit-reproducible.
const SOURCE_STEP_INIT: f64 = 0.04;
/// Smallest source-stepping advance before the rung gives up.
const SOURCE_STEP_MIN: f64 = 0.00125;
/// Cap on Newton calls (stages) in the source-stepping rung: bounds the
/// rung's worst case on hopeless variants at `SOURCE_MAX_STAGES ×
/// max_iter` iterations while leaving the adaptive ramp room for a few
/// stiff stretches (the minimum-step path needs 1/`SOURCE_STEP_MIN` =
/// 800 stages only if *every* step is minimal; real variants need a
/// handful).
const SOURCE_MAX_STAGES: usize = 96;

/// First pseudo-transient anchor conductance (siemens), relaxed
/// geometrically per stage down to [`PTC_ALPHA_FLOOR`], then polished
/// at zero. The relaxation is adaptive: it starts a decade per stage
/// ([`PTC_DECAY_START`]) and a failed stage retreats to the anchor and
/// square-roots the decay (gentler pseudo-timestep growth), down to
/// [`PTC_DECAY_MIN`]; a first-stage failure instead strengthens the
/// starting anchor ×10 up to [`PTC_ALPHA_MAX`]. `sqrt` is
/// correctly-rounded IEEE, so the α trajectory is bit-reproducible.
const PTC_ALPHA_START: f64 = 1.0;
const PTC_ALPHA_MAX: f64 = 1e6;
const PTC_ALPHA_FLOOR: f64 = 1e-9;
const PTC_DECAY_START: f64 = 10.0;
const PTC_DECAY_MIN: f64 = 1.05;
/// Cap on Newton calls (stages) in the pseudo-transient rung.
const PTC_MAX_STAGES: usize = 96;

/// One Newton solve's settings: DC rung stages and transient steps
/// differ only in these and in the extra stamps they pass to
/// [`NewtonScratch::newton`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewtonCfg<'a> {
    /// The circuit solved (names a singular unknown).
    pub(crate) circuit: &'a Circuit,
    /// Convergence tolerances.
    pub(crate) opts: &'a AnalysisOptions,
    /// Shunt conductance from every node to ground.
    pub(crate) gmin: f64,
    /// Iteration cap of this solve.
    pub(crate) max_iter: usize,
    /// Base per-iteration voltage clamp on nonlinear-device terminals.
    pub(crate) clamp: f64,
    /// Cap on the adaptive clamp multiplier (`1.0` disables growth).
    pub(crate) max_boost: f64,
    /// The tail of a linear plan's [`JacobianKey`] after the gmin bits:
    /// `(0, 0)` in DC, the integration-method tag and step-size bits in
    /// a transient step, `None` when the extra stamps make a matrix no
    /// key describes (pseudo-transient anchors).
    pub(crate) key: Option<(u64, u64)>,
}

/// How a DC solve converged: the rung-by-rung trail and the strategy
/// that landed it. Attached to every [`DcSolution`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceReport {
    /// Every rung attempted, in ladder order; the last entry is the one
    /// that converged.
    pub rungs: Vec<RungStat>,
    /// The strategy that produced the solution.
    pub strategy: NewtonStrategy,
}

impl ConvergenceReport {
    /// Total Newton iterations spent across every rung.
    pub fn total_iterations(&self) -> usize {
        self.rungs.iter().map(|r| r.iterations).sum()
    }
}

/// A converged DC solution.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    /// Node voltages indexed by [`NodeId::index`]; entry 0 (ground) is 0.
    voltages: Vec<f64>,
    /// `(device name, branch current)` for every voltage-defined device,
    /// in device order. Current flows from the positive terminal through
    /// the device (SPICE convention).
    branch_currents: Vec<(String, f64)>,
    /// Raw MNA unknown vector (used to warm-start transient analysis).
    state: Vec<f64>,
    /// How the strategy ladder landed this solve.
    convergence: ConvergenceReport,
}

impl DcSolution {
    /// Voltage of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range for the solved circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.index()]
    }

    /// All node voltages (index 0 is ground).
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Branch current through a named voltage-defined device (voltage
    /// source or VCVS), if present.
    pub fn source_current(&self, name: &str) -> Option<f64> {
        self.branch_currents.iter().find(|(n, _)| n == name).map(|(_, i)| *i)
    }

    /// The raw MNA state vector (node voltages then branch currents).
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// Total Newton iterations the solve spent, summed over every
    /// ladder rung it tried. The cold-start cost regression tests pin
    /// this — the ROADMAP's cold-start item is judged against it.
    pub fn newton_iterations(&self) -> usize {
        self.convergence.total_iterations()
    }

    /// The rung-by-rung convergence trail of this solve.
    pub fn convergence(&self) -> &ConvergenceReport {
        &self.convergence
    }
}

/// DC operating-point solver for a [`Circuit`].
#[derive(Debug, Clone)]
pub struct DcAnalysis<'c> {
    circuit: &'c Circuit,
    options: AnalysisOptions,
    overrides: Vec<(String, Waveform)>,
}

impl<'c> DcAnalysis<'c> {
    /// Creates a solver with default [`AnalysisOptions`].
    pub fn new(circuit: &'c Circuit) -> Self {
        DcAnalysis { circuit, options: AnalysisOptions::default(), overrides: Vec::new() }
    }

    /// Creates a solver with explicit options.
    pub fn with_options(circuit: &'c Circuit, options: AnalysisOptions) -> Self {
        DcAnalysis { circuit, options, overrides: Vec::new() }
    }

    /// Overrides the waveform of a named independent source for this
    /// analysis only, without cloning or mutating the circuit.
    ///
    /// Bit-identical to solving a circuit built with `wave` on that
    /// source, but the shared circuit keeps its compiled plan, with
    /// the sparse templates and orderings built on it, which is what
    /// lets test configurations sweep stimulus parameters over one
    /// immutable circuit. Repeated overrides of the same source keep
    /// the last.
    pub fn override_stimulus(mut self, name: impl Into<String>, wave: Waveform) -> Self {
        self.overrides.push((name.into(), wave));
        self
    }

    /// Adds a batch of by-name overrides (used by the transient
    /// front-end to pass its own through to the inner DC solve).
    pub(crate) fn with_overrides(mut self, overrides: Vec<(String, Waveform)>) -> Self {
        self.overrides.extend(overrides);
        self
    }

    /// Solves the operating point (sources at their `t = 0` values).
    ///
    /// # Errors
    ///
    /// [`SpiceError::NoConvergence`] if every rung of the ladder fails;
    /// [`SpiceError::Singular`] if the MNA matrix is structurally
    /// singular (floating subcircuit, voltage-source loop);
    /// [`SpiceError::InvalidAnalysis`] if the options hold an unusable
    /// tolerance, gmin or clamp.
    pub fn solve(&self) -> Result<DcSolution, SpiceError> {
        let x0 = vec![0.0; self.circuit.unknown_count()];
        self.solve_from(&x0)
    }

    /// Solves the operating point starting from a caller-supplied state
    /// (useful to warm-start a slightly perturbed circuit).
    ///
    /// # Errors
    ///
    /// As for [`DcAnalysis::solve`]; additionally
    /// [`SpiceError::InvalidAnalysis`] if `initial` has the wrong length
    /// or the options hold an unusable tolerance, gmin or clamp.
    pub fn solve_from(&self, initial: &[f64]) -> Result<DcSolution, SpiceError> {
        self.options.validate()?;
        let n = self.circuit.unknown_count();
        if initial.len() != n {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!("initial state length {} != unknown count {n}", initial.len()),
            });
        }
        let overrides = resolve_overrides(self.circuit, &self.overrides)?;
        if n == 0 {
            let convergence =
                ConvergenceReport { rungs: Vec::new(), strategy: NewtonStrategy::Plain };
            return Ok(self.package(Vec::new(), convergence));
        }

        // One compiled plan + one set of solver buffers for the whole
        // solve, shared across all ladder rungs; one state vector
        // mutated in place by the Newton iterations.
        // DC factors the static pattern: capacitors are open, and
        // carrying their slots would cost fill and block the BTF
        // condensation (see `PatternScope`).
        let mut scratch = NewtonScratch::new(
            self.circuit,
            self.options.solver,
            self.options.ordering,
            crate::stamp::PatternScope::Static,
        );
        scratch.overrides = overrides;
        let n_nodes = scratch.plan.node_unknowns();
        let mut x = initial.to_vec();
        let mut budget = IterBudget::start("dc operating point");
        let mut rungs: Vec<RungStat> = Vec::new();
        let opts = &self.options;
        // Rungs 2–5 run damped at the analysis's own clamp; the rescue
        // rungs (3–5) allow the generous clamp growth.
        let rescue = NewtonCfg {
            circuit: self.circuit,
            opts,
            gmin: opts.gmin,
            max_iter: opts.max_iter,
            clamp: opts.max_step_v,
            max_boost: RESCUE_MAX_BOOST,
            key: Some((0, 0)),
        };
        let no_stamps = |_: &mut dyn StampTarget| {};
        let no_rhs = |_: &mut [f64]| {};

        // Closes over nothing mutable: finishes a successful solve.
        macro_rules! land {
            ($x:expr, $strategy:expr) => {{
                let convergence = ConvergenceReport { rungs, strategy: $strategy };
                crate::stats::record_landing($strategy);
                return Ok(self.package($x, convergence));
            }};
        }
        // A budget verdict (allowance exhausted / deadline passed) ends
        // the ladder; trying further rungs could only re-trip it.
        macro_rules! rung_failed {
            ($e:expr) => {{
                let e = $e;
                if budget.depleted() {
                    crate::stats::record_unconverged();
                    return Err(e);
                }
                e
            }};
        }

        // 1. Plain Newton from the provided start, cheaply capped: it
        // exists for warm starts and mildly nonlinear circuits; a stiff
        // cold start must fall through fast.
        scratch.eval_sources(|w| w.dc_value());
        let cfg = NewtonCfg {
            max_iter: opts.max_iter.min(PLAIN_RUNG_CAP),
            clamp: f64::INFINITY,
            max_boost: 1.0,
            ..rescue
        };
        let mut stat = RungStat::new(NewtonStrategy::Plain);
        let plain = scratch.newton(&mut x, &cfg, &mut budget, &mut stat, no_stamps, no_rhs);
        rungs.push(stat);
        match plain {
            Ok(()) => land!(x, NewtonStrategy::Plain),
            Err(e) => {
                rung_failed!(e);
            }
        }

        // 2. Damped Newton with adaptive clamp growth, restarted.
        x.copy_from_slice(initial);
        let cfg = NewtonCfg { max_boost: DAMPED_MAX_BOOST, ..rescue };
        let mut stat = RungStat::new(NewtonStrategy::Damped);
        let damped = scratch.newton(&mut x, &cfg, &mut budget, &mut stat, no_stamps, no_rhs);
        rungs.push(stat);
        match damped {
            Ok(()) => land!(x, NewtonStrategy::Damped),
            Err(e) => {
                rung_failed!(e);
            }
        }

        // 3. gmin stepping: relax a strong shunt decade by decade.
        x.copy_from_slice(initial);
        let mut stat = RungStat::new(NewtonStrategy::GminStepping);
        let outcome = gmin_walk(1e-2, opts.gmin, |gmin| {
            let cfg = NewtonCfg { gmin, ..rescue };
            scratch.newton(&mut x, &cfg, &mut budget, &mut stat, no_stamps, no_rhs)
        });
        rungs.push(stat);
        match outcome {
            Ok(()) => land!(x, NewtonStrategy::GminStepping),
            Err(e) => {
                rung_failed!(e);
            }
        }

        // 4. Source stepping: ramp all sources from 0 to 100 % with an
        // adaptive advance — halve it (retreating to the last converged
        // state) when a step's Newton fails, regrow it after successes.
        // At scale 0 every independent source is dead and x = 0 solves
        // the system exactly, so the continuation path starts on a
        // solution by construction.
        x.fill(0.0);
        let mut stat = RungStat::new(NewtonStrategy::SourceStepping);
        let mut last_good = x.clone();
        let mut reached = 0.0f64;
        let mut advance = SOURCE_STEP_INIT;
        let mut stages = 0usize;
        let outcome = loop {
            let scale = (reached + advance).min(1.0);
            scratch.eval_sources(|w| scale * w.dc_value());
            let r = scratch.newton(&mut x, &rescue, &mut budget, &mut stat, no_stamps, no_rhs);
            stages += 1;
            match r {
                Ok(()) if scale >= 1.0 => break Ok(()),
                Ok(()) => {
                    reached = scale;
                    last_good.copy_from_slice(&x);
                    advance = (advance * 2.0).min(SOURCE_STEP_INIT);
                }
                Err(e) => {
                    if budget.depleted()
                        || advance <= SOURCE_STEP_MIN
                        || stages >= SOURCE_MAX_STAGES
                    {
                        break Err(e);
                    }
                    advance /= 2.0;
                    x.copy_from_slice(&last_good);
                }
            }
            if stages >= SOURCE_MAX_STAGES {
                break Err(SpiceError::NoConvergence {
                    analysis: "dc operating point (source stepping stage cap)".to_string(),
                    iterations: stat.iterations,
                });
            }
        };
        rungs.push(stat);
        match outcome {
            Ok(()) => land!(x, NewtonStrategy::SourceStepping),
            Err(e) => {
                rung_failed!(e);
            }
        }

        // 5. Pseudo-transient continuation: anchor every node to the
        // previous pseudo-timestep's state through a conductance α,
        // relaxed geometrically, then polish at α = 0. The anchoring
        // holds high-gain feedback loops still; branch rows stay
        // un-augmented so voltage-source-loop singularities still
        // surface as `Singular` rather than being masked.
        scratch.eval_sources(|w| w.dc_value());
        x.copy_from_slice(initial);
        let mut anchor = initial.to_vec();
        let mut stat = RungStat::new(NewtonStrategy::PseudoTransient);
        // `alpha` is the last *converged* anchor conductance; each stage
        // tries `alpha / decay`. A failed stage retreats the iterate to
        // the anchor and square-roots the decay — smaller pseudo-time
        // growth through the stretch where the solve loses the branch —
        // and a failure before any stage converged strengthens the
        // starting anchor instead.
        let mut alpha = PTC_ALPHA_START;
        let mut decay = PTC_DECAY_START;
        let mut landed_any = false;
        let mut stages = 0usize;
        let outcome = loop {
            let next_alpha = if !landed_any {
                alpha
            } else if alpha / decay >= PTC_ALPHA_FLOOR {
                alpha / decay
            } else {
                0.0
            };
            // `(α, anchor)` adds α to every node diagonal — the slots
            // gmin occupies, so the sparse pattern already holds them —
            // and α·anchor[i] to every node rhs row, pulling the
            // iterate toward the anchor. No key describes that matrix.
            let ptc = (next_alpha > 0.0).then_some((next_alpha, anchor.as_slice()));
            let cfg = NewtonCfg { key: ptc.is_none().then_some((0, 0)), ..rescue };
            let r = scratch.newton(
                &mut x,
                &cfg,
                &mut budget,
                &mut stat,
                |mat: &mut dyn StampTarget| {
                    if let Some((alpha, _)) = ptc {
                        for i in 0..n_nodes {
                            mat.add(i, i, alpha);
                        }
                    }
                },
                |rhs: &mut [f64]| {
                    if let Some((alpha, anchor)) = ptc {
                        for i in 0..n_nodes {
                            rhs[i] += alpha * anchor[i];
                        }
                    }
                },
            );
            stages += 1;
            match r {
                Ok(()) if next_alpha == 0.0 => break Ok(()),
                Ok(()) => {
                    anchor.copy_from_slice(&x);
                    alpha = next_alpha;
                    landed_any = true;
                }
                Err(e) => {
                    if budget.depleted() || stages >= PTC_MAX_STAGES {
                        break Err(e);
                    }
                    if !landed_any {
                        // The starting anchor is too weak to hold the
                        // first stage: strengthen it.
                        if alpha >= PTC_ALPHA_MAX {
                            break Err(e);
                        }
                        alpha *= 10.0;
                        x.copy_from_slice(initial);
                    } else {
                        if decay <= PTC_DECAY_MIN {
                            break Err(e);
                        }
                        decay = decay.sqrt();
                        x.copy_from_slice(&anchor);
                    }
                }
            }
        };
        rungs.push(stat);
        match outcome {
            Ok(()) => land!(x, NewtonStrategy::PseudoTransient),
            Err(e) => {
                let e = rung_failed!(e);
                crate::stats::record_unconverged();
                Err(match e {
                    SpiceError::Numeric(n) => SpiceError::Numeric(n),
                    SpiceError::Singular { unknown } => SpiceError::Singular { unknown },
                    SpiceError::Timeout { analysis, budget_ms } => {
                        SpiceError::Timeout { analysis, budget_ms }
                    }
                    _ => SpiceError::NoConvergence {
                        analysis: "dc operating point (strategy ladder exhausted)".to_string(),
                        iterations: rungs.iter().map(|r| r.iterations).sum(),
                    },
                })
            }
        }
    }

    fn package(&self, state: Vec<f64>, convergence: ConvergenceReport) -> DcSolution {
        let n_nodes = self.circuit.node_count() - 1;
        let mut voltages = vec![0.0; self.circuit.node_count()];
        voltages[1..=n_nodes].copy_from_slice(&state[..n_nodes]);
        let mut branch_currents = Vec::new();
        let mut br = n_nodes;
        for dev in self.circuit.devices() {
            if dev.has_branch_current() {
                branch_currents.push((dev.name().to_string(), state[br]));
                br += 1;
            }
        }
        DcSolution { voltages, branch_currents, state, convergence }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::{MosParams, MosPolarity};
    use crate::Waveform;

    #[test]
    fn parallel_vsources_name_the_singular_unknown() {
        // Two voltage sources disagreeing across the same node pair make
        // the MNA system structurally singular: the second source's
        // branch column is dependent. The diagnostic must name that
        // branch current, not a raw pivot index.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_vsource("V2", b, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        c.add_vsource("V3", b, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        let err = DcAnalysis::new(&c).solve().unwrap_err();
        match err {
            SpiceError::Singular { ref unknown } => assert_eq!(unknown, "i(V3)"),
            other => panic!("expected Singular, got {other:?}"),
        }
        assert!(err.to_string().contains("i(V3)"));
    }

    #[test]
    fn resistor_divider() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(10.0)).unwrap();
        c.add_resistor("R1", vin, out, 1e3).unwrap();
        c.add_resistor("R2", out, Circuit::GROUND, 1e3).unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!((sol.voltage(out) - 5.0).abs() < 1e-6);
        assert!((sol.voltage(vin) - 10.0).abs() < 1e-9);
        // Source sees 5 mA flowing + -> - through the external circuit,
        // i.e. +5 mA through the source in SPICE convention.
        let i = sol.source_current("V1").unwrap();
        assert!((i + 5e-3).abs() < 1e-6, "i = {i}");
    }

    /// DC treats the inductor as a short carrying the loop current.
    #[test]
    fn dc_inductor_is_a_short() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        ckt.add_resistor("R1", vin, mid, 1e3).unwrap();
        ckt.add_inductor("L1", mid, Circuit::GROUND, 1e-3).unwrap();
        let sol = DcAnalysis::new(&ckt).solve().unwrap();
        assert!((sol.voltage(mid)).abs() < 1e-9, "v(mid) = {}", sol.voltage(mid));
        let i = sol.source_current("L1").unwrap();
        assert!((i - 2e-3).abs() < 1e-9, "i(L1) = {i}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        // 1 mA pulled out of ground into node a → V(a) = +1 V over 1 kΩ.
        c.add_isource("I1", Circuit::GROUND, a, Waveform::dc(1e-3)).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!((sol.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vcvs_amplifies() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::dc(0.25)).unwrap();
        c.add_vcvs("E1", out, Circuit::GROUND, inp, Circuit::GROUND, 4.0).unwrap();
        c.add_resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!((sol.voltage(out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn floating_node_is_held_by_gmin() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("float");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        c.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!(sol.voltage(b).abs() < 1e-6);
    }

    #[test]
    fn nmos_diode_connected_operating_point() {
        // Diode-connected NMOS fed by a current source: vgs solves
        // I = β/2 (vgs − vt)² (1 + λ·vgs).
        let mut c = Circuit::new();
        let d = c.node("d");
        let params = MosParams::nmos_default(10e-6, 1e-6);
        c.add_isource("Ib", Circuit::GROUND, d, Waveform::dc(100e-6)).unwrap();
        c.add_mosfet("M1", d, d, Circuit::GROUND, Circuit::GROUND, MosPolarity::Nmos, params)
            .unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        let v = sol.voltage(d);
        assert!(v > params.vt0, "v = {v}");
        let beta = params.beta();
        let i_model = 0.5 * beta * (v - params.vt0).powi(2) * (1.0 + params.lambda * v);
        assert!((i_model - 100e-6).abs() / 100e-6 < 1e-3, "v={v}, i={i_model}");
    }

    #[test]
    fn nmos_common_source_amplifier_pulls_down() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_vsource("VG", g, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        c.add_resistor("RD", vdd, d, 50e3).unwrap();
        c.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            MosParams::nmos_default(10e-6, 1e-6),
        )
        .unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        let vd = sol.voltage(d);
        // With vgs = 2 V the device sinks on the order of 1 mA: the drain
        // is pulled into triode, well below VDD.
        assert!(vd < 1.0, "vd = {vd}");
        assert!(vd > 0.0);
    }

    #[test]
    fn pmos_mirror_copies_current() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let bias = c.node("bias");
        let out = c.node("out");
        let p = MosParams::pmos_default(20e-6, 2e-6);
        c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        // Diode-connected reference leg: 50 µA pulled down from bias node.
        c.add_mosfet("M1", bias, bias, vdd, vdd, MosPolarity::Pmos, p).unwrap();
        c.add_isource("Iref", bias, Circuit::GROUND, Waveform::dc(50e-6)).unwrap();
        // Mirror leg into a load resistor.
        c.add_mosfet("M2", out, bias, vdd, vdd, MosPolarity::Pmos, p).unwrap();
        c.add_resistor("RL", out, Circuit::GROUND, 10e3).unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        let i_out = sol.voltage(out) / 10e3;
        assert!((i_out - 50e-6).abs() / 50e-6 < 0.15, "i_out = {i_out}");
    }

    /// Regression: the linear-plan verification-iteration skip must not
    /// declare convergence when the applied update failed to land
    /// exactly on the solved state. A warm start ~16 orders of
    /// magnitude off makes `x + (x_new − x)` round away from `x_new`
    /// (here to 0.0); an unguarded skip would return that as the
    /// "solution".
    #[test]
    fn linear_skip_guard_rejects_inexact_landing() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        c.add_resistor("R1", vin, out, 1e3).unwrap();
        c.add_resistor("R2", out, Circuit::GROUND, 1e3).unwrap();
        let n = c.unknown_count();
        let sol = DcAnalysis::new(&c).solve_from(&vec![1e16; n]).unwrap();
        assert!((sol.voltage(out) - 1.0).abs() < 1e-6, "v(out) = {}", sol.voltage(out));
        assert!((sol.voltage(vin) - 2.0).abs() < 1e-6, "v(vin) = {}", sol.voltage(vin));
    }

    #[test]
    fn landed_on_requires_bit_equality_and_rejects_negative_zero() {
        assert!(landed_on(1.5, 1.5));
        assert!(landed_on(0.0, 0.0));
        assert!(!landed_on(0.0, -0.0));
        assert!(!landed_on(-0.0, -0.0), "a -0.0 target would be rewritten to +0.0");
        assert!(!landed_on(1.5, 1.5 + f64::EPSILON));
    }

    /// A stimulus override must be bit-identical to solving a circuit
    /// built with the overriding waveform, and must leave the shared
    /// circuit's plan untouched.
    #[test]
    fn stimulus_override_matches_set_stimulus_bitwise() {
        let divider = |volts: f64| {
            let mut c = Circuit::new();
            let vin = c.node("vin");
            let out = c.node("out");
            c.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(volts)).unwrap();
            c.add_resistor("R1", vin, out, 1e3).unwrap();
            c.add_resistor("R2", out, Circuit::GROUND, 1e3).unwrap();
            (c, out)
        };
        let (c, out) = divider(10.0);
        c.compile_plan();
        let plan_before = c.plan();

        let via_override =
            DcAnalysis::new(&c).override_stimulus("V1", Waveform::dc(3.0)).solve().unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&plan_before, &c.plan()),
            "an override must not touch the shared plan"
        );

        let (rebuilt, _) = divider(3.0);
        let direct = DcAnalysis::new(&rebuilt).solve().unwrap();
        for (a, b) in via_override.state().iter().zip(direct.state()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The last override of the same source wins.
        let twice = DcAnalysis::new(&c)
            .override_stimulus("V1", Waveform::dc(8.0))
            .override_stimulus("V1", Waveform::dc(3.0))
            .solve()
            .unwrap();
        assert_eq!(twice.voltage(out).to_bits(), via_override.voltage(out).to_bits());
    }

    #[test]
    fn stimulus_override_validates_target() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        assert!(matches!(
            DcAnalysis::new(&c).override_stimulus("nope", Waveform::dc(0.0)).solve(),
            Err(SpiceError::UnknownDevice { .. })
        ));
        assert!(matches!(
            DcAnalysis::new(&c).override_stimulus("R1", Waveform::dc(0.0)).solve(),
            Err(SpiceError::InvalidValue { .. })
        ));
    }

    fn factorizations() -> usize {
        crate::solver::FACTORIZATIONS.with(|c| c.get())
    }

    /// A resistor ladder driven by `V1`: linear, and sparse under
    /// `SolverKind::Auto` once it has 64+ unknowns.
    fn linear_ladder(sections: usize) -> Circuit {
        let mut c = Circuit::new();
        let mut prev = c.node("in");
        c.add_vsource("V1", prev, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        for i in 0..sections {
            let next = c.node(&format!("n{i}"));
            c.add_resistor(&format!("Rs{i}"), prev, next, 100.0 + i as f64).unwrap();
            c.add_resistor(&format!("Rp{i}"), next, Circuit::GROUND, 1e4).unwrap();
            prev = next;
        }
        c
    }

    /// A second DC analysis of a linear plan, at another source level,
    /// adopts the plan's cached first factorization: it performs no
    /// factorization, spends the same Newton iterations and lands on
    /// the same bits as the same analysis of a freshly built plan.
    #[test]
    fn later_dc_analyses_of_a_linear_plan_start_factored() {
        for solver in [SolverKind::Dense, SolverKind::Sparse] {
            for ordering in [OrderingKind::Auto, OrderingKind::Amd] {
                let opts = AnalysisOptions { solver, ordering, ..AnalysisOptions::default() };
                let solve = |c: &Circuit, v: f64| {
                    DcAnalysis::with_options(c, opts)
                        .override_stimulus("V1", Waveform::dc(v))
                        .solve()
                        .unwrap()
                };
                let c = linear_ladder(80);
                solve(&c, 1.0);
                let before = factorizations();
                let second = solve(&c, 2.5);
                assert_eq!(factorizations(), before, "{solver:?}/{ordering:?} refactored");

                let fresh = solve(&linear_ladder(80), 2.5);
                assert!(factorizations() > before, "a fresh plan factors");
                assert_eq!(second.convergence(), fresh.convergence());
                let bits =
                    |s: &DcSolution| s.state().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&second), bits(&fresh), "{solver:?}/{ordering:?}");
            }
        }
    }

    /// A nonlinear plan never caches factors: every analysis factors.
    #[test]
    fn nonlinear_plans_factor_every_analysis() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let params = MosParams::nmos_default(10e-6, 1e-6);
        c.add_isource("Ib", Circuit::GROUND, d, Waveform::dc(100e-6)).unwrap();
        c.add_mosfet("M1", d, d, Circuit::GROUND, Circuit::GROUND, MosPolarity::Nmos, params)
            .unwrap();
        DcAnalysis::new(&c).solve().unwrap();
        let before = factorizations();
        DcAnalysis::new(&c).solve().unwrap();
        assert!(factorizations() > before);
    }

    #[test]
    fn wrong_initial_length_is_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        let err = DcAnalysis::new(&c).solve_from(&[0.0, 0.0]).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidAnalysis { .. }));
    }

    #[test]
    fn empty_circuit_solves_trivially() {
        let c = Circuit::new();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert_eq!(sol.voltages().len(), 1);
    }
}
