//! A from-scratch analog circuit simulator for `castg`.
//!
//! The paper drives its test-generation loop with HSPICE; this crate is the
//! substitute substrate: a modified-nodal-analysis (MNA) simulator with
//!
//! * [`Circuit`] — a named-node netlist of [`Device`]s (resistors,
//!   capacitors, inductors, independent voltage/current sources, Level-1
//!   MOSFETs, Shockley diodes with series resistance, Ebers–Moll BJTs,
//!   and all four linear controlled sources — VCVS `E`, VCCS `G`, CCCS
//!   `F`, CCVS `H`; inductors are DC shorts carrying a branch-current
//!   unknown, integrated by the same companion-model machinery as
//!   capacitors, and the current-sensing `F`/`H` sources read any
//!   branch-current-carrying controller's row the same way),
//!
//!   Every pn junction — the diode's and both BJT junctions — evaluates
//!   through the same stateless critical-voltage limiting: exact
//!   Shockley below the junction's critical voltage, a linearized
//!   continuation above it, C¹ at the seam. Limiting is a pure
//!   function of the terminal voltages (no
//!   per-iteration memory), so solutions stay bit-reproducible across
//!   delta-patched plans, thread counts and solver paths, and cold
//!   starts stay on the plain/damped rungs of the ladder instead of
//!   overflowing the exponential,
//! * [`Waveform`] — stimulus descriptions (DC, sine, step, pulse, PWL)
//!   matching the test-configuration stimuli of the paper's Table 1,
//! * [`DcAnalysis`] — Newton–Raphson operating-point solve behind a
//!   five-rung convergence strategy ladder (see below),
//! * [`TranAnalysis`] — fixed-step transient analysis (trapezoidal with a
//!   backward-Euler start) recording [`Probe`]d quantities into a
//!   [`Trace`].
//!
//! These are the analyses the paper's test configurations run: DC
//! transfer and supply current need the operating point; THD and the
//! sampled step responses need the transient.
//!
//! The simulator is deliberately small (fixed timestep, Level-1 MOS) but
//! numerically honest: every nonlinear solve either converges to the
//! requested tolerances or reports [`SpiceError::NoConvergence`].
//!
//! # Convergence resilience: the Newton strategy ladder and solve budgets
//!
//! A DC operating point is attempted through five rungs, each engaged
//! only when the previous one fails, each recorded in the solution's
//! typed [`ConvergenceReport`] (strategy that landed, per-rung
//! iteration counts and residual norms):
//!
//! 1. **Plain Newton** — undamped, capped at a handful of iterations;
//!    lands linear and benign nonlinear circuits immediately.
//! 2. **Damped Newton** — adaptive step clamping with bounded clamp
//!    growth; the workhorse for cold nonlinear starts (the
//!    IV-converter cold start lands here in under 25 iterations).
//! 3. **Gmin stepping** — a conductance homotopy from 1e-2 S/node down
//!    decade by decade to the target gmin.
//! 4. **Adaptive source stepping** — natural continuation in source
//!    scale with halve-on-failure/double-on-success advance control,
//!    retreating to the last converged state; power-of-two step sizes
//!    keep trajectories bit-reproducible.
//! 5. **Adaptive pseudo-transient continuation** — a conductance
//!    `α`-homotopy whose decay factor refines by IEEE square root on
//!    stage failure and whose starting `α` strengthens when even the
//!    first stage diverges; the rescue for fold points that natural
//!    continuation cannot cross (a source-stepping branch that
//!    vanishes mid-path).
//!
//! Every Newton iteration on every rung — including transient
//! timesteps — charges the thread-local iteration/wall-clock budget
//! ([`with_solve_budget`]), so a solve can always be bounded;
//! iteration allowances deplete deterministically at any thread
//! count, wall-clock deadlines are machine-dependent by nature.
//! Per-thread [`LadderStats`] counters ([`ladder_stats`]) aggregate
//! which rung landed each solve — the fault-campaign engine sums them
//! into its coverage reports.
//!
//! # Hot-path architecture: stamp plans + LU workspaces
//!
//! Test generation hammers this crate with millions of Newton solves, so
//! the per-iteration path is engineered to perform **zero heap
//! allocations after setup**:
//!
//! * **Stamp plans.** Each analysis compiles its [`Circuit`] once into a
//!   `StampPlan` — node ids resolved to matrix slots, branch rows
//!   assigned, constant stamp values precomputed, every reactance
//!   (capacitor, inductor, MOS gate and junction capacitance) recorded
//!   once in device order. Every Newton iteration then *replays* the
//!   flat op list into a reused matrix/RHS pair: no device dispatch, no
//!   node-index arithmetic, no allocation. One plan is shared across
//!   Newton iterations, gmin/source-stepping ladders, and all timesteps
//!   of a transient run.
//! * **One copy of each decision.** A single replay turns plan ops into
//!   matrix adds for every target: dense, sparse, and the sparse fast
//!   path, which adds through value indices recorded by running that
//!   same replay once through a slot recorder. The transient
//!   companions and the dynamic sparsity slots both stamp the one
//!   reactance list. DC rungs and transient steps run the same damped
//!   Newton iteration and the same gmin walk, differing only in their
//!   settings and extra stamps. A new device kind is one `emit` arm
//!   plus one replay arm.
//! * **LU workspaces.** The factor/solve cycle runs through
//!   `castg_numeric::LuWorkspace`: the assembled matrix is *swapped*
//!   into the workspace (O(1)), eliminated in place, and the solution
//!   substituted into a reused buffer. The caller gets the previous
//!   buffer back as scratch for the next assembly, so the matrix storage
//!   ping-pongs between assembly and factorization for the whole
//!   analysis. `LuWorkspace` is the only dense LU in the workspace.
//!
//! Plan replay is bit-identical to a direct device walk, which the test
//! suites assert exactly.
//!
//! # Structure sharing: patched plans, overrides, exact reuse
//!
//! Fault campaigns simulate thousands of single-fault variants that
//! share ≥95 % of their structure with one nominal circuit; three
//! mechanisms make that sharing explicit (all bit-neutral — pinned by
//! the campaign differential harness):
//!
//! * **Plan patching.** A compiled plan survives additive mutation:
//!   [`Circuit::add`] appends the new device's ops exactly as a
//!   recompile would emit them, merging its few new sparsity slots
//!   into the existing pattern. A device
//!   that adds no slot (a bridge across an existing resistor, as every
//!   adjacent bridge of a mesh is) keeps the pattern's `Arc`, and the
//!   patched plan takes over the pattern-only state with it: the AMD
//!   permutation, the BTF orders and the `Auto` verdict. What depends
//!   on values — the factor cache — starts empty per variant.
//!   Bridge-fault injection therefore costs a plan patch, not a
//!   recompilation. Structural mutations (node interning, removal,
//!   `device_mut`) still drop the plan.
//! * **Stimulus overrides.** Every analysis accepts
//!   `override_stimulus(name, wave)`: the override applies at
//!   source-evaluation time, so test configurations sweep stimulus
//!   parameters over one shared immutable circuit — no clone, no
//!   mutation, same bits as a circuit built with that waveform.
//! * **Exact (Shamanskii-style) factorization reuse.** For linear
//!   plans the Jacobian is a pure function of `(gmin, companions)`;
//!   Newton loops key their factorization on exactly that and skip
//!   assembly + refactorization — and the always-converging
//!   verification iteration — whenever the key matches. A fixed-step
//!   transient of a linear circuit factors once and then pays only
//!   rhs re-derivation + substitution per step. The plan also keeps the
//!   first factorization of each key (per solver dispatch, bounded,
//!   filled by whichever thread factors first), so later analyses of
//!   the same circuit — the next DC level of a campaign variant, the
//!   next run at the same step — start already factored, with the same
//!   iterations and bits. A cached entry shares its symbolic skeleton
//!   (`castg_numeric::SparseSymbolic`) by `Arc` with every analysis
//!   that adopts it.
//!
//! # Solver dispatch: dense vs sparse
//!
//! Each analysis routes its linear solves through a per-circuit solver
//! selection ([`SolverKind`] in [`AnalysisOptions`]):
//!
//! * **Dense** (`castg_numeric::LuWorkspace`) — the default winner for
//!   macro-sized systems; identical to the pre-dispatch hot path, bit
//!   for bit.
//! * **Sparse** (`castg_numeric::SparseLu`) — for large, structurally
//!   sparse netlists. The compiled stamp plan records every matrix slot
//!   any analysis can touch (static stamps, MOS linearization sites,
//!   reactance companion slots) and caches a pattern-fixed CSC
//!   template per circuit; assembly then costs O(nnz) per iteration and
//!   the factorization reuses its symbolic skeleton across all Newton
//!   iterations, stepping ladders and timesteps of an analysis.
//! * **Auto** (default) picks sparse iff `n ≥` [`SPARSE_MIN_N`] and the
//!   structural density of the pattern being analysed — the static one
//!   for DC, the full one for transient — is at most
//!   [`SPARSE_MAX_DENSITY`]. Each pattern scope keeps its own template,
//!   orderings and verdict, so a DC-only run never builds the full
//!   pattern.
//!
//! The two paths are pinned against each other by a differential test
//! harness (`tests/sparse_differential.rs`): identical circuits solved
//! through both must agree to 1e-9 relative, nominal and after fault
//! injection.
//!
//! # Ordering selection: natural, AMD, BTF
//!
//! The sparse path has a second dispatch axis,
//! [`AnalysisOptions::ordering`] ([`OrderingKind`]): which column
//! permutation the LU eliminates under. Natural MNA order is
//! near-optimal for chain/ladder netlists, but mesh- and crossbar-like
//! netlists fill as O(n·√n) under it; the AMD ordering
//! (`castg_numeric::SparsePattern::amd_ordering`) keeps their factors
//! near-linear. `Auto` (the default) resolves once per sparsity
//! pattern, from structural counts alone
//! (`castg_numeric::SparsePattern::symmetric_fill`: the `nnz(L+U)` of
//! the symbolic Cholesky factor of `A + Aᵀ`, computed on the
//! elimination tree without reading a value). Unless natural order is
//! genuinely fill-blown ([`AMD_AUTO_MIN_BLOWUP`] × `nnz(A + Aᵀ)`), the
//! verdict is Natural and costs one count — a ladder fault campaign
//! pays nothing for the ordering machinery. Fill-blown patterns also
//! run the AMD construction and its count, and keep AMD when it beats
//! natural by [`AMD_AUTO_MARGIN`]. Nothing is factored to decide, and
//! the verdict is pattern-only state: a fault variant whose delta patch
//! adds no slot inherits it with the AMD permutation, and a rebuild of
//! the same variant reaches the same verdict by construction.
//! [`sparse_fill_stats`] reports the factorization each ordering
//! actually produces (`castg check`, the benchmark and
//! `tests/ordering_verdicts.rs` are built on it).
//!
//! The third ordering is **BTF** (`OrderingKind::Btf`): the KLU-style
//! block-triangular decomposition (`castg_numeric::btf`) — maximum
//! transversal, Tarjan SCC condensation, per-block AMD — which factors
//! only the diagonal blocks and retires off-diagonal coupling during
//! back-substitution. It was built for *one-directional* topologies:
//! cascaded macro chains whose DC pattern has no feedback (a MOS gate
//! draws no DC current, so each stage only drives the next). The
//! **static/dynamic pattern split** is what exposes that structure: DC
//! solves factor the static (resistive + Jacobian) pattern only, where
//! capacitor slots — structural zeros in DC that would symmetrically
//! glue every cascade stage into one giant SCC — are absent; transient
//! solves stamp companions into the full union pattern. On the
//! synthetic families BTF has not paid off yet: a 512-unknown OTA chain
//! condenses to 259 blocks (largest 2) with block fill equal to the
//! global-AMD fill (1,276 nnz; `tests/ordering_verdicts.rs` pins both),
//! and its forced-BTF DC solve is no faster than forced AMD (0.67–1.07×
//! AMD's speed, median 0.96×, over five runs on a shared 2-core box); on
//! the benchmark's `ota_rescue` workload BTF costs about 12 % more per
//! Newton iteration than Natural or AMD.
//! Ladders (banded, AMD already fill-free) and meshes (one irreducible
//! SCC) see no benefit either, so `Auto` never resolves to Btf: it is
//! forced only, and slated for deletion (ROADMAP.md, item 2). Whether
//! a forced `Btf` is usable is read off the cheap condensation stage;
//! the per-block AMD runs only for a BTF order that is actually
//! factored. A forced `Btf` on an irreducible pattern falls back to the
//! AMD path (bit-identical to forced `Amd`).
//!
//! Ordering composes with every structure-sharing mechanism above
//! because it is pattern-only state. The plan computes the AMD
//! permutation or the BTF order once per pattern and installs it in
//! every sparse solver instance, whose first factorization picks its
//! own pivots under it; the instance's refactorizations and stability
//! fallbacks keep factoring under the same ordering. Delta-stamp plan
//! patches resolve `Auto` on the merged pattern (a pure function of
//! the faulted circuit, so a patched variant and a from-scratch rebuild
//! always agree bit for bit — the patched one merely reuses the
//! nominal's AMD permutation and verdict when the pattern is
//! unchanged). Only [`sparse_fill_stats`] factors the canonical matrix
//! (assembled at `x = 0` with the default gmin), and it keeps nothing.
//! The four-way differential harness (Dense / Sparse-Natural /
//! Sparse-AMD / Sparse-BTF, `tests/sparse_differential.rs` +
//! `tests/campaign_differential.rs`) pins all of this, nominal and
//! after fault injection, at worker counts 1 and 4.
//!
//! # Example: resistor divider
//!
//! ```
//! use castg_spice::{Circuit, DcAnalysis, Waveform};
//!
//! let mut c = Circuit::new();
//! let vin = c.node("vin");
//! let out = c.node("out");
//! c.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(10.0))?;
//! c.add_resistor("R1", vin, out, 1_000.0)?;
//! c.add_resistor("R2", out, Circuit::GROUND, 3_000.0)?;
//! let sol = DcAnalysis::new(&c).solve()?;
//! assert!((sol.voltage(out) - 7.5).abs() < 1e-6);
//! # Ok::<(), castg_spice::SpiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod bjt;
mod budget;
mod circuit;
mod dc;
mod device;
mod diode;
mod error;
mod mos;
mod node;
mod probe;
mod solver;
mod stamp;
mod stats;
mod stimulus;
mod transient;

pub use analysis::AnalysisOptions;
pub use bjt::{BjtOperatingPoint, BjtParams, BjtPolarity};
pub use budget::with_solve_budget;
pub use circuit::Circuit;
pub use dc::{ConvergenceReport, DcAnalysis, DcSolution, NewtonStrategy, RungStat};
pub use device::{Device, DeviceKind};
pub use diode::{DiodeOperatingPoint, DiodeParams, THERMAL_VOLTAGE};
pub use error::SpiceError;
pub use mos::{MosOperatingPoint, MosParams, MosPolarity, MosRegion};
pub use node::NodeId;
pub use probe::{Probe, Trace};
pub use solver::{
    sparse_fill_stats, FillStats, OrderingKind, SolverKind, AMD_AUTO_MARGIN, AMD_AUTO_MIN_BLOWUP,
    SPARSE_MAX_DENSITY, SPARSE_MIN_N,
};
pub use stats::{ladder_stats, LadderStats};
pub use stimulus::Waveform;
pub use transient::{IntegrationMethod, TranAnalysis};
