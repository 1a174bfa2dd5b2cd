//! MNA matrix assembly (device "stamps").
//!
//! Unknown ordering: the `N − 1` non-ground node voltages first (node id
//! `n` lives at index `n − 1`), followed by one branch current per
//! voltage-defined device (voltage sources, VCVS, CCVS and inductors),
//! in device insertion order. KCL rows are written as "sum of currents
//! *leaving* the node equals zero" with constant terms moved to the
//! right-hand side.
//!
//! Assembly is two-phase: [`StampPlan::build`] walks the device list
//! *once* per circuit — one `emit` arm per device kind — resolving
//! every node to its matrix slot, precomputing all constant stamp
//! values and recording every reactance; [`StampPlan::assemble_into`]
//! then replays the flat op list per Newton iteration with no device
//! dispatch, no node-index arithmetic and no allocation. The plan is
//! shared across Newton iterations, gmin/source stepping ladders and
//! transient timesteps. The replay applies ops in device order, so the
//! floating-point accumulation order (and therefore the result, bit for
//! bit) matches a direct device-by-device assembly.
//!
//! Each decision is written once:
//!
//! * **One replay** (one arm per op kind) turns ops into matrix and rhs
//!   adds for every [`StampTarget`]: the dense matrix, a sparse matrix,
//!   a recorder that lists the slot of every add (the static sparsity
//!   pattern), and a target that adds by position through that list
//!   mapped to value indices (the sparse fast path, no binary search).
//!   The rhs-only refresh of linear plans replays the rhs-writing ops
//!   through a target that drops matrix adds.
//! * **One reactance list** ([`Reactance`], device order): the dynamic
//!   sparsity slots and the transient companions are both stamped from
//!   it.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use castg_numeric::{SparseLu, SparseMatrix, StampTarget};

use crate::bjt::{self, BjtParams, BjtPolarity};
use crate::circuit::Circuit;
use crate::device::{Device, DeviceKind};
use crate::diode::{self, DiodeParams};
use crate::solver::OrderingKind;
use crate::mos::{self, MosParams, MosPolarity};
use crate::node::NodeId;
use crate::stimulus::Waveform;

/// Maps a node to its matrix index (`None` for ground).
#[inline]
pub(crate) fn idx(n: NodeId) -> Option<usize> {
    if n.is_ground() {
        None
    } else {
        Some(n.index() - 1)
    }
}

/// Voltage of a node under the candidate solution `x` (ground is 0).
#[cfg(test)]
pub(crate) fn voltage_of(x: &[f64], n: NodeId) -> f64 {
    slot_voltage(x, idx(n))
}

/// Voltage of a resolved matrix slot under the candidate solution `x`.
#[inline]
fn slot_voltage(x: &[f64], slot: Option<usize>) -> f64 {
    match slot {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Adds `g` as a two-terminal conductance stamp between the resolved
/// slots `a` and `b` (`None` is ground). Generic over the assembly
/// target, so the same add order builds plan ops, drives the dense and
/// sparse solver paths and records sparsity slots.
fn conductance<M: StampTarget + ?Sized>(mat: &mut M, a: Option<usize>, b: Option<usize>, g: f64) {
    if let Some(i) = a {
        mat.add(i, i, g);
        if let Some(j) = b {
            mat.add(i, j, -g);
        }
    }
    if let Some(j) = b {
        mat.add(j, j, g);
        if let Some(i) = a {
            mat.add(j, i, -g);
        }
    }
}

/// Adds `g` as a two-terminal conductance stamp between nodes `a` and
/// `b`.
#[cfg(test)]
pub(crate) fn stamp_conductance<M: StampTarget + ?Sized>(mat: &mut M, a: NodeId, b: NodeId, g: f64) {
    conductance(mat, idx(a), idx(b), g);
}

/// Adds a constant current `i` flowing out of slot `from` into slot `to`
/// (through the element being stamped).
fn current(rhs: &mut [f64], from: Option<usize>, to: Option<usize>, i: f64) {
    if let Some(a) = from {
        rhs[a] -= i;
    }
    if let Some(b) = to {
        rhs[b] += i;
    }
}

/// Adds a constant current `i` flowing out of node `from` into node `to`.
#[cfg(test)]
pub(crate) fn stamp_current(rhs: &mut [f64], from: NodeId, to: NodeId, i: f64) {
    current(rhs, idx(from), idx(to), i);
}

/// One energy-storage element of a plan, terminals resolved to slots.
///
/// [`PlanBuilder::emit`] records every reactance of the circuit once,
/// in device order; the plan's dynamic sparsity slots and the
/// transient companions are both stamped from this list.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reactance {
    /// A capacitance between two nodes: an explicit capacitor, a MOS
    /// gate capacitance (cgs, cgd) or a junction capacitance (diode
    /// cj0, BJT cje/cjc).
    Cap { a: Option<usize>, b: Option<usize>, farads: f64 },
    /// An inductor between two nodes, carrying branch row `row`.
    Ind { a: Option<usize>, b: Option<usize>, row: usize, henries: f64 },
}

impl Reactance {
    /// Terminal voltage `v(a) − v(b)` under the candidate solution `x`.
    pub(crate) fn voltage(&self, x: &[f64]) -> f64 {
        let (Reactance::Cap { a, b, .. } | Reactance::Ind { a, b, .. }) = *self;
        slot_voltage(x, a) - slot_voltage(x, b)
    }

    /// Stamps `value` as the element's matrix entry: a conductance
    /// between the terminals of a capacitance, `−value` on the branch
    /// diagonal of an inductor (its branch equation gains `−value·i`).
    /// The transient passes the companion `geq`/`req`; the slot
    /// recorder passes zero.
    pub(crate) fn stamp<M: StampTarget + ?Sized>(&self, mat: &mut M, value: f64) {
        match *self {
            Reactance::Cap { a, b, .. } => conductance(mat, a, b, value),
            Reactance::Ind { row, .. } => mat.add(row, row, -value),
        }
    }

    /// Adds a companion history term to the right-hand side: a current
    /// from `b` into `a` for a capacitance, the branch equation's
    /// constant for an inductor.
    pub(crate) fn stamp_history(&self, rhs: &mut [f64], hist: f64) {
        match *self {
            Reactance::Cap { a, b, .. } => current(rhs, b, a, hist),
            Reactance::Ind { row, .. } => rhs[row] += hist,
        }
    }
}

/// A [`StampTarget`] that records the slot of every add instead of
/// adding: run through a replay or a reactance stamp, it yields exactly
/// the slots that assembly touches, in assembly order.
struct SlotRecorder(Vec<(usize, usize)>);

impl StampTarget for SlotRecorder {
    fn clear(&mut self) {
        self.0.clear();
    }

    fn add(&mut self, row: usize, col: usize, _value: f64) {
        self.0.push((row, col));
    }
}

/// The slots the stamps of `reactances` touch, in stamp order.
fn slots_of(reactances: &[Reactance]) -> Vec<(usize, usize)> {
    let mut slots = SlotRecorder(Vec::new());
    for r in reactances {
        r.stamp(&mut slots, 0.0);
    }
    slots.0
}

/// A [`StampTarget`] that adds through a precomputed value index — one
/// entry per add, in replay order — ignoring `(row, col)`: the sparse
/// fast path of [`StampPlan::assemble_into_sparse`].
struct IndexedValues<'a> {
    values: &'a mut [f64],
    index: std::slice::Iter<'a, u32>,
}

impl StampTarget for IndexedValues<'_> {
    fn clear(&mut self) {
        self.values.fill(0.0);
    }

    fn add(&mut self, _row: usize, _col: usize, value: f64) {
        let slot = self.index.next().expect("slot index shorter than the replay");
        self.values[*slot as usize] += value;
    }
}

/// A [`StampTarget`] that drops every add (rhs-only replays).
struct NoMatrix;

impl StampTarget for NoMatrix {
    fn clear(&mut self) {}

    fn add(&mut self, _row: usize, _col: usize, _value: f64) {}
}

/// One replayable assembly operation with fully resolved slots.
///
/// Kept deliberately small (the MOSFET payload lives out-of-line in
/// [`MosSite`]): the op list is cloned per fault-injection patch and
/// walked once per Newton iteration, so its footprint is hot-loop
/// memory traffic.
#[derive(Debug, Clone, PartialEq)]
enum PlanOp {
    /// Add a precomputed constant to one matrix slot (resistors and the
    /// ±1/±gain patterns of voltage-defined devices).
    Mat { row: usize, col: usize, value: f64 },
    /// Independent current source: waveform value into the KCL rows.
    Current { from: Option<usize>, to: Option<usize>, wave: usize },
    /// Voltage-defined device: waveform value onto the branch row.
    SourceRow { row: usize, wave: usize },
    /// Level-1 MOSFET, linearized around the candidate solution at
    /// replay time; `site` indexes the plan's [`MosSite`] table.
    Mos { site: usize },
    /// Junction diode, linearized around the candidate solution at
    /// replay time; `site` indexes the plan's [`DiodeSite`] table.
    Diode { site: usize },
    /// Bipolar transistor, linearized around the candidate solution at
    /// replay time; `site` indexes the plan's [`BjtSite`] table.
    Bjt { site: usize },
}

/// Resolved terminals and model of one MOSFET linearization site.
#[derive(Debug, Clone)]
struct MosSite {
    d: Option<usize>,
    g: Option<usize>,
    s: Option<usize>,
    b: Option<usize>,
    polarity: MosPolarity,
    params: MosParams,
}

/// Resolved terminals and model of one diode linearization site.
#[derive(Debug, Clone)]
struct DiodeSite {
    a: Option<usize>,
    k: Option<usize>,
    params: DiodeParams,
}

/// Resolved terminals and model of one BJT linearization site.
#[derive(Debug, Clone)]
struct BjtSite {
    c: Option<usize>,
    b: Option<usize>,
    e: Option<usize>,
    polarity: BjtPolarity,
    params: BjtParams,
}

/// Accumulates the per-device assembly ops during plan construction.
/// Shared by the full compile ([`StampPlan::build`]) and the
/// incremental patch ([`StampPlan::patched_with_device`]), so a patched
/// plan is structurally indistinguishable from a recompiled one.
struct PlanBuilder {
    ops: Vec<PlanOp>,
    waves: Vec<Waveform>,
    mos_sites: Vec<MosSite>,
    diode_sites: Vec<DiodeSite>,
    bjt_sites: Vec<BjtSite>,
    reactances: Vec<Reactance>,
    /// Next branch-current row/column.
    branch: usize,
    /// Branch row of every voltage-defined device emitted so far, by
    /// name: current-controlled sources (F/H) resolve their sensing
    /// column here. `Circuit::add` guarantees the controller precedes
    /// its F/H card in device order, so the row is always present by
    /// the time it is looked up.
    branch_rows: HashMap<Arc<str>, usize>,
    /// See [`StampPlan::damped`]; sized for the finished plan.
    damped: Vec<bool>,
    /// See [`StampPlan::linear`].
    linear: bool,
}

/// Constant stamps enter the op list through the same [`StampTarget`]
/// interface the replay drives, so a resistor is emitted in exactly the
/// add order of [`conductance`].
impl StampTarget for PlanBuilder {
    fn clear(&mut self) {}

    fn add(&mut self, row: usize, col: usize, value: f64) {
        self.ops.push(PlanOp::Mat { row, col, value });
    }
}

impl PlanBuilder {
    /// Assigns the next branch row to the voltage-defined device `dev`
    /// and emits its `±1` incidence pattern between `pos` and `neg`.
    fn branch_row(&mut self, dev: &Device, pos: NodeId, neg: NodeId) -> usize {
        let br = self.branch;
        self.branch += 1;
        self.branch_rows.insert(dev.name_arc(), br);
        if let Some(p) = idx(pos) {
            self.add(p, br, 1.0);
            self.add(br, p, 1.0);
        }
        if let Some(ng) = idx(neg) {
            self.add(ng, br, -1.0);
            self.add(br, ng, -1.0);
        }
        br
    }

    /// The branch row of the controlling device of an F/H source.
    fn sensing_column(&self, ctrl: &str) -> usize {
        *self
            .branch_rows
            .get(ctrl)
            .expect("Circuit::add validates the controlling device of a current-controlled source")
    }

    /// Declares a nonlinear linearization site's terminals: the plan
    /// stops being linear and every terminal unknown gets the ladder's
    /// damped-update clamp.
    fn nonlinear(&mut self, terminals: &[Option<usize>]) {
        self.linear = false;
        for slot in terminals.iter().flatten() {
            self.damped[*slot] = true;
        }
    }

    /// Emits the assembly ops and reactances of one device, in exactly
    /// the add order the direct stamp functions use so replay
    /// accumulates identically.
    fn emit(&mut self, dev: &Device) {
        match dev.kind() {
            DeviceKind::Resistor { a, b, ohms } => {
                conductance(self, idx(*a), idx(*b), 1.0 / ohms);
            }
            DeviceKind::Capacitor { a, b, farads } => {
                // Open in DC.
                self.reactances.push(Reactance::Cap { a: idx(*a), b: idx(*b), farads: *farads });
            }
            DeviceKind::Inductor { a, b, henries } => {
                // DC: an ideal short via the branch equation
                // `v(a) − v(b) = 0` (±1 pattern, no source row).
                let row = self.branch_row(dev, *a, *b);
                self.reactances.push(Reactance::Ind {
                    a: idx(*a),
                    b: idx(*b),
                    row,
                    henries: *henries,
                });
            }
            DeviceKind::Isource { from, to, wave } => {
                self.waves.push(wave.clone());
                self.ops.push(PlanOp::Current {
                    from: idx(*from),
                    to: idx(*to),
                    wave: self.waves.len() - 1,
                });
            }
            DeviceKind::Vsource { pos, neg, wave } => {
                let row = self.branch_row(dev, *pos, *neg);
                self.waves.push(wave.clone());
                self.ops.push(PlanOp::SourceRow { row, wave: self.waves.len() - 1 });
            }
            DeviceKind::Vcvs { pos, neg, cp, cn, gain } => {
                let br = self.branch_row(dev, *pos, *neg);
                if let Some(c) = idx(*cp) {
                    self.add(br, c, -gain);
                }
                if let Some(c) = idx(*cn) {
                    self.add(br, c, *gain);
                }
            }
            DeviceKind::Mosfet { d, g, s, b, polarity, params } => {
                let (d, g, s, b) = (idx(*d), idx(*g), idx(*s), idx(*b));
                self.nonlinear(&[d, g, s, b]);
                self.reactances.push(Reactance::Cap { a: g, b: s, farads: params.cgs() });
                self.reactances.push(Reactance::Cap { a: g, b: d, farads: params.cgd() });
                self.mos_sites.push(MosSite { d, g, s, b, polarity: *polarity, params: *params });
                self.ops.push(PlanOp::Mos { site: self.mos_sites.len() - 1 });
            }
            DeviceKind::Diode { a, k, params } => {
                let (a, k) = (idx(*a), idx(*k));
                self.nonlinear(&[a, k]);
                self.reactances.push(Reactance::Cap { a, b: k, farads: params.cj0 });
                self.diode_sites.push(DiodeSite { a, k, params: *params });
                self.ops.push(PlanOp::Diode { site: self.diode_sites.len() - 1 });
            }
            DeviceKind::Bjt { c, b, e, polarity, params } => {
                let (c, b, e) = (idx(*c), idx(*b), idx(*e));
                self.nonlinear(&[c, b, e]);
                self.reactances.push(Reactance::Cap { a: b, b: e, farads: params.cje });
                self.reactances.push(Reactance::Cap { a: b, b: c, farads: params.cjc });
                self.bjt_sites.push(BjtSite { c, b, e, polarity: *polarity, params: *params });
                self.ops.push(PlanOp::Bjt { site: self.bjt_sites.len() - 1 });
            }
            DeviceKind::Vccs { pos, neg, cp, cn, gm } => {
                // Current gm·(v(cp) − v(cn)) leaves `pos` and enters
                // `neg`: the four-entry transconductance pattern.
                if let Some(p) = idx(*pos) {
                    if let Some(c) = idx(*cp) {
                        self.add(p, c, *gm);
                    }
                    if let Some(c) = idx(*cn) {
                        self.add(p, c, -*gm);
                    }
                }
                if let Some(ng) = idx(*neg) {
                    if let Some(c) = idx(*cp) {
                        self.add(ng, c, -*gm);
                    }
                    if let Some(c) = idx(*cn) {
                        self.add(ng, c, *gm);
                    }
                }
            }
            DeviceKind::Cccs { pos, neg, ctrl, gain } => {
                // Current gain·i(ctrl) leaves `pos` and enters `neg`:
                // ±gain in the controller's branch column.
                let ctrl_col = self.sensing_column(ctrl);
                if let Some(p) = idx(*pos) {
                    self.add(p, ctrl_col, *gain);
                }
                if let Some(ng) = idx(*neg) {
                    self.add(ng, ctrl_col, -*gain);
                }
            }
            DeviceKind::Ccvs { pos, neg, ctrl, ohms } => {
                // Branch equation v(pos) − v(neg) − ohms·i(ctrl) = 0.
                let ctrl_col = self.sensing_column(ctrl);
                let br = self.branch_row(dev, *pos, *neg);
                self.add(br, ctrl_col, -*ohms);
            }
        }
    }
}

/// A precompiled assembly schedule for one [`Circuit`].
///
/// Building the plan resolves node ids to matrix slots, assigns branch
/// rows and splits every device into constant matrix contributions,
/// waveform-driven right-hand-side contributions and nonlinear (MOSFET)
/// linearization sites. Replaying it is a single flat pass — the hot
/// loop of every analysis.
///
/// Plans are *patchable*: appending a device whose nodes already exist
/// ([`patched_with_device`](StampPlan::patched_with_device), the
/// delta-stamp path bridge-fault injection rides) derives the successor
/// plan from the compiled one instead of recompiling from the netlist.
/// A device patch that adds no sparsity slot keeps the template's
/// pattern and the orderings computed from it. Stimuli need no patch:
/// an analysis's stimulus overrides replace waveform slots at
/// evaluation time and leave the plan untouched.
#[derive(Debug)]
pub(crate) struct StampPlan {
    n: usize,
    n_nodes: usize,
    ops: Vec<PlanOp>,
    mos_sites: Vec<MosSite>,
    diode_sites: Vec<DiodeSite>,
    bjt_sites: Vec<BjtSite>,
    /// Branch row by device name (see [`PlanBuilder::branch_rows`]);
    /// carried on the plan so a device patch can resolve the sensing
    /// column of a patched-in current-controlled source.
    branch_rows: HashMap<Arc<str>, usize>,
    /// The rhs-writing subset of `ops` (`Current`/`SourceRow`), in op
    /// order: [`assemble_rhs_only`](StampPlan::assemble_rhs_only) walks
    /// this instead of scanning every matrix op — a transient step of a
    /// linear circuit touches a handful of sources, not thousands of
    /// conductances.
    rhs_ops: Vec<PlanOp>,
    waves: Vec<Waveform>,
    /// `damped[i]` is true when unknown `i` is a terminal of a nonlinear
    /// device (MOSFET, diode, BJT — each `emit` arm declares its site's
    /// terminals): only those update components need Newton damping.
    /// Linear nodes (and branch currents) take the full, exact Newton
    /// step — clamping them would just make a supply node crawl to its
    /// source voltage half a volt per iteration.
    damped: Vec<bool>,
    /// Whether the plan has no nonlinear (MOSFET/diode/BJT)
    /// linearization sites: the assembled matrix is then independent of
    /// the candidate solution, which the Newton loops exploit to skip
    /// refactorizations (Shamanskii-style, exact for linear plans).
    linear: bool,
    /// The slot of every matrix add the replay performs, in replay
    /// order (gmin diagonal, then ops) — recorded by running the replay
    /// once through a [`SlotRecorder`], so the static pattern holds
    /// exactly what assembly touches and the sparse fast path's value
    /// index is this list mapped through a pattern.
    static_slots: Vec<(usize, usize)>,
    /// Every reactance, in device order (see [`Reactance`]): the
    /// dynamic sparsity slots and the transient companions both derive
    /// from it.
    reactances: Vec<Reactance>,
    /// Lazy caches, one per [`PatternScope`], indexed by
    /// `scope as usize`: each scope builds its own sparse template,
    /// orderings, `Auto` verdict and stamp index from its own slot set,
    /// and an analysis touches only the scope it factors.
    caches: [ScopeCaches; 2],
    /// First factorizations of a linear plan's Jacobians, adopted by
    /// later analyses (see [`FactorCache`](crate::solver::FactorCache)).
    /// A device patch starts with an empty one.
    factors: crate::solver::FactorCache,
}

/// Which slot set an analysis's matrices (and therefore its symbolic
/// analyses and orderings) live on.
///
/// DC solves factor the **static** (resistive/Jacobian) pattern only:
/// capacitors are open in DC, so their slots would be structural zeros
/// that cost fill *and* glue otherwise independent diagonal blocks
/// together — a MOS cascade condenses into per-stage BTF blocks under
/// the static pattern but is one giant strongly connected component
/// under the full one (the gate-drain capacitance couples every stage
/// symmetrically). Transient solves stamp companion conductances into
/// the dynamic slots and need the **full** union. Each scope keeps its
/// own caches, also when the two patterns coincide (no off-diagonal
/// capacitance, as in ladders and meshes), so a DC-only run never
/// builds the full pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PatternScope {
    /// Static (DC/Jacobian) slots only.
    Static = 0,
    /// Static ∪ dynamic slots (transient companions).
    Full = 1,
}

/// One [`PatternScope`]'s share of a [`StampPlan`]'s lazy state.
///
/// Everything here is a pure function of the scope's pattern (and of
/// the plan's slot list), never of values: a device patch that keeps
/// the scope's pattern inherits its orderings and `Auto` verdict, and a
/// rebuild of the same circuit computes identical ones. Pivot
/// sequences are not cached here; each sparse solver instance picks
/// its own in its first factorization.
#[derive(Debug, Default)]
struct ScopeCaches {
    /// Lazily built all-zero sparse matrix over this scope's slot set;
    /// cloned (pattern shared, one value vector each) by every sparse
    /// solver instance of this scope, so the pattern construction is
    /// paid once per scope and plan.
    template: OnceLock<SparseMatrix>,
    /// Lazily computed BTF condensation of this scope's pattern
    /// (transversal + SCC blocks, no per-block ordering; `None` inside
    /// when the pattern is structurally singular): a few linear passes
    /// that decide whether a forced BTF is usable.
    /// Like `amd_perm`, a pure function of the pattern — delta-patched
    /// and rebuilt variants of one faulted circuit compute identical
    /// orders, and a device patch that keeps the pattern inherits it.
    btf_blocks: OnceLock<Option<castg_numeric::BtfOrder>>,
    /// Lazily refined BTF preordering (the condensation plus per-block
    /// AMD), built only when a forced `Btf` order is factored, and
    /// shared by every solver instance that factors under it.
    btf_order: OnceLock<Option<Arc<castg_numeric::BtfOrder>>>,
    /// Lazily computed AMD permutation of this scope's pattern: one
    /// ordering construction per pattern, shared by the Auto
    /// comparison and every solver instance that factors under AMD. A
    /// device patch that keeps the pattern inherits it, so a campaign
    /// of such variants runs the ordering once, on the nominal; a
    /// variant that adds slots runs it at most once.
    amd_perm: OnceLock<Vec<usize>>,
    /// Lazily resolved `OrderingKind::Auto` verdict (`Natural` or
    /// `Amd`); see [`resolve_ordering`](StampPlan::resolve_ordering)
    /// for the gates. A pure function of the pattern, like `amd_perm`:
    /// a device patch that keeps the pattern inherits it, and a rebuild
    /// of the same faulted circuit reaches the same verdict.
    auto_ordering: OnceLock<OrderingKind>,
    /// Lazily resolved value-array index of every add the replay
    /// performs against this scope's template, in replay order (the
    /// plan's `static_slots` mapped through the pattern). The sparse
    /// assembly fast path adds through it instead of binary-searching
    /// each `(row, col)` — same adds, same order, same bits.
    sparse_index: OnceLock<Vec<u32>>,
}

impl ScopeCaches {
    /// Takes over `base`'s pattern-only state (`amd_perm`, `btf_blocks`,
    /// `btf_order`, `auto_ordering`); valid only when this scope's
    /// pattern is `base`'s.
    fn inherit_pattern_state(&mut self, base: &ScopeCaches) {
        self.amd_perm = base.amd_perm.clone();
        self.btf_blocks = base.btf_blocks.clone();
        self.btf_order = base.btf_order.clone();
        self.auto_ordering = base.auto_ordering.clone();
    }
}

#[cfg(test)]
thread_local! {
    /// AMD orderings this thread's plans computed (test-only).
    static AMD_ORDERINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Auto verdicts this thread's plans computed (test-only).
    static AUTO_VERDICTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl StampPlan {
    /// Compiles the assembly schedule for `circuit`.
    pub(crate) fn build(circuit: &Circuit) -> Self {
        let n_nodes = circuit.node_count() - 1;
        let n = circuit.unknown_count();
        let mut builder = PlanBuilder {
            ops: Vec::new(),
            waves: Vec::new(),
            mos_sites: Vec::new(),
            diode_sites: Vec::new(),
            bjt_sites: Vec::new(),
            reactances: Vec::new(),
            branch: n_nodes,
            branch_rows: HashMap::new(),
            damped: vec![false; n],
            linear: true,
        };
        for dev in circuit.devices() {
            builder.emit(dev);
        }
        StampPlan::finalize(builder, n, n_nodes)
    }

    /// Completes a plan from emitted ops: splits off the rhs-writing ops
    /// and records the static slot list by replaying the plan once.
    fn finalize(builder: PlanBuilder, n: usize, n_nodes: usize) -> Self {
        let PlanBuilder {
            ops,
            waves,
            mos_sites,
            diode_sites,
            bjt_sites,
            reactances,
            branch_rows,
            damped,
            linear,
            ..
        } = builder;
        let rhs_ops = ops
            .iter()
            .filter(|op| matches!(op, PlanOp::Current { .. } | PlanOp::SourceRow { .. }))
            .cloned()
            .collect();
        let mut plan = StampPlan {
            n,
            n_nodes,
            ops,
            mos_sites,
            diode_sites,
            bjt_sites,
            branch_rows,
            rhs_ops,
            waves,
            damped,
            linear,
            static_slots: Vec::new(),
            reactances,
            caches: [ScopeCaches::default(), ScopeCaches::default()],
            factors: crate::solver::FactorCache::default(),
        };
        // Which adds a replay performs depends only on which terminals
        // are grounded, never on values: any state records them.
        let mut slots = SlotRecorder(Vec::new());
        let sources = vec![0.0; plan.waves.len()];
        plan.assemble_into(&vec![0.0; n], &mut slots, &mut vec![0.0; n], 0.0, &sources);
        plan.static_slots = slots.0;
        plan
    }

    /// The plan's cache of first factorizations (linear plans only).
    pub(crate) fn factor_cache(&self) -> &crate::solver::FactorCache {
        &self.factors
    }

    /// `scope`'s slots from static slot `statics` and reactance
    /// `reactances` on: the static slots, then (`Full` only) the
    /// reactance slots. `(0, 0)` gives the whole pattern; a device patch
    /// passes its base plan's list lengths to get the new device's slots.
    fn scope_slots(
        &self,
        scope: PatternScope,
        statics: usize,
        reactances: usize,
    ) -> Vec<(usize, usize)> {
        let mut slots = self.static_slots[statics..].to_vec();
        if scope == PatternScope::Full {
            slots.extend(slots_of(&self.reactances[reactances..]));
        }
        slots
    }

    /// Derives the plan for the circuit extended by `dev`, whose nodes
    /// must all exist already (callers guarantee this: creating a node
    /// drops the plan). The device's ops are appended exactly as a full
    /// recompile would emit them — the patched plan is bit-for-bit
    /// equivalent to `StampPlan::build` of the extended circuit — but
    /// no netlist walk, node interning or waveform re-clone happens.
    ///
    /// Each scope's built template is extended by the device's slots in
    /// that scope. A scope whose pattern gains no slot keeps the base's
    /// pattern `Arc` and inherits that scope's pattern-only caches (AMD
    /// permutation, BTF orders, `Auto` verdict). The factor cache, which
    /// holds values, starts empty, because the device changes the
    /// matrices.
    pub(crate) fn patched_with_device(&self, dev: &Device) -> Self {
        let n = if dev.has_branch_current() { self.n + 1 } else { self.n };
        let mut damped = self.damped.clone();
        damped.resize(n, false);
        let mut builder = PlanBuilder {
            ops: self.ops.clone(),
            waves: self.waves.clone(),
            mos_sites: self.mos_sites.clone(),
            diode_sites: self.diode_sites.clone(),
            bjt_sites: self.bjt_sites.clone(),
            reactances: self.reactances.clone(),
            // Branch rows already assigned occupy n_nodes..n; the next
            // one goes at n.
            branch: self.n,
            branch_rows: self.branch_rows.clone(),
            damped,
            linear: self.linear,
        };
        builder.emit(dev);
        let mut plan = StampPlan::finalize(builder, n, self.n_nodes);
        // Template fast path: when a scope's base template is built and
        // the dimension is unchanged (no new branch row), the
        // successor's pattern is the base pattern merged with the new
        // device's few slots — identical content to a from-scratch
        // rebuild, without re-sorting thousands of slots. Slot lists
        // follow op and device order (static: diagonal, then ops), so
        // the new device's slots are exactly the tails beyond the base
        // plan's lists.
        if n == self.n {
            for scope in [PatternScope::Static, PatternScope::Full] {
                let base = &self.caches[scope as usize];
                let Some(template) = base.template.get() else { continue };
                let new_slots =
                    plan.scope_slots(scope, self.static_slots.len(), self.reactances.len());
                // `merged_with` hands back the base `Arc` when the device
                // adds no slot (a bridge across an existing resistor), and
                // the scope then takes over the base's pattern-only state —
                // the AMD permutation, the BTF orders and the Auto verdict,
                // pure functions of the pattern that a rebuild would
                // recompute identically.
                let pattern = template.pattern().merged_with(&new_slots);
                let caches = &mut plan.caches[scope as usize];
                if Arc::ptr_eq(&pattern, template.pattern()) {
                    caches.inherit_pattern_state(base);
                }
                let _ = caches.template.set(SparseMatrix::with_pattern(pattern));
            }
        }
        plan
    }

    /// Every reactance of the circuit, in device order.
    pub(crate) fn reactances(&self) -> &[Reactance] {
        &self.reactances
    }

    /// The all-zero sparse assembly matrix over `scope`'s slot set —
    /// `Full` is every slot any analysis of this circuit can stamp
    /// (static + dynamic), `Static` the DC/Jacobian subset. Built on
    /// first use and cached, building no other scope; callers clone it
    /// (the pattern is shared by `Arc`, so a clone allocates only the
    /// value vector) and stamp into the clone.
    pub(crate) fn sparse_template(&self, scope: PatternScope) -> &SparseMatrix {
        self.caches[scope as usize]
            .template
            .get_or_init(|| SparseMatrix::from_entries(self.n, &self.scope_slots(scope, 0, 0)))
    }

    /// The AMD permutation of `scope`'s sparse pattern, constructed
    /// once and shared by every consumer (the Auto verdict and every
    /// solver instance that factors under AMD).
    fn amd_permutation(&self, scope: PatternScope) -> &Vec<usize> {
        self.caches[scope as usize].amd_perm.get_or_init(|| {
            #[cfg(test)]
            AMD_ORDERINGS.with(|c| c.set(c.get() + 1));
            self.sparse_template(scope).pattern().amd_ordering()
        })
    }

    /// The BTF condensation of `scope`'s sparse pattern (`None` when
    /// structurally singular): block boundaries only, computed once.
    fn btf_blocks(&self, scope: PatternScope) -> Option<&castg_numeric::BtfOrder> {
        self.caches[scope as usize]
            .btf_blocks
            .get_or_init(|| self.sparse_template(scope).pattern().btf_condensation())
            .as_ref()
    }

    /// The refined BTF preordering of `scope`'s sparse pattern (`None`
    /// when structurally singular), constructed once and shared by
    /// every solver instance that factors under it.
    fn btf_ordering(&self, scope: PatternScope) -> Option<&Arc<castg_numeric::BtfOrder>> {
        self.caches[scope as usize]
            .btf_order
            .get_or_init(|| {
                let blocks = self.btf_blocks(scope)?.clone();
                Some(Arc::new(self.sparse_template(scope).pattern().btf_refine(blocks)))
            })
            .as_ref()
    }

    /// Whether the plan's BTF preordering is worth dispatching to: the
    /// pattern has a zero-free diagonal *and* the condensation found
    /// more than one diagonal block. A single-block (irreducible)
    /// circuit gains nothing from the block machinery, so `Btf`
    /// resolves to `Amd` there — keeping the forced-Btf path
    /// bit-identical to forced-Amd where blocks don't exist.
    fn btf_usable(&self, scope: PatternScope) -> bool {
        self.btf_blocks(scope).is_some_and(|b| b.block_count() > 1)
    }

    /// Resolves an [`OrderingKind`] against this plan: `Natural` and
    /// `Amd` pass through, and `Btf` falls back to `Amd` when the
    /// condensation finds a single block. `Auto`'s verdict is computed
    /// once per pattern from the counts of
    /// [`SparsePattern::symmetric_fill`](castg_numeric::SparsePattern::symmetric_fill):
    /// AMD wins iff natural order's `nnz(L+U)` is at least
    /// [`AMD_AUTO_MIN_BLOWUP`](crate::solver::AMD_AUTO_MIN_BLOWUP) ×
    /// `nnz(A + Aᵀ)` and AMD's is at most
    /// [`AMD_AUTO_MARGIN`](crate::solver::AMD_AUTO_MARGIN) × natural's;
    /// otherwise the verdict is `Natural`. Never returns `Auto`, and
    /// `Auto` never resolves to `Btf`.
    ///
    /// The verdict reads no values and factors nothing, so a
    /// delta-patched plan and a rebuild of the same faulted circuit
    /// resolve alike by construction. Only a fill-blown pattern goes on
    /// to the AMD ordering and its count. Measured on the 578-unknown
    /// mesh (min of 30 rounds, one CPU, x86-64 release build): each
    /// count takes 50–70 µs, against ~1.3 ms for the AMD ordering. A
    /// bridge across an existing mesh resistor keeps the pattern and
    /// inherits the ordering and the verdict, so its solver instances
    /// pay only their own first factorizations.
    pub(crate) fn resolve_ordering(
        &self,
        ordering: OrderingKind,
        scope: PatternScope,
    ) -> OrderingKind {
        match ordering {
            OrderingKind::Auto => {
                *self.caches[scope as usize].auto_ordering.get_or_init(|| self.auto_verdict(scope))
            }
            OrderingKind::Btf if !self.btf_usable(scope) => OrderingKind::Amd,
            other => other,
        }
    }

    /// The `Auto` verdict; see [`resolve_ordering`](StampPlan::resolve_ordering).
    fn auto_verdict(&self, scope: PatternScope) -> OrderingKind {
        use crate::solver::{AMD_AUTO_MARGIN, AMD_AUTO_MIN_BLOWUP};
        #[cfg(test)]
        AUTO_VERDICTS.with(|c| c.set(c.get() + 1));
        let pattern = self.sparse_template(scope).pattern();
        let (symmetric, natural) = pattern.symmetric_fill(None);
        if (natural as f64) < AMD_AUTO_MIN_BLOWUP * symmetric as f64 {
            return OrderingKind::Natural;
        }
        let (_, amd) = pattern.symmetric_fill(Some(self.amd_permutation(scope)));
        if amd as f64 <= AMD_AUTO_MARGIN * natural as f64 {
            OrderingKind::Amd
        } else {
            OrderingKind::Natural
        }
    }

    /// Sets up `lu` to factor under a resolved `ordering`: the AMD
    /// permutation, the BTF preordering, or nothing for natural order.
    pub(crate) fn install_ordering(
        &self,
        lu: &mut SparseLu,
        ordering: OrderingKind,
        scope: PatternScope,
    ) {
        match ordering {
            OrderingKind::Amd => lu.set_ordering(self.amd_permutation(scope).clone()),
            OrderingKind::Btf => lu.set_btf_order(Arc::clone(
                self.btf_ordering(scope).expect("a resolved Btf has a usable order"),
            )),
            _ => {}
        }
    }

    /// Whether the plan contains no nonlinear linearization sites, i.e.
    /// the assembled matrix depends only on gmin and any extra
    /// (companion) stamps — never on the candidate solution or the
    /// stimulus values.
    pub(crate) fn is_linear(&self) -> bool {
        self.linear
    }

    /// Value-array index of every add the replay performs against
    /// `scope`'s sparse template, in replay order. Built on first use;
    /// every slot is present in either scope (both patterns contain the
    /// static slots).
    fn sparse_index(&self, scope: PatternScope) -> &[u32] {
        self.caches[scope as usize].sparse_index.get_or_init(|| {
            let pattern = self.sparse_template(scope).pattern();
            self.static_slots
                .iter()
                .map(|&(r, c)| {
                    pattern.slot(r, c).expect("static stamp slot missing from template") as u32
                })
                .collect()
        })
    }

    /// [`assemble_into`](StampPlan::assemble_into), specialized for a
    /// sparse matrix cloned from this plan's `scope` template: the same
    /// replay adds through the scope's precomputed slot index instead
    /// of a binary search per add — the identical adds in the identical
    /// order, so the result is bit-for-bit the generic path's.
    pub(crate) fn assemble_into_sparse(
        &self,
        scope: PatternScope,
        x: &[f64],
        mat: &mut SparseMatrix,
        rhs: &mut [f64],
        gmin: f64,
        source_vals: &[f64],
    ) {
        debug_assert!(
            Arc::ptr_eq(mat.pattern(), self.sparse_template(scope).pattern()),
            "matrix not cloned from the {scope:?} template"
        );
        let mut indexed =
            IndexedValues { values: mat.values_mut(), index: self.sparse_index(scope).iter() };
        self.assemble_into(x, &mut indexed, rhs, gmin, source_vals);
        debug_assert!(indexed.index.next().is_none(), "slot index longer than the replay");
    }

    /// Which unknowns are nonlinear-device terminals and therefore
    /// subject to per-iteration update damping.
    pub(crate) fn damped(&self) -> &[bool] {
        &self.damped
    }

    /// Number of MNA unknowns the plan assembles.
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Number of node-voltage unknowns (they come first; branch
    /// currents follow).
    pub(crate) fn node_unknowns(&self) -> usize {
        self.n_nodes
    }

    /// Evaluates every stimulus waveform through `f` into `vals` (a
    /// reused buffer). Source values are constant across the Newton
    /// iterations of one solve, so callers evaluate once per
    /// solve/timestep and replay the cached values every iteration.
    pub(crate) fn source_values<F: Fn(&Waveform) -> f64>(&self, vals: &mut Vec<f64>, f: F) {
        vals.clear();
        vals.extend(self.waves.iter().map(f));
    }

    /// Re-derives only the right-hand side of the static assembly:
    /// the replay of the rhs-writing ops, whose matrix adds are none.
    /// Valid only for linear plans (device linearization couples `rhs`
    /// to the candidate solution); the Newton loop uses it to refresh
    /// stimulus terms while skipping a refactorization of a provably
    /// unchanged Jacobian.
    pub(crate) fn assemble_rhs_only(&self, rhs: &mut [f64], source_vals: &[f64]) {
        debug_assert!(self.linear, "rhs-only assembly requires a linear plan");
        rhs.fill(0.0);
        self.replay(&self.rhs_ops, &[], &mut NoMatrix, rhs, source_vals);
    }

    /// Assembles the static (non-reactive) MNA system into `mat`/`rhs`,
    /// linearizing the nonlinear devices around the candidate solution
    /// `x`.
    ///
    /// * `source_vals` holds the present value of every stimulus
    ///   waveform, as produced by
    ///   [`source_values`](StampPlan::source_values) — DC analysis uses
    ///   `|w| scale * w.dc_value()`, transient `|w| w.eval(t)`.
    /// * `gmin` is stamped from every non-ground node to ground.
    ///
    /// Reactances are *not* stamped here: DC treats capacitors as open
    /// and inductors as shorts; the transient stamps the companions of
    /// [`reactances`](StampPlan::reactances) on top.
    pub(crate) fn assemble_into<M: StampTarget + ?Sized>(
        &self,
        x: &[f64],
        mat: &mut M,
        rhs: &mut [f64],
        gmin: f64,
        source_vals: &[f64],
    ) {
        mat.clear();
        rhs.fill(0.0);
        for i in 0..self.n_nodes {
            mat.add(i, i, gmin);
        }
        self.replay(&self.ops, x, mat, rhs, source_vals);
    }

    /// Replays `ops` into `mat`/`rhs` on top of what they hold: the one
    /// place that turns a plan op into matrix and rhs adds. Every add
    /// is conditional on terminal slots only, never on values, which is
    /// what lets [`SlotRecorder`] record the sequence once and
    /// [`IndexedValues`] replay it by position.
    fn replay<M: StampTarget + ?Sized>(
        &self,
        ops: &[PlanOp],
        x: &[f64],
        mat: &mut M,
        rhs: &mut [f64],
        source_vals: &[f64],
    ) {
        for op in ops {
            match op {
                PlanOp::Mat { row, col, value } => mat.add(*row, *col, *value),
                PlanOp::Current { from, to, wave } => current(rhs, *from, *to, source_vals[*wave]),
                PlanOp::SourceRow { row, wave } => {
                    rhs[*row] = source_vals[*wave];
                }
                PlanOp::Mos { site } => {
                    let MosSite { d, g, s, b, polarity, params } = &self.mos_sites[*site];
                    let vd = slot_voltage(x, *d);
                    let vg = slot_voltage(x, *g);
                    let vs = slot_voltage(x, *s);
                    let vb = slot_voltage(x, *b);
                    let op = mos::evaluate(params, *polarity, vd, vg, vs, vb);
                    // Linearization: id ≈ gm·vg + gds·vd + gmb·vb
                    //                    − (gm+gds+gmb)·vs + i_rhs
                    let gsum = op.gm + op.gds + op.gmb;
                    let i_rhs =
                        op.ids - op.gm * (vg - vs) - op.gds * (vd - vs) - op.gmb * (vb - vs);
                    if let Some(di) = *d {
                        if let Some(gi) = *g {
                            mat.add(di, gi, op.gm);
                        }
                        mat.add(di, di, op.gds);
                        if let Some(bi) = *b {
                            mat.add(di, bi, op.gmb);
                        }
                        if let Some(si) = *s {
                            mat.add(di, si, -gsum);
                        }
                    }
                    if let Some(si) = *s {
                        if let Some(gi) = *g {
                            mat.add(si, gi, -op.gm);
                        }
                        if let Some(di) = *d {
                            mat.add(si, di, -op.gds);
                        }
                        if let Some(bi) = *b {
                            mat.add(si, bi, -op.gmb);
                        }
                        mat.add(si, si, gsum);
                    }
                    // Drain-to-source channel current.
                    current(rhs, *d, *s, i_rhs);
                }
                PlanOp::Diode { site } => {
                    let DiodeSite { a, k, params } = &self.diode_sites[*site];
                    let va = slot_voltage(x, *a);
                    let vk = slot_voltage(x, *k);
                    let op = diode::evaluate(params, va, vk);
                    // Linearization: id ≈ gd·(va − vk) + i_rhs.
                    let i_rhs = op.id - op.gd * (va - vk);
                    conductance(mat, *a, *k, op.gd);
                    current(rhs, *a, *k, i_rhs);
                }
                PlanOp::Bjt { site } => {
                    let BjtSite { c, b, e, polarity, params } = &self.bjt_sites[*site];
                    let vc = slot_voltage(x, *c);
                    let vb = slot_voltage(x, *b);
                    let ve = slot_voltage(x, *e);
                    let op = bjt::evaluate(params, *polarity, vc, vb, ve);
                    // Terminal conductances from the junction partials
                    // (vbe = vb − ve, vbc = vb − vc); the emitter row is
                    // the negated sum of the collector and base rows so
                    // KCL holds exactly.
                    let gcc = -op.dic_dvbc;
                    let gcb = op.dic_dvbe + op.dic_dvbc;
                    let gce = -op.dic_dvbe;
                    let gbc = -op.dib_dvbc;
                    let gbb = op.dib_dvbe + op.dib_dvbc;
                    let gbe = -op.dib_dvbe;
                    let ic_rhs = op.ic - (gcc * vc + gcb * vb + gce * ve);
                    let ib_rhs = op.ib - (gbc * vc + gbb * vb + gbe * ve);
                    if let Some(ci) = *c {
                        mat.add(ci, ci, gcc);
                        if let Some(bi) = *b {
                            mat.add(ci, bi, gcb);
                        }
                        if let Some(ei) = *e {
                            mat.add(ci, ei, gce);
                        }
                        rhs[ci] -= ic_rhs;
                    }
                    if let Some(bi) = *b {
                        if let Some(ci) = *c {
                            mat.add(bi, ci, gbc);
                        }
                        mat.add(bi, bi, gbb);
                        if let Some(ei) = *e {
                            mat.add(bi, ei, gbe);
                        }
                        rhs[bi] -= ib_rhs;
                    }
                    if let Some(ei) = *e {
                        if let Some(ci) = *c {
                            mat.add(ei, ci, -(gcc + gbc));
                        }
                        if let Some(bi) = *b {
                            mat.add(ei, bi, -(gcb + gbb));
                        }
                        mat.add(ei, ei, -(gce + gbe));
                        rhs[ei] += ic_rhs + ib_rhs;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::{MosParams, MosPolarity};
    use crate::Circuit;
    use castg_numeric::Matrix;

    #[test]
    fn idx_maps_ground_to_none() {
        assert_eq!(idx(NodeId::GROUND), None);
        assert_eq!(idx(NodeId(3)), Some(2));
    }

    #[test]
    fn conductance_stamp_is_symmetric() {
        let mut m = Matrix::zeros(2, 2);
        stamp_conductance(&mut m, NodeId(1), NodeId(2), 0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], -0.5);
        assert_eq!(m[(1, 0)], -0.5);
    }

    #[test]
    fn conductance_to_ground_only_touches_diagonal() {
        let mut m = Matrix::zeros(1, 1);
        stamp_conductance(&mut m, NodeId(1), NodeId::GROUND, 2.0);
        assert_eq!(m[(0, 0)], 2.0);
    }

    #[test]
    fn current_stamp_signs() {
        let mut rhs = vec![0.0, 0.0];
        stamp_current(&mut rhs, NodeId(1), NodeId(2), 1e-3);
        assert_eq!(rhs, vec![-1e-3, 1e-3]);
        stamp_current(&mut rhs, NodeId::GROUND, NodeId(1), 1e-3);
        assert_eq!(rhs, vec![0.0, 1e-3]);
    }

    #[test]
    fn resistor_divider_assembly_matches_hand_stamp() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(10.0)).unwrap();
        c.add_resistor("R1", a, b, 1000.0).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1000.0).unwrap();
        let (mat, rhs) = replay(&StampPlan::build(&c), &vec![0.0; c.unknown_count()], 0.0);
        // Node a row: g(R1) + vsource branch column.
        assert!((mat[(0, 0)] - 1e-3).abs() < 1e-15);
        assert!((mat[(0, 1)] + 1e-3).abs() < 1e-15);
        assert_eq!(mat[(0, 2)], 1.0);
        // Node b row: both resistors.
        assert!((mat[(1, 1)] - 2e-3).abs() < 1e-15);
        // Branch row: v(a) = 10.
        assert_eq!(mat[(2, 0)], 1.0);
        assert_eq!(rhs[2], 10.0);
    }

    /// Replays `plan` against `x` and returns the dense system.
    fn replay(plan: &StampPlan, x: &[f64], gmin: f64) -> (Matrix, Vec<f64>) {
        let n = plan.dim();
        let mut mat = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        let mut vals = Vec::new();
        plan.source_values(&mut vals, |w| w.dc_value());
        plan.assemble_into(x, &mut mat, &mut rhs, gmin, &vals);
        (mat, rhs)
    }

    fn assert_plans_replay_identically(a: &StampPlan, b: &StampPlan) {
        assert_eq!(a.dim(), b.dim());
        let n = a.dim();
        let x: Vec<f64> = (0..n).map(|i| 0.17 * i as f64 - 0.6).collect();
        let (ma, ra) = replay(a, &x, 1e-12);
        let (mb, rb) = replay(b, &x, 1e-12);
        for r in 0..n {
            for c in 0..n {
                assert_eq!(ma[(r, c)].to_bits(), mb[(r, c)].to_bits(), "slot ({r},{c})");
            }
            assert_eq!(ra[r].to_bits(), rb[r].to_bits(), "rhs {r}");
        }
        assert_eq!(a.damped(), b.damped());
        assert_eq!(a.is_linear(), b.is_linear());
        // Same sparsity pattern, independently constructed.
        assert_eq!(
            a.sparse_template(PatternScope::Full).pattern(),
            b.sparse_template(PatternScope::Full).pattern(),
            "patterns diverged"
        );
        assert_eq!(
            a.sparse_template(PatternScope::Static).pattern(),
            b.sparse_template(PatternScope::Static).pattern(),
            "static patterns diverged"
        );
        // The slot lists and everything derived from the pattern alone,
        // whether carried over by a patch or computed afresh.
        assert_eq!(a.static_slots, b.static_slots, "static slot lists diverged");
        assert_eq!(a.rhs_ops, b.rhs_ops, "rhs op lists diverged");
        for scope in [PatternScope::Full, PatternScope::Static] {
            assert_eq!(a.sparse_index(scope), b.sparse_index(scope), "{scope:?} slot index");
            assert_eq!(a.amd_permutation(scope), b.amd_permutation(scope), "{scope:?} AMD");
            assert_eq!(a.btf_ordering(scope), b.btf_ordering(scope), "{scope:?} BTF");
        }
    }

    /// `plan` with its templates, slot indices and orderings built in
    /// both scopes, so a device patch of it takes the carry-over path.
    fn warmed(plan: StampPlan) -> StampPlan {
        for scope in [PatternScope::Full, PatternScope::Static] {
            let _ = plan.sparse_index(scope);
            let _ = plan.amd_permutation(scope);
            let _ = plan.btf_ordering(scope);
        }
        plan
    }

    fn patch_fixture() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_isource("IB", Circuit::GROUND, g, Waveform::dc(1e-5)).unwrap();
        c.add_resistor("RD", vdd, d, 50e3).unwrap();
        c.add_resistor("RG", g, Circuit::GROUND, 200e3).unwrap();
        c.add_capacitor("CL", d, Circuit::GROUND, 1e-12).unwrap();
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
        c
    }

    /// A device-add patch (the bridge-fault delta-stamp path) must
    /// replay exactly like a recompile of the extended circuit, and
    /// carry the same slot lists, slot indices and orderings — for
    /// resistors that keep or extend the pattern, a branch-adding
    /// voltage source, a diode and a current-controlled source.
    #[test]
    fn device_patch_matches_recompile() {
        let c = patch_fixture();
        let base = warmed(StampPlan::build(&c));
        let (vdd, g, d) =
            (c.find_node("vdd").unwrap(), c.find_node("g").unwrap(), c.find_node("d").unwrap());

        // A resistor across RD adds no slot: both scopes keep their
        // (distinct) patterns.
        let mut parallel = c.clone();
        parallel.add_resistor("F_parallel", vdd, d, 20e3).unwrap();
        let patched0 = base.patched_with_device(parallel.device("F_parallel").unwrap());
        for scope in [PatternScope::Full, PatternScope::Static] {
            assert!(Arc::ptr_eq(
                patched0.sparse_template(scope).pattern(),
                base.sparse_template(scope).pattern()
            ));
        }
        assert_plans_replay_identically(&patched0, &StampPlan::build(&parallel));
        let patched0 = warmed(patched0);

        // Bridge resistor between two existing nodes: a new static slot
        // that the full pattern (gate-drain capacitance) already holds.
        let mut bridged = parallel.clone();
        bridged.add_resistor("F_bridge", g, d, 10e3).unwrap();
        let patched = warmed(patched0.patched_with_device(bridged.device("F_bridge").unwrap()));
        assert_plans_replay_identically(&patched, &StampPlan::build(&bridged));

        // A branch-current device grows the system by one unknown.
        let mut extended = bridged.clone();
        extended.add_vsource("VX", d, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        let patched2 = warmed(patched.patched_with_device(extended.device("VX").unwrap()));
        assert_eq!(patched2.dim(), patched.dim() + 1);
        assert_plans_replay_identically(&patched2, &StampPlan::build(&extended));

        // A nonlinear device patch (junction-pinhole shorts ride this
        // for diode/BJT circuits) must register its damped slots too.
        let mut dioded = extended.clone();
        dioded.add_diode("DX", d, g, crate::diode::DiodeParams::signal_default()).unwrap();
        let patched3 = warmed(patched2.patched_with_device(dioded.device("DX").unwrap()));
        assert_plans_replay_identically(&patched3, &StampPlan::build(&dioded));

        // A patched-in current-controlled source resolves its sensing
        // column from the carried-over branch-row table.
        let mut sensed = dioded.clone();
        sensed.add_cccs("FX", g, Circuit::GROUND, "VX", 0.5).unwrap();
        let patched4 = patched3.patched_with_device(sensed.device("FX").unwrap());
        assert_plans_replay_identically(&patched4, &StampPlan::build(&sensed));
    }

    /// A `k × k` resistive mesh driven at one corner and loaded at the
    /// other: natural order fills it far past the Auto blow-up gate.
    fn mesh(k: usize) -> Circuit {
        let mut c = Circuit::new();
        let nodes: Vec<NodeId> = (0..k * k).map(|i| c.node(&format!("n{i}"))).collect();
        c.add_vsource("V1", nodes[0], Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        for i in 0..k * k {
            if i % k + 1 < k {
                c.add_resistor(&format!("RH{i}"), nodes[i], nodes[i + 1], 1e3).unwrap();
            }
            if i + k < k * k {
                c.add_resistor(&format!("RV{i}"), nodes[i], nodes[i + k], 1e3).unwrap();
            }
        }
        c.add_resistor("RL", nodes[k * k - 1], Circuit::GROUND, 1e3).unwrap();
        c
    }

    /// AMD orderings this thread has computed so far.
    fn amd_orderings() -> usize {
        AMD_ORDERINGS.with(std::cell::Cell::get)
    }

    /// Auto verdicts this thread has computed so far.
    fn auto_verdicts() -> usize {
        AUTO_VERDICTS.with(std::cell::Cell::get)
    }

    /// A bridge across an existing resistor keeps the mesh's pattern, so
    /// the delta-patched variant inherits the nominal's AMD permutation
    /// and `Auto` verdict: its first DC solve computes neither and runs
    /// one factorization, its own solver's — and the variant still
    /// reaches the rebuild's verdict and fill. A bridge that adds slots
    /// orders its new pattern and decides its verdict exactly once,
    /// again with one factorization.
    #[test]
    fn pattern_keeping_patch_inherits_the_amd_ordering() {
        use crate::solver::{sparse_fill_stats, FACTORIZATIONS};
        let k = 10;
        let nominal = mesh(k);
        let stats = sparse_fill_stats(&nominal, OrderingKind::Auto).unwrap();
        assert_eq!(stats.resolved, OrderingKind::Amd, "the fixture must resolve Auto to AMD");
        let rebuilt_stats = |circuit: &Circuit| {
            let mut rebuilt = circuit.clone();
            rebuilt.drop_compiled_plan();
            sparse_fill_stats(&rebuilt, OrderingKind::Auto).unwrap()
        };
        let node = |i: usize| nominal.find_node(&format!("n{i}")).unwrap();
        let counters =
            || (amd_orderings(), auto_verdicts(), FACTORIZATIONS.with(std::cell::Cell::get));

        let mut parallel = nominal.clone();
        parallel.add_resistor("F_bridge", node(0), node(1), 50e3).unwrap();
        let (orderings, verdicts, factorizations) = counters();
        crate::DcAnalysis::new(&parallel).solve().unwrap();
        assert_eq!(
            counters(),
            (orderings, verdicts, factorizations + 1),
            "a pattern-keeping variant must inherit its ordering and verdict \
             and factor once in its DC solve"
        );
        let stats = sparse_fill_stats(&parallel, OrderingKind::Auto).unwrap();
        assert_eq!(stats.resolved, OrderingKind::Amd);
        assert_eq!(stats, rebuilt_stats(&parallel));

        let mut far = nominal.clone();
        far.add_resistor("F_bridge", node(0), node(k * k - 1), 50e3).unwrap();
        let (orderings, verdicts, factorizations) = counters();
        crate::DcAnalysis::new(&far).solve().unwrap();
        assert_eq!(
            counters(),
            (orderings + 1, verdicts + 1, factorizations + 1),
            "a slot-adding variant must order and decide once \
             and factor once in its DC solve"
        );
        let stats = sparse_fill_stats(&far, OrderingKind::Auto).unwrap();
        assert_eq!(stats.resolved, OrderingKind::Amd);
        assert_eq!(stats, rebuilt_stats(&far));
    }

    /// An Auto DC solve builds only the static scope, also where the two
    /// patterns coincide (a capacitor-free mesh); the full template
    /// waits for the first transient, and the scopes share no pattern.
    #[test]
    fn dc_touches_only_the_static_scope() {
        let c = mesh(12);
        let plan = c.plan();
        assert_eq!(plan.dim(), 145, "large enough for Auto to pick the sparse path");
        let built = |scope: PatternScope| plan.caches[scope as usize].template.get().is_some();

        crate::DcAnalysis::new(&c).solve().unwrap();
        assert!(built(PatternScope::Static), "the DC solve must run sparse");
        assert!(!built(PatternScope::Full), "a DC solve must not build the full template");

        let out = c.find_node("n143").unwrap();
        crate::TranAnalysis::new(&c).run(1e-9, 1e-10, &[crate::Probe::NodeVoltage(out)]).unwrap();
        assert!(built(PatternScope::Full), "the transient factors the full pattern");
        let (stat, full) =
            (plan.sparse_template(PatternScope::Static), plan.sparse_template(PatternScope::Full));
        assert_eq!(stat.pattern(), full.pattern());
        assert!(!Arc::ptr_eq(stat.pattern(), full.pattern()));
    }

    /// Regression (device-zoo PR): the damped mask used to be populated
    /// from MOSFET terminal slots only, so a diode- or BJT-only circuit
    /// ran every ladder rung unclamped. Each nonlinear site now
    /// declares its limited unknowns.
    #[test]
    fn diode_and_bjt_circuits_register_damped_junction_slots() {
        let mut c = Circuit::new();
        let inn = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inn, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_resistor("RS", inn, out, 1e3).unwrap();
        c.add_diode("D1", out, Circuit::GROUND, crate::diode::DiodeParams::signal_default())
            .unwrap();
        let plan = StampPlan::build(&c);
        assert!(!plan.is_linear());
        // v(in) is purely linear, v(out) is a junction terminal, and the
        // source branch current is never damped.
        assert_eq!(plan.damped(), &[false, true, false]);

        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let b = c.node("b");
        let e = c.node("e");
        c.add_vsource("VCC", vcc, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_resistor("RB", vcc, b, 100e3).unwrap();
        c.add_resistor("RE", e, Circuit::GROUND, 1e3).unwrap();
        c.add_bjt("Q1", vcc, b, e, BjtPolarity::Npn, crate::bjt::BjtParams::signal_default())
            .unwrap();
        let plan = StampPlan::build(&c);
        assert!(!plan.is_linear());
        // All three BJT terminals (vcc, b, e) are limited unknowns.
        assert_eq!(plan.damped(), &[true, true, true, false]);
    }

    /// The slot-indexed sparse assembly must reproduce the generic
    /// (binary-searched) sparse assembly bit for bit, on a circuit with
    /// every device kind.
    #[test]
    fn indexed_sparse_assembly_matches_generic_bitwise() {
        let c = patch_fixture();
        let plan = StampPlan::build(&c);
        let n = plan.dim();
        let x: Vec<f64> = (0..n).map(|i| 0.23 * i as f64 - 0.7).collect();
        let mut vals = Vec::new();
        plan.source_values(&mut vals, |w| w.dc_value());

        // The gate-drain capacitance gives the two scopes different
        // patterns, so each scope's own slot index is exercised.
        assert_ne!(
            plan.sparse_template(PatternScope::Static).pattern(),
            plan.sparse_template(PatternScope::Full).pattern()
        );
        for scope in [PatternScope::Static, PatternScope::Full] {
            let mut generic = plan.sparse_template(scope).clone();
            let mut rhs_g = vec![0.0; n];
            plan.assemble_into(&x, &mut generic, &mut rhs_g, 1e-12, &vals);

            let mut fast = plan.sparse_template(scope).clone();
            let mut rhs_f = vec![f64::NAN; n];
            plan.assemble_into_sparse(scope, &x, &mut fast, &mut rhs_f, 1e-12, &vals);

            for ((r, cc, vg), (_, _, vf)) in generic.entries().zip(fast.entries()) {
                assert_eq!(vg.to_bits(), vf.to_bits(), "{scope:?} slot ({r},{cc})");
            }
            for (a, b) in rhs_g.iter().zip(&rhs_f) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// `assemble_rhs_only` must reproduce the rhs of a full assembly
    /// bit for bit on a linear plan.
    #[test]
    fn rhs_only_assembly_matches_full() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(2.5)).unwrap();
        c.add_isource("I1", Circuit::GROUND, b, Waveform::dc(1e-3)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 2e3).unwrap();
        let plan = StampPlan::build(&c);
        assert!(plan.is_linear());
        let (_, rhs_full) = replay(&plan, &vec![0.0; plan.dim()], 1e-12);
        let mut vals = Vec::new();
        plan.source_values(&mut vals, |w| w.dc_value());
        let mut rhs = vec![f64::NAN; plan.dim()];
        plan.assemble_rhs_only(&mut rhs, &vals);
        for (x, y) in rhs.iter().zip(&rhs_full) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The compiled plan must replay to the bit-identical system a
    /// direct device walk produces, for a circuit exercising every
    /// device kind (including a MOSFET linearized off a nonzero
    /// candidate solution).
    #[test]
    fn plan_replay_matches_direct_assembly_bitwise() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        let o = c.node("o");
        c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_resistor("RD", vdd, d, 50e3).unwrap();
        c.add_isource("IB", Circuit::GROUND, g, Waveform::dc(1e-5)).unwrap();
        c.add_resistor("RG", g, Circuit::GROUND, 200e3).unwrap();
        c.add_capacitor("CL", d, Circuit::GROUND, 1e-12).unwrap();
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
        c.add_vcvs("E1", o, Circuit::GROUND, d, Circuit::GROUND, -3.0).unwrap();
        c.add_inductor("L1", o, g, 1e-6).unwrap();
        let ak = c.node("ak");
        c.add_diode("D1", d, ak, crate::diode::DiodeParams::signal_default()).unwrap();
        c.add_resistor("RK", ak, Circuit::GROUND, 1e3).unwrap();
        c.add_bjt("Q1", vdd, g, o, BjtPolarity::Npn, crate::bjt::BjtParams::signal_default())
            .unwrap();
        c.add_vccs("G1", d, Circuit::GROUND, g, Circuit::GROUND, 1e-3).unwrap();
        c.add_cccs("F1", o, Circuit::GROUND, "VDD", 2.0).unwrap();
        c.add_ccvs("H1", ak, g, "L1", 50.0).unwrap();

        let n = c.unknown_count();
        let x: Vec<f64> = (0..n).map(|i| 0.3 * i as f64 - 0.4).collect();
        let gmin = 1e-12;

        // Direct device-by-device walk (the pre-plan reference).
        let mut mat_ref = Matrix::zeros(n, n);
        let mut rhs_ref = vec![0.0; n];
        mat_ref.clear();
        rhs_ref.fill(0.0);
        for i in 0..c.node_count() - 1 {
            mat_ref.add(i, i, gmin);
        }
        let mut branch = c.node_count() - 1;
        let mut branch_rows: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for dev in c.devices() {
            if dev.has_branch_current() {
                branch_rows.insert(dev.name().to_string(), branch);
            }
            match dev.kind() {
                DeviceKind::Resistor { a, b, ohms } => {
                    stamp_conductance(&mut mat_ref, *a, *b, 1.0 / ohms);
                }
                DeviceKind::Capacitor { .. } => {}
                DeviceKind::Inductor { a, b, .. } => {
                    let br = branch;
                    branch += 1;
                    if let Some(i) = idx(*a) {
                        mat_ref.add(i, br, 1.0);
                        mat_ref.add(br, i, 1.0);
                    }
                    if let Some(j) = idx(*b) {
                        mat_ref.add(j, br, -1.0);
                        mat_ref.add(br, j, -1.0);
                    }
                }
                DeviceKind::Isource { from, to, wave } => {
                    stamp_current(&mut rhs_ref, *from, *to, wave.dc_value());
                }
                DeviceKind::Vsource { pos, neg, wave } => {
                    let br = branch;
                    branch += 1;
                    if let Some(p) = idx(*pos) {
                        mat_ref.add(p, br, 1.0);
                        mat_ref.add(br, p, 1.0);
                    }
                    if let Some(ng) = idx(*neg) {
                        mat_ref.add(ng, br, -1.0);
                        mat_ref.add(br, ng, -1.0);
                    }
                    rhs_ref[br] = wave.dc_value();
                }
                DeviceKind::Vcvs { pos, neg, cp, cn, gain } => {
                    let br = branch;
                    branch += 1;
                    if let Some(p) = idx(*pos) {
                        mat_ref.add(p, br, 1.0);
                        mat_ref.add(br, p, 1.0);
                    }
                    if let Some(ng) = idx(*neg) {
                        mat_ref.add(ng, br, -1.0);
                        mat_ref.add(br, ng, -1.0);
                    }
                    if let Some(cc) = idx(*cp) {
                        mat_ref.add(br, cc, -gain);
                    }
                    if let Some(cc) = idx(*cn) {
                        mat_ref.add(br, cc, *gain);
                    }
                }
                DeviceKind::Mosfet { d, g, s, b, polarity, params } => {
                    let vd = voltage_of(&x, *d);
                    let vg = voltage_of(&x, *g);
                    let vs = voltage_of(&x, *s);
                    let vb = voltage_of(&x, *b);
                    let op = mos::evaluate(params, *polarity, vd, vg, vs, vb);
                    let gsum = op.gm + op.gds + op.gmb;
                    let i_rhs =
                        op.ids - op.gm * (vg - vs) - op.gds * (vd - vs) - op.gmb * (vb - vs);
                    if let Some(di) = idx(*d) {
                        if let Some(gi) = idx(*g) {
                            mat_ref.add(di, gi, op.gm);
                        }
                        mat_ref.add(di, di, op.gds);
                        if let Some(bi) = idx(*b) {
                            mat_ref.add(di, bi, op.gmb);
                        }
                        if let Some(si) = idx(*s) {
                            mat_ref.add(di, si, -gsum);
                        }
                    }
                    if let Some(si) = idx(*s) {
                        if let Some(gi) = idx(*g) {
                            mat_ref.add(si, gi, -op.gm);
                        }
                        if let Some(di) = idx(*d) {
                            mat_ref.add(si, di, -op.gds);
                        }
                        if let Some(bi) = idx(*b) {
                            mat_ref.add(si, bi, -op.gmb);
                        }
                        mat_ref.add(si, si, gsum);
                    }
                    stamp_current(&mut rhs_ref, *d, *s, i_rhs);
                }
                DeviceKind::Diode { a, k, params } => {
                    let va = voltage_of(&x, *a);
                    let vk = voltage_of(&x, *k);
                    let op = diode::evaluate(params, va, vk);
                    let i_rhs = op.id - op.gd * (va - vk);
                    stamp_conductance(&mut mat_ref, *a, *k, op.gd);
                    stamp_current(&mut rhs_ref, *a, *k, i_rhs);
                }
                DeviceKind::Bjt { c: tc, b, e, polarity, params } => {
                    let vc = voltage_of(&x, *tc);
                    let vb = voltage_of(&x, *b);
                    let ve = voltage_of(&x, *e);
                    let op = bjt::evaluate(params, *polarity, vc, vb, ve);
                    let gcc = -op.dic_dvbc;
                    let gcb = op.dic_dvbe + op.dic_dvbc;
                    let gce = -op.dic_dvbe;
                    let gbc = -op.dib_dvbc;
                    let gbb = op.dib_dvbe + op.dib_dvbc;
                    let gbe = -op.dib_dvbe;
                    let ic_rhs = op.ic - (gcc * vc + gcb * vb + gce * ve);
                    let ib_rhs = op.ib - (gbc * vc + gbb * vb + gbe * ve);
                    if let Some(ci) = idx(*tc) {
                        mat_ref.add(ci, ci, gcc);
                        if let Some(bi) = idx(*b) {
                            mat_ref.add(ci, bi, gcb);
                        }
                        if let Some(ei) = idx(*e) {
                            mat_ref.add(ci, ei, gce);
                        }
                        rhs_ref[ci] -= ic_rhs;
                    }
                    if let Some(bi) = idx(*b) {
                        if let Some(ci) = idx(*tc) {
                            mat_ref.add(bi, ci, gbc);
                        }
                        mat_ref.add(bi, bi, gbb);
                        if let Some(ei) = idx(*e) {
                            mat_ref.add(bi, ei, gbe);
                        }
                        rhs_ref[bi] -= ib_rhs;
                    }
                    if let Some(ei) = idx(*e) {
                        if let Some(ci) = idx(*tc) {
                            mat_ref.add(ei, ci, -(gcc + gbc));
                        }
                        if let Some(bi) = idx(*b) {
                            mat_ref.add(ei, bi, -(gcb + gbb));
                        }
                        mat_ref.add(ei, ei, -(gce + gbe));
                        rhs_ref[ei] += ic_rhs + ib_rhs;
                    }
                }
                DeviceKind::Vccs { pos, neg, cp, cn, gm } => {
                    if let Some(p) = idx(*pos) {
                        if let Some(cc) = idx(*cp) {
                            mat_ref.add(p, cc, *gm);
                        }
                        if let Some(cc) = idx(*cn) {
                            mat_ref.add(p, cc, -*gm);
                        }
                    }
                    if let Some(ng) = idx(*neg) {
                        if let Some(cc) = idx(*cp) {
                            mat_ref.add(ng, cc, -*gm);
                        }
                        if let Some(cc) = idx(*cn) {
                            mat_ref.add(ng, cc, *gm);
                        }
                    }
                }
                DeviceKind::Cccs { pos, neg, ctrl, gain } => {
                    let col = branch_rows[ctrl.as_ref()];
                    if let Some(p) = idx(*pos) {
                        mat_ref.add(p, col, *gain);
                    }
                    if let Some(ng) = idx(*neg) {
                        mat_ref.add(ng, col, -*gain);
                    }
                }
                DeviceKind::Ccvs { pos, neg, ctrl, ohms } => {
                    let col = branch_rows[ctrl.as_ref()];
                    let br = branch;
                    branch += 1;
                    if let Some(p) = idx(*pos) {
                        mat_ref.add(p, br, 1.0);
                        mat_ref.add(br, p, 1.0);
                    }
                    if let Some(ng) = idx(*neg) {
                        mat_ref.add(ng, br, -1.0);
                        mat_ref.add(br, ng, -1.0);
                    }
                    mat_ref.add(br, col, -*ohms);
                }
            }
        }

        let plan = StampPlan::build(&c);
        assert_eq!(plan.dim(), n);
        let mut mat = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        let mut vals = Vec::new();
        plan.source_values(&mut vals, |w| w.dc_value());
        // Replay twice into dirty buffers: the plan must clear them.
        for _ in 0..2 {
            plan.assemble_into(&x, &mut mat, &mut rhs, gmin, &vals);
        }

        for r in 0..n {
            for cidx in 0..n {
                assert_eq!(
                    mat[(r, cidx)].to_bits(),
                    mat_ref[(r, cidx)].to_bits(),
                    "matrix mismatch at ({r},{cidx})"
                );
            }
            assert_eq!(rhs[r].to_bits(), rhs_ref[r].to_bits(), "rhs mismatch at {r}");
        }
    }
}
