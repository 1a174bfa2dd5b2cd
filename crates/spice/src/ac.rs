//! AC small-signal analysis.
//!
//! Linearizes the circuit around its DC operating point and solves the
//! complex MNA system `(G + jωC)·x = b` per frequency point. This is the
//! substrate for frequency-domain test configurations (gain, bandwidth,
//! phase margin) — a natural extension of the paper's configuration set.
//! No test configuration measures AC yet; `tests/ac_cross_check.rs`
//! checks the sweep against the transient engine and the sparse
//! differentials against the dense path.
//!
//! `G` is the Jacobian of the static stamps at the operating point (the
//! same matrix the final Newton iteration used), `C` collects explicit
//! capacitors plus the MOSFETs' intrinsic gate capacitances, and `b`
//! holds unit-magnitude excitations on caller-designated independent
//! sources.
//!
//! Solver dispatch: small systems go through the dense complex LU
//! ([`CMatrix`]); large sparse systems (per
//! [`SolverKind`](crate::SolverKind) resolution) solve the equivalent
//! real 2n×2n system `[[G, −ωC], [ωC, G]] · [Re x; Im x] = [Re b; Im b]`
//! with the sparse real LU, whose symbolic analysis is shared across
//! all frequency points of the sweep (the pattern never changes — only
//! ω scales the capacitive entries).

use castg_numeric::{CMatrix, Complex, Matrix, SparseLu, SparseMatrix, StampTarget};

use crate::analysis::AnalysisOptions;
use crate::circuit::Circuit;
use crate::dc::DcAnalysis;
use crate::device::DeviceKind;
use crate::node::NodeId;
use crate::stamp::{self, StampPlan};
use crate::stimulus::Waveform;
use crate::SpiceError;

/// Stamps every reactance of `plan` into `cap` at its own value, so the
/// complex system is `G + jω·cap`: capacitances as conductance-shaped
/// node entries, inductors as `−L` on their branch diagonal (the branch
/// equation gains `−jωL·i`).
fn stamp_reactances<M: StampTarget + ?Sized>(plan: &StampPlan, cap: &mut M) {
    for r in plan.reactances() {
        r.stamp(cap, r.value());
    }
}

/// One AC excitation: a named independent source driven with the given
/// small-signal magnitude (phase 0).
#[derive(Debug, Clone, PartialEq)]
pub struct AcSource {
    /// Name of the independent voltage or current source.
    pub name: String,
    /// Small-signal magnitude (volts or amperes).
    pub magnitude: f64,
}

/// Result of an AC sweep: complex node voltages per frequency.
#[derive(Debug, Clone)]
pub struct AcSweep {
    freqs: Vec<f64>,
    /// `solutions[i][n]` is the phasor of MNA unknown `n` at `freqs[i]`.
    solutions: Vec<Vec<Complex>>,
    n_nodes: usize,
}

impl AcSweep {
    /// The sweep frequencies.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Phasor of a node voltage at frequency index `i`.
    ///
    /// # Panics
    ///
    /// Panics if the index or node is out of range.
    pub fn voltage(&self, i: usize, node: NodeId) -> Complex {
        if node.is_ground() {
            Complex::ZERO
        } else {
            self.solutions[i][node.index() - 1]
        }
    }

    /// Magnitude response of a node over the sweep.
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        (0..self.freqs.len()).map(|i| self.voltage(i, node).abs()).collect()
    }

    /// Phase response (radians) of a node over the sweep.
    pub fn phase(&self, node: NodeId) -> Vec<f64> {
        (0..self.freqs.len()).map(|i| self.voltage(i, node).arg()).collect()
    }

    /// Number of node-voltage unknowns the sweep solved for.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }
}

/// AC small-signal solver.
///
/// # Example
///
/// ```
/// use castg_spice::{AcAnalysis, AcSource, Circuit, Waveform};
///
/// // RC low-pass: |H| = 1/√2 at the pole frequency.
/// let mut c = Circuit::new();
/// let vin = c.node("in");
/// let out = c.node("out");
/// c.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(0.0))?;
/// c.add_resistor("R1", vin, out, 1e3)?;
/// c.add_capacitor("C1", out, Circuit::GROUND, 1e-9)?;
/// let f0 = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
/// let sweep = AcAnalysis::new(&c)
///     .source(AcSource { name: "V1".into(), magnitude: 1.0 })
///     .run(&[f0])?;
/// let h = sweep.voltage(0, out).abs();
/// assert!((h - 1.0 / 2.0_f64.sqrt()).abs() < 1e-6);
/// # Ok::<(), castg_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AcAnalysis<'c> {
    circuit: &'c Circuit,
    options: AnalysisOptions,
    sources: Vec<AcSource>,
    overrides: Vec<(String, Waveform)>,
    /// Worker threads for the frequency fan-out; `None` = serial (see
    /// [`AcAnalysis::threads`]).
    threads: Option<usize>,
}

impl<'c> AcAnalysis<'c> {
    /// Creates an AC solver with default options and no excitations.
    pub fn new(circuit: &'c Circuit) -> Self {
        AcAnalysis {
            circuit,
            options: AnalysisOptions::default(),
            sources: Vec::new(),
            overrides: Vec::new(),
            threads: None,
        }
    }

    /// Creates an AC solver with explicit options.
    pub fn with_options(circuit: &'c Circuit, options: AnalysisOptions) -> Self {
        AcAnalysis {
            circuit,
            options,
            sources: Vec::new(),
            overrides: Vec::new(),
            threads: None,
        }
    }

    /// Adds an AC excitation on a named independent source.
    pub fn source(mut self, source: AcSource) -> Self {
        self.sources.push(source);
        self
    }

    /// Overrides the waveform of a named independent source for the
    /// operating-point linearization (the DC bias this sweep
    /// linearizes around), without cloning or mutating the circuit.
    pub fn override_stimulus(mut self, name: impl Into<String>, wave: Waveform) -> Self {
        self.overrides.push((name.into(), wave));
        self
    }

    /// Sets the worker-thread count for the frequency fan-out.
    /// Frequency points are independent solves — the dense path
    /// outright, the sparse path after one shared symbolic analysis —
    /// so the per-point results are identical at any thread count.
    ///
    /// The default is **serial**: AC sweeps frequently run *inside* a
    /// worker pool (fault campaigns evaluate one sweep per work item),
    /// where an implicit hardware-parallelism fan-out per sweep would
    /// oversubscribe the machine. Standalone many-point sweeps opt in
    /// with `threads(available_parallelism)`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    fn worker_count(&self, points: usize) -> usize {
        self.threads.unwrap_or(1).clamp(1, points.max(1))
    }

    /// Solves the sweep at the given frequencies.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidAnalysis`] when no excitation was configured
    /// or a frequency is not positive; [`SpiceError::UnknownDevice`]
    /// when an excitation names a missing or non-source device; DC
    /// operating-point failures propagate.
    pub fn run(&self, freqs: &[f64]) -> Result<AcSweep, SpiceError> {
        if self.sources.is_empty() {
            return Err(SpiceError::InvalidAnalysis {
                reason: "ac analysis needs at least one excitation source".to_string(),
            });
        }
        if let Some(bad) = freqs.iter().find(|f| !(**f > 0.0 && f.is_finite())) {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!("ac frequency must be positive and finite, got {bad}"),
            });
        }

        let dc = DcAnalysis::with_options(self.circuit, self.options)
            .with_overrides(self.overrides.clone())
            .solve()?;
        let n = self.circuit.unknown_count();
        let n_nodes = self.circuit.node_count() - 1;

        // b: unit excitations (validated up front).
        let mut b = vec![Complex::ZERO; n];
        for src in &self.sources {
            let dev = self
                .circuit
                .device(&src.name)
                .ok_or_else(|| SpiceError::UnknownDevice { name: src.name.clone() })?;
            match dev.kind() {
                DeviceKind::Isource { from, to, .. } => {
                    if let Some(i) = stamp::idx(*from) {
                        b[i].re -= src.magnitude;
                    }
                    if let Some(i) = stamp::idx(*to) {
                        b[i].re += src.magnitude;
                    }
                }
                DeviceKind::Vsource { .. } => {
                    let br = self
                        .circuit
                        .branch_index(&src.name)
                        .expect("vsource has a branch index");
                    b[n_nodes + br].re += src.magnitude;
                }
                _ => {
                    return Err(SpiceError::InvalidValue {
                        device: src.name.clone(),
                        reason: "ac excitation requires an independent source".to_string(),
                    })
                }
            }
        }

        let plan = self.circuit.plan();
        let solutions = if self.options.solver.use_sparse(plan.as_ref()) {
            self.sweep_sparse(&dc, &b, freqs)?
        } else {
            self.sweep_dense(&dc, &b, freqs)?
        };
        Ok(AcSweep { freqs: freqs.to_vec(), solutions, n_nodes })
    }

    /// Splits `0..points` into `workers` contiguous chunks, runs
    /// `solve_chunk` on each from its own thread (inline when a single
    /// worker suffices), and stitches the per-chunk solutions back in
    /// frequency order. Point results do not depend on the chunking, so
    /// any worker count produces the identical sweep.
    fn fan_out<F>(
        points: usize,
        workers: usize,
        solve_chunk: F,
    ) -> Result<Vec<Vec<Complex>>, SpiceError>
    where
        F: Fn(std::ops::Range<usize>) -> Result<Vec<Vec<Complex>>, SpiceError> + Sync,
    {
        if workers <= 1 || points <= 1 {
            return solve_chunk(0..points);
        }
        let per = points.div_ceil(workers);
        let chunks: Vec<std::ops::Range<usize>> = (0..workers)
            .map(|w| (w * per).min(points)..((w + 1) * per).min(points))
            .filter(|r| !r.is_empty())
            .collect();
        let mut results: Vec<Result<Vec<Vec<Complex>>, SpiceError>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|range| scope.spawn(|| solve_chunk(range)))
                .collect();
            for h in handles {
                results.push(h.join().expect("ac sweep worker must not panic"));
            }
        });
        let mut solutions = Vec::with_capacity(points);
        for chunk in results {
            solutions.extend(chunk?);
        }
        Ok(solutions)
    }

    /// Dense sweep: complex `n × n` LU per frequency point, points
    /// fanned out over worker threads (every point is an independent
    /// solve against the shared `G`/`C` matrices).
    fn sweep_dense(
        &self,
        dc: &crate::DcSolution,
        b: &[Complex],
        freqs: &[f64],
    ) -> Result<Vec<Vec<Complex>>, SpiceError> {
        let n = self.circuit.unknown_count();

        // G: the static Jacobian at the operating point (rhs discarded),
        // assembled through the compiled stamp plan.
        let plan = self.circuit.plan();
        let mut g = Matrix::zeros(n, n);
        let mut scratch_rhs = vec![0.0; n];
        let mut src_vals = Vec::new();
        plan.source_values(&mut src_vals, |w| w.dc_value());
        plan.assemble_into(dc.state(), &mut g, &mut scratch_rhs, self.options.gmin, &src_vals);

        // C: every reactance at its own value.
        let mut cap = Matrix::zeros(n, n);
        stamp_reactances(&plan, &mut cap);

        // One complex matrix per worker, reused (cleared and refilled)
        // for every frequency point of its chunk; only the retained
        // solution vector is allocated per point.
        Self::fan_out(freqs.len(), self.worker_count(freqs.len()), |range| {
            let mut solutions = Vec::with_capacity(range.len());
            let mut m = CMatrix::zeros(n);
            for f in &freqs[range] {
                let omega = 2.0 * std::f64::consts::PI * f;
                m.clear();
                for r in 0..n {
                    for c in 0..n {
                        let v = Complex::new(g[(r, c)], omega * cap[(r, c)]);
                        if v.re != 0.0 || v.im != 0.0 {
                            m.add(r, c, v);
                        }
                    }
                }
                let mut x = b.to_vec();
                m.solve_in_place(&mut x)?;
                solutions.push(x);
            }
            Ok(solutions)
        })
    }

    /// Sparse sweep: the complex system is embedded as the real
    /// `2n × 2n` system `[[G, −ωC], [ωC, G]]` over `[Re x; Im x]` and
    /// solved with the sparse LU. The embedding's pattern is frequency-
    /// independent, so one symbolic factorization (from the first
    /// point) is shared by `Arc` across all workers of the fan-out;
    /// every other point is a pure numeric refactorization with
    /// per-worker value storage. Each point re-seeds from the shared
    /// skeleton, so results are chunking- and thread-count-invariant
    /// (a stability fallback stays confined to its point).
    fn sweep_sparse(
        &self,
        dc: &crate::DcSolution,
        b: &[Complex],
        freqs: &[f64],
    ) -> Result<Vec<Vec<Complex>>, SpiceError> {
        let n = self.circuit.unknown_count();
        let plan = self.circuit.plan();

        // G in sparse form via the plan's cached template (the template
        // pattern also covers the capacitive slots; their G values stay
        // structurally zero).
        let mut g = plan.sparse_template(crate::stamp::PatternScope::Full).clone();
        let mut scratch_rhs = vec![0.0; n];
        let mut src_vals = Vec::new();
        plan.source_values(&mut src_vals, |w| w.dc_value());
        plan.assemble_into(dc.state(), &mut g, &mut scratch_rhs, self.options.gmin, &src_vals);

        // C over the dynamic (reactance) slots only.
        let mut cap = SparseMatrix::from_entries(n, &plan.dynamic_slots());
        stamp_reactances(&plan, &mut cap);

        // Pattern of the real embedding: G's slots in both diagonal
        // blocks, C's slots in both off-diagonal blocks.
        let mut slots = Vec::with_capacity(2 * (g.nnz() + cap.nnz()));
        for (r, c, _) in g.entries() {
            slots.push((r, c));
            slots.push((n + r, n + c));
        }
        for (r, c, _) in cap.entries() {
            slots.push((r, n + c));
            slots.push((n + r, c));
        }
        let template = SparseMatrix::from_entries(2 * n, &slots);

        let mut rhs = vec![0.0; 2 * n];
        for (i, bi) in b.iter().enumerate() {
            rhs[i] = bi.re;
            rhs[n + i] = bi.im;
        }

        let stamp_point = |big: &mut SparseMatrix, f: f64| {
            let omega = 2.0 * std::f64::consts::PI * f;
            big.clear();
            for (r, c, v) in g.entries() {
                big.add(r, c, v);
                big.add(n + r, n + c, v);
            }
            for (r, c, v) in cap.entries() {
                big.add(r, n + c, -omega * v);
                big.add(n + r, c, omega * v);
            }
        };

        if freqs.is_empty() {
            return Ok(Vec::new());
        }

        // Prologue: the first point computes the shared symbolic
        // skeleton (and its own solution) serially. When the circuit's
        // ordering resolves to AMD (or BTF), the embedding gets its own
        // AMD/BTF run — its pattern couples the G and ωC blocks, so
        // neither the G permutation nor the G block partition transfers
        // — computed once here per sweep and carried to every other
        // frequency point inside the shared skeleton. A BTF resolution
        // whose embedding fails to condense (one block, or structurally
        // singular) falls back to the embedding's AMD ordering.
        let mut big = template.clone();
        let mut lu = SparseLu::new();
        match plan.resolve_ordering(self.options.ordering, crate::stamp::PatternScope::Full) {
            crate::solver::OrderingKind::Amd => {
                lu.set_ordering(big.pattern().amd_ordering());
            }
            crate::solver::OrderingKind::Btf => {
                match big.pattern().btf_condensation().filter(|b| b.block_count() > 1) {
                    Some(blocks) => {
                        lu.set_btf_order(std::sync::Arc::new(big.pattern().btf_refine(blocks)))
                    }
                    None => lu.set_ordering(big.pattern().amd_ordering()),
                }
            }
            _ => {}
        }
        let mut xy = vec![0.0; 2 * n];
        stamp_point(&mut big, freqs[0]);
        // In the 2n×2n real embedding the unknown behind pivot column
        // `p` is `p % n`; `singular_error` folds that for us.
        let circuit = self.circuit;
        lu.factor(&big).map_err(|e| circuit.singular_error(e))?;
        lu.solve_into(&rhs, &mut xy)?;
        let first: Vec<Complex> = (0..n).map(|i| Complex::new(xy[i], xy[n + i])).collect();
        let symbolic = lu.symbolic().expect("factored sparse LU has a skeleton");

        let rest = Self::fan_out(freqs.len() - 1, self.worker_count(freqs.len() - 1), |range| {
            let mut solutions = Vec::with_capacity(range.len());
            let mut big = template.clone();
            let mut lu = SparseLu::new();
            let mut xy = vec![0.0; 2 * n];
            for f in &freqs[range.start + 1..range.end + 1] {
                // Every point refactors from the shared first-point
                // skeleton, so its result cannot depend on what the
                // previous point in this worker's chunk did.
                if !lu
                    .symbolic()
                    .is_some_and(|s| std::sync::Arc::ptr_eq(&s, &symbolic))
                {
                    lu.seed_symbolic(std::sync::Arc::clone(&symbolic));
                }
                stamp_point(&mut big, *f);
                lu.factor(&big).map_err(|e| circuit.singular_error(e))?;
                lu.solve_into(&rhs, &mut xy)?;
                solutions.push((0..n).map(|i| Complex::new(xy[i], xy[n + i])).collect());
            }
            Ok(solutions)
        })?;

        let mut solutions = Vec::with_capacity(freqs.len());
        solutions.push(first);
        solutions.extend(rest);
        Ok(solutions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waveform;
    use std::f64::consts::PI;

    fn rc(r: f64, c: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(0.0)).unwrap();
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, c).unwrap();
        (ckt, out)
    }

    #[test]
    fn rc_magnitude_and_phase_match_transfer_function() {
        let (ckt, out) = rc(1e3, 1e-9);
        let f0 = 1.0 / (2.0 * PI * 1e3 * 1e-9);
        let sweep = AcAnalysis::new(&ckt)
            .source(AcSource { name: "V1".into(), magnitude: 1.0 })
            .run(&[f0 / 10.0, f0, f0 * 10.0])
            .unwrap();
        let mags = sweep.magnitude(out);
        let phases = sweep.phase(out);
        // Passband ≈ 1, pole = 1/√2 @ −45°, decade above ≈ −20 dB.
        assert!((mags[0] - 1.0).abs() < 0.01, "{mags:?}");
        assert!((mags[1] - 1.0 / 2.0_f64.sqrt()).abs() < 1e-6);
        assert!((phases[1] + PI / 4.0).abs() < 1e-6);
        assert!((mags[2] - 0.0995).abs() < 1e-3, "{mags:?}");
    }

    #[test]
    fn current_source_excitation_sees_impedance() {
        // 1 A AC into R ∥ C: |Z| at the pole = R/√2.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_isource("I1", Circuit::GROUND, a, Waveform::dc(0.0)).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", a, Circuit::GROUND, 1e-9).unwrap();
        let f0 = 1.0 / (2.0 * PI * 1e3 * 1e-9);
        let sweep = AcAnalysis::new(&ckt)
            .source(AcSource { name: "I1".into(), magnitude: 1.0 })
            .run(&[f0])
            .unwrap();
        assert!((sweep.voltage(0, a).abs() - 1e3 / 2.0_f64.sqrt()).abs() < 1e-6);
    }

    /// Series RLC driven at resonance: the reactances cancel, so the
    /// full source voltage appears across R and the output (across the
    /// capacitor) peaks at Q = √(L/C)/R.
    #[test]
    fn rlc_resonance_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        let (r, l, c) = (10.0, 1e-3, 1e-9);
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::dc(0.0)).unwrap();
        ckt.add_resistor("R1", vin, mid, r).unwrap();
        ckt.add_inductor("L1", mid, out, l).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, c).unwrap();
        let f0 = 1.0 / (2.0 * PI * (l * c).sqrt());
        let q = (l / c).sqrt() / r;
        for solver in [crate::SolverKind::Dense, crate::SolverKind::Sparse] {
            let opts = AnalysisOptions { solver, ..AnalysisOptions::default() };
            let sweep = AcAnalysis::with_options(&ckt, opts)
                .source(AcSource { name: "V1".into(), magnitude: 1.0 })
                .run(&[f0])
                .unwrap();
            let vc = sweep.voltage(0, out).abs();
            // The default gmin node shunts perturb the resonance at the
            // 1e-7 level; anything tighter would be testing gmin.
            assert!((vc - q).abs() / q < 1e-6, "{solver:?}: |V(C)| = {vc}, Q = {q}");
        }
    }

    /// DC (the operating point an AC run linearizes around) treats the
    /// inductor as a short carrying the loop current.
    #[test]
    fn dc_inductor_is_a_short() {
        use crate::DcAnalysis;
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
    fn errors_on_missing_or_invalid_excitation() {
        let (ckt, _) = rc(1e3, 1e-9);
        assert!(matches!(
            AcAnalysis::new(&ckt).run(&[1e3]),
            Err(SpiceError::InvalidAnalysis { .. })
        ));
        assert!(matches!(
            AcAnalysis::new(&ckt)
                .source(AcSource { name: "nope".into(), magnitude: 1.0 })
                .run(&[1e3]),
            Err(SpiceError::UnknownDevice { .. })
        ));
        assert!(matches!(
            AcAnalysis::new(&ckt)
                .source(AcSource { name: "R1".into(), magnitude: 1.0 })
                .run(&[1e3]),
            Err(SpiceError::InvalidValue { .. })
        ));
        assert!(matches!(
            AcAnalysis::new(&ckt)
                .source(AcSource { name: "V1".into(), magnitude: 1.0 })
                .run(&[0.0]),
            Err(SpiceError::InvalidAnalysis { .. })
        ));
    }

    /// The frequency fan-out must produce the identical sweep at any
    /// worker count, dense and (forced) sparse.
    #[test]
    fn parallel_sweep_matches_serial_bitwise() {
        use crate::{AnalysisOptions, SolverKind};
        let (ckt, out) = rc(1e3, 1e-9);
        let freqs: Vec<f64> = (0..24).map(|i| 10.0_f64.powf(3.0 + i as f64 * 0.12)).collect();
        for solver in [SolverKind::Dense, SolverKind::Sparse] {
            let opts = AnalysisOptions { solver, ..AnalysisOptions::default() };
            let serial = AcAnalysis::with_options(&ckt, opts)
                .source(AcSource { name: "V1".into(), magnitude: 1.0 })
                .threads(1)
                .run(&freqs)
                .unwrap();
            for threads in [2, 5] {
                let parallel = AcAnalysis::with_options(&ckt, opts)
                    .source(AcSource { name: "V1".into(), magnitude: 1.0 })
                    .threads(threads)
                    .run(&freqs)
                    .unwrap();
                for i in 0..freqs.len() {
                    let (a, b) = (serial.voltage(i, out), parallel.voltage(i, out));
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "{solver:?} t={threads} i={i}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "{solver:?} t={threads} i={i}");
                }
            }
        }
    }

    /// An AC bias override must match mutating a copy of the circuit.
    #[test]
    fn ac_override_shifts_operating_point() {
        use castg_numeric::Complex;
        // Diode-connected NMOS: the small-signal impedance at the drain
        // depends on the bias current, so an overridden bias must move
        // the AC response exactly like a mutated circuit does.
        let mut c = Circuit::new();
        let d = c.node("d");
        c.add_isource("IB", Circuit::GROUND, d, Waveform::dc(50e-6)).unwrap();
        c.add_mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            crate::MosPolarity::Nmos,
            crate::MosParams::nmos_default(10e-6, 1e-6),
        )
        .unwrap();
        let run = |ckt: &Circuit, overridden: bool| -> Complex {
            let mut ac = AcAnalysis::new(ckt)
                .source(AcSource { name: "IB".into(), magnitude: 1e-6 });
            if overridden {
                ac = ac.override_stimulus("IB", Waveform::dc(200e-6));
            }
            ac.run(&[1e3]).unwrap().voltage(0, d)
        };
        let base = run(&c, false);
        let via_override = run(&c, true);
        let mut mutated = c.clone();
        mutated.set_stimulus("IB", Waveform::dc(200e-6)).unwrap();
        let via_mutation = run(&mutated, false);
        assert_ne!(base.abs().to_bits(), via_override.abs().to_bits());
        assert_eq!(via_override.re.to_bits(), via_mutation.re.to_bits());
        assert_eq!(via_override.im.to_bits(), via_mutation.im.to_bits());
    }

    #[test]
    fn ground_voltage_is_zero() {
        let (ckt, _) = rc(1e3, 1e-9);
        let sweep = AcAnalysis::new(&ckt)
            .source(AcSource { name: "V1".into(), magnitude: 1.0 })
            .run(&[1e3])
            .unwrap();
        assert_eq!(sweep.voltage(0, NodeId::GROUND), Complex::ZERO);
        assert_eq!(sweep.freqs(), &[1e3]);
        assert_eq!(sweep.node_count(), 2);
    }
}
