//! Description-driven test configurations: an interpreter that turns a
//! textual [`ConfigDescription`] (the paper's Fig. 1 exchange format)
//! into a live, executable [`TestConfiguration`].
//!
//! Every test configuration in the workspace is a description run by
//! [`DescribedConfig`]: the `.cfg` files a *parsed netlist* (the
//! `castg-netlist` frontend) loads from disk — the IV-converter and
//! bipolar op-amp configurations under `tests/fixtures/` among them —
//! and the description text the synthetic families of
//! [`crate::synthetic`] carry. The interpreter covers the template vocabulary of the paper's
//! Table 1:
//!
//! * **control** — `dc(lev)`, `step(base, elev, slew_rate=sl)`,
//!   `sine(offset, amp, freq)`; arguments name attached parameters,
//!   declared variables, or numeric literals.
//! * **observe** — `dc()` (DC node voltage), `i()` (DC branch current
//!   of the device the observe line names), `sample(rate=sa, time=t)`
//!   (transient node-voltage record), `thd(freq)` (the paper's
//!   harmonic-distortion recipe: settle + measure periods of a sampled
//!   sine response).
//! * **return** — `dV(..)` / `dI(..)` (Δ against nominal),
//!   `Max(dV(..))`, `acc(dV(..))`, `THD(..)`.
//!
//! Tolerance boxes are one analytic formula, with its constants read
//! from `variable` lines:
//!
//! ```text
//! box = box_rel·(Σᵢ gainᵢ·|pᵢ| + box_offset) + box_abs + box_floor
//!       + box_rel_nom·|r_nominal|
//! ```
//!
//! where `gainᵢ` is `box_gain_<param>` (falling back to `box_gain`,
//! default 0). `castg-macros` can replace it with a Monte-Carlo
//! calibrated box-function that keeps `box_floor` and `box_rel_nom`.
//! Simulation knobs (`reltol`, `euler`, `t0`, `thd_*`) are also plain
//! variables, so a description file fully determines the measurement —
//! see `tests/fixtures/iv_configs/` for the five Table-1 configurations
//! expressed this way.

use std::path::Path;
use std::sync::Arc;

use castg_dsp::{metrics, thd, UniformSamples};
use castg_numeric::{Bounds, ParamSpace};
use castg_spice::{
    AnalysisOptions, Circuit, DcAnalysis, DeviceKind, IntegrationMethod, NodeId, OrderingKind,
    Probe, SolverKind, TranAnalysis, Waveform,
};

use crate::config::{check_params, Measurement};
use crate::descr::ConfigDescription;
use crate::{CoreError, TestConfiguration};

/// A template argument: a numeric literal, an attached parameter
/// (resolved by vector index), or a declared variable (inlined).
#[derive(Debug, Clone, Copy)]
enum Expr {
    Lit(f64),
    Param(usize),
}

impl Expr {
    fn eval(&self, params: &[f64]) -> f64 {
        match self {
            Expr::Lit(v) => *v,
            Expr::Param(i) => params[*i],
        }
    }
}

/// Parsed stimulus template of the single `control` line.
#[derive(Debug, Clone)]
enum ControlKind {
    Dc { level: Expr },
    Step { base: Expr, elev: Expr, t0: f64, rise: f64 },
    Sine { offset: Expr, amp: Expr, freq: Expr },
}

/// Parsed measurement template of the single `observe` line.
#[derive(Debug, Clone)]
enum ObserveKind {
    /// DC voltage of the observe node.
    Dc,
    /// DC branch current of the device the observe line names.
    BranchCurrent,
    /// Transient node-voltage record sampled at `rate` for `time`.
    Sample { rate: Expr, time: Expr },
    /// The THD recipe: sampled sine response, settle then measure.
    Thd { freq: Expr },
}

/// Parsed return-value template.
#[derive(Debug, Clone, Copy)]
enum ReturnKind {
    /// `dV(..)` / `dI(..)`: measured − nominal scalar.
    Delta,
    /// `THD(..)`: the measured scalar itself.
    Absolute,
    /// `Max(dV(..))`: maximum absolute waveform deviation.
    MaxDeviation,
    /// `acc(dV(..))`: accumulated (integrated) waveform deviation.
    AccumulatedDeviation,
}

/// One template call `name(arg, arg, key=arg)` split into pieces.
struct Call {
    name: String,
    positional: Vec<String>,
    named: Vec<(String, String)>,
}

fn parse_call(text: &str) -> Result<Call, String> {
    let text = text.trim();
    let open = text.find('(').ok_or_else(|| format!("expected `name(...)`, got `{text}`"))?;
    if !text.ends_with(')') {
        return Err(format!("unterminated template call `{text}`"));
    }
    let name = text[..open].trim().to_ascii_lowercase();
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("bad template name in `{text}`"));
    }
    let inner = &text[open + 1..text.len() - 1];
    let mut positional = Vec::new();
    let mut named = Vec::new();
    for raw in inner.split(',') {
        let arg = raw.trim();
        if arg.is_empty() {
            continue;
        }
        match arg.split_once('=') {
            Some((k, v)) => named.push((k.trim().to_ascii_lowercase(), v.trim().to_string())),
            None => positional.push(arg.to_string()),
        }
    }
    Ok(Call { name, positional, named })
}

/// A live test configuration interpreted from a textual description.
///
/// # Example
///
/// ```
/// use castg_core::{ConfigDescription, DescribedConfig, TestConfiguration};
/// use castg_core::synthetic::DividerMacro;
/// use castg_core::AnalogMacro;
///
/// let text = "\
/// macro type: R-divider
/// test configuration: DC output
/// control vin: dc(lev)
/// observe out: dc()
/// return: dV(out)
/// parameter lev: 1 .. 8
/// variable box_rel: 0.05
/// variable box_gain: 0.5
/// seed lev: 5
/// ";
/// let config = DescribedConfig::new(1, ConfigDescription::parse(text)?)?;
/// let circuit = DividerMacro::new().nominal_circuit();
/// let m = config.measure(&circuit, &[5.0])?;
/// assert!(m.as_scalars().is_some());
/// # Ok::<(), castg_core::CoreError>(())
/// ```
pub struct DescribedConfig {
    id: usize,
    name: String,
    descr: ConfigDescription,
    param_names: Vec<String>,
    space: ParamSpace,
    seed: Vec<f64>,
    /// The `control` line's node field: an independent-source device
    /// name or a node driven by one (resolved against the circuit at
    /// measure time).
    control_target: String,
    control: ControlKind,
    /// The `observe` line's node field: a node name, or a device name
    /// for `i()`.
    observe_target: String,
    observe: ObserveKind,
    ret: ReturnKind,
    // Tolerance-box model (see the module docs).
    box_rel: f64,
    box_offset: f64,
    box_abs: f64,
    box_floor: f64,
    box_rel_nom: f64,
    box_gains: Vec<f64>,
    // Simulation knobs.
    reltol: Option<f64>,
    euler: bool,
    thd_points: usize,
    thd_settle: usize,
    thd_measure: usize,
    thd_harmonics: usize,
    thd_stuck: f64,
    // Solver dispatch (see [`DescribedConfig::with_solver`]).
    solver: SolverKind,
    ordering: OrderingKind,
}

impl DescribedConfig {
    /// Interprets a parsed description into an executable configuration
    /// with the given id (the paper numbers configurations #1…#5).
    ///
    /// # Errors
    ///
    /// [`CoreError::Configuration`] when the description is not
    /// interpretable: no/too many control or observe lines, an unknown
    /// template, an argument naming neither a parameter, a variable nor
    /// a literal, invalid parameter bounds, or THD counts that cannot
    /// measure (`thd_points`, `thd_settle`, `thd_measure` and
    /// `thd_harmonics` must be whole numbers with `thd_measure ≥ 1`,
    /// `thd_harmonics ≥ 2` and `thd_points > 2·thd_harmonics`).
    pub fn new(id: usize, descr: ConfigDescription) -> Result<Self, CoreError> {
        let name = slug(&descr.title);
        let err = |reason: String| CoreError::Configuration { config: name.clone(), reason };

        let param_names: Vec<String> =
            descr.parameters.iter().map(|p| p.name.clone()).collect();
        let mut bounds = Vec::with_capacity(descr.parameters.len());
        for p in &descr.parameters {
            bounds.push(Bounds::new(p.lo, p.hi).map_err(|e| {
                err(format!("parameter `{}`: invalid interval: {e}", p.name))
            })?);
        }
        let space = ParamSpace::new(bounds);
        let seed = descr.seed_vector();

        let var = |key: &str| descr.variable(key);
        let resolve = |arg: &str| -> Result<Expr, CoreError> {
            if let Some(i) = param_names.iter().position(|p| p == arg) {
                return Ok(Expr::Param(i));
            }
            if let Some(v) = var(arg) {
                return Ok(Expr::Lit(v));
            }
            arg.parse::<f64>().map(Expr::Lit).map_err(|_| {
                err(format!("argument `{arg}` is neither a parameter, a variable nor a number"))
            })
        };

        if descr.controls.len() != 1 {
            return Err(err(format!(
                "need exactly one control line, got {}",
                descr.controls.len()
            )));
        }
        if descr.observes.len() != 1 {
            return Err(err(format!(
                "need exactly one observe line, got {}",
                descr.observes.len()
            )));
        }
        let control_line = &descr.controls[0];
        let observe_line = &descr.observes[0];

        let ccall = parse_call(&control_line.action).map_err(&err)?;
        let pos = |call: &Call, i: usize, what: &str| -> Result<Expr, CoreError> {
            let arg = call
                .positional
                .get(i)
                .ok_or_else(|| err(format!("`{}` needs a `{what}` argument", call.name)))?;
            resolve(arg)
        };
        let named_or = |call: &Call, key: &str, default: f64| -> Result<f64, CoreError> {
            match call.named.iter().find(|(k, _)| k == key) {
                // Named args must be constants (variables or literals):
                // they shape the stimulus template, not the test point.
                Some((_, v)) => match resolve(v)? {
                    Expr::Lit(c) => Ok(c),
                    Expr::Param(_) => {
                        Err(err(format!("`{key}` must be a variable or literal, not a parameter")))
                    }
                },
                None => Ok(default),
            }
        };
        let control = match ccall.name.as_str() {
            "dc" => ControlKind::Dc { level: pos(&ccall, 0, "level")? },
            "step" => ControlKind::Step {
                base: pos(&ccall, 0, "base")?,
                elev: pos(&ccall, 1, "elev")?,
                t0: var("t0").unwrap_or(0.0),
                rise: named_or(&ccall, "slew_rate", var("sl").unwrap_or(0.0))?,
            },
            "sine" => ControlKind::Sine {
                offset: pos(&ccall, 0, "offset")?,
                amp: pos(&ccall, 1, "amp")?,
                freq: pos(&ccall, 2, "freq")?,
            },
            other => return Err(err(format!("unknown control template `{other}`"))),
        };

        let ocall = parse_call(&observe_line.action).map_err(&err)?;
        let observe = match ocall.name.as_str() {
            "dc" => ObserveKind::Dc,
            "i" | "idd" => ObserveKind::BranchCurrent,
            "sample" => {
                let rate = match ocall.named.iter().find(|(k, _)| k == "rate") {
                    Some((_, v)) => resolve(v)?,
                    None => pos(&ocall, 0, "rate")?,
                };
                let time = match ocall.named.iter().find(|(k, _)| k == "time") {
                    Some((_, v)) => resolve(v)?,
                    None => pos(&ocall, 1, "time")?,
                };
                ObserveKind::Sample { rate, time }
            }
            "thd" => ObserveKind::Thd { freq: pos(&ocall, 0, "freq")? },
            other => return Err(err(format!("unknown observe template `{other}`"))),
        };

        let ret_text = descr.return_value.trim().to_ascii_lowercase();
        let ret = if ret_text.starts_with("max(") {
            ReturnKind::MaxDeviation
        } else if ret_text.starts_with("acc(") {
            ReturnKind::AccumulatedDeviation
        } else if ret_text.starts_with("thd(") {
            ReturnKind::Absolute
        } else if ret_text.starts_with("dv(") || ret_text.starts_with("di(") {
            ReturnKind::Delta
        } else {
            return Err(err(format!("unknown return template `{}`", descr.return_value)));
        };
        match (&observe, ret) {
            (ObserveKind::Sample { .. }, ReturnKind::MaxDeviation)
            | (ObserveKind::Sample { .. }, ReturnKind::AccumulatedDeviation)
            | (ObserveKind::Dc, ReturnKind::Delta)
            | (ObserveKind::BranchCurrent, ReturnKind::Delta)
            | (ObserveKind::Thd { .. }, ReturnKind::Absolute) => {}
            _ => {
                return Err(err(format!(
                    "return `{}` does not fit observe `{}`",
                    descr.return_value, observe_line.action
                )))
            }
        }

        // THD counts must be whole and able to measure: at least one
        // measured period, a harmonic beyond the fundamental, and every
        // harmonic below the Nyquist rate of `thd_points` per period
        // (the DFT reads a harmonic at or above it as zero).
        let count = |key: &str, default: f64, min: f64| -> Result<usize, CoreError> {
            let v = var(key).unwrap_or(default);
            if v.fract() != 0.0 || v < min {
                return Err(err(format!("`{key}` must be a whole number ≥ {min}, got {v}")));
            }
            Ok(v as usize)
        };
        let thd_points = count("thd_points", 128.0, 1.0)?;
        let thd_settle = count("thd_settle", 2.0, 0.0)?;
        let thd_measure = count("thd_measure", 4.0, 1.0)?;
        let thd_harmonics = count("thd_harmonics", 5.0, 2.0)?;
        if thd_points <= 2 * thd_harmonics {
            return Err(err(format!(
                "`thd_points` ({thd_points}) must exceed twice `thd_harmonics` \
                 ({thd_harmonics}) to sample every harmonic below Nyquist"
            )));
        }

        let box_gain_default = var("box_gain").unwrap_or(0.0);
        let box_gains = param_names
            .iter()
            .map(|p| var(&format!("box_gain_{p}")).unwrap_or(box_gain_default))
            .collect();

        Ok(DescribedConfig {
            id,
            control_target: control_line.node.clone(),
            observe_target: observe_line.node.clone(),
            control,
            observe,
            ret,
            box_rel: var("box_rel").unwrap_or(0.05),
            box_offset: var("box_offset").unwrap_or(0.0),
            box_abs: var("box_abs").unwrap_or(0.0),
            box_floor: var("box_floor").unwrap_or(0.0),
            box_rel_nom: var("box_rel_nom").unwrap_or(0.0),
            box_gains,
            reltol: var("reltol"),
            euler: var("euler").is_some_and(|v| v != 0.0),
            thd_points,
            thd_settle,
            thd_measure,
            thd_harmonics,
            thd_stuck: var("thd_stuck").unwrap_or(999.0),
            solver: SolverKind::Auto,
            ordering: OrderingKind::Auto,
            name,
            descr,
            param_names,
            space,
            seed,
        })
    }

    /// Forces the solver path every measurement of this configuration
    /// dispatches through — `Auto`/`Auto` (the default) lets the
    /// density and fill heuristics decide per circuit; forcing
    /// `Sparse` + `Btf`/`Amd`/`Natural` pins one arm, the way the
    /// differential harnesses and the `castg --ordering` flag do.
    #[must_use]
    pub fn with_solver(mut self, solver: SolverKind, ordering: OrderingKind) -> Self {
        self.solver = solver;
        self.ordering = ordering;
        self
    }

    /// Loads every description file (`*.cfg` or `*.txt`, sorted by file
    /// name) in a directory into executable configurations, ids assigned
    /// 1… in order.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidOptions`] when the directory is unreadable or
    /// holds no description files; parse and interpretation errors are
    /// reported with the offending file name.
    pub fn load_dir(dir: &Path) -> Result<Vec<Arc<dyn TestConfiguration>>, CoreError> {
        let io_err = |reason: String| CoreError::InvalidOptions { reason };
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| io_err(format!("cannot read config dir {}: {e}", dir.display())))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("cfg") | Some("txt")
                )
            })
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(io_err(format!(
                "no configuration descriptions (*.cfg / *.txt) in {}",
                dir.display()
            )));
        }
        let mut configs: Vec<Arc<dyn TestConfiguration>> = Vec::with_capacity(files.len());
        for (i, path) in files.iter().enumerate() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| io_err(format!("cannot read {}: {e}", path.display())))?;
            let descr = ConfigDescription::parse(&text).map_err(|e| {
                io_err(format!("{}: {e}", path.display()))
            })?;
            let config = DescribedConfig::new(i + 1, descr).map_err(|e| {
                io_err(format!("{}: {e}", path.display()))
            })?;
            configs.push(Arc::new(config));
        }
        Ok(configs)
    }

    fn cfg_err(&self, reason: String) -> CoreError {
        CoreError::Configuration { config: self.name.clone(), reason }
    }

    /// Resolves the control line's target to an independent-source
    /// device name: first a (case-insensitive) device-name match, then
    /// the first independent source touching a node of that name.
    fn stimulus_device<'c>(&self, circuit: &'c Circuit) -> Result<&'c str, CoreError> {
        let is_source =
            |k: &DeviceKind| matches!(k, DeviceKind::Vsource { .. } | DeviceKind::Isource { .. });
        for dev in circuit.devices() {
            if is_source(dev.kind()) && dev.name().eq_ignore_ascii_case(&self.control_target) {
                return Ok(dev.name());
            }
        }
        if let Some(node) = find_node_ci(circuit, &self.control_target) {
            for dev in circuit.devices() {
                if is_source(dev.kind()) && dev.nodes().contains(&node) {
                    return Ok(dev.name());
                }
            }
        }
        Err(self.cfg_err(format!(
            "control target `{}` matches no independent source",
            self.control_target
        )))
    }

    fn observe_node(&self, circuit: &Circuit) -> Result<NodeId, CoreError> {
        find_node_ci(circuit, &self.observe_target).ok_or_else(|| {
            self.cfg_err(format!("circuit has no `{}` node", self.observe_target))
        })
    }

    fn waveform(&self, params: &[f64]) -> Waveform {
        match &self.control {
            ControlKind::Dc { level } => Waveform::dc(level.eval(params)),
            ControlKind::Step { base, elev, t0, rise } => {
                Waveform::step(base.eval(params), elev.eval(params), *t0, *rise)
            }
            ControlKind::Sine { offset, amp, freq } => {
                Waveform::sine(offset.eval(params), amp.eval(params), freq.eval(params))
            }
        }
    }

    /// Options for the DC solves: defaults plus the configuration's
    /// solver/ordering dispatch.
    fn dc_options(&self) -> AnalysisOptions {
        AnalysisOptions {
            solver: self.solver,
            ordering: self.ordering,
            ..AnalysisOptions::default()
        }
    }

    /// Transient options: the description's `reltol` (when declared)
    /// loosened onto the defaults for long transients, plus the
    /// solver/ordering dispatch.
    fn tran_options(&self) -> AnalysisOptions {
        let mut opts = self.dc_options();
        if let Some(reltol) = self.reltol {
            opts.reltol = reltol;
        }
        opts
    }

    fn method(&self) -> IntegrationMethod {
        if self.euler {
            IntegrationMethod::BackwardEuler
        } else {
            IntegrationMethod::Trapezoidal
        }
    }
}

/// Case-insensitive node lookup (exact match wins).
fn find_node_ci(circuit: &Circuit, name: &str) -> Option<NodeId> {
    if let Some(id) = circuit.find_node(name) {
        return Some(id);
    }
    circuit.non_ground_nodes().find(|id| circuit.node_name(*id).eq_ignore_ascii_case(name))
}

/// Lowercase identifier slug of a configuration title
/// (`"DC transfer"` → `"dc_transfer"`).
fn slug(title: &str) -> String {
    let mut s: String = title
        .trim()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    while s.contains("__") {
        s = s.replace("__", "_");
    }
    let s = s.trim_matches('_').to_string();
    if s.is_empty() {
        "config".to_string()
    } else {
        s
    }
}

impl TestConfiguration for DescribedConfig {
    fn id(&self) -> usize {
        self.id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn param_names(&self) -> Vec<String> {
        self.param_names.clone()
    }

    fn space(&self) -> ParamSpace {
        self.space.clone()
    }

    fn seed(&self) -> Vec<f64> {
        self.seed.clone()
    }

    fn measure(&self, circuit: &Circuit, params: &[f64]) -> Result<Measurement, CoreError> {
        check_params(self, params)?;
        let stimulus = self.stimulus_device(circuit)?.to_string();
        let wave = self.waveform(params);
        match &self.observe {
            ObserveKind::Dc => {
                let sol = DcAnalysis::with_options(circuit, self.dc_options())
                    .override_stimulus(&stimulus, wave)
                    .solve()?;
                Ok(Measurement::scalar(sol.voltage(self.observe_node(circuit)?)))
            }
            ObserveKind::BranchCurrent => {
                let sol = DcAnalysis::with_options(circuit, self.dc_options())
                    .override_stimulus(&stimulus, wave)
                    .solve()?;
                // Device identifiers are case-insensitive like every
                // other lookup in this interpreter; source_current
                // itself matches exactly, so resolve the real name.
                let device = circuit
                    .devices()
                    .iter()
                    .map(|d| d.name())
                    .find(|n| n.eq_ignore_ascii_case(&self.observe_target))
                    .unwrap_or(self.observe_target.as_str());
                let i = sol.source_current(device).ok_or_else(|| {
                    self.cfg_err(format!(
                        "circuit has no `{}` branch device to probe",
                        self.observe_target
                    ))
                })?;
                Ok(Measurement::scalar(i))
            }
            ObserveKind::Sample { rate, time } => {
                let out = self.observe_node(circuit)?;
                let dt = 1.0 / rate.eval(params);
                let trace =
                    TranAnalysis::with_options(circuit, self.tran_options(), self.method())
                        .override_stimulus(&stimulus, wave)
                        .run(time.eval(params), dt, &[Probe::NodeVoltage(out)])?;
                Ok(Measurement::Waveform(UniformSamples::new(
                    0.0,
                    dt,
                    trace.column(0).to_vec(),
                )))
            }
            ObserveKind::Thd { freq } => {
                let out = self.observe_node(circuit)?;
                let f0 = freq.eval(params);
                if !(f0 > 0.0 && f0.is_finite()) {
                    return Err(self.cfg_err(format!("thd needs a positive frequency, got {f0}")));
                }
                let period = 1.0 / f0;
                let dt = period / self.thd_points as f64;
                let periods = self.thd_settle + self.thd_measure;
                // Backward Euler: L-stable across the wide spread of
                // time constants at low stimulus frequencies.
                let trace = TranAnalysis::with_options(
                    circuit,
                    self.tran_options(),
                    IntegrationMethod::BackwardEuler,
                )
                .override_stimulus(&stimulus, wave)
                .run(periods as f64 * period, dt, &[Probe::NodeVoltage(out)])?;
                let skip = self.thd_settle * self.thd_points;
                let count = self.thd_measure * self.thd_points;
                let column = trace.column(0);
                let vals = column[skip.min(column.len())..(skip + count).min(column.len())]
                    .to_vec();
                let samples = UniformSamples::new(0.0, dt, vals);
                let d = thd(&samples, f0, self.thd_harmonics).unwrap_or(self.thd_stuck);
                Ok(Measurement::scalar(d))
            }
        }
    }

    fn return_values(&self, measured: &Measurement, nominal: &Measurement) -> Vec<f64> {
        match self.ret {
            ReturnKind::Delta => match (measured.as_scalars(), nominal.as_scalars()) {
                (Some(m), Some(n)) => vec![m[0] - n[0]],
                _ => vec![f64::NAN],
            },
            ReturnKind::Absolute => match measured.as_scalars() {
                Some(m) => vec![m[0]],
                None => vec![f64::NAN],
            },
            ReturnKind::MaxDeviation => match (measured.as_waveform(), nominal.as_waveform()) {
                (Some(m), Some(n)) => vec![metrics::max_abs_deviation(m, n)],
                _ => vec![f64::NAN],
            },
            ReturnKind::AccumulatedDeviation => {
                match (measured.as_waveform(), nominal.as_waveform()) {
                    (Some(m), Some(n)) => vec![metrics::accumulated_deviation(m, n)],
                    _ => vec![f64::NAN],
                }
            }
        }
    }

    fn tolerance_box(&self, params: &[f64], nominal_returns: &[f64]) -> Vec<f64> {
        let r_nom = nominal_returns.first().copied().unwrap_or(0.0);
        let mut magnitude = self.box_offset;
        for (gain, p) in self.box_gains.iter().zip(params) {
            magnitude += gain * p.abs();
        }
        vec![
            self.box_rel * magnitude
                + self.box_abs
                + self.box_floor
                + self.box_rel_nom * r_nom.abs(),
        ]
    }

    fn description(&self) -> ConfigDescription {
        self.descr.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::DividerMacro;
    use crate::AnalogMacro;

    fn divider_circuit() -> Circuit {
        DividerMacro::new().nominal_circuit()
    }

    fn build(text: &str) -> DescribedConfig {
        DescribedConfig::new(1, ConfigDescription::parse(text).unwrap()).unwrap()
    }

    const DC_CFG: &str = "\
macro type: R-divider
test configuration: DC output
control vin: dc(lev)
observe out: dc()
return: dV(out)
parameter lev: 1 .. 8
variable box_rel: 0.05
variable box_gain: 0.5
variable box_floor: 1e-3
seed lev: 5
";

    #[test]
    fn dc_template_measures_node_voltage() {
        let cfg = build(DC_CFG);
        let c = divider_circuit();
        // Divider: out = vin / 2.
        let m = cfg.measure(&c, &[6.0]).unwrap();
        let v = m.as_scalars().unwrap()[0];
        assert!((v - 3.0).abs() < 1e-6, "v = {v}");
        // Δ return against a different nominal level.
        let n = cfg.measure(&c, &[6.0]).unwrap();
        assert_eq!(cfg.return_values(&m, &n), vec![0.0]);
        assert_eq!(cfg.id(), 1);
        assert_eq!(cfg.name(), "dc_output");
        assert_eq!(cfg.param_names(), vec!["lev".to_string()]);
        assert_eq!(cfg.seed(), vec![5.0]);
    }

    #[test]
    fn control_resolves_device_by_node_or_name() {
        let cfg = build(DC_CFG);
        let c = divider_circuit();
        // `vin` is a node driven by V1.
        assert_eq!(cfg.stimulus_device(&c).unwrap(), "V1");
        // Direct (case-insensitive) device naming also works.
        let by_name = build(&DC_CFG.replace("control vin:", "control v1:"));
        assert_eq!(by_name.stimulus_device(&c).unwrap(), "V1");
    }

    #[test]
    fn step_template_matches_hand_coded_config() {
        let text = "\
macro type: R-divider
test configuration: Step response
control vin: step(base, elev, slew_rate=sl)
observe out: sample(rate=sa, time=t)
return: Max(dV(out))
parameter base: 0 .. 4
parameter elev: -4 .. 4
variable sl: 1e-7
variable t0: 1e-6
variable sa: 5e6
variable t: 1e-5
seed base: 1
seed elev: 2
";
        let cfg = build(text);
        let c = divider_circuit();
        let m = cfg.measure(&c, &[1.0, 2.0]).unwrap();
        let w = m.as_waveform().unwrap();
        assert_eq!(w.dt(), 1.0 / 5e6);
        // The divider settles to (base+elev)/2 = 1.5 at the record end.
        let v_end = *w.values().last().unwrap();
        assert!((v_end - 1.5).abs() < 0.01, "v_end = {v_end}");
        // Max deviation against itself is zero.
        assert_eq!(cfg.return_values(&m, &m), vec![0.0]);
    }

    #[test]
    fn branch_current_template_probes_sources() {
        let text = "\
macro type: R-divider
test configuration: Supply current
control vin: dc(lev)
observe V1: i()
return: dI(V1)
parameter lev: 1 .. 8
seed lev: 5
";
        let cfg = build(text);
        let c = divider_circuit();
        let m = cfg.measure(&c, &[4.0]).unwrap();
        // 4 V over 4 kΩ total: 1 mA out of the source (negative).
        let i = m.as_scalars().unwrap()[0];
        assert!((i + 1e-3).abs() < 1e-6, "i = {i}");
    }

    #[test]
    fn tolerance_box_follows_the_declared_formula() {
        let cfg = build(DC_CFG);
        // box = 0.05·(0.5·|6| + 0) + 0 + 1e-3 + 0.
        let b = cfg.tolerance_box(&[6.0], &[0.0]);
        assert!((b[0] - (0.05 * 3.0 + 1e-3)).abs() < 1e-15, "box = {}", b[0]);
    }

    #[test]
    fn per_param_gain_overrides_apply() {
        let text = "\
macro type: X
test configuration: T
control vin: dc(a)
observe out: dc()
return: dV(out)
parameter a: 0 .. 1
parameter b: 0 .. 1
variable box_rel: 1
variable box_gain: 2
variable box_gain_b: 7
";
        let cfg = build(text);
        let b = cfg.tolerance_box(&[1.0, 1.0], &[0.0]);
        assert!((b[0] - 9.0).abs() < 1e-15, "box = {}", b[0]);
    }

    #[test]
    fn rejects_uninterpretable_descriptions() {
        let bad = [
            // No control line.
            "macro type: X\ntest configuration: T\nobserve out: dc()\nreturn: dV(out)\nparameter a: 0 .. 1\n",
            // Unknown control template.
            "macro type: X\ntest configuration: T\ncontrol vin: chirp(a)\nobserve out: dc()\nreturn: dV(out)\nparameter a: 0 .. 1\n",
            // Unknown return shape.
            "macro type: X\ntest configuration: T\ncontrol vin: dc(a)\nobserve out: dc()\nreturn: rms(out)\nparameter a: 0 .. 1\n",
            // Return/observe mismatch: Max() needs a waveform.
            "macro type: X\ntest configuration: T\ncontrol vin: dc(a)\nobserve out: dc()\nreturn: Max(dV(out))\nparameter a: 0 .. 1\n",
            // Argument resolving to nothing.
            "macro type: X\ntest configuration: T\ncontrol vin: dc(zz)\nobserve out: dc()\nreturn: dV(out)\nparameter a: 0 .. 1\n",
        ];
        for text in bad {
            let descr = ConfigDescription::parse(text).unwrap();
            assert!(
                DescribedConfig::new(1, descr).is_err(),
                "should reject: {text}"
            );
        }
        // THD counts that cannot measure: no measured period, no
        // harmonic beyond the fundamental, a non-whole or negative
        // sample count, or a harmonic at or above Nyquist.
        let thd = "macro type: X\ntest configuration: T\ncontrol vin: sine(0, 1, f)\n\
                   observe out: thd(f)\nreturn: THD(V(out))\nparameter f: 1e3 .. 1e4\n";
        for (line, variable) in [
            ("variable thd_measure: 0", "thd_measure"),
            ("variable thd_harmonics: 0", "thd_harmonics"),
            ("variable thd_harmonics: 1", "thd_harmonics"),
            ("variable thd_points: 0", "thd_points"),
            ("variable thd_points: -3", "thd_points"),
            ("variable thd_points: 127.5", "thd_points"),
            ("variable thd_settle: 0.5", "thd_settle"),
            ("variable thd_points: 10", "thd_points"),
        ] {
            let descr = ConfigDescription::parse(&format!("{thd}{line}\n")).unwrap();
            let e = DescribedConfig::new(1, descr).err().unwrap_or_else(|| {
                panic!("should reject: {line}")
            });
            assert!(
                matches!(e, CoreError::Configuration { .. }) && e.to_string().contains(variable),
                "{line}: {e}"
            );
        }
        let fits = ConfigDescription::parse(&format!("{thd}variable thd_points: 11\n")).unwrap();
        assert!(DescribedConfig::new(1, fits).is_ok(), "11 points sample 5 harmonics");
    }

    #[test]
    fn measure_errors_name_missing_targets() {
        let cfg = build(&DC_CFG.replace("observe out:", "observe nope:"));
        let c = divider_circuit();
        let e = cfg.measure(&c, &[5.0]).unwrap_err();
        assert!(e.to_string().contains("nope"), "{e}");
        let cfg = build(&DC_CFG.replace("control vin:", "control nowhere:"));
        let e = cfg.measure(&c, &[5.0]).unwrap_err();
        assert!(e.to_string().contains("nowhere"), "{e}");
    }

    #[test]
    fn slugs_are_identifier_shaped() {
        assert_eq!(slug("DC transfer"), "dc_transfer");
        assert_eq!(slug("Step response 1"), "step_response_1");
        assert_eq!(slug("  ++  "), "config");
    }

    #[test]
    fn description_round_trips() {
        let cfg = build(DC_CFG);
        let d = cfg.description();
        let re = ConfigDescription::parse(&d.to_string()).unwrap();
        assert_eq!(re, d);
    }
}
