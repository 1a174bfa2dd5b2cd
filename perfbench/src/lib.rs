//! `castg-perfbench` — the repository benchmark.
//!
//! One command runs one workload from a seed and prints one JSON line:
//! with tracing off, the end-to-end metrics a user of `castg` waits on;
//! with tracing on, the per-layer metrics, measured from outside the
//! crates (timed calls into their public functions plus the
//! `measure()` decorator in [`trace`]). `README.md` in this directory
//! documents every workload and metric.

pub mod compute;
pub mod probe;
pub mod rng;
pub mod serve_mixed;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["iv_generate", "mesh_screen", "ota_rescue", "serve_mixed"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("coverage_frac", "fraction"),
    ("compact_tests", "count"),
    ("requests_per_s", "1/s"),
];

/// Configuration keys the per-configuration `measure()` metrics use:
/// the five IV configurations by file stem, and the DC configuration
/// of the mesh and OTA decks.
pub const CONFIG_KEYS: [&str; 6] = [
    "dc_transfer",
    "supply_current",
    "thd",
    "step_max_dev",
    "step_acc_dev",
    "dc_out",
];

/// Per-layer metrics (`--trace 1`) other than the per-configuration
/// ones: name and unit. A layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("netlist.parse_s", "s"),
    ("netlist.configs_s", "s"),
    ("netlist.canonical_s", "s"),
    ("faults.derive_s", "s"),
    ("faults.dictionary_len", "count"),
    ("faults.inject_s", "s"),
    ("faults.injects", "count"),
    ("spice.compile_s", "s"),
    ("spice.op_s", "s"),
    ("spice.op_iters", "count"),
    ("spice.newton_iters", "count"),
    ("spice.generate_newton_iters", "count"),
    ("spice.dc.plain", "count"),
    ("spice.dc.damped", "count"),
    ("spice.dc.gmin", "count"),
    ("spice.dc.source", "count"),
    ("spice.dc.ptc", "count"),
    ("spice.dc.unconverged", "count"),
    ("spice.rescue_iters_frac", "fraction"),
    ("numeric.pattern_nnz", "count"),
    ("numeric.lu_nnz", "count"),
    ("numeric.blocks", "count"),
    ("numeric.dc_solve_s", "s"),
    ("core.generate_s", "s"),
    ("core.generate_self_s", "s"),
    ("core.evals", "count"),
    ("core.nominal_measures", "count"),
    ("core.nominal_hit_frac", "fraction"),
    ("core.compact_s", "s"),
    ("core.compact_candidates", "count"),
    ("core.evaluate_s", "s"),
    ("core.evaluate_self_s", "s"),
    ("core.cells", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_tail_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_tail_ms", "ms"),
    ("serve.engine_hit_ms", "ms"),
    ("serve.engine_miss_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.digest_s", "s"),
    ("serve.json_s", "s"),
    ("serve.result_hits", "count"),
    ("serve.result_misses", "count"),
    ("serve.plan_hits", "count"),
    ("serve.plan_misses", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Every per-layer metric name with its unit, per-configuration ones
/// included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for key in CONFIG_KEYS {
        all.push((format!("spice.measure_calls.{key}"), "count"));
        all.push((format!("spice.measure_s.{key}"), "s"));
    }
    all
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (faults generated or screened, requests
    /// posted).
    pub attempted: u64,
    /// Operations that failed or produced output that failed a check.
    pub failed: u64,
    /// One line per failed output check.
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable context printed to stderr (tail percentiles,
    /// per-configuration tables, self-check verdicts).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a failed output check, counting it into `failed`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, unreadable inputs, or a workload self-check
/// that no longer holds (the workload would measure something else
/// than what it was chosen for).
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    match workload {
        "iv_generate" => compute::run(compute::Kind::IvGenerate, seed, seconds, trace),
        "mesh_screen" => compute::run(compute::Kind::MeshScreen, seed, seconds, trace),
        "ota_rescue" => compute::run(compute::Kind::OtaRescue, seed, seconds, trace),
        "serve_mixed" => serve_mixed::run(seed, seconds, trace),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Renders the result line: every end-to-end metric (`trace` off) or
/// every per-layer metric (`trace` on), each with its unit.
///
/// # Errors
///
/// A missing or non-finite end-to-end metric, or a non-finite
/// per-layer one.
pub fn render(result: &RunResult, trace: bool) -> Result<String, String> {
    let catalogue: Vec<(String, &str)> = if trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::with_capacity(catalogue.len());
    for (name, unit) in &catalogue {
        let value = match result.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted,
        result.failed,
        fields.join(", ")
    ))
}
