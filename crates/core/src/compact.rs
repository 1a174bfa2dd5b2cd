//! Test-set compaction — the paper's §4 collapse algorithm.
//!
//! The per-fault generation of §3 produces one test per fault (55 tests
//! for the IV-converter), which is proportional to the fault count and
//! therefore undesirable. The collapse algorithm exploits that optimized
//! tests cluster in each configuration's parameter space (Fig. 8): tests
//! in a group are replaced by their parameter *average*, and the
//! replacement is screened per member fault `f_x` with
//!
//! ```text
//! S_fx(T_c) ≤ S_fx(T_opt) + δ·(1 − S_fx(T_opt))
//! ```
//!
//! where δ bounds the acceptable percentile shift of `S_fx` toward the
//! insensitivity level 1. Members failing the screen keep their own
//! optimal test.

use crate::cache::NominalCache;
use crate::generate::{BestTest, GenerationReport};
use crate::sensitivity::Evaluator;
use crate::{AnalogMacro, CoreError, TestConfiguration};

/// Options for [`compact`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionOptions {
    /// δ: the maximal allowed fractional shift of `S_f` toward
    /// insensitivity (cost 1) caused by collapsing.
    pub delta: f64,
    /// Grouping radius in the normalized (unit-cube) parameter space of
    /// each configuration.
    pub radius: f64,
}

impl Default for CompactionOptions {
    fn default() -> Self {
        CompactionOptions { delta: 0.25, radius: 0.15 }
    }
}

/// A collapsed test: one configuration + parameter vector covering one or
/// more dictionary faults.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactTest {
    /// Configuration id.
    pub config_id: usize,
    /// Configuration name.
    pub config_name: String,
    /// The (averaged) test parameter values.
    pub params: Vec<f64>,
    /// Names of the faults this test covers.
    pub covered_faults: Vec<String>,
}

/// Outcome of a compaction run.
#[derive(Debug, Clone, Default)]
pub struct CompactionReport {
    /// The collapsed test set.
    pub tests: Vec<CompactTest>,
    /// Size of the input (one test per fault).
    pub original_count: usize,
    /// Number of group members ejected by the δ-screen (they appear as
    /// singleton tests in `tests`).
    pub screen_rejections: usize,
    /// δ used.
    pub delta: f64,
}

impl CompactionReport {
    /// Compaction ratio `original / collapsed` (≥ 1).
    pub fn ratio(&self) -> f64 {
        if self.tests.is_empty() {
            1.0
        } else {
            self.original_count as f64 / self.tests.len() as f64
        }
    }
}

/// Collapses a generation report's per-fault tests into a compact test
/// set (§4.1).
///
/// # Errors
///
/// [`CoreError::InvalidOptions`] for non-positive radius or a δ outside
/// `[0, 1)`; simulation errors from the screen evaluations propagate.
pub fn compact(
    macro_def: &dyn AnalogMacro,
    cache: &NominalCache,
    report: &GenerationReport,
    options: &CompactionOptions,
) -> Result<CompactionReport, CoreError> {
    if !(options.delta >= 0.0 && options.delta < 1.0) {
        return Err(CoreError::InvalidOptions {
            reason: format!("delta must be in [0, 1), got {}", options.delta),
        });
    }
    if options.radius <= 0.0 || options.radius.is_nan() {
        return Err(CoreError::InvalidOptions {
            reason: format!("radius must be positive, got {}", options.radius),
        });
    }

    let nominal = macro_def.nominal_circuit();
    let configs = macro_def.configurations();
    let mut out = CompactionReport {
        original_count: report.tests.len(),
        delta: options.delta,
        ..Default::default()
    };

    for config in &configs {
        let tests: Vec<&BestTest> =
            report.tests.iter().filter(|t| t.config_id == config.id()).collect();
        if tests.is_empty() {
            continue;
        }
        let clusters = cluster(config.as_ref(), &tests, options.radius);
        let ev = Evaluator::new(config.as_ref(), &nominal, cache);

        for cluster_members in clusters {
            collapse_cluster(
                &ev,
                config.as_ref(),
                &tests,
                cluster_members,
                options,
                &mut out,
            )?;
        }
    }
    // Deterministic output order: by configuration, then by first
    // covered fault name.
    out.tests.sort_by(|a, b| {
        (a.config_id, a.covered_faults.first()).cmp(&(b.config_id, b.covered_faults.first()))
    });
    Ok(out)
}

/// Greedy radius clustering in normalized parameter space. Returns
/// clusters as index lists into `tests`.
fn cluster(
    config: &dyn TestConfiguration,
    tests: &[&BestTest],
    radius: f64,
) -> Vec<Vec<usize>> {
    let space = config.space();
    let points: Vec<Vec<f64>> = tests.iter().map(|t| space.normalize(&t.params)).collect();
    let mut clusters: Vec<(Vec<f64>, Vec<usize>)> = Vec::new(); // (centroid, members)
    for (i, p) in points.iter().enumerate() {
        let found = clusters.iter_mut().find(|(centroid, _)| dist(centroid, p) <= radius);
        match found {
            Some((centroid, members)) => {
                members.push(i);
                // Incremental centroid update.
                let k = members.len() as f64;
                for (c, x) in centroid.iter_mut().zip(p) {
                    *c += (x - *c) / k;
                }
            }
            None => clusters.push((p.clone(), vec![i])),
        }
    }
    clusters.into_iter().map(|(_, members)| members).collect()
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// Collapses one cluster: averages parameters, screens every member,
/// ejects members that fail, and emits the resulting tests.
fn collapse_cluster(
    ev: &Evaluator<'_>,
    config: &dyn TestConfiguration,
    tests: &[&BestTest],
    members: Vec<usize>,
    options: &CompactionOptions,
    out: &mut CompactionReport,
) -> Result<(), CoreError> {
    if members.len() == 1 {
        let t = tests[members[0]];
        out.tests.push(CompactTest {
            config_id: config.id(),
            config_name: config.name().to_string(),
            params: t.params.clone(),
            covered_faults: vec![t.fault.name()],
        });
        return Ok(());
    }

    let mut survivors = members;
    loop {
        // Centroid in physical parameter space.
        let dim = config.space().dim();
        let mut centroid = vec![0.0; dim];
        for &m in &survivors {
            for (c, p) in centroid.iter_mut().zip(&tests[m].params) {
                *c += p;
            }
        }
        for c in &mut centroid {
            *c /= survivors.len() as f64;
        }
        let centroid = config.space().clamp(&centroid);

        // Screen every member at its dictionary impact.
        let mut kept = Vec::with_capacity(survivors.len());
        let mut ejected = Vec::new();
        for &m in &survivors {
            let t = tests[m];
            let circuit = ev.inject(&t.fault.with_impact_scale(1.0))?;
            let s_collapsed = ev.sensitivity_of(&circuit, &centroid)?;
            let s_opt = t.sensitivity_at_dictionary;
            if s_collapsed <= s_opt + options.delta * (1.0 - s_opt) {
                kept.push(m);
            } else {
                ejected.push(m);
            }
        }

        if ejected.is_empty() || kept.len() <= 1 {
            // Emit the collapsed test for the kept members (or, if the
            // screen scattered everyone, emit them all as singletons).
            if kept.len() >= 2 {
                out.tests.push(CompactTest {
                    config_id: config.id(),
                    config_name: config.name().to_string(),
                    params: centroid,
                    covered_faults: kept.iter().map(|&m| tests[m].fault.name()).collect(),
                });
            } else {
                for &m in &kept {
                    out.tests.push(singleton(config, tests[m]));
                }
            }
            out.screen_rejections += ejected.len();
            for &m in &ejected {
                out.tests.push(singleton(config, tests[m]));
            }
            return Ok(());
        }
        // Some members were ejected: re-center on the survivors and
        // re-screen (one-shot convergence is typical; the loop is bounded
        // because the survivor set strictly shrinks).
        out.screen_rejections += ejected.len();
        for &m in &ejected {
            out.tests.push(singleton(config, tests[m]));
        }
        survivors = kept;
    }
}

fn singleton(config: &dyn TestConfiguration, t: &BestTest) -> CompactTest {
    CompactTest {
        config_id: config.id(),
        config_name: config.name().to_string(),
        params: t.params.clone(),
        covered_faults: vec![t.fault.name()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::tests::quick_options;
    use crate::generate::Generator;
    use crate::synthetic::DividerMacro;

    fn generation() -> (DividerMacro, NominalCache, GenerationReport) {
        let mac = DividerMacro::new();
        let cache = NominalCache::new();
        let report =
            Generator::with_options(&mac, &cache, quick_options()).generate(&mac.fault_dictionary());
        (mac, cache, report)
    }

    #[test]
    fn compaction_never_grows_the_set_and_covers_every_fault() {
        let (mac, cache, report) = generation();
        let comp = compact(&mac, &cache, &report, &CompactionOptions::default()).unwrap();
        assert!(comp.tests.len() <= report.tests.len());
        assert!(comp.ratio() >= 1.0);
        let covered: usize = comp.tests.iter().map(|t| t.covered_faults.len()).sum();
        assert_eq!(covered, report.tests.len(), "every fault appears exactly once");
    }

    #[test]
    fn zero_delta_is_strictest() {
        let (mac, cache, report) = generation();
        let strict = compact(
            &mac,
            &cache,
            &report,
            &CompactionOptions { delta: 0.0, ..CompactionOptions::default() },
        )
        .unwrap();
        let loose = compact(
            &mac,
            &cache,
            &report,
            &CompactionOptions { delta: 1.0, ..CompactionOptions::default() },
        )
        .unwrap_err();
        // delta must be strictly below 1.
        assert!(matches!(loose, CoreError::InvalidOptions { .. }));
        let relaxed = compact(
            &mac,
            &cache,
            &report,
            &CompactionOptions { delta: 0.5, ..CompactionOptions::default() },
        )
        .unwrap();
        assert!(strict.tests.len() >= relaxed.tests.len());
    }

    #[test]
    fn options_are_validated() {
        let (mac, cache, report) = generation();
        assert!(compact(
            &mac,
            &cache,
            &report,
            &CompactionOptions { delta: -0.1, ..CompactionOptions::default() }
        )
        .is_err());
        assert!(compact(
            &mac,
            &cache,
            &report,
            &CompactionOptions { radius: 0.0, ..CompactionOptions::default() }
        )
        .is_err());
    }

    #[test]
    fn large_radius_forces_grouping_screen_still_protects() {
        let (mac, cache, report) = generation();
        let comp = compact(&mac, &cache, &report, &CompactionOptions { radius: 10.0, delta: 0.3 })
            .unwrap();
        // With an all-encompassing radius, groups form per config; the
        // screen may eject members but coverage accounting must hold.
        let covered: usize = comp.tests.iter().map(|t| t.covered_faults.len()).sum();
        assert_eq!(covered, report.tests.len());
    }
}
