//! The selection-only baseline the paper argues against (§2.2).
//!
//! "It will be shown that test generation by using a fixed predefined set
//! of possible tests to select from … will not result in the most
//! sensitive test set." The fixed predefined set here is the *seed*
//! tests — one per configuration, as supplied by the designer — and the
//! baseline strategy merely selects the most sensitive seed per fault.
//! Comparing this against the tailored optimization quantifies the
//! paper's claim.

use castg_faults::FaultDictionary;

use crate::cache::NominalCache;
use crate::evaluate::{evaluate_campaign, CampaignOptions, CoverageReport, TestInstance};
use crate::generate::GenerationReport;
use crate::{AnalogMacro, CoreError};

/// The fixed predefined test set: every configuration at its seed
/// parameters.
pub fn seed_test_set(macro_def: &dyn AnalogMacro) -> Vec<TestInstance> {
    macro_def
        .configurations()
        .into_iter()
        .map(|config| {
            let params = config.space().clamp(&config.seed());
            TestInstance { config, params }
        })
        .collect()
}

/// Side-by-side coverage of the seed-selection baseline and an optimized
/// test set.
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Coverage achieved by the fixed seed set.
    pub baseline: CoverageReport,
    /// Coverage achieved by the optimized (generated) tests.
    pub optimized: CoverageReport,
}

impl BaselineComparison {
    /// Faults the optimized set detects that the baseline misses.
    pub fn gained(&self) -> Vec<&str> {
        self.baseline
            .per_fault
            .iter()
            .zip(&self.optimized.per_fault)
            .filter(|(b, o)| !b.detected && o.detected)
            .map(|(_, o)| o.fault.as_str())
            .collect()
    }

    /// Mean sensitivity improvement (baseline − optimized; positive means
    /// the optimized set has more detection margin).
    pub fn mean_margin_gain(&self) -> f64 {
        self.baseline.mean_best_sensitivity() - self.optimized.mean_best_sensitivity()
    }
}

/// Evaluates both the seed baseline and the generated per-fault tests
/// against the dictionary.
///
/// # Errors
///
/// Propagates simulation and injection failures from the underlying
/// coverage evaluations.
pub fn compare_with_baseline(
    macro_def: &dyn AnalogMacro,
    cache: &NominalCache,
    generated: &GenerationReport,
    dictionary: &FaultDictionary,
) -> Result<BaselineComparison, CoreError> {
    let campaign = CampaignOptions::default();
    let baseline_set = seed_test_set(macro_def);
    let baseline = evaluate_campaign(macro_def, cache, &baseline_set, dictionary, &campaign)?;

    let configs = macro_def.configurations();
    let optimized_set: Vec<TestInstance> = generated
        .tests
        .iter()
        .filter_map(|t| {
            configs.iter().find(|c| c.id() == t.config_id).map(|c| TestInstance {
                config: std::sync::Arc::clone(c),
                params: t.params.clone(),
            })
        })
        .collect();
    let optimized = evaluate_campaign(macro_def, cache, &optimized_set, dictionary, &campaign)?;

    Ok(BaselineComparison { baseline, optimized })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::tests::quick_options;
    use crate::generate::Generator;
    use crate::synthetic::DividerMacro;

    #[test]
    fn seed_set_has_one_test_per_config() {
        let mac = DividerMacro::new();
        let set = seed_test_set(&mac);
        assert_eq!(set.len(), mac.configurations().len());
        for t in &set {
            assert!(t.config.space().contains(&t.params));
        }
    }

    #[test]
    fn optimized_is_at_least_as_good_as_baseline() {
        let mac = DividerMacro::new();
        let cache = NominalCache::new();
        let dict = mac.fault_dictionary();
        let report =
            Generator::with_options(&mac, &cache, quick_options()).generate(&dict);
        let cmp = compare_with_baseline(&mac, &cache, &report, &dict).unwrap();
        assert!(cmp.optimized.detected() >= cmp.baseline.detected());
        // Optimization must not lose margin on this easy macro.
        assert!(
            cmp.optimized.mean_best_sensitivity()
                <= cmp.baseline.mean_best_sensitivity() + 1e-9
        );
        // gained() lists only faults missed by the baseline.
        for name in cmp.gained() {
            let b = cmp.baseline.per_fault.iter().find(|f| f.fault == name).unwrap();
            assert!(!b.detected);
        }
    }
}
