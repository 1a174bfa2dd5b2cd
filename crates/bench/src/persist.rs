//! CSV persistence of a [`GenerationReport`] so the expensive 55-fault
//! run is shared by all downstream experiments.

use std::collections::HashSet;
use std::path::Path;

use castg_core::{BestTest, GenerationReport};
use castg_faults::FaultDictionary;

const HEADER: &str = "fault,config_id,config_name,params,s_dict,detected,critical_scale,\
                      required_intensify,evaluations";

/// Serializes the per-fault best tests to CSV.
pub fn save_generation(path: &Path, report: &GenerationReport) {
    let mut out = String::from(HEADER);
    out.push('\n');
    for t in &report.tests {
        let params =
            t.params.iter().map(|p| format!("{p:e}")).collect::<Vec<_>>().join(";");
        out.push_str(&format!(
            "{},{},{},{},{:e},{},{:e},{},{}\n",
            t.fault.name(),
            t.config_id,
            t.config_name,
            params,
            t.sensitivity_at_dictionary,
            t.detected_at_dictionary,
            t.critical_scale,
            t.required_intensify,
            t.evaluations
        ));
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: could not persist generation report to {}: {e}", path.display());
    }
}

/// Loads a generation report saved by [`save_generation`], resolving
/// each row's fault by name in `dictionary`. Returns `None` when the
/// file is absent or malformed, or when its rows do not name every
/// dictionary fault exactly once (a truncated file, or one from another
/// dictionary); callers then re-run the generation.
pub fn load_generation(path: &Path, dictionary: &FaultDictionary) -> Option<GenerationReport> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()?.trim() != HEADER {
        return None;
    }
    let mut report = GenerationReport::default();
    let mut seen = HashSet::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        // Fault names contain commas (`bridge(a,b)`), so split the eight
        // trailing comma-free fields from the right; the remainder is
        // the fault name.
        let mut cols: Vec<&str> = line.rsplitn(9, ',').collect();
        if cols.len() != 9 {
            return None;
        }
        cols.reverse();
        if !seen.insert(cols[0]) {
            return None;
        }
        let fault = dictionary.by_name(cols[0])?.clone();
        let params: Vec<f64> =
            cols[3].split(';').map(|p| p.parse().ok()).collect::<Option<Vec<f64>>>()?;
        report.tests.push(BestTest {
            fault,
            config_id: cols[1].parse().ok()?,
            config_name: cols[2].to_string(),
            params,
            sensitivity_at_dictionary: cols[4].parse().ok()?,
            detected_at_dictionary: cols[5].parse().ok()?,
            critical_scale: cols[6].parse().ok()?,
            required_intensify: cols[7].parse().ok()?,
            evaluations: cols[8].parse().ok()?,
        });
    }
    (seen.len() == dictionary.len()).then_some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use castg_faults::Fault;

    fn sample_report() -> GenerationReport {
        GenerationReport {
            tests: vec![
                BestTest {
                    fault: Fault::bridge("out", "inn", 10e3),
                    config_id: 3,
                    config_name: "thd".into(),
                    params: vec![4e-5, 2.5e4],
                    sensitivity_at_dictionary: -12.5,
                    detected_at_dictionary: true,
                    critical_scale: 42.0,
                    required_intensify: false,
                    evaluations: 123,
                },
                BestTest {
                    fault: Fault::pinhole("M6", 2e3),
                    config_id: 1,
                    config_name: "dc_transfer".into(),
                    params: vec![-4e-5],
                    sensitivity_at_dictionary: 0.25,
                    detected_at_dictionary: false,
                    critical_scale: 0.4,
                    required_intensify: true,
                    evaluations: 99,
                },
            ],
            ..Default::default()
        }
    }

    fn sample_dictionary() -> FaultDictionary {
        sample_report().tests.into_iter().map(|t| t.fault).collect()
    }

    /// Saves the sample report to a per-test file, lets `edit` rewrite
    /// its text, and loads it back against `dictionary`.
    fn load_edited(
        file: &str,
        dictionary: &FaultDictionary,
        edit: impl FnOnce(String) -> String,
    ) -> Option<GenerationReport> {
        let dir = std::env::temp_dir().join("castg_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        save_generation(&path, &sample_report());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, edit(text)).unwrap();
        let loaded = load_generation(&path, dictionary);
        let _ = std::fs::remove_file(&path);
        loaded
    }

    #[test]
    fn roundtrip_through_csv() {
        let report = sample_report();
        let dictionary = sample_dictionary();
        let loaded = load_edited("roundtrip.csv", &dictionary, |t| t).expect("must load back");
        assert_eq!(loaded.tests.len(), 2);
        for (a, b) in report.tests.iter().zip(&loaded.tests) {
            assert_eq!(a.fault, b.fault);
            assert_eq!(a.config_id, b.config_id);
            assert_eq!(a.params, b.params);
            assert_eq!(a.detected_at_dictionary, b.detected_at_dictionary);
            assert_eq!(a.required_intensify, b.required_intensify);
            assert!((a.critical_scale - b.critical_scale).abs() < 1e-12);
        }
    }

    #[test]
    fn truncated_file_loads_none() {
        let dictionary = sample_dictionary();
        let drop_last_row = |t: String| {
            let mut lines: Vec<&str> = t.lines().collect();
            lines.pop();
            lines.join("\n") + "\n"
        };
        assert!(load_edited("truncated.csv", &dictionary, drop_last_row).is_none());
    }

    #[test]
    fn foreign_or_duplicated_fault_names_load_none() {
        let dictionary = sample_dictionary();
        let foreign = |t: String| t.replace("pinhole(M6)", "pinhole(M7)");
        assert!(load_edited("foreign.csv", &dictionary, foreign).is_none());
        let duplicated = |t: String| {
            let row = t.lines().nth(1).unwrap().to_string();
            format!("{t}{row}\n")
        };
        assert!(load_edited("duplicated.csv", &dictionary, duplicated).is_none());
        // A file from a smaller dictionary does not cover this one.
        let mut larger = sample_dictionary();
        larger.extend([Fault::bridge("out", "vdd", 10e3)]);
        assert!(load_edited("smaller.csv", &larger, |t| t).is_none());
    }

    #[test]
    fn missing_file_loads_none() {
        let dictionary = sample_dictionary();
        assert!(load_generation(Path::new("/nonexistent/gen.csv"), &dictionary).is_none());
    }
}
