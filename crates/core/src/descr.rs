//! Textual test-configuration descriptions (the paper's Fig. 1).
//!
//! The paper expresses test configurations as structured text naming the
//! controlled and observed nodes, the waveform templates, the return
//! value, and the attached parameters/variables, so that a test
//! engineer's work is reusable across macros of a type. This module
//! provides that exchange format: a [`ConfigDescription`] data structure,
//! a line-oriented parser ([`ConfigDescription::parse`]), and a
//! serializer (`Display`) that round-trips.
//!
//! ```text
//! macro type: IV-converter
//! test configuration: Step response 1
//! control Iin: step(base, elev, slew_rate=sl)
//! observe Vout: sample(rate=sa, time=t)
//! return: acc(dV(Vout))
//! parameter base: -2e-5 .. 2e-5
//! parameter elev: -4e-5 .. 4e-5
//! variable sl: 1e-8
//! seed base: 0
//! seed elev: 2e-5
//! ```

use std::fmt;

use crate::CoreError;

/// An action applied at (or observed from) a named node, with a template
/// expression such as `step(base, elev, slew_rate=sl)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PortAction {
    /// Standardized node name (e.g. `Iin`, `Vout`).
    pub node: String,
    /// Waveform or measurement template text.
    pub action: String,
}

/// A named test parameter with its constraint interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name (e.g. `base`).
    pub name: String,
    /// Lower constraint value.
    pub lo: f64,
    /// Upper constraint value.
    pub hi: f64,
}

/// A structured test-configuration description (Fig. 1 of the paper).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConfigDescription {
    /// The macro type sharing this description (e.g. `IV-converter`).
    pub macro_type: String,
    /// Title of the configuration (e.g. `Step response 1`).
    pub title: String,
    /// Controlled nodes with their stimulus templates.
    pub controls: Vec<PortAction>,
    /// Observed nodes with their measurement templates.
    pub observes: Vec<PortAction>,
    /// Return-value expression (e.g. `Max(dV(Vout))`).
    pub return_value: String,
    /// Attached test parameters with constraint values.
    pub parameters: Vec<ParamSpec>,
    /// Fixed variables (sample rates, test times, slew rates).
    pub variables: Vec<(String, f64)>,
    /// Seed parameter values, by parameter name.
    pub seed: Vec<(String, f64)>,
}

impl ConfigDescription {
    /// Parses the textual format shown in the module documentation.
    ///
    /// Blank lines and lines starting with `#` are ignored. Keys are
    /// case-insensitive. `parameter` lines use `name: lo .. hi`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Parse`] with a 1-based line number for malformed
    /// lines, unknown keys, duplicate parameters, seeds naming unknown
    /// parameters, or inverted intervals.
    pub fn parse(text: &str) -> Result<Self, CoreError> {
        let mut d = ConfigDescription::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once(':').ok_or_else(|| CoreError::Parse {
                line: line_no,
                reason: format!("expected `key: value`, got `{line}`"),
            })?;
            let key = key.trim();
            // Only the keyword is case-insensitive; names (second token)
            // keep their case — node names are standardized identifiers.
            let keyword = key.split_whitespace().next().unwrap_or("").to_ascii_lowercase();
            let value = value.trim().to_string();
            let err = |reason: String| CoreError::Parse { line: line_no, reason };
            // Numbers must be finite: a NaN or infinite bound, variable
            // or seed would reach the optimizer and the simulator
            // unchecked (a NaN `reltol` makes every Newton solve
            // "converge" after one iteration).
            let number = |text: &str, what: &str| {
                text.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| err(format!("bad {what} `{text}` (expected a finite number)")))
            };

            match keyword.as_str() {
                "macro" => d.macro_type = value,
                "test" => d.title = value,
                "return" => d.return_value = value,
                "control" | "observe" => {
                    let node = key
                        .split_whitespace()
                        .nth(1)
                        .ok_or_else(|| err("missing node name".to_string()))?
                        .to_string();
                    let pa = PortAction { node, action: value };
                    if keyword == "control" {
                        d.controls.push(pa);
                    } else {
                        d.observes.push(pa);
                    }
                }
                "parameter" => {
                    let name = key
                        .split_whitespace()
                        .nth(1)
                        .ok_or_else(|| err("missing parameter name".to_string()))?
                        .to_string();
                    if d.parameters.iter().any(|p| p.name == name) {
                        return Err(err(format!("duplicate parameter `{name}`")));
                    }
                    let (lo, hi) = value
                        .split_once("..")
                        .ok_or_else(|| err(format!("expected `lo .. hi`, got `{value}`")))?;
                    let lo = number(lo.trim(), "lower bound")?;
                    let hi = number(hi.trim(), "upper bound")?;
                    if lo > hi {
                        return Err(err(format!("inverted interval {lo} .. {hi}")));
                    }
                    d.parameters.push(ParamSpec { name, lo, hi });
                }
                "variable" => {
                    let name = key
                        .split_whitespace()
                        .nth(1)
                        .ok_or_else(|| err("missing variable name".to_string()))?
                        .to_string();
                    let v = number(&value, "value")?;
                    d.variables.push((name, v));
                }
                "seed" => {
                    let name = key
                        .split_whitespace()
                        .nth(1)
                        .ok_or_else(|| err("missing seed parameter name".to_string()))?
                        .to_string();
                    if !d.parameters.iter().any(|p| p.name == name) {
                        return Err(err(format!("seed names unknown parameter `{name}`")));
                    }
                    let v = number(&value, "value")?;
                    d.seed.push((name, v));
                }
                other => return Err(err(format!("unknown key `{other}`"))),
            }
        }
        Ok(d)
    }

    /// The seed as a vector ordered like [`ConfigDescription::parameters`]
    /// (missing entries default to the interval midpoint).
    pub fn seed_vector(&self) -> Vec<f64> {
        self.parameters
            .iter()
            .map(|p| {
                self.seed
                    .iter()
                    .find(|(n, _)| n == &p.name)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.5 * (p.lo + p.hi))
            })
            .collect()
    }
}

impl fmt::Display for ConfigDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "macro type: {}", self.macro_type)?;
        writeln!(f, "test configuration: {}", self.title)?;
        for c in &self.controls {
            writeln!(f, "control {}: {}", c.node, c.action)?;
        }
        for o in &self.observes {
            writeln!(f, "observe {}: {}", o.node, o.action)?;
        }
        writeln!(f, "return: {}", self.return_value)?;
        for p in &self.parameters {
            writeln!(f, "parameter {}: {:e} .. {:e}", p.name, p.lo, p.hi)?;
        }
        for (n, v) in &self.variables {
            writeln!(f, "variable {n}: {v:e}")?;
        }
        for (n, v) in &self.seed {
            writeln!(f, "seed {n}: {v:e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "\
# The paper's Fig. 1, in this crate's textual form.
macro type: IV-converter
test configuration: Step response 1
control Iin: step(base, elev, slew_rate=sl)
observe Vout: sample(rate=sa, time=t)
return: acc(dV(Vout))
parameter base: -2e-5 .. 2e-5
parameter elev: -4e-5 .. 4e-5
variable sl: 1e-8
variable sa: 1e8
variable t: 7.5e-6
seed base: 0
seed elev: 2e-5
";

    #[test]
    fn parses_the_fig1_example() {
        let d = ConfigDescription::parse(EXAMPLE).unwrap();
        assert_eq!(d.macro_type, "IV-converter");
        assert_eq!(d.title, "Step response 1");
        assert_eq!(d.controls.len(), 1);
        assert_eq!(d.controls[0].node, "Iin"); // names keep their case
        assert_eq!(d.observes[0].action, "sample(rate=sa, time=t)");
        assert_eq!(d.return_value, "acc(dV(Vout))");
        assert_eq!(d.parameters.len(), 2);
        assert_eq!(d.parameters[1].hi, 4e-5);
        assert_eq!(d.variables.len(), 3);
        assert_eq!(d.seed_vector(), vec![0.0, 2e-5]);
    }

    #[test]
    fn roundtrips_through_display() {
        let d = ConfigDescription::parse(EXAMPLE).unwrap();
        let text = d.to_string();
        let d2 = ConfigDescription::parse(&text).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn seed_defaults_to_midpoint() {
        let d = ConfigDescription::parse(
            "macro type: X\ntest configuration: T\nreturn: y\nparameter a: 0 .. 10\n",
        )
        .unwrap();
        assert_eq!(d.seed_vector(), vec![5.0]);
    }

    #[test]
    fn rejects_malformed_lines() {
        let bad = [
            ("no colon here", "expected"),
            ("parameter: 0 .. 1", "missing parameter name"),
            ("parameter a: 0", "expected `lo .. hi`"),
            ("parameter a: 5 .. 1", "inverted"),
            ("variable v: abc", "bad value"),
            ("bogus key: 1", "unknown key"),
            ("seed q: 1", "unknown parameter"),
        ];
        for (text, needle) in bad {
            let err = ConfigDescription::parse(text).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "`{text}` → `{msg}` (wanted `{needle}`)");
            assert!(msg.contains("line 1"), "line number missing in `{msg}`");
        }
    }

    /// Regression: `nan` and `inf` used to parse as bounds, variables
    /// and seeds, and a NaN `reltol` reached the transient unchecked.
    #[test]
    fn rejects_non_finite_numbers() {
        let bad = [
            ("parameter lev: 0 .. nan", 1),
            ("parameter lev: -inf .. 0", 1),
            ("variable reltol: nan", 1),
            ("variable t: inf", 1),
            ("parameter a: 0 .. 1\nseed a: NaN", 2),
        ];
        for (text, line) in bad {
            let msg = ConfigDescription::parse(text).unwrap_err().to_string();
            assert!(msg.contains("finite"), "`{text}` → `{msg}`");
            assert!(msg.contains(&format!("line {line}")), "line number missing in `{msg}`");
        }
    }

    #[test]
    fn duplicate_parameter_rejected() {
        let text = "parameter a: 0 .. 1\nparameter a: 0 .. 2\n";
        let err = ConfigDescription::parse(text).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let d = ConfigDescription::parse("\n# comment\nreturn: x\n\n").unwrap();
        assert_eq!(d.return_value, "x");
    }
}
