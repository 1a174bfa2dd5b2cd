//! Plain-text table rendering and CSV helpers for the experiment
//! regeneration binaries, plus the two renderings of a
//! [`PipelineRun`]: the canonical byte-stable text report
//! ([`render_pipeline_report`]) and the JSON summary
//! ([`render_json_report`]).

use std::fmt::Write as _;

use crate::PipelineRun;

/// Renders a float with full, stable precision (used by the pipeline
/// report so fixtures are byte-stable across platforms).
fn full_num(v: f64) -> String {
    format!("{v:.12e}")
}

fn params_str(params: &[f64]) -> String {
    params.iter().map(|p| full_num(*p)).collect::<Vec<_>>().join(";")
}

/// Canonical text rendering of one macro's full pipeline outcome:
/// selected per-fault tests, compaction order, and coverage.
///
/// The pipeline is deterministic (fixed seeds, deterministic
/// optimizers, order-stable parallel fan-out), so this rendering is
/// byte-stable: the golden fixtures under `tests/golden/` pin it, and
/// the `castg` CLI emits it for parsed-netlist macros.
pub fn render_pipeline_report(macro_name: &str, run: &PipelineRun) -> String {
    let PipelineRun { generation, compaction, coverage, .. } = run;
    let mut out = String::new();
    let _ = writeln!(out, "golden report: {macro_name}");
    let _ = writeln!(out, "== selected tests ({}) ==", generation.tests.len());
    for t in &generation.tests {
        let _ = writeln!(
            out,
            "{} -> config {} ({}) params [{}] s_dict {} detected {}",
            t.fault.name(),
            t.config_id,
            t.config_name,
            params_str(&t.params),
            full_num(t.sensitivity_at_dictionary),
            t.detected_at_dictionary,
        );
    }
    let _ = writeln!(
        out,
        "== compaction order ({} from {}) ==",
        compaction.tests.len(),
        compaction.original_count
    );
    for (i, t) in compaction.tests.iter().enumerate() {
        let _ = writeln!(
            out,
            "#{i}: config {} ({}) params [{}] covers [{}]",
            t.config_id,
            t.config_name,
            params_str(&t.params),
            t.covered_faults.join(", "),
        );
    }
    let _ = writeln!(out, "== coverage {}/{} ==", coverage.detected(), coverage.total());
    for f in &coverage.per_fault {
        let _ = writeln!(
            out,
            "{}: best_test {} s {} detected {} outcome {}",
            f.fault,
            f.best_test,
            full_num(f.best_sensitivity),
            f.detected,
            f.outcome,
        );
    }
    let tally = coverage.tally();
    let _ = writeln!(out, "== outcomes ==");
    let _ = writeln!(
        out,
        "detected {} undetected {} unconverged {} singular {} timed_out {} panicked {} \
         injection_failed {}",
        tally.detected,
        tally.undetected,
        tally.unconverged,
        tally.singular,
        tally.timed_out,
        tally.panicked,
        tally.injection_failed,
    );
    let ladder = &coverage.ladder;
    let _ = writeln!(out, "== newton ladder (faulted solves) ==");
    let _ = writeln!(
        out,
        "solves {} iterations {} | plain {} damped {} gmin-stepping {} source-stepping {} \
         pseudo-transient {} unconverged {}",
        ladder.solves(),
        ladder.iterations,
        ladder.plain,
        ladder.damped,
        ladder.gmin_stepping,
        ladder.source_stepping,
        ladder.pseudo_transient,
        ladder.unconverged,
    );
    out
}

/// Escapes a string for inclusion in a JSON string literal (names come
/// from user-authored decks and config files, which admit quotes,
/// backslashes and control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Canonical machine-readable rendering of one macro's pipeline
/// outcome: the JSON summary `castg generate --json` writes and the
/// body `castg serve` returns for `POST /v1/campaign`. One shape,
/// shared by both producers and pinned byte-for-byte by the
/// `tests/golden/json_report.json` fixture (the run's timings excepted —
/// they are wall-clock, reported verbatim, and zeroed in the golden
/// run). `threads` is the worker count the producer ran with.
pub fn render_json_report(
    macro_name: &str,
    macro_type: &str,
    threads: usize,
    run: &PipelineRun,
) -> String {
    let PipelineRun { compaction, tests, coverage, timings, .. } = run;
    let faults = coverage.total();
    let tally = coverage.tally();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"macro\": \"{}\",", json_escape(macro_name));
    let _ = writeln!(s, "  \"macro_type\": \"{}\",", json_escape(macro_type));
    let _ = writeln!(s, "  \"faults\": {faults},");
    let _ = writeln!(s, "  \"detected\": {},", coverage.detected());
    let _ = writeln!(s, "  \"tests\": {},", tests.len());
    let _ = writeln!(s, "  \"original_tests\": {},", compaction.original_count);
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(s, "  \"generate_s\": {:.6},", timings.generate_s);
    let _ = writeln!(s, "  \"compact_s\": {:.6},", timings.compact_s);
    let _ = writeln!(s, "  \"evaluate_s\": {:.6},", timings.evaluate_s);
    let faults_per_s = if timings.evaluate_s > 0.0 {
        faults as f64 / timings.evaluate_s
    } else {
        0.0
    };
    let _ = writeln!(s, "  \"faults_per_s\": {faults_per_s:.3},");
    let _ = writeln!(
        s,
        "  \"outcomes\": {{\"detected\": {}, \"undetected\": {}, \"unconverged\": {}, \
         \"singular\": {}, \"timed_out\": {}, \"panicked\": {}, \"injection_failed\": {}}},",
        tally.detected,
        tally.undetected,
        tally.unconverged,
        tally.singular,
        tally.timed_out,
        tally.panicked,
        tally.injection_failed,
    );
    let ladder = &coverage.ladder;
    let _ = writeln!(
        s,
        "  \"convergence_stats\": {{\"solves\": {}, \"iterations\": {}, \"plain\": {}, \
         \"damped\": {}, \"gmin_stepping\": {}, \"source_stepping\": {}, \
         \"pseudo_transient\": {}, \"unconverged\": {}}},",
        ladder.solves(),
        ladder.iterations,
        ladder.plain,
        ladder.damped,
        ladder.gmin_stepping,
        ladder.source_stepping,
        ladder.pseudo_transient,
        ladder.unconverged,
    );
    let _ = writeln!(s, "  \"per_fault\": [");
    for (i, f) in coverage.per_fault.iter().enumerate() {
        let comma = if i + 1 < coverage.per_fault.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"fault\": \"{}\", \"detected\": {}, \"best_test\": {}, \
             \"best_sensitivity\": {:e}, \"outcome\": \"{}\"}}{comma}",
            json_escape(&f.fault),
            f.detected,
            f.best_test,
            f.best_sensitivity,
            json_escape(&f.outcome.to_string()),
        );
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

/// A simple column-aligned text table with an optional markdown
/// rendering; used by the benchmark harness to print the paper's tables.
///
/// # Example
///
/// ```
/// use castg_core::report::TextTable;
///
/// let mut t = TextTable::new(vec!["config".into(), "bridge".into()]);
/// t.push_row(vec!["#1".into(), "22".into()]);
/// let s = t.render();
/// assert!(s.contains("config"));
/// assert!(s.contains("22"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        TextTable { headers, rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header count.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity must match headers");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (wi, cell) in w.iter_mut().zip(row) {
                *wi = (*wi).max(cell.len());
            }
        }
        w
    }

    /// Renders with space-aligned columns and a separator rule.
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, (cell, wi)) in cells.iter().zip(&w).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<wi$}");
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let rule: usize = w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders as CSV (cells containing commas/quotes/newlines are
    /// quoted and escaped).
    pub fn csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(out, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// Formats a float for tables: engineering-friendly short form.
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if (1e-3..1e6).contains(&a) {
        if a >= 100.0 {
            format!("{v:.1}")
        } else {
            format!("{v:.4}")
        }
    } else {
        format!("{v:.3e}")
    }
}

/// Formats a value in SI units with the given suffix (e.g. `fmt_si(2.2e-5,
/// "A")` → `"22.000 µA"`).
pub fn fmt_si(v: f64, unit: &str) -> String {
    const PREFIXES: &[(f64, &str)] = &[
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "µ"),
        (1e-9, "n"),
        (1e-12, "p"),
        (1e-15, "f"),
    ];
    if v == 0.0 {
        return format!("0 {unit}");
    }
    let a = v.abs();
    for (scale, prefix) in PREFIXES {
        if a >= *scale {
            return format!("{:.3} {}{}", v / scale, prefix, unit);
        }
    }
    format!("{v:.3e} {unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextTable {
        let mut t = TextTable::new(vec!["a".into(), "bb".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["333".into(), "4".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a  "));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("333"));
    }

    #[test]
    fn markdown_has_separator() {
        let md = sample().markdown();
        assert!(md.contains("| a | bb |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(vec!["x".into()]);
        t.push_row(vec!["a,b".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_enforced() {
        let mut t = TextTable::new(vec!["a".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn num_formatting() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(1234.5), "1234.5");
        assert!(fmt_num(3.2e-9).contains('e'));
        assert_eq!(fmt_num(1.5), "1.5000");
    }

    #[test]
    fn si_formatting() {
        assert_eq!(fmt_si(2.2e-5, "A"), "22.000 µA");
        assert_eq!(fmt_si(0.0, "V"), "0 V");
        assert_eq!(fmt_si(39e3, "Ω"), "39.000 kΩ");
        assert_eq!(fmt_si(-5e-10, "F"), "-500.000 pF");
    }

    #[test]
    fn len_and_is_empty() {
        assert!(TextTable::new(vec!["h".into()]).is_empty());
        assert_eq!(sample().len(), 2);
    }
}
