//! One function per paper artifact; `regen_all` runs them all in order.
//! The experiments built on the 55-fault generation take the report of
//! one [`generation`] run instead of running their own.

use castg_core::{
    compact, compare_with_baseline, evaluate_campaign, test_instances_from_compaction,
    tps_graph, tps_profile, AnalogMacro, CampaignOptions, CompactionOptions, Evaluator,
    GenerationReport, Generator, NominalCache,
};
use castg_core::report::{fmt_num, fmt_si, TextTable};
use castg_faults::Fault;
use castg_macros::ProcessVariation;

use crate::{iv_macro, write_result};

/// The fault of `mac`'s dictionary named `name`, at dictionary impact.
fn dictionary_fault(mac: &dyn AnalogMacro, name: &str) -> Fault {
    mac.fault_dictionary().by_name(name).expect("a dictionary fault").clone()
}

/// E1 / Fig. 1 — the textual test-configuration description, round-
/// tripped through the parser.
pub fn fig1_description() {
    println!("== Fig. 1: test configuration description (Step response 1) ==");
    let mac = iv_macro(false);
    let configs = mac.configurations();
    let step1 = configs.iter().find(|c| c.id() == 4).expect("config #4 exists");
    let description = step1.description();
    let text = description.to_string();
    println!("{text}");
    let parsed = castg_core::ConfigDescription::parse(&text).expect("round-trip parse");
    assert_eq!(parsed, description, "description must round-trip");
    let path = write_result("fig1_description.txt", &text);
    println!("round-trip parse: ok → {}", path.display());
}

/// E2–E4 / Figs. 2–4 — tps-graphs of the THD configuration for one
/// bridging fault at hard (10 kΩ) and soft (34 kΩ, 75 kΩ) impact.
///
/// The paper's fault sits "between two arbitrarily chosen nodes"; we use
/// `bridge(tail, out)` — strongly detected at the 10 kΩ dictionary
/// impact (hard region) and marginal at 34/75 kΩ, which reproduces the
/// paper's hard→soft contrast: the Fig.-2 scale is hundreds of |S| while
/// Figs. 3-4 sit in [-3, 1]. Returns the three grid minima for the
/// experiment log.
pub fn figs234_tps_graphs(nx: usize, ny: usize) -> Vec<(f64, f64, f64)> {
    println!("== Figs. 2-4: tps-graphs, THD configuration, bridge(tail,out) ==");
    let mac = iv_macro(false);
    let circuit = mac.nominal_circuit();
    let cache = NominalCache::new();
    let configs = mac.configurations();
    let thd = configs.iter().find(|c| c.id() == 3).expect("config #3 exists");
    let ev = Evaluator::new(thd.as_ref(), &circuit, &cache);

    let mut minima = Vec::new();
    for (fig, ohms) in [(2, 10e3), (3, 34e3), (4, 75e3)] {
        let fault = Fault::bridge("tail", "out", ohms);
        let graph = tps_graph(&ev, &fault, nx, ny).expect("2-parameter sweep");
        let ascii = graph.render_ascii();
        println!("--- Fig. {fig}: R = {} ---", fmt_si(ohms, "Ω"));
        println!("{ascii}");
        let (x, y, s) = graph.optimum().expect("non-empty grid");
        println!(
            "optimum: Iin_dc = {}, freq = {}, S = {:.3}; detecting fraction = {:.2}\n",
            fmt_si(x, "A"),
            fmt_si(y, "Hz"),
            s,
            graph.detecting_fraction()
        );
        write_result(&format!("fig{fig}_tps.csv"), &graph.to_csv());
        write_result(&format!("fig{fig}_tps.txt"), &ascii);
        minima.push((x, y, s));
    }
    println!(
        "soft-fault stability (paper §3.2): Fig.3 and Fig.4 optima should coincide: \
         {:?} vs {:?}",
        (minima[1].0, minima[1].1),
        (minima[2].0, minima[2].1)
    );
    minima
}

/// E5 / Fig. 5 — the tolerance box in a two-return-value space: nominal
/// returns, the box, one fault-free process sample (inside) and one
/// faulty response (outside).
pub fn fig5_tolerance_box() {
    println!("== Fig. 5: tolerance box around nominal return values ==");
    let mac = iv_macro(false);
    let circuit = mac.nominal_circuit();
    let cache = NominalCache::new();
    let configs = mac.configurations();
    // Two return values: ΔV(out) (config #1) and ΔI(VDD) (config #2) at
    // a shared DC level.
    let level = [20e-6];
    let mut rows = TextTable::new(vec![
        "response".into(),
        "r1 = dV(out) [V]".into(),
        "r2 = dI(VDD) [A]".into(),
        "inside box?".into(),
    ]);
    let (c1, c2) = (&configs[0], &configs[1]);
    let ev1 = Evaluator::new(c1.as_ref(), &circuit, &cache);
    let ev2 = Evaluator::new(c2.as_ref(), &circuit, &cache);
    let box1 = c1.tolerance_box(&level, &[0.0])[0];
    let box2 = c2.tolerance_box(&level, &[0.0])[0];
    println!("tolerance box half-widths: |r1| ≤ {box1:.4e} V, |r2| ≤ {box2:.4e} A");

    // Fault-free process sample → R(T)₁ (may come from a good macro).
    let process = ProcessVariation::default();
    let sample = process.sample(&circuit, 7);
    let nom1 = ev1.nominal(&level).expect("nominal measurement");
    let nom2 = ev2.nominal(&level).expect("nominal measurement");
    let m1 = c1.measure(&sample, &level).expect("sample measurement");
    let m2 = c2.measure(&sample, &level).expect("sample measurement");
    let r1 = c1.return_values(&m1, &nom1)[0];
    let r2 = c2.return_values(&m2, &nom2)[0];
    rows.push_row(vec![
        "R(T)_1: process sample (good macro)".into(),
        format!("{r1:.4e}"),
        format!("{r2:.4e}"),
        format!("{}", r1.abs() <= box1 && r2.abs() <= box2),
    ]);

    // Faulty response → R(T)₂ (only a faulty macro can produce it).
    let fault = Fault::bridge("na", "out", 10e3);
    let rep1 = ev1.evaluate(&fault, &level).expect("fault evaluation");
    let rep2 = ev2.evaluate(&fault, &level).expect("fault evaluation");
    let f1 = rep1.faulty_returns[0] - rep1.nominal_returns[0];
    let f2 = rep2.faulty_returns[0] - rep2.nominal_returns[0];
    rows.push_row(vec![
        "R(T)_2: faulty macro, bridge(na,out)".into(),
        format!("{f1:.4e}"),
        format!("{f2:.4e}"),
        format!("{}", f1.abs() <= box1 && f2.abs() <= box2),
    ]);
    rows.push_row(vec![
        "nominal".into(),
        "0".into(),
        "0".into(),
        "true".into(),
    ]);
    let rendered = rows.render();
    println!("{rendered}");
    write_result("fig5_tolerance_box.csv", &rows.csv());
    write_result("fig5_tolerance_box.txt", &rendered);
}

/// E6 / Fig. 6 — narrated single-fault generation (the algorithm trace).
pub fn fig6_trace() {
    println!("== Fig. 6: generation scheme trace for one dictionary fault ==");
    let mac = iv_macro(false);
    let cache = NominalCache::new();
    let generator = Generator::new(&mac, &cache);
    let fault = dictionary_fault(&mac, "bridge(na,out)");
    let mut lines = Vec::new();
    let best = generator
        .generate_for_fault_logged(&fault, &mut |line| {
            println!("{line}");
            lines.push(line);
        })
        .expect("generation succeeds");
    lines.push(format!(
        "result: config #{} {} at {:?}",
        best.config_id, best.config_name, best.params
    ));
    write_result("fig6_trace.txt", &lines.join("\n"));
}

/// E7 / Fig. 7 — the pinhole fault model: netlist before/after
/// injection.
pub fn fig7_pinhole() {
    println!("== Fig. 7: pinhole fault model (Eckersall), injected into M6 ==");
    let mac = iv_macro(false);
    let circuit = mac.nominal_circuit();
    let fault = dictionary_fault(&mac, "pinhole(M6)");
    let faulty = fault.inject(&circuit).expect("injection");
    let before: Vec<&str> = circuit.devices().iter().map(|d| d.name()).collect();
    let after: Vec<&str> = faulty.devices().iter().map(|d| d.name()).collect();
    let removed: Vec<&&str> = before.iter().filter(|n| !after.contains(n)).collect();
    let added: Vec<&&str> = after.iter().filter(|n| !before.contains(n)).collect();
    let mut out = String::new();
    out.push_str(&format!("fault: {fault}\n"));
    out.push_str(&format!("removed devices: {removed:?}\n"));
    out.push_str(&format!("added devices:   {added:?}\n"));
    out.push_str(&format!(
        "split node:      M6__ph (defect at {:.0} % of the channel from the drain)\n",
        castg_faults::PINHOLE_POSITION_FROM_DRAIN * 100.0
    ));
    println!("{out}");
    write_result("fig7_pinhole.txt", &out);
}

/// E8 / Table 1 — the five test-configuration definitions.
pub fn table1_configs() {
    println!("== Table 1: test configuration definitions (IV-converter) ==");
    let mac = iv_macro(false);
    let mut table = TextTable::new(vec![
        "#".into(),
        "name".into(),
        "stimulus at Iin".into(),
        "return value".into(),
        "parameters [bounds]".into(),
        "seed".into(),
    ]);
    let mut fig1_texts = String::new();
    for c in mac.configurations() {
        let d = c.description();
        let space = c.space();
        let params = c
            .param_names()
            .iter()
            .enumerate()
            .map(|(i, n)| {
                format!(
                    "{n} ∈ [{}, {}]",
                    fmt_num(space.bounds(i).lo()),
                    fmt_num(space.bounds(i).hi())
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        let seed = c
            .seed()
            .iter()
            .map(|v| fmt_num(*v))
            .collect::<Vec<_>>()
            .join(", ");
        table.push_row(vec![
            format!("#{}", c.id()),
            c.name().to_string(),
            d.controls[0].action.clone(),
            d.return_value.clone(),
            params,
            seed,
        ]);
        fig1_texts.push_str(&d.to_string());
        fig1_texts.push('\n');
    }
    let rendered = table.render();
    println!("{rendered}");
    write_result("table1_configs.txt", &rendered);
    write_result("table1_configs.csv", &table.csv());
    write_result("table1_descriptions.txt", &fig1_texts);
}

/// The 55-fault generation over `mac`'s whole dictionary, which Table 2,
/// Fig. 8, Table 3, the compaction sweep and the baseline ablation all
/// read. Writes its per-fault best tests to `results/generation.csv`.
pub fn generation(mac: &dyn AnalogMacro, cache: &NominalCache) -> GenerationReport {
    let dict = mac.fault_dictionary();
    println!("[generation] running the full fault dictionary ({} faults)...", dict.len());
    let report = Generator::new(mac, cache).generate(&dict);
    write_result("generation.csv", &generation_csv(&report));
    println!(
        "[generation] {} tests, {} failures, {} simulator evaluations, {:.1?}",
        report.tests.len(),
        report.failures.len(),
        report.total_evaluations(),
        report.wall_time
    );
    report
}

/// Renders the per-fault best tests as CSV, one row per test in
/// dictionary order. Fault names keep their commas (`bridge(a,b)`);
/// the eight fields after the name hold none.
pub fn generation_csv(report: &GenerationReport) -> String {
    let mut out = String::from(
        "fault,config_id,config_name,params,s_dict,detected,critical_scale,\
         required_intensify,evaluations\n",
    );
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
    out
}

/// E9 / Table 2 — distribution of best tests over configurations.
pub fn table2_distribution(report: &GenerationReport) {
    println!("== Table 2: best-test distribution over configurations ==");
    let mut table = TextTable::new(vec![
        "ID test configuration tc".into(),
        "bridge(45)".into(),
        "pinhole(10)".into(),
    ]);
    for row in report.distribution() {
        table.push_row(vec![
            format!("#{} {}", row.config_id, row.config_name),
            row.bridge.to_string(),
            row.pinhole.to_string(),
        ]);
    }
    let undetected = report.undetected();
    let rendered = table.render();
    println!("{rendered}");
    println!(
        "undetectable at dictionary impact (intensified per §2.2): {} ({:?})",
        undetected.len(),
        undetected.iter().map(|t| t.fault.name()).collect::<Vec<_>>()
    );
    write_result("table2_distribution.txt", &rendered);
    write_result("table2_distribution.csv", &table.csv());
}

/// E10 / Fig. 8 — optimal parameter values for configurations #1–#3,
/// with compaction group labels.
pub fn fig8_scatter(mac: &dyn AnalogMacro, cache: &NominalCache, report: &GenerationReport) {
    println!("== Fig. 8: optimal test parameter values (configs #1, #2, #3) ==");
    let compaction = compact(mac, cache, report, &CompactionOptions::default())
        .expect("compaction succeeds");

    let mut table = TextTable::new(vec![
        "config".into(),
        "fault".into(),
        "par1".into(),
        "par2".into(),
        "group".into(),
    ]);
    for cid in [1usize, 2, 3] {
        for t in report.tests_for_config(cid) {
            let group = compaction
                .tests
                .iter()
                .position(|ct| {
                    ct.config_id == cid && ct.covered_faults.contains(&t.fault.name())
                })
                .map(|g| format!("G{g}"))
                .unwrap_or_else(|| "-".into());
            table.push_row(vec![
                format!("#{cid}"),
                t.fault.name(),
                format!("{:.4e}", t.params[0]),
                t.params.get(1).map(|p| format!("{p:.4e}")).unwrap_or_else(|| "-".into()),
                group,
            ]);
        }
    }
    let rendered = table.render();
    println!("{rendered}");
    write_result("fig8_scatter.txt", &rendered);
    write_result("fig8_scatter.csv", &table.csv());
}

/// E11 / Table 3 — the tests defined by configuration #5.
pub fn table3_config5(report: &GenerationReport) {
    println!("== Table 3: tests selected from configuration #5 ==");
    let mut table = TextTable::new(vec![
        "fault".into(),
        "par1 = base [A]".into(),
        "par2 = elev [A]".into(),
        "S at dictionary impact".into(),
    ]);
    for t in report.tests_for_config(5) {
        table.push_row(vec![
            t.fault.name(),
            format!("{:.4e}", t.params[0]),
            format!("{:.4e}", t.params[1]),
            format!("{:.3}", t.sensitivity_at_dictionary),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    println!("(the paper's Table 3 lists exactly 2 such tests)");
    write_result("table3_config5.txt", &rendered);
    write_result("table3_config5.csv", &table.csv());
}

/// E12 / §4.2 — compaction sweep over δ: collapsed set size, screen
/// rejections, and coverage of the compacted set. It re-compacts the
/// one 55-fault generation per δ, so it calls the phases itself
/// instead of `castg_core::run_pipeline`.
pub fn compaction_sweep(mac: &dyn AnalogMacro, cache: &NominalCache, report: &GenerationReport) {
    println!("== §4.2: test-set collapse vs. δ ==");
    let dict = mac.fault_dictionary();
    let mut table = TextTable::new(vec![
        "delta".into(),
        "tests".into(),
        "ratio".into(),
        "screen rejections".into(),
        "fault coverage of compacted set".into(),
    ]);
    for delta in [0.0, 0.1, 0.25, 0.5] {
        let options = CompactionOptions { delta, ..CompactionOptions::default() };
        let compaction = compact(mac, cache, report, &options).expect("compaction");
        let tests =
            test_instances_from_compaction(mac, &compaction).expect("instances resolve");
        let coverage = evaluate_campaign(mac, cache, &tests, &dict, &CampaignOptions::default())
            .expect("coverage");
        table.push_row(vec![
            format!("{delta:.2}"),
            compaction.tests.len().to_string(),
            format!("{:.1}x", compaction.ratio()),
            compaction.screen_rejections.to_string(),
            format!("{}/{} ({:.1} %)", coverage.detected(), coverage.total(),
                100.0 * coverage.coverage()),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    write_result("compaction_sweep.txt", &rendered);
    write_result("compaction_sweep.csv", &table.csv());
}

/// E13 / §2.2 — the fixed-seed selection baseline vs. tailored
/// optimization.
pub fn baseline_ablation(mac: &dyn AnalogMacro, cache: &NominalCache, report: &GenerationReport) {
    println!("== §2.2 ablation: seed-selection baseline vs. optimized generation ==");
    let dict = mac.fault_dictionary();
    let cmp = compare_with_baseline(mac, cache, report, &dict).expect("comparison");
    let mut table = TextTable::new(vec![
        "strategy".into(),
        "tests".into(),
        "faults detected".into(),
        "mean best sensitivity".into(),
    ]);
    table.push_row(vec![
        "fixed seed set (selection only)".into(),
        cmp.baseline.test_count.to_string(),
        format!("{}/{}", cmp.baseline.detected(), cmp.baseline.total()),
        format!("{:.3}", cmp.baseline.mean_best_sensitivity()),
    ]);
    table.push_row(vec![
        "tailored optimization (this paper)".into(),
        cmp.optimized.test_count.to_string(),
        format!("{}/{}", cmp.optimized.detected(), cmp.optimized.total()),
        format!("{:.3}", cmp.optimized.mean_best_sensitivity()),
    ]);
    let rendered = table.render();
    println!("{rendered}");
    println!("faults gained by optimization: {:?}", cmp.gained());
    println!("mean margin gain: {:.3}", cmp.mean_margin_gain());
    write_result("baseline_ablation.txt", &rendered);
    write_result("baseline_ablation.csv", &table.csv());
}

/// Small sanity sweep of tps profiles for the 1-parameter configs (used
/// by `regen_all` as a bonus artifact; not a paper figure).
pub fn tps_profiles_1param() {
    println!("== bonus: tps profiles of the 1-parameter configurations ==");
    let mac = iv_macro(false);
    let circuit = mac.nominal_circuit();
    let cache = NominalCache::new();
    let configs = mac.configurations();
    let fault = Fault::bridge("na", "out", 34e3);
    let mut out = String::from("config,param,sensitivity\n");
    for c in configs.iter().filter(|c| c.space().dim() == 1) {
        let ev = Evaluator::new(c.as_ref(), &circuit, &cache);
        let profile = tps_profile(&ev, &fault, 17).expect("profile");
        for (x, s) in &profile {
            out.push_str(&format!("{},{x:.6e},{s:.6e}\n", c.name()));
        }
        let best = profile.iter().cloned().fold((0.0, f64::INFINITY), |acc, p| {
            if p.1 < acc.1 {
                p
            } else {
                acc
            }
        });
        println!("config #{} {}: best S = {:.3} at {}", c.id(), c.name(), best.1,
            fmt_si(best.0, "A"));
    }
    write_result("tps_profiles_1param.csv", &out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use castg_core::BestTest;

    #[test]
    fn generation_csv_keeps_commas_in_fault_names() {
        let test = |fault, config_id, config_name: &str, params: Vec<f64>| BestTest {
            fault,
            config_id,
            config_name: config_name.into(),
            params,
            sensitivity_at_dictionary: -12.5,
            detected_at_dictionary: config_id == 3,
            critical_scale: 42.0,
            required_intensify: config_id != 3,
            evaluations: 123,
        };
        let report = GenerationReport {
            tests: vec![
                test(Fault::bridge("out", "inn", 10e3), 3, "thd", vec![4e-5, 2.5e4]),
                test(Fault::bridge("na", "out", 10e3), 1, "dc_transfer", vec![-4e-5]),
            ],
            ..Default::default()
        };
        assert_eq!(
            generation_csv(&report),
            "fault,config_id,config_name,params,s_dict,detected,critical_scale,\
             required_intensify,evaluations\n\
             bridge(out,inn),3,thd,4e-5;2.5e4,-1.25e1,true,4.2e1,false,123\n\
             bridge(na,out),1,dc_transfer,-4e-5,-1.25e1,false,4.2e1,true,123\n"
        );
    }
}
