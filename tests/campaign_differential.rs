//! Differential harness for the fault-campaign engine: the delta-stamp
//! injection path (variants sharing and patching the nominal circuit's
//! compiled plan) must produce **bit-identical** coverage reports to
//! the clone-and-recompile reference path, for every fault in the
//! IV-converter and ladder-n=256 dictionaries, on the dense and the
//! sparse solver path, at any worker count.
//!
//! This is the contract that lets every production evaluation default
//! to delta injection: whatever the patched plans, shared sparse
//! templates, seeded symbolic analyses and Jacobian-reuse keys do, the
//! numbers cannot move by even one ulp.

use std::sync::Arc;

use castg::core::synthetic::{LadderMacro, MeshMacro, OtaChainMacro};
use castg::core::{
    evaluate_campaign, AnalogMacro, CampaignOptions, CoverageReport, InjectionMode,
    NominalCache, TestInstance,
};
use castg::faults::{Fault, FaultDictionary, FaultKind, Junction};
use castg::spice::{OrderingKind, SolverKind};

/// Builds a few test instances per configuration of `mac` by scaling
/// each configuration's seed vector — cheap, deterministic, and enough
/// to exercise every measurement kind (DC, THD transient, step
/// transient) against every fault.
fn seed_instances(mac: &dyn AnalogMacro, scales: &[f64]) -> Vec<TestInstance> {
    let mut tests = Vec::new();
    for config in mac.configurations() {
        let space = config.space();
        for &scale in scales {
            let params: Vec<f64> =
                config.seed().iter().map(|p| p * scale).collect();
            let params = space.clamp(&params);
            tests.push(TestInstance { config: Arc::clone(&config), params });
        }
    }
    tests
}

fn assert_reports_bit_identical(a: &CoverageReport, b: &CoverageReport, what: &str) {
    assert_eq!(a.test_count, b.test_count, "{what}: test counts");
    assert_eq!(a.per_fault.len(), b.per_fault.len(), "{what}: fault counts");
    for (x, y) in a.per_fault.iter().zip(&b.per_fault) {
        assert_eq!(x.fault, y.fault, "{what}");
        assert_eq!(x.best_test, y.best_test, "{what}: {}", x.fault);
        assert_eq!(x.detected, y.detected, "{what}: {}", x.fault);
        assert_eq!(
            x.best_sensitivity.to_bits(),
            y.best_sensitivity.to_bits(),
            "{what}: {} sensitivity {} vs {}",
            x.fault,
            x.best_sensitivity,
            y.best_sensitivity,
        );
    }
}

/// Runs the delta-vs-rebuild differential over a macro's dictionary at
/// several worker counts; each evaluation uses a fresh nominal cache so
/// the two paths cannot share measurements.
fn differential(mac: &dyn AnalogMacro, dict: &FaultDictionary, tests: &[TestInstance]) {
    let reference = {
        let cache = NominalCache::new();
        evaluate_campaign(
            mac,
            &cache,
            tests,
            dict,
            &CampaignOptions {
                threads: 1,
                injection: InjectionMode::Rebuild,
                ..CampaignOptions::default()
            },
        )
        .expect("rebuild-path campaign")
    };
    assert!(
        reference.detected() > 0,
        "a fully undetected dictionary would make the differential vacuous; escapes: {:?}",
        reference.escapes()
    );
    for threads in [1usize, 4] {
        for injection in [InjectionMode::Delta, InjectionMode::Rebuild] {
            let cache = NominalCache::new();
            let report = evaluate_campaign(
                mac,
                &cache,
                tests,
                dict,
                &CampaignOptions { threads, injection, ..CampaignOptions::default() },
            )
            .expect("campaign");
            assert_reports_bit_identical(
                &reference,
                &report,
                &format!("threads={threads}, injection={injection:?}"),
            );
        }
    }
}

/// IV-converter (dense solver path, n = 11, nonlinear): every
/// dictionary fault — all 45 bridges and all 10 pinholes — against
/// tests from all five paper configurations.
///
/// The transient configurations make the full run a release-binary
/// workload; debug builds cover a dictionary prefix that still includes
/// both fault models.
#[test]
fn iv_converter_delta_campaign_is_bit_identical() {
    let mac = castg_bench::iv_macro(false);
    let full = mac.fault_dictionary();
    let take = if cfg!(debug_assertions) {
        // Two bridges plus the first pinhole keep `cargo test` quick.
        let mut faults: Vec<_> = full.iter().take(2).cloned().collect();
        if let Some(pinhole) = full.iter().find(|f| f.name().starts_with("pinhole")) {
            faults.push(pinhole.clone());
        }
        FaultDictionary::new(faults)
    } else {
        full
    };
    // One instance per configuration (the seed itself): five tests
    // covering DC, supply-current, THD and both step measurements.
    let tests = seed_instances(&mac, &[1.0]);
    differential(&mac, &take, &tests);
}

/// Ladder at n = 256 unknowns (sparse solver path, linear): the full
/// bridge dictionary against DC and step-response tests, exercising the
/// shared symbolic analysis and the factor-once Jacobian reuse on both
/// injection paths.
#[test]
fn ladder_256_delta_campaign_is_bit_identical() {
    let mac = LadderMacro::with_unknowns(256);
    assert!(mac.unknowns() >= 256);
    let dict = mac.fault_dictionary();
    let scales: &[f64] = if cfg!(debug_assertions) { &[1.0] } else { &[0.6, 1.0, 1.4] };
    let tests = seed_instances(&mac, scales);
    differential(&mac, &dict, &tests);
}

/// The mesh campaign — the workload whose natural-order fill justifies
/// the AMD ordering — run five-way: Dense, Sparse-Natural, Sparse-AMD,
/// Sparse-BTF and the default Auto-Auto dispatch each get the full
/// delta-vs-rebuild and threads-1-vs-4 bit-identity treatment, so plan
/// patching over a *permuted* pattern is pinned exactly like the
/// unpermuted paths. (The mesh is irreducible, so its forced-BTF column
/// resolves to the AMD fallback — which is exactly the degenerate case
/// the bit-identity contract must cover.) The Auto row is the dispatch
/// `castg generate` runs; at 256 unknowns (release) it resolves to AMD,
/// so delta variants that keep the nominal's pattern reuse its AMD
/// permutation while rebuilt ones compute their own. The configurations
/// must also agree with each other on which faults are detected (their
/// sensitivities differ only in the last ulps).
#[test]
fn mesh_five_way_delta_campaigns_are_bit_identical() {
    let configs: [(SolverKind, OrderingKind); 5] = [
        (SolverKind::Dense, OrderingKind::Natural),
        (SolverKind::Sparse, OrderingKind::Natural),
        (SolverKind::Sparse, OrderingKind::Amd),
        (SolverKind::Sparse, OrderingKind::Btf),
        (SolverKind::Auto, OrderingKind::Auto),
    ];
    let size = if cfg!(debug_assertions) { 64 } else { 256 };
    let mut detection: Vec<Vec<bool>> = Vec::new();
    for (solver, ordering) in configs {
        let mac = MeshMacro::with_unknowns(size).with_solver(solver, ordering);
        let dict = mac.fault_dictionary();
        let scales: &[f64] = if cfg!(debug_assertions) { &[1.0] } else { &[0.6, 1.0] };
        let tests = seed_instances(&mac, scales);
        differential(&mac, &dict, &tests);

        let cache = NominalCache::new();
        let report = evaluate_campaign(
            &mac,
            &cache,
            &tests,
            &dict,
            &CampaignOptions {
                threads: 2,
                injection: InjectionMode::Delta,
                ..CampaignOptions::default()
            },
        )
        .expect("campaign");
        detection.push(report.per_fault.iter().map(|f| f.detected).collect());
    }
    assert_eq!(detection[0], detection[1], "dense vs sparse-natural detection diverged");
    assert_eq!(detection[0], detection[2], "dense vs sparse-amd detection diverged");
    assert_eq!(detection[0], detection[3], "dense vs sparse-btf detection diverged");
    assert_eq!(detection[0], detection[4], "dense vs auto detection diverged");
}

/// The OTA-chain campaign under *forced BTF* — the one macro whose
/// static pattern genuinely condenses into per-stage blocks, so the
/// delta-vs-rebuild and threads-1-vs-4 bit-identity contract here runs
/// through the block-wise factor/solve path, patched plans and all.
/// The BTF report's detection verdicts must also match a forced
/// Sparse-AMD run of the same campaign.
#[test]
fn ota_chain_btf_delta_campaign_is_bit_identical() {
    let size = if cfg!(debug_assertions) { 64 } else { 128 };
    let mut detection: Vec<Vec<bool>> = Vec::new();
    for ordering in [OrderingKind::Amd, OrderingKind::Btf] {
        let mac = OtaChainMacro::with_unknowns(size)
            .with_solver(SolverKind::Sparse, ordering);
        let dict = mac.fault_dictionary();
        let tests = seed_instances(&mac, &[1.0]);
        differential(&mac, &dict, &tests);

        let cache = NominalCache::new();
        let report = evaluate_campaign(
            &mac,
            &cache,
            &tests,
            &dict,
            &CampaignOptions {
                threads: 2,
                injection: InjectionMode::Delta,
                ..CampaignOptions::default()
            },
        )
        .expect("campaign");
        detection.push(report.per_fault.iter().map(|f| f.detected).collect());
    }
    assert_eq!(detection[0], detection[1], "sparse-amd vs sparse-btf detection diverged");
}

/// The ladder campaign through the forced Sparse-AMD configuration:
/// tridiagonal-plus-branch-row structure under a non-identity
/// permutation, delta vs rebuild, threads 1 vs 4.
#[test]
fn ladder_amd_delta_campaign_is_bit_identical() {
    let mac = LadderMacro::with_unknowns(if cfg!(debug_assertions) { 96 } else { 256 })
        .with_solver(SolverKind::Sparse, OrderingKind::Amd);
    let dict = mac.fault_dictionary();
    let tests = seed_instances(&mac, &[1.0]);
    differential(&mac, &dict, &tests);
}

/// The campaign differential through the *dense* solver arm: the
/// n = 24 ladder sits below the Auto sparse threshold, so every
/// simulation of this campaign runs dense LU — the delta path's
/// bit-identity must not depend on the sparse machinery.
#[test]
fn ladder_auto_dense_delta_campaign_is_bit_identical() {
    let mac = LadderMacro::with_unknowns(24);
    let dict = mac.fault_dictionary();
    let config = mac
        .configurations()
        .into_iter()
        .find(|c| c.name() == "dc_out")
        .expect("ladder has a dc_out configuration");
    let tests: Vec<TestInstance> = [2.0, 5.0, 7.5]
        .iter()
        .map(|&lev| TestInstance { config: Arc::clone(&config), params: vec![lev] })
        .collect();
    differential(&mac, &dict, &tests);
}

/// The bipolar op-amp — the pure junction-device Newton path: every
/// dictionary fault (45 bridges + 10 diode/BJT junction pinholes in
/// release; a mix of both in debug) gets the full delta-vs-rebuild and
/// threads-1-vs-4 bit-identity treatment, pinning the patched-plan
/// `DiodeSite`/`BjtSite` stamping against clone-and-recompile.
#[test]
fn bjt_opamp_delta_campaign_is_bit_identical() {
    let mac = castg_bench::golden::bjt_macro(&castg_bench::fixtures_dir());
    let full = mac.fault_dictionary();
    let dict = if cfg!(debug_assertions) {
        // Three bridges plus the first three junction pinholes keep
        // `cargo test` quick while covering both fault models.
        let pinholes = full.iter().filter(|f| f.kind() == FaultKind::Pinhole);
        FaultDictionary::new(full.iter().take(3).chain(pinholes.take(3)).cloned().collect())
    } else {
        full
    };
    let tests = seed_instances(&mac, &[0.7, 1.0, 1.3]);
    differential(&mac, &dict, &tests);
}

/// Spice-level delta-vs-rebuild over a full-wave diode bridge
/// rectifier: bridge and anode–cathode pinhole patches on the compiled
/// plan must solve bit-identically to rebuilt circuits under both
/// forced solver kinds — the diode counterpart of the forced-kind
/// ladder differential below.
#[test]
fn rectifier_junction_faults_solve_delta_and_rebuilt_identically() {
    use castg::spice::{
        AnalysisOptions, Circuit, DcAnalysis, DiodeParams, SolverKind, Waveform,
    };
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let a = c.node("a");
    let p = c.node("p");
    let m = c.node("m");
    let gnd = Circuit::GROUND;
    let d = DiodeParams::signal_default();
    c.add_vsource("V1", vin, gnd, Waveform::dc(3.0)).unwrap();
    c.add_resistor("RS", vin, a, 50.0).unwrap();
    c.add_diode("D1", a, p, d).unwrap();
    c.add_diode("D2", gnd, p, d).unwrap();
    c.add_diode("D3", m, a, d).unwrap();
    c.add_diode("D4", m, gnd, d).unwrap();
    c.add_resistor("RL", p, m, 1e3).unwrap();
    c.add_capacitor("CF", p, m, 1e-6).unwrap();
    c.compile_plan();

    let mut faults = vec![
        Fault::bridge("a", "p", 10e3),
        Fault::bridge("p", "m", 10e3),
        Fault::bridge("vin", "m", 10e3),
    ];
    for name in ["D1", "D2", "D3", "D4"] {
        faults.push(Fault::junction_pinhole(name, Junction::AnodeCathode, 2e3));
    }
    for fault in &faults {
        let patched = fault.inject(&c).unwrap();
        let rebuilt = fault.inject_rebuilt(&c).unwrap();
        for solver in [SolverKind::Dense, SolverKind::Sparse] {
            let opts = AnalysisOptions { solver, ..AnalysisOptions::default() };
            let sp = DcAnalysis::with_options(&patched, opts).solve().unwrap();
            let sr = DcAnalysis::with_options(&rebuilt, opts).solve().unwrap();
            for (x, y) in sp.state().iter().zip(sr.state()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{solver:?} {}", fault.name());
            }
        }
    }
}

/// Spice-level differential with the solver *forced* (both kinds, on a
/// size where Auto would pick the other): a delta-injected variant and
/// a rebuilt variant must solve bit-identically under explicitly forced
/// Dense and forced Sparse dispatch alike.
#[test]
fn forced_solver_kinds_solve_delta_and_rebuilt_identically() {
    use castg::spice::{AnalysisOptions, DcAnalysis, SolverKind};
    for unknowns in [24usize, 96] {
        let mac = LadderMacro::with_unknowns(unknowns);
        let nominal = mac.nominal_circuit();
        nominal.compile_plan();
        for fault in mac.fault_dictionary().iter() {
            let patched = fault.inject(&nominal).unwrap();
            let rebuilt = fault.inject_rebuilt(&nominal).unwrap();
            for solver in [SolverKind::Dense, SolverKind::Sparse] {
                let opts = AnalysisOptions { solver, ..AnalysisOptions::default() };
                let sp = DcAnalysis::with_options(&patched, opts).solve().unwrap();
                let sr = DcAnalysis::with_options(&rebuilt, opts).solve().unwrap();
                for (a, b) in sp.state().iter().zip(sr.state()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "n={unknowns} {solver:?} {}",
                        fault.name()
                    );
                }
            }
        }
    }
}
