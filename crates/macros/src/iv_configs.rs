//! The paper's five IV-converter test configurations (Table 1): the
//! committed description files `tests/fixtures/iv_configs/*.cfg`, byte
//! for byte, interpreted by [`castg_core::DescribedConfig`] — the same
//! text `castg generate --configs` loads, so the paper experiments and
//! the CLI run one definition.
//!
//! | # | name                  | stimulus at `IIN`                   | parameters      | return value   |
//! |---|-----------------------|-------------------------------------|-----------------|----------------|
//! | 1 | `dc_transfer`         | DC level `lev`                      | `lev`           | `ΔV(out)`      |
//! | 2 | `supply_current`      | DC level `lev`                      | `lev`           | `ΔI(VDD)`      |
//! | 3 | `harmonic_distortion` | sine, 5 µA amplitude, offset/freq   | `iindc`, `freq` | `THD(V(out))`  |
//! | 4 | `step_response_1`     | step `base → base+elev`, 10 ns ramp | `base`, `elev`  | `Max(ΔV(out))` |
//! | 5 | `step_response_2`     | same step                           | `base`, `elev`  | `Σ ΔV(out)·Δt` |
//!
//! Configurations #4/#5 sample `V(out)` at 100 MHz for 7.5 µs exactly as
//! §3.4 prescribes. Two configurations have one parameter, three have
//! two — matching the paper. The scanned Table 1 is partially garbled;
//! the stimulus amplitudes, bounds and seeds are a reconstruction.

/// The five description texts, in paper order (ids #1…#5).
pub(crate) const IV_CONFIGS: [&str; 5] = [
    include_str!("../../../tests/fixtures/iv_configs/1_dc_transfer.cfg"),
    include_str!("../../../tests/fixtures/iv_configs/2_supply_current.cfg"),
    include_str!("../../../tests/fixtures/iv_configs/3_thd.cfg"),
    include_str!("../../../tests/fixtures/iv_configs/4_step_max_dev.cfg"),
    include_str!("../../../tests/fixtures/iv_configs/5_step_acc_dev.cfg"),
];

#[cfg(test)]
mod tests {
    use crate::{BoxPolicy, IvConverter};
    use castg_core::{AnalogMacro, ConfigDescription, TestConfiguration};
    use std::sync::Arc;

    fn configs() -> Vec<Arc<dyn TestConfiguration>> {
        IvConverter::with_analytic_boxes().configurations()
    }

    fn circuit() -> castg_spice::Circuit {
        IvConverter::with_analytic_boxes().nominal_circuit()
    }

    #[test]
    fn seeds_are_inside_bounds() {
        for c in configs() {
            assert!(c.space().contains(&c.seed()), "seed of {} out of bounds", c.name());
        }
    }

    #[test]
    fn dc_transfer_tracks_rf() {
        let (circuit, configs) = (circuit(), configs());
        let c1 = &configs[0];
        let v0 = c1.measure(&circuit, &[0.0]).unwrap().as_scalars().unwrap()[0];
        let v1 = c1.measure(&circuit, &[10e-6]).unwrap().as_scalars().unwrap()[0];
        assert!(((v1 - v0) / 10e-6 - 39e3).abs() < 2e3, "gain {}", (v1 - v0) / 10e-6);
    }

    #[test]
    fn supply_current_measures_vdd_branch() {
        let m = configs()[1].measure(&circuit(), &[0.0]).unwrap();
        let idd = m.as_scalars().unwrap()[0];
        assert!(idd < -50e-6 && idd > -400e-6, "idd {idd}");
    }

    #[test]
    fn thd_is_small_mid_range_and_larger_near_clipping() {
        let (circuit, configs) = (circuit(), configs());
        let thd = |p: [f64; 2]| configs[2].measure(&circuit, &p).unwrap().as_scalars().unwrap()[0];
        let mid = thd([10e-6, 10e3]);
        let edge = thd([40e-6, 10e3]);
        assert!((0.0..10.0).contains(&mid), "mid-range THD {mid}");
        assert!(edge > mid, "clipping must raise THD: {edge} !> {mid}");
    }

    #[test]
    fn step_config_samples_at_100mhz_for_7us5() {
        let m = configs()[3].measure(&circuit(), &[0.0, 20e-6]).unwrap();
        let w = m.as_waveform().unwrap();
        assert_eq!(w.dt(), 1.0 / 100e6);
        assert_eq!(w.len(), 751); // t = 0 plus 750 samples
        // Step of 20 µA over 39 kΩ ≈ 0.78 V swing.
        let swing = w.values().last().unwrap() - w.values()[0];
        assert!((swing - 0.78).abs() < 0.08, "swing {swing}");
    }

    #[test]
    fn step_acc_dev_is_zero_for_nominal_vs_nominal() {
        let configs = configs();
        let m = configs[4].measure(&circuit(), &[0.0, 10e-6]).unwrap();
        assert_eq!(configs[4].return_values(&m, &m), vec![0.0]);
    }

    #[test]
    fn boxes_are_positive_everywhere() {
        for c in configs() {
            let space = c.space();
            for p in [space.center(), space.clamp(&c.seed())] {
                let b = c.tolerance_box(&p, &[0.0]);
                assert!(b[0] > 0.0, "box of {} at {:?} is {}", c.name(), p, b[0]);
            }
        }
    }

    #[test]
    fn descriptions_have_table1_structure() {
        for c in configs() {
            let d = c.description();
            assert_eq!(d.macro_type, "IV-converter");
            assert_eq!(d.controls.len(), 1);
            assert_eq!(d.controls[0].node, "IIN");
            let observed = if c.id() == 2 { "VDD" } else { "out" };
            assert_eq!(d.observes[0].node, observed);
            assert_eq!(d.parameters.len(), c.space().dim());
            // Round-trip through the Fig.-1 text format.
            let parsed = ConfigDescription::parse(&d.to_string()).unwrap();
            assert_eq!(parsed, d);
        }
    }

    #[test]
    fn calibrated_box_policy_measures_real_spread() {
        // Small calibration (3 grid points × 3 Monte-Carlo samples) on
        // the two DC-based configurations: the calibrated box must
        // exceed the `.cfg` floor (process spread is real) and stay
        // finite.
        let mac = IvConverter::new().with_box_policy(BoxPolicy::Calibrated {
            grid_points: 3,
            mc_samples: 3,
            seed: 11,
            margin: 1.2,
        });
        for c in mac.configurations().iter().filter(|c| c.id() <= 2) {
            let b = c.tolerance_box(&c.seed(), &[0.0])[0];
            let floor = if c.id() == 1 { 1e-3 } else { 50e-9 };
            assert!(b > floor, "config {} calibrated box {b} not above floor", c.name());
            assert!(b.is_finite() && b < 1.0, "config {} box {b} implausible", c.name());
        }
    }

    #[test]
    fn strong_bridge_detected_by_dc_transfer() {
        let (circuit, configs) = (circuit(), configs());
        let cache = castg_core::NominalCache::new();
        let ev = castg_core::Evaluator::new(configs[0].as_ref(), &circuit, &cache);
        // Bridge the output to the input node: destroys the closed loop.
        let fault = castg_faults::Fault::bridge("out", "inn", 10e3);
        let rep = ev.evaluate(&fault, &[20e-6]).unwrap();
        assert!(rep.sensitivity < 0.0, "S = {}", rep.sensitivity);
    }
}
