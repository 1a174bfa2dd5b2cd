//! The benchmark's own determinism tests, on small slices:
//!
//! * the `measure()` decorator, tracing or pacing, leaves results
//!   bit-identical;
//! * per-layer counts are equal at 1 and 2 worker threads and across
//!   two traced runs;
//! * one seed yields the same inputs and request stream byte for byte.
//!
//! Run from anywhere: `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use std::sync::{Arc, Mutex};

use castg_perfbench::compute::{run_unit, Kind, Spec, Wrap};
use castg_perfbench::probe::Rescaler;
use castg_perfbench::serve_mixed::stream;

/// Workload inputs are read relative to the repository root.
fn at_repo_root() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    std::env::set_current_dir(root).expect("repository root exists");
}

fn check_decorator_and_threads(kind: Kind, faults: usize, levels: usize) {
    at_repo_root();
    let spec = Spec::new(kind, 7)
        .expect("inputs")
        .truncated(faults, levels);
    let plain = run_unit(&spec, 1, Wrap::Bare).expect("bare unit");
    let rescaler = Arc::new(Mutex::new(Rescaler::new()));
    let paced = run_unit(&spec, 1, Wrap::Pace(&rescaler)).expect("paced unit");
    let traced = run_unit(&spec, 1, Wrap::Trace).expect("traced unit");
    let again = run_unit(&spec, 1, Wrap::Trace).expect("second traced unit");
    let two_threads = run_unit(&spec, 2, Wrap::Trace).expect("traced unit on two threads");
    assert_eq!(
        plain.fingerprint, traced.fingerprint,
        "the decorator changed results"
    );
    assert_eq!(
        plain.fingerprint, paced.fingerprint,
        "pacing changed results"
    );
    assert!(paced.rescaled_s.is_some(), "a paced unit is rescaled");
    assert_eq!(
        plain.fingerprint, two_threads.fingerprint,
        "results depend on threads"
    );
    assert!(
        traced.per_config.iter().any(|(_, c)| c.calls > 0),
        "nothing was traced"
    );
    assert_eq!(
        traced.counts(),
        again.counts(),
        "counts differ across traced runs"
    );
    assert_eq!(
        traced.counts(),
        two_threads.counts(),
        "counts differ at two threads"
    );
}

#[test]
fn iv_generate_is_deterministic() {
    check_decorator_and_threads(Kind::IvGenerate, 1, 0);
}

#[test]
fn mesh_screen_is_deterministic() {
    check_decorator_and_threads(Kind::MeshScreen, 12, 2);
}

#[test]
fn ota_rescue_is_deterministic() {
    check_decorator_and_threads(Kind::OtaRescue, 6, 2);
}

#[test]
fn one_seed_one_input() {
    at_repo_root();
    for kind in [Kind::IvGenerate, Kind::MeshScreen, Kind::OtaRescue] {
        let a = Spec::new(kind, 42).expect("inputs");
        let b = Spec::new(kind, 42).expect("inputs");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{kind:?}: same seed, different inputs"
        );
    }
    let mesh = |seed| format!("{:?}", Spec::new(Kind::MeshScreen, seed).expect("inputs"));
    assert_ne!(mesh(1), mesh(2), "the seed does not reach the mesh slice");
    assert_eq!(stream(42).expect("stream"), stream(42).expect("stream"));
    assert_ne!(stream(1).expect("stream"), stream(2).expect("stream"));
}

#[test]
fn stream_implies_its_cache_counts() {
    at_repo_root();
    let items = stream(5).expect("stream");
    assert!(
        !items[0].hit && items[0].first_sighting,
        "the stream opens with a first sighting"
    );
    let mut seen = std::collections::HashSet::new();
    for (i, item) in items.iter().enumerate() {
        // A hit always asks for a campaign an earlier request computed.
        assert_eq!(item.hit, !seen.insert(item.campaign), "request {i}");
    }
    assert_eq!(items.iter().filter(|i| i.hit).count(), 268);
    assert_eq!(items.iter().filter(|i| i.first_sighting).count(), 16);
}
