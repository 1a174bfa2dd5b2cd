//! `castg` — Compact Analog Structural Test Generation.
//!
//! Meta-crate bundling the full workspace reproduction of Kaal &
//! Kerkhoff, *"Compact Structural Test Generation for Analog Macros"*
//! (ED&TC 1997). Each subsystem lives in its own crate and is re-exported
//! here under a short name:
//!
//! * [`core`] (`castg-core`) — the paper's contribution: sensitivity,
//!   tps-graphs, per-fault optimal test generation, compaction,
//!   baselines and reporting.
//! * [`macros`] (`castg-macros`) — process variation and the
//!   Monte-Carlo tolerance-box calibration (the paper's
//!   box-functions). The devices under test themselves — the
//!   IV-converter with its five Table-1 test configurations and a
//!   bipolar op-amp — are the decks and `.cfg` files under
//!   `tests/fixtures/`, loaded through [`netlist`].
//! * [`netlist`] (`castg-netlist`) — the SPICE-deck frontend: parse
//!   decks (R/C/L/V/I/M/E cards, `.subckt` flattening, `.model` cards,
//!   scale suffixes) into [`spice`] circuits, write circuits back out
//!   (exact round-trip), and wrap a deck + textual configuration
//!   descriptions + a topology-derived fault dictionary as an
//!   [`core::AnalogMacro`] — so the pipeline runs on macros it was
//!   never compiled with. The `castg` CLI binary
//!   (`castg generate <deck.sp> --configs <dir>`) drives the whole
//!   deck-to-report flow from the command line.
//! * [`faults`] (`castg-faults`) — bridge and pinhole fault models with
//!   tunable impact, and exhaustive fault lists.
//! * [`spice`] (`castg-spice`) — the built-in MNA circuit simulator
//!   (DC Newton–Raphson and fixed-step transient, the two analyses the
//!   test configurations run; R/C/L, independent and controlled
//!   sources, Level-1 MOSFETs, diodes, BJTs). Its Newton loops run
//!   allocation-free: circuits compile once into stamp plans that are
//!   replayed per iteration (see the crate docs).
//! * [`dsp`] (`castg-dsp`) — waveform post-processing (Goertzel, THD,
//!   deviation metrics).
//! * [`numeric`] (`castg-numeric`) — dense LU (the reusable in-place
//!   `LuWorkspace` behind the simulator hot path), the sparse
//!   CSC LU with symbolic-factor reuse behind large-netlist analyses,
//!   Brent and bounded Powell minimization, parameter spaces, sweep
//!   grids. The simulator picks dense or sparse per circuit
//!   (`spice::SolverKind`), and a differential test harness pins the
//!   two paths to 1e-9 relative agreement.
//! * [`serve`] (`castg-serve`) — the multi-tenant campaign daemon:
//!   `castg serve` keeps a process alive answering `POST /v1/campaign`
//!   and `POST /v1/batch` over HTTP/1.1 + JSON (hand-rolled, zero
//!   external deps), with a **content-addressed result cache** (the
//!   request digest hashes the round-trip-canonicalized deck, sorted
//!   config texts, resolved params and post-clamp budgets — see
//!   `serve::digest`) and a **process-wide plan cache** that lifts the
//!   per-`Circuit` stamp-plan sharing to the whole daemon.
//!   Responses are byte-identical to `castg generate --json` output and
//!   between cache hits and misses; every request runs under server
//!   budget ceilings and `catch_unwind` isolation.
//!
//! [`core::run_pipeline`] runs the whole generate → compact → evaluate
//! flow. Its compute-bound halves — per-fault generation
//! ([`core::Generator::generate`]) and test-set coverage
//! ([`core::evaluate_campaign`]) — both fan their independent faults
//! out through [`core::fan_out`] and share one nominal-measurement
//! cache across threads.
//!
//! # Quickstart
//!
//! ```
//! use castg::core::{AnalogMacro, Generator, NominalCache};
//! use castg::core::synthetic::DividerMacro;
//!
//! let mac = DividerMacro::new();
//! let cache = NominalCache::new();
//! let generator = Generator::new(&mac, &cache);
//! let fault = castg::faults::Fault::bridge("out", "0", 10e3);
//! let best = generator.generate_for_fault(&fault)?;
//! assert!(best.detected_at_dictionary);
//! # Ok::<(), castg::core::CoreError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the
//! `castg-bench` crate for the binaries regenerating every table and
//! figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use castg_core as core;
pub use castg_dsp as dsp;
pub use castg_faults as faults;
pub use castg_macros as macros;
pub use castg_netlist as netlist;
pub use castg_numeric as numeric;
pub use castg_serve as serve;
pub use castg_spice as spice;
