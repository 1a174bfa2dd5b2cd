//! `castg-netlist` — the SPICE-deck frontend for `castg`.
//!
//! Every other crate in this workspace consumes a
//! [`castg_spice::Circuit`] built in Rust; this crate lets a circuit
//! arrive as a **SPICE deck** instead, so the paper's
//! generate → compact → evaluate pipeline can be pointed at a macro it
//! was never compiled with:
//!
//! * [`parse_deck`] — deck text → lowered [`Circuit`](castg_spice::Circuit). Device cards
//!   `R`/`C`/`L`/`V`/`I`/`M` (Level-1 models via `.model nmos`/`pmos`
//!   cards, `W=`/`L=` instance geometry), `D` (diode, `.model <name> d`
//!   with `is`/`n`/`rs`/`cjo` keys), `Q` (BJT, `.model <name>
//!   npn`/`pnp` with `is`/`bf`/`br`/`cje`/`cjc` keys; unset keys fall
//!   back to the signal defaults), and all four controlled sources —
//!   `E` (VCVS) and `G` (VCCS) sensing a node-voltage pair, `F` (CCCS)
//!   and `H` (CCVS) sensing the branch current of a named controller
//!   device, which must carry a branch current (a `V`, `E`, `H` or `L`
//!   card) and must appear **before** the card that senses it. Plus
//!   `.subckt`/`.ends` with `X` instantiation (flattened, internals
//!   prefixed `<instance>.<name>`), scale suffixes (`10k`, `2.5MEG`,
//!   `1.5pF`),
//!   line continuations (`+`), comments (`*` lines, `;`/` $`
//!   trailers — `.title` lines are exempt, like real SPICE), `.title`,
//!   `.end`, and source values `DC`, `SIN`, `PULSE`, `PWL` and the
//!   `STEP` extension mirroring the paper's ramped step template. Net,
//!   model and subcircuit names are case-insensitive (SPICE rules; the
//!   first spelling of a net is kept as its canonical name). Errors
//!   never panic and carry line/column (1-based char positions).
//!
//!   **Parameters and expressions.** `.param name=value …` defines
//!   deck-global parameters; anywhere a number is expected, a braced
//!   expression `{…}` evaluates arithmetic (`+ - * / ( )`, unary
//!   signs) over SPICE literals and parameter references:
//!
//!   ```text
//!   .param ratio=2 rbase=1k
//!   .param rtot={rbase*ratio}      ; forward/backward refs both fine
//!   R1 in out {rtot/2}
//!   V1 in 0 DC {1+ratio}
//!   ```
//!
//!   Definitions resolve lazily, so order does not matter; reference
//!   cycles and undefined names are reported with the defining line,
//!   never looped on. [`parse_deck_with_params`] lets a caller (the
//!   `castg --param NAME=VALUE` flag) shadow deck definitions or add
//!   new ones, and [`Deck::params`] reports the resolved values.
//!   `.subckt` headers may declare parameter defaults after the ports,
//!   and `X` cards may override them per instance — overrides are
//!   evaluated in the caller's scope and shadow globals inside the
//!   body; un-overridden defaults evaluate in declaration order:
//!
//!   ```text
//!   .subckt leg a b r=1k rr={2*r}
//!   R1 a m {r}
//!   R2 m b {rr}
//!   .ends
//!   X1 in out leg              ; r=1k, rr=2k
//!   X2 out 0  leg r=500        ; r=500, rr=1k
//!   ```
//! * [`write_deck`] / [`write_deck_with_title`] — [`Circuit`](castg_spice::Circuit) → deck
//!   text, exact round-trip (`parse(write(c)) == c`, bit for bit, the
//!   `.title` included) via the `.nodeorder` extension card and
//!   bit-exact deduplicated model tables (`castg_m*`/`castg_d*`/
//!   `castg_q*` for MOS/diode/BJT parameter sets). Written decks
//!   carry only resolved values — `.param` and `{…}` never appear in
//!   writer output.
//! * [`NetlistMacro`] — a parsed deck + a directory of textual
//!   configuration descriptions ([`castg_core::DescribedConfig`]) + a
//!   topology-derived fault dictionary
//!   ([`castg_faults::derive_fault_dictionary`]), implementing
//!   [`castg_core::AnalogMacro`]. Parsed macros share one compiled
//!   stamp plan across the whole campaign, so they evaluate at the
//!   same faults/sec as compiled ones.
//!
//! # Deck-to-report quickstart
//!
//! ```
//! use castg_core::{run_pipeline, AnalogMacro, CampaignOptions, GeneratorOptions};
//! use castg_netlist::NetlistMacro;
//!
//! // Any macro netlist — here a resistor divider with one output.
//! let deck = "\
//! .title R-divider
//! V1 vin 0 DC 5
//! R1 vin mid 1k
//! R2 mid out 1k
//! R3 out 0 2k
//! ";
//! let mac = NetlistMacro::from_deck_text("divider", deck)?;
//!
//! // Configurations normally come from description files
//! // (`NetlistMacro::from_files(deck, configs_dir, options)`); build
//! // one inline here.
//! let cfg = castg_core::DescribedConfig::new(1, castg_core::ConfigDescription::parse(
//!     "macro type: R-divider\n\
//!      test configuration: DC output\n\
//!      control vin: dc(lev)\n\
//!      observe out: dc()\n\
//!      return: dV(out)\n\
//!      parameter lev: 1 .. 8\n\
//!      variable box_rel: 0.05\n\
//!      variable box_gain: 0.5\n\
//!      variable box_floor: 1e-3\n\
//!      seed lev: 5\n",
//! )?)?;
//! let mac = mac.with_configurations(vec![std::sync::Arc::new(cfg)]);
//!
//! // The exact pipeline the paper runs on its IV-converter deck:
//! // generate, compact, evaluate.
//! let run = run_pipeline(
//!     &mac,
//!     &mac.fault_dictionary(),
//!     &GeneratorOptions::default(),
//!     &CampaignOptions::default(),
//! )?;
//! assert!(run.coverage.detected() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `castg` CLI runs exactly this call:
//! `castg generate <deck.sp> --configs <dir>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod expr;
mod macro_def;
mod number;
mod param;
mod parser;
mod writer;

pub use error::NetlistError;
pub use macro_def::{NetlistMacro, NetlistMacroOptions};
pub use number::parse_number;
pub use parser::{parse_deck, parse_deck_with_params, Deck};
pub use writer::{canonical_deck_bytes, write_deck, write_deck_with_title};
