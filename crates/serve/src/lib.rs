//! `castg-serve` — a multi-tenant campaign daemon for the castg
//! pipeline: HTTP/1.1 + JSON over `std::net`, a content-addressed
//! result cache, and a process-wide plan cache.
//!
//! The pipeline crates answer "run this campaign once"
//! ([`castg_core::run_pipeline`], which `castg generate` also calls);
//! this crate answers "keep answering campaign requests", each one
//! through that same function. A long-running daemon
//! amortizes what the CLI pays on every invocation — process startup,
//! deck parsing, stamp-plan compilation, symbolic factorization — and
//! deduplicates identical work across tenants entirely.
//!
//! Everything is in-tree: the HTTP parser ([`http`]), the JSON parser
//! ([`json`]) and the SHA-256 ([`digest`]) are small hand-rolled
//! implementations because the build environment has no crate registry,
//! matching the rest of the workspace (vendored stand-ins, no external
//! deps).
//!
//! # Protocol
//!
//! HTTP/1.1 over TCP, JSON bodies, `Content-Length` framing only (no
//! chunked transfer), keep-alive by default:
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/campaign` | One campaign: deck text + config descriptions + options in, the full pipeline report out (the same JSON shape `castg generate --json` writes, rendered by `castg_core::report::render_json_report`). |
//! | `POST /v1/batch` | `{"jobs": [<campaign>, ...]}`: N jobs in, N reports out in order; the jobs run concurrently, each under one of the daemon's `workers` campaign permits. |
//! | `GET /v1/health` | Liveness + uptime. |
//! | `GET /v1/stats` | Cache hit rates, campaigns served, accumulated fault-outcome tallies, convergence-ladder totals. |
//! | `POST /v1/shutdown` | Graceful shutdown (also SIGINT/SIGTERM). |
//!
//! Campaign responses carry two extra headers — `X-Castg-Digest` (the
//! hex request digest) and `X-Castg-Cache` (`hit`/`miss`) — so the
//! body stays byte-identical to the CLI's `--json` output and between
//! cache hits and the miss that filled them.
//!
//! # The cache key, precisely
//!
//! The result cache is **content-addressed**: the key is a SHA-256
//! over the *canonicalized* request ([`digest::request_digest`]):
//!
//! * the deck parsed and re-serialized through the exact round-trip
//!   writer (`castg_netlist::canonical_deck_bytes`), which erases
//!   formatting, comments and `.param` indirection while preserving
//!   semantics bit-for-bit (identifier case included — net spellings
//!   surface in report bytes, so they are semantic);
//! * the config texts in sorted order (ids are assigned after the same
//!   sort, so reordering is digest- *and* report-neutral);
//! * the macro name (it appears verbatim in the report body);
//! * the resolved parameter table, derivation options, forced
//!   solver/ordering, and the **post-clamp** budgets.
//!
//! Thread counts are excluded: campaign reports are bit-identical at
//! any worker count (the campaign engine's structural guarantee), so requests
//! differing only in parallelism share entries. A cache hit replays
//! the stored bytes, making hit == miss byte equality structural
//! rather than probabilistic.
//!
//! The plan cache sits below it: canonical deck digest → compiled
//! [`castg_spice::Circuit`] whose `StampPlan`/`SparseSymbolic` are
//! `Arc`-shared into every campaign on the same deck, plus a raw-text
//! memo so byte-identical resubmissions skip parsing entirely.
//!
//! # Budget ceilings and failure isolation
//!
//! Every request runs under [`request::ServerCeilings`]: per-cell
//! Newton-iteration and wall-clock budgets are `min(requested,
//! ceiling)` (the ceiling applies when the request is silent), fault
//! counts and batch sizes are capped, so no tenant can hold a campaign
//! permit indefinitely. The pipeline runs under `catch_unwind` — a
//! panicking campaign is a 500 response for that tenant, never a dead
//! thread or a lost permit — and per-cell panics inside the campaign
//! surface as typed `panicked` outcomes exactly as in the CLI. A phase
//! that fails is a 422 whose error kind names it: `generation_failed`
//! (listing up to five failed faults), `compaction_failed` or
//! `evaluation_failed`.
//!
//! # In-process use
//!
//! Tests and the benchmark spawn the daemon in-process:
//!
//! ```
//! use castg_serve::server::{spawn, ServerConfig};
//! use castg_serve::client::Client;
//!
//! let handle = spawn(ServerConfig::default())?;
//! let mut client = Client::new(handle.addr);
//! let health = client.request("GET", "/v1/health", b"")?;
//! assert_eq!(health.status, 200);
//! handle.shutdown();
//! assert!(handle.join());
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)] // one documented exception: server::signal
#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod client;
pub mod digest;
pub mod http;
pub mod json;
pub mod request;
pub mod server;

pub use campaign::{CacheStatus, CampaignResponse, Engine};
pub use digest::{hex, request_digest, sha256, sort_configs, Digest, DigestOptions};
pub use request::{CampaignRequest, ServerCeilings};
pub use server::{serve_forever, spawn, ServerConfig, ServerHandle};
