//! The campaign engine: one [`CampaignRequest`] in, one response out,
//! through the result cache, the plan cache, and the full
//! generate → compact → evaluate pipeline
//! ([`castg_core::run_pipeline`]).
//!
//! The engine is the part of the daemon that knows nothing about
//! sockets — integration tests and the batch endpoint drive it
//! directly. Every run is wrapped in `catch_unwind`, so a panicking
//! campaign produces a 500 response and a poisoned-free server, never
//! a dead connection thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use castg_core::report::render_json_report;
use castg_core::{
    run_pipeline, AnalogMacro, CampaignOptions, ConfigDescription, DescribedConfig,
    GeneratorOptions, PipelineError, TestConfiguration,
};
use castg_netlist::{canonical_deck_bytes, parse_deck_with_params, NetlistMacro, NetlistMacroOptions};

use crate::cache::{PlanCache, PlanEntry, ResultCache, StoredResponse};
use crate::digest::{hex, request_digest, sha256, sort_configs, Digest, DigestOptions, Sha256};
use crate::request::{CampaignRequest, ServerCeilings};

/// Whether a response came out of the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Replayed from the result cache.
    Hit,
    /// Computed by the pipeline this request.
    Miss,
    /// Not cacheable (request was rejected before a digest existed).
    None,
}

impl CacheStatus {
    /// The `X-Castg-Cache` header value.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::None => "none",
        }
    }
}

/// One campaign outcome, ready to serialize: status + exact body bytes.
#[derive(Debug, Clone)]
pub struct CampaignResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON).
    pub body: Arc<Vec<u8>>,
    /// Hex request digest (present whenever the request was well-formed
    /// enough to have one; served as `X-Castg-Digest`).
    pub digest_hex: Option<String>,
    /// Result-cache disposition (served as `X-Castg-Cache`).
    pub cache: CacheStatus,
}

/// The JSON body of every error response:
/// `{"error": {"kind": …, "message": …}}` on one line.
pub(crate) fn error_body(kind: &str, message: &str) -> String {
    use castg_core::report::json_escape;
    format!(
        "{{\"error\": {{\"kind\": \"{}\", \"message\": \"{}\"}}}}\n",
        json_escape(kind),
        json_escape(message),
    )
}

impl CampaignResponse {
    fn error(status: u16, kind: &str, message: &str) -> Self {
        CampaignResponse {
            status,
            body: Arc::new(error_body(kind, message).into_bytes()),
            digest_hex: None,
            cache: CacheStatus::None,
        }
    }
}

/// Accumulated fault-outcome tallies across every campaign served.
#[derive(Default)]
pub struct OutcomeTotals {
    /// Faults detected.
    pub detected: AtomicU64,
    /// Faults undetected.
    pub undetected: AtomicU64,
    /// Items that exhausted the convergence ladder.
    pub unconverged: AtomicU64,
    /// Structurally singular variants.
    pub singular: AtomicU64,
    /// Items that blew their budget.
    pub timed_out: AtomicU64,
    /// Items whose worker panicked.
    pub panicked: AtomicU64,
    /// Faults that could not be injected.
    pub injection_failed: AtomicU64,
    /// Newton solves across all campaigns.
    pub solves: AtomicU64,
    /// Newton iterations across all campaigns.
    pub iterations: AtomicU64,
}

/// The socket-free core of the daemon: caches + ceilings + pipeline.
pub struct Engine {
    /// Content-addressed response cache.
    pub result_cache: ResultCache,
    /// Process-wide compiled-deck cache.
    pub plan_cache: PlanCache,
    /// Per-request resource ceilings.
    pub ceilings: ServerCeilings,
    /// Worker threads per campaign (reports are thread-count-invariant,
    /// so this does not enter the digest).
    pub threads: usize,
    /// Campaigns completed successfully (cache hits included).
    pub campaigns: AtomicU64,
    /// Requests rejected or failed (any non-200).
    pub errors: AtomicU64,
    /// Fault-outcome totals across served (non-cached) campaigns.
    pub outcomes: OutcomeTotals,
}

impl Engine {
    /// Creates an engine with the given cache capacities.
    pub fn new(
        result_capacity: usize,
        plan_capacity: usize,
        ceilings: ServerCeilings,
        threads: usize,
    ) -> Self {
        Engine {
            result_cache: ResultCache::new(result_capacity),
            plan_cache: PlanCache::new(plan_capacity),
            ceilings,
            threads: threads.max(1),
            campaigns: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            outcomes: OutcomeTotals::default(),
        }
    }

    /// Runs one campaign request end to end. Never panics and never
    /// returns `Err`: every failure mode is a typed JSON error response.
    pub fn run_campaign(&self, req: &CampaignRequest) -> CampaignResponse {
        let response = self.run_campaign_inner(req);
        match response.status {
            200 => self.campaigns.fetch_add(1, Ordering::Relaxed),
            _ => self.errors.fetch_add(1, Ordering::Relaxed),
        };
        response
    }

    fn run_campaign_inner(&self, req: &CampaignRequest) -> CampaignResponse {
        if req.configs.len() > self.ceilings.max_configs {
            return CampaignResponse::error(
                400,
                "too_many_configs",
                &format!(
                    "{} configurations exceeds the server ceiling of {}",
                    req.configs.len(),
                    self.ceilings.max_configs
                ),
            );
        }

        // Canonical config order: ids are assigned after this sort, so
        // request-side reordering changes neither digest nor report.
        let mut configs = req.configs.clone();
        sort_configs(&mut configs);

        // Plan cache: raw-text memo first (skips the parse on repeat
        // decks), canonical digest second (shares plans across
        // formatting variants).
        let entry = match self.plan_entry(req) {
            Ok(entry) => entry,
            Err(message) => return CampaignResponse::error(400, "deck_error", &message),
        };

        // Budgets enter the digest *post-clamp*: requests asking for
        // more than the ceiling share an entry with requests asking for
        // exactly the ceiling, because they run identically.
        let effective_max_faults = Some(
            req.max_faults.map_or(self.ceilings.max_faults, |v| v.min(self.ceilings.max_faults)),
        );
        let options = DigestOptions {
            derivation: req.derivation,
            bridge_ohms: req.bridge_ohms,
            pinhole_ohms: req.pinhole_ohms,
            skip_faults: req.skip_faults,
            max_faults: effective_max_faults,
            dispatch: req.dispatch,
            max_newton_iters: Some(self.ceilings.clamp_newton(req.max_newton_iters)),
            budget_ms: Some(self.ceilings.clamp_budget_ms(req.budget_ms)),
        };
        let digest =
            request_digest(&req.name, &entry.canonical_deck, &configs, &entry.params, &options);
        let digest_hex = hex(&digest);

        if let Some(stored) = self.result_cache.get(&digest) {
            // Replay the stored bytes: hit and miss are byte-identical
            // by construction.
            return CampaignResponse {
                status: stored.status,
                body: stored.body,
                digest_hex: Some(stored.digest_hex),
                cache: CacheStatus::Hit,
            };
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.execute(req, &configs, &entry, &options)
        }));
        let response = match outcome {
            Ok(Ok(body)) => CampaignResponse {
                status: 200,
                body: Arc::new(body.into_bytes()),
                digest_hex: Some(digest_hex.clone()),
                cache: CacheStatus::Miss,
            },
            Ok(Err(mut failed)) => {
                failed.digest_hex = Some(digest_hex.clone());
                failed
            }
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "campaign panicked".to_string());
                let mut r = CampaignResponse::error(500, "panic", &message);
                r.digest_hex = Some(digest_hex.clone());
                r
            }
        };
        if response.status == 200 {
            // Only successes enter the result cache; errors are cheap
            // to recompute and must not pin a digest to a bad body.
            self.result_cache.insert(
                digest,
                StoredResponse {
                    status: response.status,
                    body: Arc::clone(&response.body),
                    digest_hex: digest_hex.clone(),
                },
            );
        }
        response
    }

    /// Parses or recalls the compiled deck for this request.
    fn plan_entry(&self, req: &CampaignRequest) -> Result<PlanEntry, String> {
        let raw_key = raw_deck_key(&req.deck, &req.params);
        if let Some(canonical) = self.plan_cache.lookup_raw(&raw_key) {
            if let Some(entry) = self.plan_cache.get(&canonical) {
                return Ok(entry);
            }
        }
        let deck =
            parse_deck_with_params(&req.deck, &req.params).map_err(|e| e.to_string())?;
        let title = deck.title.clone();
        let params = deck.params.clone();
        let canonical_deck = Arc::new(
            canonical_deck_bytes(&deck).unwrap_or_else(|_| req.deck.as_bytes().to_vec()),
        );
        let canonical = sha256(&canonical_deck);
        self.plan_cache.memo_raw(raw_key, canonical);
        if let Some(entry) = self.plan_cache.get(&canonical) {
            // A formatting variant of a deck we already compiled: the
            // cached circuit's plan is shared, the fresh parse is
            // discarded.
            return Ok(entry);
        }
        let circuit = deck.into_circuit();
        if circuit.devices().is_empty() {
            return Err("deck holds no devices".to_string());
        }
        circuit.compile_plan();
        let entry = PlanEntry { circuit, title, params, canonical_deck };
        self.plan_cache.insert(canonical, entry.clone());
        Ok(entry)
    }

    /// The pipeline proper (runs under `catch_unwind`).
    fn execute(
        &self,
        req: &CampaignRequest,
        sorted_configs: &[String],
        entry: &PlanEntry,
        options: &DigestOptions,
    ) -> Result<String, CampaignResponse> {
        let macro_options = NetlistMacroOptions {
            derivation: options.derivation,
            bridge_ohms: options.bridge_ohms,
            pinhole_ohms: options.pinhole_ohms,
        };
        let mut mac = NetlistMacro::from_parts(
            req.name.clone(),
            entry.circuit.clone(),
            entry.title.clone(),
            entry.params.clone(),
            macro_options,
        )
        .map_err(|e| CampaignResponse::error(400, "deck_error", &e.to_string()))?;

        let mut described: Vec<Arc<dyn TestConfiguration>> =
            Vec::with_capacity(sorted_configs.len());
        for (i, text) in sorted_configs.iter().enumerate() {
            let description = ConfigDescription::parse(text).map_err(|e| {
                CampaignResponse::error(400, "config_error", &format!("configs[{i}]: {e}"))
            })?;
            let cfg = DescribedConfig::new(i + 1, description).map_err(|e| {
                CampaignResponse::error(400, "config_error", &format!("configs[{i}]: {e}"))
            })?;
            described.push(Arc::new(cfg));
        }
        mac = mac.with_configurations(described);
        if let Some((solver, ordering)) = options.dispatch {
            mac = mac
                .with_solver(solver, ordering)
                .map_err(|e| CampaignResponse::error(400, "config_error", &e.to_string()))?;
        }

        let dict = mac.fault_dictionary().window(options.skip_faults, options.max_faults);
        if dict.is_empty() {
            return Err(CampaignResponse::error(
                422,
                "empty_dictionary",
                "fault selection (skip_faults/max_faults) left no faults",
            ));
        }

        let generator = GeneratorOptions { threads: self.threads, ..GeneratorOptions::default() };
        let campaign = CampaignOptions {
            threads: self.threads,
            max_newton_iters: options.max_newton_iters,
            budget_ms: options.budget_ms,
        };
        let run = run_pipeline(&mac, &dict, &generator, &campaign).map_err(|e| {
            let (kind, message) = match &e {
                PipelineError::Generation { failures, .. } => {
                    let detail: String = failures
                        .iter()
                        .take(5)
                        .map(|(fault, err)| format!("{fault}: {err}; "))
                        .collect();
                    ("generation_failed", format!("{e}: {detail}"))
                }
                PipelineError::Compaction(_) => ("compaction_failed", e.to_string()),
                PipelineError::Evaluation(_) => ("evaluation_failed", e.to_string()),
            };
            CampaignResponse::error(422, kind, &message)
        })?;

        let coverage = &run.coverage;
        let tally = coverage.tally();
        let o = &self.outcomes;
        o.detected.fetch_add(tally.detected as u64, Ordering::Relaxed);
        o.undetected.fetch_add(tally.undetected as u64, Ordering::Relaxed);
        o.unconverged.fetch_add(tally.unconverged as u64, Ordering::Relaxed);
        o.singular.fetch_add(tally.singular as u64, Ordering::Relaxed);
        o.timed_out.fetch_add(tally.timed_out as u64, Ordering::Relaxed);
        o.panicked.fetch_add(tally.panicked as u64, Ordering::Relaxed);
        o.injection_failed.fetch_add(tally.injection_failed as u64, Ordering::Relaxed);
        o.solves.fetch_add(coverage.ladder.solves() as u64, Ordering::Relaxed);
        o.iterations.fetch_add(coverage.ladder.iterations as u64, Ordering::Relaxed);

        Ok(render_json_report(mac.name(), mac.macro_type(), self.threads, &run))
    }
}

/// The raw-memo key: raw deck text + override table, domain-separated.
/// Deck-level (no campaign options) because it memoizes parsing only.
fn raw_deck_key(deck: &str, params: &[(String, f64)]) -> Digest {
    let mut h = Sha256::new();
    let mut field = |tag: &str, bytes: &[u8]| {
        h.update(tag.as_bytes());
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(bytes);
    };
    field("raw_deck", deck.as_bytes());
    let mut sorted: Vec<&(String, f64)> = params.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, value) in sorted {
        field("param", name.as_bytes());
        field("value", &value.to_bits().to_le_bytes());
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = "\
.title R-divider
V1 vin 0 DC 5
R1 vin mid 1k
R2 mid out 1k
R3 out 0 2k
";

    const CFG: &str = "\
macro type: R-divider
test configuration: DC output
control vin: dc(lev)
observe out: dc()
return: dV(out)
parameter lev: 1 .. 8
variable box_rel: 0.05
variable box_gain: 0.5
variable box_floor: 1e-3
seed lev: 5
";

    fn request() -> CampaignRequest {
        CampaignRequest {
            name: "divider".into(),
            deck: DECK.into(),
            configs: vec![CFG.into()],
            params: vec![],
            derivation: castg_faults::BridgeDerivation::Exhaustive,
            bridge_ohms: 10e3,
            pinhole_ohms: 2e3,
            dispatch: None,
            skip_faults: 0,
            max_faults: None,
            max_newton_iters: None,
            budget_ms: None,
        }
    }

    #[test]
    fn miss_then_hit_is_byte_identical() {
        let engine = Engine::new(8, 8, ServerCeilings::default(), 2);
        let miss = engine.run_campaign(&request());
        assert_eq!(miss.status, 200, "{}", String::from_utf8_lossy(&miss.body));
        assert_eq!(miss.cache, CacheStatus::Miss);
        let hit = engine.run_campaign(&request());
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert_eq!(miss.body, hit.body);
        assert_eq!(miss.digest_hex, hit.digest_hex);
        assert_eq!(engine.result_cache.stats().0, 1);
        assert_eq!(engine.campaigns.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn formatting_variant_shares_plan_and_result() {
        let engine = Engine::new(8, 8, ServerCeilings::default(), 2);
        let a = engine.run_campaign(&request());
        // Same deck, different formatting: blanks, comments, number
        // spellings, extra spaces. (Identifier case is deliberately
        // unchanged — net-name spellings surface in report bytes, so
        // case is semantic, not formatting.)
        let mut req = request();
        req.deck = "\
.title R-divider
* a comment line
V1   vin 0   DC 5.0

R1 vin mid 1000
R2 mid out 1K
R3 out 0 2e3
".into();
        let b = engine.run_campaign(&req);
        assert_eq!(b.cache, CacheStatus::Hit, "{}", String::from_utf8_lossy(&b.body));
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn config_reordering_is_digest_neutral() {
        let cfg2 = CFG.replace("DC output", "DC output B").replace("seed lev: 5", "seed lev: 6");
        let engine = Engine::new(8, 8, ServerCeilings::default(), 2);
        let mut req = request();
        req.configs = vec![CFG.into(), cfg2.clone()];
        let a = engine.run_campaign(&req);
        req.configs = vec![cfg2, CFG.into()];
        let b = engine.run_campaign(&req);
        assert_eq!(a.status, 200, "{}", String::from_utf8_lossy(&a.body));
        assert_eq!(b.cache, CacheStatus::Hit);
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn semantic_change_misses() {
        let engine = Engine::new(8, 8, ServerCeilings::default(), 2);
        let a = engine.run_campaign(&request());
        let mut req = request();
        req.deck = DECK.replace("2k", "3k");
        let b = engine.run_campaign(&req);
        assert_eq!(b.cache, CacheStatus::Miss);
        assert_ne!(a.digest_hex, b.digest_hex);
    }

    #[test]
    fn bad_deck_is_a_400() {
        let engine = Engine::new(8, 8, ServerCeilings::default(), 1);
        let mut req = request();
        req.deck = "R1 a\n".into();
        let r = engine.run_campaign(&req);
        assert_eq!(r.status, 400);
        assert!(String::from_utf8_lossy(&r.body).contains("deck_error"));
        assert_eq!(engine.errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bad_config_is_a_400() {
        let engine = Engine::new(8, 8, ServerCeilings::default(), 1);
        let mut req = request();
        req.configs = vec!["not a config".into()];
        let r = engine.run_campaign(&req);
        assert_eq!(r.status, 400);
        assert!(String::from_utf8_lossy(&r.body).contains("config_error"));
    }

    #[test]
    fn empty_fault_slice_is_a_422() {
        let engine = Engine::new(8, 8, ServerCeilings::default(), 1);
        let mut req = request();
        req.skip_faults = 10_000;
        let r = engine.run_campaign(&req);
        assert_eq!(r.status, 422);
        assert!(String::from_utf8_lossy(&r.body).contains("empty_dictionary"));
    }

    /// A configuration that observes a node the deck lacks fails every
    /// fault's generation: a 422 naming the faults, after which the
    /// engine still serves a valid request.
    #[test]
    fn generation_failure_is_a_422_naming_the_faults() {
        let engine = Engine::new(8, 8, ServerCeilings::default(), 1);
        let mut req = request();
        req.configs = vec![CFG.replace("observe out", "observe nowhere")];
        let r = engine.run_campaign(&req);
        assert_eq!(r.status, 422);
        let body = String::from_utf8_lossy(&r.body);
        assert!(body.contains("\"kind\": \"generation_failed\""), "{body}");
        assert!(body.contains("3 of 3 faults failed generation"), "{body}");
        for fault in ["bridge(vin,mid)", "bridge(vin,out)", "bridge(mid,out)"] {
            assert!(body.contains(fault), "{fault} missing from {body}");
        }
        let ok = engine.run_campaign(&request());
        assert_eq!(ok.status, 200, "{}", String::from_utf8_lossy(&ok.body));
    }

    #[test]
    fn over_ceiling_budgets_share_a_digest_with_the_ceiling() {
        let ceilings = ServerCeilings { max_newton_iters: 1000, ..Default::default() };
        let engine = Engine::new(8, 8, ceilings, 2);
        let mut req = request();
        req.max_newton_iters = Some(usize::MAX);
        let a = engine.run_campaign(&req);
        req.max_newton_iters = Some(1000);
        let b = engine.run_campaign(&req);
        assert_eq!(a.digest_hex, b.digest_hex);
        assert_eq!(b.cache, CacheStatus::Hit);
    }
}
