//! Typed campaign requests: the JSON body of `POST /v1/campaign`
//! decoded into a [`CampaignRequest`], plus the server-side
//! [`ServerCeilings`] every request's budgets are clamped under.

use castg_faults::BridgeDerivation;
use castg_spice::{OrderingKind, SolverKind};

use crate::json::Json;

/// One campaign job, as posted by a client.
///
/// ```json
/// {
///   "name": "divider",
///   "deck": "V1 vin 0 DC 5\nR1 vin out 1k\nR2 out 0 2k\n",
///   "configs": ["macro type: ...\ntest configuration: ...\n..."],
///   "params": {"rload": 2e3},
///   "faults": "exhaustive",
///   "ordering": "auto",
///   "bridge_ohms": 10e3,
///   "pinhole_ohms": 2e3,
///   "skip_faults": 0,
///   "max_faults": 100,
///   "max_newton_iters": 2000,
///   "budget_ms": 5000
/// }
/// ```
///
/// `deck` and `configs` are required; everything else defaults exactly
/// like the `castg generate` CLI flags of the same names. Unknown
/// top-level fields are rejected (a typo must not silently change the
/// cache key semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// Macro name used in the report (default `"netlist"`).
    pub name: String,
    /// The SPICE deck text.
    pub deck: String,
    /// Configuration description texts (the server sorts these into
    /// canonical order before assigning ids).
    pub configs: Vec<String>,
    /// `.param` overrides, `name → value`.
    pub params: Vec<(String, f64)>,
    /// Bridge-derivation mode.
    pub derivation: BridgeDerivation,
    /// Dictionary bridge resistance (ohms).
    pub bridge_ohms: f64,
    /// Dictionary pinhole resistance (ohms).
    pub pinhole_ohms: f64,
    /// Forced solver/ordering pair (`None` = heuristics).
    pub dispatch: Option<(SolverKind, OrderingKind)>,
    /// Faults skipped off the front of the dictionary.
    pub skip_faults: usize,
    /// Dictionary truncation after the skip.
    pub max_faults: Option<usize>,
    /// Requested Newton-iteration allowance per coverage item.
    pub max_newton_iters: Option<usize>,
    /// Requested wall-clock budget per coverage item (ms).
    pub budget_ms: Option<u64>,
}

/// Server-enforced ceilings on per-request resources. Every request's
/// effective budget is `min(requested, ceiling)`; a request that asks
/// for nothing gets the ceiling. This bounds what any one tenant can
/// pin a worker for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCeilings {
    /// Hard cap on faults per campaign (after skip/max slicing).
    pub max_faults: usize,
    /// Hard cap on configs per campaign.
    pub max_configs: usize,
    /// Newton-iteration ceiling per `(fault, test)` coverage cell.
    pub max_newton_iters: usize,
    /// Wall-clock ceiling per `(fault, test)` coverage cell (ms).
    pub budget_ms: u64,
    /// Hard cap on jobs in one `POST /v1/batch`.
    pub max_batch_jobs: usize,
}

impl Default for ServerCeilings {
    fn default() -> Self {
        ServerCeilings {
            max_faults: 4096,
            max_configs: 64,
            max_newton_iters: 200_000,
            budget_ms: 60_000,
            max_batch_jobs: 256,
        }
    }
}

impl ServerCeilings {
    /// The effective Newton allowance for a request: the requested
    /// value clamped under the ceiling, or the ceiling when absent.
    pub fn clamp_newton(&self, requested: Option<usize>) -> usize {
        requested.map_or(self.max_newton_iters, |v| v.min(self.max_newton_iters))
    }

    /// The effective wall-clock budget for a request.
    pub fn clamp_budget_ms(&self, requested: Option<u64>) -> u64 {
        requested.map_or(self.budget_ms, |v| v.min(self.budget_ms))
    }
}

/// A request-decoding error, reported as HTTP 400.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError(pub String);

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RequestError {}

fn err<T>(msg: impl Into<String>) -> Result<T, RequestError> {
    Err(RequestError(msg.into()))
}

const KNOWN_FIELDS: &[&str] = &[
    "name",
    "deck",
    "configs",
    "params",
    "faults",
    "ordering",
    "bridge_ohms",
    "pinhole_ohms",
    "skip_faults",
    "max_faults",
    "max_newton_iters",
    "budget_ms",
];

impl CampaignRequest {
    /// Decodes one campaign job from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// [`RequestError`] naming the offending field for missing/extra
    /// fields, wrong types, or out-of-range values.
    pub fn from_json(v: &Json) -> Result<Self, RequestError> {
        let members = match v.as_object() {
            Some(m) => m,
            None => return err(format!("request body must be an object, got {}", v.type_name())),
        };
        for (key, _) in members {
            if !KNOWN_FIELDS.contains(&key.as_str()) {
                return err(format!(
                    "unknown field `{key}` (known: {})",
                    KNOWN_FIELDS.join(", ")
                ));
            }
        }

        let deck = match v.get("deck").map(|d| (d.as_str(), d.type_name())) {
            Some((Some(s), _)) => s.to_string(),
            Some((None, t)) => return err(format!("`deck` must be a string, got {t}")),
            None => return err("missing required field `deck`"),
        };
        let configs_v = match v.get("configs") {
            Some(c) => c,
            None => return err("missing required field `configs`"),
        };
        let configs_arr = match configs_v.as_array() {
            Some(a) => a,
            None => {
                return err(format!("`configs` must be an array, got {}", configs_v.type_name()))
            }
        };
        if configs_arr.is_empty() {
            return err("`configs` must hold at least one configuration description");
        }
        let mut configs = Vec::with_capacity(configs_arr.len());
        for (i, c) in configs_arr.iter().enumerate() {
            match c.as_str() {
                Some(s) => configs.push(s.to_string()),
                None => return err(format!("`configs[{i}]` must be a string, got {}", c.type_name())),
            }
        }

        let name = match v.get("name") {
            None => "netlist".to_string(),
            Some(n) => match n.as_str() {
                Some(s) => s.to_string(),
                None => return err(format!("`name` must be a string, got {}", n.type_name())),
            },
        };

        let mut params = Vec::new();
        if let Some(p) = v.get("params") {
            let members = match p.as_object() {
                Some(m) => m,
                None => return err(format!("`params` must be an object, got {}", p.type_name())),
            };
            for (pname, pval) in members {
                match pval.as_f64() {
                    Some(x) => params.push((pname.clone(), x)),
                    None => {
                        return err(format!(
                            "`params.{pname}` must be a number, got {}",
                            pval.type_name()
                        ))
                    }
                }
            }
        }

        let derivation = match v.get("faults") {
            None => BridgeDerivation::Exhaustive,
            Some(f) => match f.as_str() {
                Some("exhaustive") => BridgeDerivation::Exhaustive,
                Some("adjacent") => BridgeDerivation::Adjacent,
                Some(other) => {
                    return err(format!("`faults` must be exhaustive or adjacent, got `{other}`"))
                }
                None => return err(format!("`faults` must be a string, got {}", f.type_name())),
            },
        };

        let dispatch = match v.get("ordering") {
            None => None,
            Some(o) => match o.as_str() {
                Some("auto") => None,
                Some("natural") => Some((SolverKind::Sparse, OrderingKind::Natural)),
                Some("amd") => Some((SolverKind::Sparse, OrderingKind::Amd)),
                Some("btf") => Some((SolverKind::Sparse, OrderingKind::Btf)),
                Some(other) => {
                    return err(format!(
                        "`ordering` must be auto, natural, amd or btf, got `{other}`"
                    ))
                }
                None => return err(format!("`ordering` must be a string, got {}", o.type_name())),
            },
        };

        let num = |field: &str| -> Result<Option<f64>, RequestError> {
            match v.get(field) {
                None => Ok(None),
                Some(n) => match n.as_f64() {
                    Some(x) if x > 0.0 => Ok(Some(x)),
                    Some(_) => err(format!("`{field}` must be positive")),
                    None => err(format!("`{field}` must be a number, got {}", n.type_name())),
                },
            }
        };
        let uint = |field: &str| -> Result<Option<usize>, RequestError> {
            match v.get(field) {
                None => Ok(None),
                Some(n) => match n.as_usize() {
                    Some(x) => Ok(Some(x)),
                    None => err(format!(
                        "`{field}` must be a non-negative integer, got {}",
                        n.type_name()
                    )),
                },
            }
        };

        Ok(CampaignRequest {
            name,
            deck,
            configs,
            params,
            derivation,
            bridge_ohms: num("bridge_ohms")?.unwrap_or(10e3),
            pinhole_ohms: num("pinhole_ohms")?.unwrap_or(2e3),
            dispatch,
            skip_faults: uint("skip_faults")?.unwrap_or(0),
            max_faults: uint("max_faults")?,
            max_newton_iters: uint("max_newton_iters")?,
            budget_ms: uint("budget_ms")?.map(|v| v as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn decode(body: &str) -> Result<CampaignRequest, RequestError> {
        CampaignRequest::from_json(&parse_json(body.as_bytes()).unwrap())
    }

    #[test]
    fn minimal_request_gets_cli_defaults() {
        let r = decode(r#"{"deck":"R1 a 0 1k\n","configs":["cfg"]}"#).unwrap();
        assert_eq!(r.name, "netlist");
        assert_eq!(r.derivation, BridgeDerivation::Exhaustive);
        assert_eq!(r.bridge_ohms, 10e3);
        assert_eq!(r.pinhole_ohms, 2e3);
        assert_eq!(r.dispatch, None);
        assert_eq!(r.skip_faults, 0);
        assert_eq!(r.max_faults, None);
        assert_eq!(r.max_newton_iters, None);
        assert_eq!(r.budget_ms, None);
    }

    #[test]
    fn full_request_round_trips() {
        let r = decode(
            r#"{"name":"ota","deck":"d","configs":["b","a"],
                "params":{"w":2.0},"faults":"adjacent","ordering":"btf",
                "bridge_ohms":5e3,"pinhole_ohms":1e3,"skip_faults":2,
                "max_faults":10,"max_newton_iters":500,"budget_ms":100}"#,
        )
        .unwrap();
        assert_eq!(r.name, "ota");
        assert_eq!(r.configs, vec!["b".to_string(), "a".to_string()]);
        assert_eq!(r.derivation, BridgeDerivation::Adjacent);
        assert_eq!(r.dispatch, Some((SolverKind::Sparse, OrderingKind::Btf)));
        assert_eq!(r.params, vec![("w".to_string(), 2.0)]);
        assert_eq!(r.skip_faults, 2);
        assert_eq!(r.max_faults, Some(10));
        assert_eq!(r.max_newton_iters, Some(500));
        assert_eq!(r.budget_ms, Some(100));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let e = decode(r#"{"deck":"d","configs":["c"],"thread":4}"#).unwrap_err();
        assert!(e.0.contains("unknown field `thread`"), "{e}");
    }

    #[test]
    fn typed_field_errors() {
        for (body, needle) in [
            (r#"{"configs":["c"]}"#, "missing required field `deck`"),
            (r#"{"deck":"d"}"#, "missing required field `configs`"),
            (r#"{"deck":"d","configs":[]}"#, "at least one"),
            (r#"{"deck":"d","configs":[1]}"#, "`configs[0]` must be a string"),
            (r#"{"deck":"d","configs":["c"],"faults":"all"}"#, "`faults` must be"),
            (r#"{"deck":"d","configs":["c"],"ordering":"rcm"}"#, "`ordering` must be"),
            (r#"{"deck":"d","configs":["c"],"max_faults":-1}"#, "non-negative integer"),
            (r#"{"deck":"d","configs":["c"],"bridge_ohms":0}"#, "must be positive"),
            (r#"[1]"#, "must be an object"),
        ] {
            let e = decode(body).unwrap_err();
            assert!(e.0.contains(needle), "body {body}: got `{e}`");
        }
    }

    #[test]
    fn ceilings_clamp() {
        let c = ServerCeilings { max_newton_iters: 100, budget_ms: 50, ..Default::default() };
        assert_eq!(c.clamp_newton(None), 100);
        assert_eq!(c.clamp_newton(Some(1000)), 100);
        assert_eq!(c.clamp_newton(Some(7)), 7);
        assert_eq!(c.clamp_budget_ms(None), 50);
        assert_eq!(c.clamp_budget_ms(Some(500)), 50);
        assert_eq!(c.clamp_budget_ms(Some(5)), 5);
    }
}
