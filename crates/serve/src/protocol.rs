//! The `mio serve` wire protocol: JSON lines in both directions.
//!
//! A client writes one [`Request`] per line; the server answers with a
//! stream of [`Response`] lines tagged with the request's `id` — an
//! `accepted` acknowledgement, zero or more `progress` heartbeats while
//! the request sits in the queue or runs, and exactly one terminal line:
//! `done` (carrying the full `SimReport`/`ClusterReport` JSON in
//! `result`) or `error`. Responses for concurrent requests interleave;
//! the `id` is the correlation key, so clients may pipeline freely.
//!
//! Determinism contract: the `result` payload of a `done` line is
//! byte-identical (once pretty-printed) to the JSON the one-shot
//! `mio sim` writes for the same point, at any worker count —
//! whether it was computed, coalesced onto a concurrent duplicate, or
//! served from the result cache. On the wire it is the report's compact
//! JSON, the same bytes for every answer to one request.

use buffer_cache::CacheConfig;
use experiments::figures::fig8_config;
use iosim::SimConfig;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Write;

/// What one request asks the daemon to simulate (or report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// One Figure 6/7/8 sweep point: two venus copies against a
    /// read-ahead + write-behind cache. Equivalent to
    /// `mio sim --fig8-point MB:BLOCK`; `fig6`/`fig7` are the 32 MB
    /// and 128 MB points of the same family.
    Fig8Point(Fig8PointSpec),
    /// A sharded datacenter campaign, equivalent to
    /// `mio sim --campaign GROUPSxPROCS --shards N`.
    Campaign(CampaignPointSpec),
    /// Obs counters and engine statistics as deterministic JSON.
    Stats,
    /// The engine's RED metrics as a Prometheus text exposition
    /// (`mio stats --prom`). Answered inline like `Stats`; the payload
    /// is a single `Value::Str` holding the exposition body.
    Metrics,
    /// Begin graceful shutdown: drain in-flight work, refuse new
    /// requests, exit once drained.
    Shutdown,
}

/// Parameters of one two-venus cache point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8PointSpec {
    /// Cache capacity in MB.
    pub cache_mb: u64,
    /// Cache block size in bytes.
    pub block: u64,
    /// Trace scale divisor (1 = the paper's full run lengths, 8 =
    /// `--quick`).
    pub scale: u32,
    /// Base trace seed; process `i` replays `seed + i`, like every
    /// figure (`experiments::app_processes`).
    pub seed: u64,
}

impl Fig8PointSpec {
    /// The point's simulator configuration ([`fig8_config`]), or why
    /// the point cannot run: both sizes and the scale must be positive,
    /// and `cache_mb` MB must fit in a `u64` and hold at least one
    /// block. `mio sim --fig8-point`, `mio submit` and the daemon all
    /// check a point here.
    pub fn sim_config(&self) -> Result<SimConfig, &'static str> {
        if self.cache_mb == 0 || self.block == 0 {
            return Err("fig8 point sizes must be positive");
        }
        let capacity = CacheConfig::capacity_of_mb(self.cache_mb, self.block)?;
        if self.scale == 0 {
            return Err("scale must be >= 1");
        }
        Ok(fig8_config(capacity, self.block))
    }
}

/// Parameters of one sharded campaign point. Defaults mirror
/// `CampaignSpec::datacenter`, so a `{groups, procs, shards}` request
/// reproduces `mio sim --campaign` exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignPointSpec {
    /// Node groups.
    pub groups: usize,
    /// Processes per group.
    pub procs: usize,
    /// Engine shard (worker thread) count for this campaign.
    pub shards: usize,
    /// Trace scale divisor; `mio sim --campaign` uses 16.
    pub scale: u32,
    /// Base trace seed; `mio sim --campaign` uses 42.
    pub seed: u64,
}

impl CampaignPointSpec {
    /// The spec matching `mio sim --campaign GROUPSxPROCS --shards N`.
    pub fn datacenter(groups: usize, procs: usize, shards: usize) -> CampaignPointSpec {
        CampaignPointSpec { groups, procs, shards, scale: 16, seed: 42 }
    }
}

/// One client request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed on every response line.
    pub id: u64,
    /// Client name for fair queueing; requests sharing a name share one
    /// deficit-round-robin queue. Empty/absent means the connection's
    /// default client.
    pub client: Option<String>,
    /// What to run.
    pub body: RequestBody,
}

/// One server response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    /// `accepted`, `progress`, `done`, or `error`.
    pub event: String,
    /// On `done`: whether the result came from the bounded result cache
    /// (or was coalesced onto an identical in-flight request) rather
    /// than freshly computed.
    pub cached: Option<bool>,
    /// On `done`: the full report JSON.
    pub result: Option<Value>,
    /// On `error`: what went wrong (`queue full`, `shutting down`, a
    /// parse failure...).
    pub error: Option<String>,
    /// On `progress`: simulated events per second since the request was
    /// accepted (whole-process rate, like the sweep heartbeat).
    pub rate: Option<f64>,
    /// On `progress`: estimated seconds to completion from the mean
    /// observed service time of this request type; `None` when no
    /// execution of the type has finished yet.
    pub eta_secs: Option<u64>,
}

impl Response {
    fn base(id: u64, event: &str) -> Response {
        Response {
            id,
            event: event.into(),
            cached: None,
            result: None,
            error: None,
            rate: None,
            eta_secs: None,
        }
    }

    /// An `accepted` acknowledgement.
    pub fn accepted(id: u64) -> Response {
        Response::base(id, "accepted")
    }

    /// A `progress` heartbeat carrying the current simulated-event rate
    /// and (when service-time history exists) an ETA.
    pub fn progress(id: u64, rate: f64, eta_secs: Option<u64>) -> Response {
        Response { rate: Some(rate), eta_secs, ..Response::base(id, "progress") }
    }

    /// A terminal `done` line carrying the report.
    pub fn done(id: u64, result: Value, cached: bool) -> Response {
        Response { cached: Some(cached), result: Some(result), ..Response::base(id, "done") }
    }

    /// A terminal `error` line.
    pub fn error(id: u64, msg: impl Into<String>) -> Response {
        Response { error: Some(msg.into()), ..Response::base(id, "error") }
    }
}

/// Append the terminal `done` line for `id` to `out`, without a newline:
/// `result`, a compact JSON document, is copied in verbatim. The line is
/// byte-identical to serializing [`Response::done`] of the parsed
/// `result`, without building or printing the report's value tree.
pub fn write_done_line(out: &mut String, id: u64, result: &str, cached: bool) {
    let _ = write!(out, r#"{{"id":{id},"event":"done","cached":{cached},"result":"#);
    out.push_str(result);
    out.push_str(r#","error":null,"rate":null,"eta_secs":null}"#);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonical_hash;

    #[test]
    fn request_roundtrips_through_json() {
        let req = Request {
            id: 7,
            client: Some("bench".into()),
            body: RequestBody::Fig8Point(Fig8PointSpec {
                cache_mb: 32,
                block: 4096,
                scale: 8,
                seed: 42,
            }),
        };
        let line = serde_json::to_string(&req).expect("serialize");
        let back: Request = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, req);
    }

    #[test]
    fn done_lines_from_result_bytes_match_the_serialized_response() {
        let report = Value::Map(vec![
            ("name".into(), Value::Str("venus \"x2\"".into())),
            ("idle".into(), Value::F64(0.25)),
            ("ios".into(), Value::Seq(vec![Value::U64(3), Value::F64(2.0), Value::Null])),
            ("empty".into(), Value::Map(vec![])),
        ]);
        let bytes = serde_json::to_string(&report).expect("serialize");
        for id in [0, 1, u64::MAX] {
            for cached in [false, true] {
                let mut line = String::new();
                write_done_line(&mut line, id, &bytes, cached);
                let parsed: Value = serde_json::from_str(&bytes).expect("parse");
                let expected = serde_json::to_string(&Response::done(id, parsed, cached))
                    .expect("serialize");
                assert_eq!(line, expected, "id={id} cached={cached}");
                let back: Response = serde_json::from_str(&line).expect("parse the line");
                assert_eq!(back, Response::done(id, report.clone(), cached));
            }
        }
    }

    #[test]
    fn unit_variants_roundtrip() {
        for body in [RequestBody::Stats, RequestBody::Metrics, RequestBody::Shutdown] {
            let line = serde_json::to_string(&body).expect("serialize");
            let back: RequestBody = serde_json::from_str(&line).expect("parse");
            assert_eq!(back, body);
        }
    }

    #[test]
    fn field_order_on_the_wire_does_not_change_the_key() {
        let a: RequestBody = serde_json::from_str(
            r#"{"Fig8Point":{"cache_mb":32,"block":4096,"scale":8,"seed":42}}"#,
        )
        .expect("parse");
        let b: RequestBody = serde_json::from_str(
            r#"{"Fig8Point":{"seed":42,"scale":8,"block":4096,"cache_mb":32}}"#,
        )
        .expect("parse");
        assert_eq!(canonical_hash(&a), canonical_hash(&b));
    }

    #[test]
    fn each_field_reaches_the_key() {
        let base = Fig8PointSpec { cache_mb: 32, block: 4096, scale: 8, seed: 42 };
        let h0 = canonical_hash(&RequestBody::Fig8Point(base.clone()));
        let variants = [
            Fig8PointSpec { cache_mb: 33, ..base.clone() },
            Fig8PointSpec { block: 8192, ..base.clone() },
            Fig8PointSpec { scale: 16, ..base.clone() },
            Fig8PointSpec { seed: 43, ..base.clone() },
        ];
        for v in variants {
            assert_ne!(h0, canonical_hash(&RequestBody::Fig8Point(v.clone())), "{v:?}");
        }
        let c = CampaignPointSpec::datacenter(24, 16, 4);
        let hc = canonical_hash(&RequestBody::Campaign(c.clone()));
        assert_ne!(h0, hc, "different request kinds never collide");
        assert_ne!(
            hc,
            canonical_hash(&RequestBody::Campaign(CampaignPointSpec {
                seed: 43,
                ..c.clone()
            }))
        );
    }
}
