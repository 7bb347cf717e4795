//! Shared helpers for the cross-crate integration tests.

use skyline_core::dataset::Dataset;
use skyline_core::dominance::{dominance, DomRelation};
use skyline_core::point::PointId;
use skyline_obs::json::Value;

/// The in-tree HTTP client, re-exported for the server tests.
pub use skyline_serve::client as http_client;

/// Start a `skyline-serve` instance on an ephemeral port with
/// test-friendly defaults.
pub fn start_server() -> skyline_serve::ServerHandle {
    skyline_serve::Server::start(skyline_serve::ServerConfig {
        threads: 4,
        cache_capacity: 64,
        ..Default::default()
    })
    .expect("start test server")
}

/// Render rows as the JSON array-of-arrays the server expects, with the
/// encoder the services use: values round-trip exactly (±∞ included),
/// so the server sees the same values the test computes with locally.
pub fn rows_json(rows: &[Vec<f64>]) -> String {
    skyline_obs::json::rows_json(rows.iter().map(Vec::as_slice))
}

/// Parse a `/skyline` response body into `(version, cached, ids)`.
pub fn parse_skyline_response(body: &str) -> (u64, bool, Vec<PointId>) {
    let v = Value::parse(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"));
    let version = v.get("version").and_then(Value::as_u64).expect("version");
    let cached = match v.get("cached") {
        Some(Value::Bool(b)) => *b,
        other => panic!("bad \"cached\" field {other:?}"),
    };
    let ids = v
        .get("ids")
        .and_then(Value::as_arr)
        .expect("ids")
        .iter()
        .map(|x| x.as_u64().expect("numeric id") as PointId)
        .collect();
    (version, cached, ids)
}

/// Brute-force quadratic skyline — the oracle every algorithm is checked
/// against. Independent of any crate algorithm (including BNL).
pub fn oracle_skyline(data: &Dataset) -> Vec<PointId> {
    let mut out = Vec::new();
    for (i, p) in data.iter() {
        let mut dominated = false;
        for (j, q) in data.iter() {
            if i != j && dominance(q, p) == DomRelation::Dominates {
                dominated = true;
                break;
            }
        }
        if !dominated {
            out.push(i);
        }
    }
    out
}

/// The standard small workload grid used across the integration tests:
/// all three distributions at a few (n, d) shapes.
pub fn workload_grid() -> Vec<(Dataset, String)> {
    let mut out = Vec::new();
    for dist in [
        skyline_data::Distribution::Independent,
        skyline_data::Distribution::Correlated,
        skyline_data::Distribution::AntiCorrelated,
    ] {
        for &(n, d) in &[(200usize, 2usize), (300, 4), (300, 6), (200, 8), (150, 10)] {
            let spec = skyline_data::SyntheticSpec {
                distribution: dist,
                cardinality: n,
                dims: d,
                seed: 0xBEEF + n as u64 + d as u64,
            };
            out.push((spec.generate(), format!("{} n={n} d={d}", dist.tag())));
        }
    }
    out
}
