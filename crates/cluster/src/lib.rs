//! `skyline-cluster` — sharded multi-node skyline serving.
//!
//! A coordinator process fronting N independent `skyline-serve` shard
//! nodes over the same zero-dependency HTTP stack. Rows are partitioned
//! by a deterministic hash of their coordinator-assigned global id
//! ([`shard_map::shard_of`]); the cluster-level registry (which global
//! id lives on which shard under which local handle) is persisted in
//! the coordinator's own WAL-style JSONL manifest ([`manifest`]).
//!
//! ## Query path: scatter-gather with the subset merge
//!
//! `GET /skyline` scatters to every shard with `include_masks=1&
//! include_rows=1`, so each shard answers with its local skyline *plus*
//! each point's maximum dominating subspace w.r.t. the shard's own
//! elite reference set, the elite positions, and the raw coordinates.
//! The coordinator translates shard handles back to global ids and
//! finishes with [`skyline_core::shard_merge::merge_shard_skylines`] —
//! the exact code path the in-process parallel engine uses — taking the
//! global reference set to be the union of the per-shard elites. The
//! shard-supplied premasks already cover same-shard elites, so the
//! coordinator only pays cross-shard dominance tests during subspace
//! assignment, and cluster answers match a single-node server fed the
//! same rows id-for-id.
//!
//! ## Degraded operation
//!
//! Shard calls go through the retrying client with a total-deadline
//! budget derived from the request's `deadline_ms`; a shard that stays
//! down after retries is *skipped*, and the response carries
//! `"partial": true` plus the missing shard list — the skyline of the
//! surviving shards' rows, not an error. Mutations are stricter: a
//! failed shard fails the request (502) after applying what succeeded,
//! because silently dropping writes would corrupt the registry.
//!
//! Telemetry: every shard call emits a `shard_rpc` trace event and
//! feeds per-shard latency/error counters in `/metrics`; every merge
//! emits `cluster_merge`. `skyline report` renders both.
//!
//! The HTTP front end (accept thread, keep-alive connections, running
//! handle, trace sinks) is the shard server's own
//! [`skyline_serve::service`], and requests are parsed by the shard
//! server's [`skyline_serve::api`], so both refuse a bad request alike.

mod admin;
mod failover;
pub mod manifest;
mod mutation;
mod query;
mod rpc;
pub mod shard_map;

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use skyline_serve::client::RetryPolicy;
use skyline_serve::http::{self, Request, Response};
use skyline_serve::service::{self, FrontConfig, FrontEnd, Service};

use admin::{handle_healthz, handle_list, handle_metrics};
use failover::run_prober;
use manifest::Manifest;
use mutation::{handle_create, handle_insert, handle_remove};
use query::handle_skyline;
use shard_map::DatasetState;

/// Per-connection socket read/write timeout.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Coordinator configuration. Built with [`ClusterConfig::new`] from
/// the shard address list; everything else has serving defaults.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bind address, `"host:port"`; port 0 picks an ephemeral port.
    pub bind: String,
    /// Shard node addresses, in shard-id order. The order *is* the
    /// sharding function's codomain: restarting the cluster with the
    /// shards permuted mis-routes every row.
    pub shards: Vec<SocketAddr>,
    /// Worker threads for request handling.
    pub threads: usize,
    /// Request body cap, bytes.
    pub max_body: usize,
    /// JSON-lines trace sink (`shard_rpc`, `cluster_merge`, `request`
    /// events).
    pub trace: Option<PathBuf>,
    /// WAL-style JSONL manifest path; `None` keeps the registry in
    /// memory only.
    pub manifest: Option<PathBuf>,
    /// Base retry policy for shard calls. Per-request deadline budgets
    /// override [`RetryPolicy::budget`].
    pub retry: RetryPolicy,
    /// Slow-query threshold, milliseconds: a `/skyline` request whose
    /// wall-clock reaches it gets its stitched stage breakdown written
    /// as a JSONL `stage_breakdown` record. `0` disables the slow log.
    pub slow_ms: u64,
    /// Dedicated slow-query log path. `None` routes slow records to the
    /// `trace` sink instead.
    pub slow_log: Option<PathBuf>,
    /// Read replicas per shard, in shard-id order (`skyline serve
    /// --follow` followers of that shard). When a shard has replicas,
    /// `/skyline` scatter legs go to them round-robin; writes always
    /// stay on the primaries. Empty = read from primaries only.
    pub replicas: Vec<Vec<SocketAddr>>,
    /// Bounded staleness for replica reads: the largest self-reported
    /// replica lag (versions behind the primary, from the
    /// `X-Skyline-Replica-Lag` header) a read leg accepts before
    /// falling back to the primary. 0 = only fully caught-up replicas.
    pub replica_staleness: u64,
    /// Run the failure detector: probe every shard primary's `/healthz`
    /// on a jittered cadence and, on [`ClusterConfig::suspect_misses`]
    /// consecutive misses, promote that shard's most-caught-up replica
    /// under a fresh fencing epoch. Off by default — failover without
    /// replicas to promote would only add probe traffic.
    pub failover: bool,
    /// Failure-detector probe cadence, milliseconds (also the probe's
    /// connect/read timeout).
    pub probe_ms: u64,
    /// Consecutive missed probes before a primary is declared dead and
    /// a promotion is attempted.
    pub suspect_misses: u32,
}

impl ClusterConfig {
    /// Defaults for a cluster over `shards`.
    pub fn new(shards: Vec<SocketAddr>) -> ClusterConfig {
        ClusterConfig {
            bind: "127.0.0.1:0".to_string(),
            shards,
            threads: 4,
            max_body: http::DEFAULT_MAX_BODY,
            trace: None,
            manifest: None,
            // Shards shed with 503 + Retry-After under overload and a
            // restarting shard refuses connections briefly, so a couple
            // of quick retries ride out both.
            retry: RetryPolicy {
                attempts: 3,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(200),
                budget: None,
            },
            slow_ms: 0,
            slow_log: None,
            replicas: Vec::new(),
            replica_staleness: 0,
            failover: false,
            probe_ms: 500,
            suspect_misses: 3,
        }
    }
}

/// Per-shard RPC counters surfaced in `/metrics`.
#[derive(Debug, Default)]
struct ShardStats {
    /// Logical calls (one per scatter leg, however many attempts).
    requests: AtomicU64,
    /// Calls that ended in a transport error or a >= 400 status.
    errors: AtomicU64,
    /// Attempts across all calls (attempts > requests ⇒ retries fired).
    attempts: AtomicU64,
    /// Wall-clock across all calls, µs (includes backoff between
    /// retries).
    total_us: AtomicU64,
}

/// Mutable routing state: which node is each shard's primary right
/// now, which are its replicas, and the shard's fencing epoch. Guarded
/// by one `RwLock` — request paths take brief read snapshots, only the
/// failure detector writes (on promotion and stale-node reintegration).
#[derive(Debug, Clone)]
struct Topology {
    /// Primary address per shard — the write target.
    primaries: Vec<SocketAddr>,
    /// Read replicas per shard (empty inner vec = primary reads only).
    replicas: Vec<Vec<SocketAddr>>,
    /// Fencing epoch per shard. 0 until the first failover; every
    /// promotion raises it by one, and writes stamp it so a deposed
    /// primary that comes back refuses them with `409 Fenced`.
    epochs: Vec<u64>,
    /// Deposed primaries (and replicas that missed their demotion
    /// notice), waiting to be demoted into the replica pool when they
    /// resurface. Probed each detector round.
    stale: Vec<Vec<SocketAddr>>,
}

/// State shared by every coordinator worker.
struct Shared {
    front: FrontEnd,
    /// Number of shards — fixed for the cluster's lifetime even as the
    /// topology's addresses move around.
    shard_count: usize,
    topology: std::sync::RwLock<Topology>,
    shard_stats: Vec<ShardStats>,
    /// The registry. Its lock guards the name table only and is held
    /// just for a lookup; each dataset's state has its own lock, which a
    /// write holds across its shard fan-out, so versions and handle maps
    /// stay in order while requests for other datasets go on.
    datasets: Mutex<HashMap<String, Arc<Mutex<DatasetState>>>>,
    /// Names whose create is fanning out. A name is reserved here under
    /// the `datasets` lock, so the fan-out runs without that lock and a
    /// racing create of the same name still gets 409.
    creating: Mutex<HashSet<String>>,
    manifest: Option<Mutex<Manifest>>,
    replayed: u64,
    retry: RetryPolicy,
    /// Largest acceptable self-reported replica lag, versions.
    replica_staleness: u64,
    /// Round-robin cursor over each shard's replica list (one shared
    /// counter is fine: it only spreads load, it carries no meaning).
    replica_rr: AtomicUsize,
    /// Scatter read legs that were routed to a replica first.
    replica_requests: AtomicU64,
    /// Replica-first legs that fell back to the primary (unreachable,
    /// error status, or staleness beyond the bound).
    replica_fallbacks: AtomicU64,
    /// Run the failure detector / promotion loop.
    failover: bool,
    /// Detector probe cadence and per-probe timeout, milliseconds.
    probe_ms: u64,
    /// Consecutive missed probes before promotion fires.
    suspect_misses: u32,
    /// Successful automatic promotions since boot.
    promotions_total: AtomicU64,
}

impl Service for Shared {
    fn front(&self) -> &FrontEnd {
        &self.front
    }

    fn route(&self, req: &Request) -> (Response, &'static str) {
        route(self, req)
    }
}

impl Shared {
    /// Read-locked topology snapshot accessors. Each takes the lock
    /// briefly; callers hold copies, never the guard, so the failure
    /// detector's write lock is never starved.
    fn primary_of(&self, shard: usize) -> SocketAddr {
        self.topology
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .primaries[shard]
    }

    fn epoch_of(&self, shard: usize) -> u64 {
        self.topology
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .epochs[shard]
    }

    fn replicas_of(&self, shard: usize) -> Vec<SocketAddr> {
        self.topology
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .replicas[shard]
            .clone()
    }
}

/// A running coordinator: the shared front end's handle. Dropping it
/// shuts the coordinator down.
pub type ClusterHandle = service::Running;

/// The coordinator: binds, spawns the accept loop, returns a handle.
pub struct Cluster;

impl Cluster {
    /// Bind `config.bind` and start coordinating `config.shards`.
    pub fn start(config: ClusterConfig) -> io::Result<ClusterHandle> {
        if config.shards.is_empty() {
            return Err(io::Error::other("cluster needs at least one shard"));
        }
        if !config.replicas.is_empty() && config.replicas.len() != config.shards.len() {
            return Err(io::Error::other(format!(
                "--replicas lists {} shards, the cluster has {}",
                config.replicas.len(),
                config.shards.len()
            )));
        }
        let (listener, front) = FrontEnd::bind(FrontConfig {
            bind: config.bind.clone(),
            name: "cluster",
            threads: config.threads,
            request_timeout: REQUEST_TIMEOUT,
            max_body: config.max_body,
            queue_limit: 0,
            trace: config.trace.clone(),
            slow_ms: config.slow_ms,
            slow_log: config.slow_log.clone(),
        })?;
        let shard_count = config.shards.len();
        let (manifest, datasets, replayed, promote_epochs, promote_primaries) =
            match &config.manifest {
                Some(path) => {
                    let (m, replay) = Manifest::open(path, shard_count)?;
                    (
                        Some(Mutex::new(m)),
                        replay.datasets,
                        replay.records,
                        replay.epochs,
                        replay.primaries,
                    )
                }
                None => (
                    None,
                    HashMap::new(),
                    0,
                    vec![0; shard_count],
                    vec![None; shard_count],
                ),
            };
        // Boot topology: the configured order, then replayed promote
        // records applied on top — a restarted coordinator routes to
        // the promoted primaries, not the addresses it was booted with.
        let mut primaries = config.shards;
        let mut replicas = if config.replicas.is_empty() {
            vec![Vec::new(); shard_count]
        } else {
            config.replicas
        };
        let mut stale: Vec<Vec<SocketAddr>> = vec![Vec::new(); shard_count];
        for shard in 0..shard_count {
            if let Some(promoted) = promote_primaries[shard] {
                if promoted != primaries[shard] {
                    let deposed = primaries[shard];
                    replicas[shard].retain(|a| *a != promoted);
                    stale[shard].push(deposed);
                    primaries[shard] = promoted;
                }
            }
        }
        let shared = Arc::new(Shared {
            front,
            shard_count,
            shard_stats: (0..shard_count).map(|_| ShardStats::default()).collect(),
            topology: std::sync::RwLock::new(Topology {
                primaries,
                replicas,
                epochs: promote_epochs,
                stale,
            }),
            datasets: Mutex::new(
                datasets
                    .into_iter()
                    .map(|(name, state)| (name, Arc::new(Mutex::new(state))))
                    .collect(),
            ),
            creating: Mutex::new(HashSet::new()),
            manifest,
            replayed,
            retry: config.retry,
            replica_staleness: config.replica_staleness,
            replica_rr: AtomicUsize::new(0),
            replica_requests: AtomicU64::new(0),
            replica_fallbacks: AtomicU64::new(0),
            failover: config.failover,
            probe_ms: config.probe_ms.max(10),
            suspect_misses: config.suspect_misses.max(1),
            promotions_total: AtomicU64::new(0),
        });
        let mut running = service::start(listener, shared.clone())?;
        if shared.failover {
            let probe_shared = Arc::clone(&shared);
            running.spawn("cluster-prober", move || run_prober(probe_shared))?;
        }
        Ok(running)
    }
}

/// Dispatch one request; returns the response plus the normalised
/// endpoint label for metrics and trace events.
fn route(shared: &Shared, req: &Request) -> (Response, &'static str) {
    if let Some(name) = req
        .path
        .strip_prefix("/datasets/")
        .and_then(|rest| rest.strip_suffix("/points"))
    {
        let endpoint = "/datasets/{name}/points";
        let response = match req.method.as_str() {
            "POST" => handle_insert(shared, name, req),
            "DELETE" => handle_remove(shared, name, req),
            _ => Err(Response::error(405, "points supports POST and DELETE")),
        };
        return (response.unwrap_or_else(|refusal| refusal), endpoint);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (handle_healthz(shared), "/healthz"),
        ("GET", "/metrics") => (handle_metrics(shared, req), "/metrics"),
        ("GET", "/skyline") => (
            handle_skyline(shared, req).unwrap_or_else(|refusal| refusal),
            "/skyline",
        ),
        ("GET", "/datasets") => (handle_list(shared), "/datasets"),
        ("POST", "/datasets") => (
            handle_create(shared, req).unwrap_or_else(|refusal| refusal),
            "/datasets",
        ),
        ("POST", "/shutdown") => (shared.front.handle_shutdown(), "/shutdown"),
        (_, "/healthz" | "/metrics" | "/skyline" | "/datasets" | "/shutdown") => (
            Response::error(405, "method not allowed on this endpoint"),
            "(bad-method)",
        ),
        _ => (
            Response::error(404, &format!("no such endpoint {}", req.path)),
            "(unknown)",
        ),
    }
}

/// The named dataset's state, looked up under the registry lock, which
/// is released before the caller locks the state.
fn dataset(shared: &Shared, name: &str) -> Result<Arc<Mutex<DatasetState>>, Response> {
    shared
        .datasets
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
        .cloned()
        .ok_or_else(|| no_dataset(name))
}

/// The 404 for a dataset the coordinator's registry does not hold.
fn no_dataset(name: &str) -> Response {
    Response::error(404, &format!("no dataset {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::{parse_insert_handles, quoted};
    use crate::query::parse_shard_skyline;
    use crate::rpc::encode_component;
    use skyline_obs::json::{self, Value};
    use skyline_serve::client::ClientResponse;

    #[test]
    fn component_encoding_round_trips_through_the_server_decoder() {
        let raw = "hotels 2024/EU?x=1&y=2";
        let encoded = encode_component(raw);
        assert!(!encoded.contains(' ') && !encoded.contains('&') && !encoded.contains('?'));
        assert_eq!(http::percent_decode(&encoded), raw);
    }

    #[test]
    fn rows_json_is_exact_for_awkward_floats() {
        let rows: Vec<&[f64]> = vec![
            &[0.1, 2.0 / 3.0],
            &[f64::MIN_POSITIVE, 1e300],
            &[f64::INFINITY, f64::NEG_INFINITY],
        ];
        let json = json::rows_json(rows.iter().copied());
        let v = Value::parse(&json).unwrap();
        let arr = v.as_arr().unwrap();
        for (i, row) in rows.iter().enumerate() {
            let parsed: Vec<f64> = arr[i]
                .as_arr()
                .unwrap()
                .iter()
                .map(|x| x.as_f64().unwrap())
                .collect();
            assert_eq!(&parsed, row, "row {i} must survive the wire bit-exactly");
        }
    }

    #[test]
    fn quoted_escapes_for_json_bodies() {
        assert_eq!(quoted("plain"), "\"plain\"");
        assert_eq!(quoted("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn shard_skyline_parser_rejects_inconsistent_payloads() {
        let good = r#"{"algorithm":"SDI-Subset","ids":[0,2],"masks":[1,3],"elites":[0],"rows":[[0.5,0.25],[0.125,1]]}"#;
        let sky = parse_shard_skyline(good, 2).unwrap();
        assert_eq!(sky.handles, vec![0, 2]);
        assert_eq!(sky.masks, vec![1, 3]);
        assert_eq!(sky.elites, vec![0]);
        assert_eq!(sky.rows[1], vec![0.125, 1.0]);

        let wrong_dims = parse_shard_skyline(good, 3);
        assert!(wrong_dims.is_err());
        let missing_masks = r#"{"ids":[0],"elites":[],"rows":[[1]]}"#;
        assert!(parse_shard_skyline(missing_masks, 1).is_err());
        let elite_oob = r#"{"ids":[0],"masks":[0],"elites":[1],"rows":[[1]]}"#;
        assert!(parse_shard_skyline(elite_oob, 1).is_err());

        // 4294967301 = 2^32 + 5 must not be read as handle 5.
        let beyond_u32 = r#"{"ids":[4294967301],"masks":[1],"elites":[0],"rows":[[1,2]]}"#;
        assert!(parse_shard_skyline(beyond_u32, 2).is_err());
        let repeated = r#"{"ids":[3,3],"masks":[1,2],"elites":[0],"rows":[[1,2],[2,1]]}"#;
        assert!(parse_shard_skyline(repeated, 2).is_err());
        let descending = r#"{"ids":[3,1],"masks":[1,2],"elites":[0],"rows":[[1,2],[2,1]]}"#;
        assert!(parse_shard_skyline(descending, 2).is_err());
        let wide_mask = r#"{"ids":[0,2],"masks":[1,4],"elites":[0],"rows":[[1,2],[2,1]]}"#;
        assert!(parse_shard_skyline(wide_mask, 2).is_err());
        let fractional_mask = r#"{"ids":[0],"masks":[1.5],"elites":[0],"rows":[[1,2]]}"#;
        assert!(parse_shard_skyline(fractional_mask, 2).is_err());
    }

    #[test]
    fn insert_reply_parser_reads_exact_ascending_handles() {
        let reply = |body: &str| ClientResponse {
            status: 200,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        let good = reply(r#"{"inserted":3,"ids":[7,8,9],"version":10}"#);
        assert_eq!(parse_insert_handles(&good), Ok(vec![7, 8, 9]));
        for bad in [
            r#"{"ids":[4294967301]}"#,
            r#"{"ids":[7,7]}"#,
            r#"{"ids":[9,8]}"#,
            r#"{"ids":[7.5]}"#,
            r#"{"inserted":1}"#,
        ] {
            assert!(parse_insert_handles(&reply(bad)).is_err(), "{bad}");
        }
    }
}
