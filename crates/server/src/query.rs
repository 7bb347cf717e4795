//! `GET /skyline`: the read-your-writes gate, one cache probe, the
//! engine run on a miss, and the opt-in extras the coordinator merges.

use std::sync::Arc;
use std::time::{Duration, Instant};

use skyline_algos::skyband::k_skyband_ids;
use skyline_algos::{algorithm_by_name, parallel_algorithm, SkylineAlgorithm};
use skyline_core::cancel::CancelToken;
use skyline_core::dataset::Dataset;
use skyline_core::metrics::Metrics;
use skyline_core::point::PointId;
use skyline_core::subspace::Subspace;
use skyline_obs::json::{self, ObjectWriter};
use skyline_obs::trace::StageTimer;
use skyline_obs::Event;

use crate::api::{self, SkylineHead, SkylineQuery};
use crate::cache::{CacheKey, CachedResult};
use crate::failover::with_replica_lag;
use crate::http::{Request, Response};
use crate::service::inherited_trace;
use crate::{acquire_inflight, faults, registry, registry_response, Shared, MIN_VERSION_HEADER};

/// Optional `/skyline` response payload behind `include_masks=1` /
/// `include_rows=1` — what the cluster coordinator consumes: each
/// point's maximum dominating subspace w.r.t. this shard's own elite
/// reference set, which elites those were (as positions into `ids`),
/// and the raw coordinates for cross-shard dominance tests.
struct SkylineExtras {
    /// Per-point subspace masks (bit `i` = dimension `i`), or `None`
    /// when only rows were requested.
    masks: Option<(Vec<u64>, Vec<u64>)>,
    /// `[[f64, ...], ...]` JSON, or `None` when only masks were
    /// requested. [`json::rows_json`] keeps every coordinate, ±∞
    /// included, exact across the wire.
    rows_json: Option<String>,
}

/// A node's `/skyline` answer: the shared head, then the opt-in extras.
fn skyline_json(
    key: &CacheKey,
    cached: bool,
    ids: &[PointId],
    elapsed_us: u64,
    extras: Option<&SkylineExtras>,
    timings: Option<&[(String, u64)]>,
) -> String {
    let ids: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
    let head = SkylineHead {
        dataset: &key.dataset,
        algorithm: &key.algorithm,
        version: key.version,
        mask_bits: key.mask_bits,
        k: key.k,
        cached,
        elapsed_us,
        ids: &ids,
    };
    let extras_fields = |w: &mut ObjectWriter| {
        let Some(extras) = extras else { return };
        if let Some((masks, elites)) = &extras.masks {
            w.u64_array_field("masks", masks)
                .u64_array_field("elites", elites);
        }
        if let Some(rows) = &extras.rows_json {
            w.raw_field("rows", rows);
        }
    };
    head.answer(extras_fields, timings)
}

/// Compute the opt-in extras for skyline `row_ids` (row indices into
/// `target`, which is already projected when the query named `dims`).
fn compute_extras(
    target: Option<&Dataset>,
    row_ids: &[PointId],
    include_masks: bool,
    include_rows: bool,
) -> SkylineExtras {
    let masks = include_masks.then(|| match target {
        None => (Vec::new(), Vec::new()),
        Some(data) => {
            let elite_ids = skyline_core::shard_merge::select_reference_elites(data, row_ids);
            let masks = skyline_core::shard_merge::reference_masks(data, row_ids, &elite_ids)
                .into_iter()
                .map(|s| s.bits())
                .collect();
            // Elites as positions into the response arrays, so the
            // caller never has to reverse any id mapping.
            let positions = elite_ids
                .iter()
                .map(|e| {
                    row_ids
                        .iter()
                        .position(|x| x == e)
                        .expect("elite ∈ skyline") as u64
                })
                .collect();
            (masks, positions)
        }
    });
    let rows_json = include_rows.then(|| {
        json::rows_json(
            row_ids
                .iter()
                .map(|&id| target.map_or(&[][..], |data| data.point(id))),
        )
    });
    SkylineExtras { masks, rows_json }
}

/// How long a read stamped with a session token waits for replication
/// to catch up before bouncing to the primary.
const MIN_VERSION_WAIT: Duration = Duration::from_millis(500);

/// Honour a read-your-writes session token ([`MIN_VERSION_HEADER`]):
/// the read must observe `name` at the token's version or newer.
/// `None` = satisfied (proceed with the read). A follower that cannot
/// catch up within [`MIN_VERSION_WAIT`] bounces the client to its
/// primary with 307; a primary that has never reached the version
/// answers 409 — the token came from a history this node does not have,
/// which after a failover means the client must surface the lost write
/// rather than silently read around it.
fn min_version_gate(
    shared: &Shared,
    entry: &registry::DatasetEntry,
    name: &str,
    req: &Request,
) -> Option<Response> {
    let raw = req.header(MIN_VERSION_HEADER)?;
    let Ok(min_version) = raw.parse::<u64>() else {
        return Some(Response::error(
            400,
            &format!("bad {MIN_VERSION_HEADER} value {raw:?}"),
        ));
    };
    if min_version == 0 {
        return None;
    }
    let deadline = Instant::now() + MIN_VERSION_WAIT;
    loop {
        if entry.wait_for_version(min_version - 1, Duration::from_millis(50)) >= min_version {
            return None;
        }
        if Instant::now() >= deadline || shared.front.is_shutting_down() {
            break;
        }
    }
    match shared.failover.follow_target() {
        Some(primary) => {
            // Rebuild the request target so the client can replay the
            // exact read against the primary.
            let query: Vec<String> = req.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let target = if query.is_empty() {
                req.path.clone()
            } else {
                format!("{}?{}", req.path, query.join("&"))
            };
            let mut w = ObjectWriter::new();
            w.str_field(
                "error",
                "replica is behind the session token; read from the primary",
            )
            .u64_field("min_version", min_version)
            .str_field("primary", &primary.to_string());
            Some(
                Response::json(307, w.finish())
                    .with_header("Location", &format!("http://{primary}{target}")),
            )
        }
        None => Some(Response::error(
            409,
            &format!(
                "session token demands version {min_version} of {name:?}, \
                 which this primary has never applied"
            ),
        )),
    }
}

/// `entry`'s snapshot of its current version, marking a `snapshot`
/// stage on `timer` when this read built it.
fn take_snapshot(
    entry: &registry::DatasetEntry,
    timer: &mut StageTimer,
) -> Arc<registry::Snapshot> {
    let (snapshot, filled) = entry.snapshot_filled();
    if filled {
        timer.mark("snapshot");
    }
    snapshot
}

/// `GET /skyline?dataset=&algo=&dims=&k=&threads=&deadline_ms=`.
pub(crate) fn handle_skyline(shared: &Shared, req: &Request) -> Result<Response, Response> {
    let mut timer = StageTimer::start();
    let trace_id = inherited_trace(req);
    let name = api::dataset_param(req)?;
    // Global admission gate: beyond `max_inflight` concurrent queries,
    // shed immediately rather than queueing work the server cannot keep
    // up with.
    let _inflight = acquire_inflight(shared).map_err(|()| {
        shared
            .front
            .shed("/skyline", "server overloaded: too many queries in flight")
    })?;
    let entry = shared.registry.get(name).map_err(registry_response)?;
    if let Some(resp) = min_version_gate(shared, &entry, name, req) {
        return Err(resp);
    }
    let query = SkylineQuery::parse(req)?;
    let SkylineQuery {
        k,
        threads,
        include_masks,
        include_rows,
        ..
    } = query;
    if include_masks && k > 1 {
        return Err(Response::error(
            400,
            "include_masks=1 requires k=1: dominating-subspace masks are only defined for the skyline",
        ));
    }
    let algo_name = query.algo.unwrap_or("SDI-Subset");
    let wants_parallel = threads > 0 || algo_name.starts_with("P-") || algo_name.starts_with("p-");
    let algo: Box<dyn SkylineAlgorithm> = if wants_parallel {
        parallel_algorithm(algo_name, None, threads as usize).ok_or_else(|| {
            Response::error(
                400,
                &format!("no parallel engine for algorithm {algo_name:?}"),
            )
        })?
    } else {
        algorithm_by_name(algo_name)
            .ok_or_else(|| Response::error(400, &format!("unknown algorithm {algo_name:?}")))?
    };
    let full = Subspace::full(entry.dims());
    let mask = query.mask(entry.dims())?;

    timer.mark("parse");
    // One cache probe, keyed by the version of the rows the answer
    // needs. A read with extras maps its answer onto rows, so it takes
    // the snapshot first and probes at the snapshot's version. Any other
    // read probes at the current version and takes the snapshot only on
    // a miss, answering at the version of the rows it computed on.
    let wants_extras = include_masks || include_rows;
    let snapshot = wants_extras.then(|| take_snapshot(&entry, &mut timer));
    let mut key = CacheKey {
        dataset: name.to_string(),
        version: snapshot
            .as_ref()
            .map_or_else(|| entry.version(), |s| s.version),
        algorithm: algo.name().to_string(),
        mask_bits: mask.bits(),
        k,
        threads,
    };
    let start = Instant::now();
    if let Some(hit) = shared.cache.get(&key) {
        shared.front.emit(Event::CacheHit {
            dataset: name.to_string(),
            algorithm: algo.name().to_string(),
            version: key.version,
            trace: trace_id.clone(),
        });
        // Extras are derived data, not cached: map the cached handles
        // back to row indices (the handle list is ascending) and
        // recompute. The key was probed at the snapshot's version, so
        // the snapshot describes exactly the cached result.
        let extras = snapshot.as_ref().map(|snapshot| {
            let projected: Option<Dataset> = match &snapshot.dataset {
                Some(data) if mask != full => Some(data.project_dims(mask)),
                _ => None,
            };
            let target: Option<&Dataset> = projected.as_ref().or(snapshot.dataset.as_ref());
            let row_ids: Vec<PointId> = hit
                .ids
                .iter()
                .map(|h| {
                    snapshot
                        .handles
                        .binary_search(h)
                        .expect("cached handle present at its own version")
                        as PointId
                })
                .collect();
            compute_extras(target, &row_ids, include_masks, include_rows)
        });
        timer.mark("cache");
        let elapsed_us = start.elapsed().as_micros() as u64;
        let body = skyline_json(
            &key,
            true,
            &hit.ids,
            elapsed_us,
            extras.as_ref(),
            query.timings.then(|| timer.stages()),
        );
        let resp = with_replica_lag(shared, name, Response::json(200, body));
        return Ok(shared
            .front
            .finish_skyline(timer, &trace_id, String::new(), resp));
    }
    timer.mark("cache");
    let snapshot = snapshot.unwrap_or_else(|| take_snapshot(&entry, &mut timer));
    key.version = snapshot.version;

    // The deadline starts at compute time: parsing and cache probing are
    // bounded, the algorithm run is not.
    let token = match query.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::none(),
    };
    let deadline_response = || {
        shared
            .front
            .deadline_exceeded(name, algo.name(), query.deadline_ms.unwrap_or(0))
    };
    let mut extras: Option<SkylineExtras> = None;
    let ids: Vec<PointId> = match &snapshot.dataset {
        None => {
            if wants_extras {
                extras = Some(compute_extras(None, &[], include_masks, include_rows));
            }
            Vec::new()
        }
        Some(data) => {
            faults::check_delay("compute");
            let mut metrics = Metrics::new();
            let projected;
            let target: &Dataset = if mask == full {
                data
            } else {
                projected = data.project_dims(mask);
                &projected
            };
            let mut rows = if k > 1 {
                // The skyband path has no in-loop cancellation; honour
                // the deadline with an up-front check.
                if token.check().is_err() {
                    return Err(deadline_response());
                }
                let mut band = k_skyband_ids(target, k as usize, &mut metrics);
                band.sort_unstable();
                band
            } else {
                algo.compute_cancellable(target, &mut metrics, &token)
                    .map_err(|_| deadline_response())?
            };
            timer.mark("compute");
            if wants_extras {
                extras = Some(compute_extras(
                    Some(target),
                    &rows,
                    include_masks,
                    include_rows,
                ));
            }
            // Row indices → stable stream handles. The handle list is
            // ascending, so ascending row ids stay ascending.
            for id in rows.iter_mut() {
                *id = snapshot.handles[*id as usize];
            }
            rows
        }
    };
    timer.mark("extras");
    let elapsed_us = start.elapsed().as_micros() as u64;
    let body = skyline_json(
        &key,
        false,
        &ids,
        elapsed_us,
        extras.as_ref(),
        query.timings.then(|| timer.stages()),
    );
    shared.cache.insert(key, CachedResult { ids, elapsed_us });
    let resp = with_replica_lag(shared, name, Response::json(200, body));
    Ok(shared
        .front
        .finish_skyline(timer, &trace_id, String::new(), resp))
}
