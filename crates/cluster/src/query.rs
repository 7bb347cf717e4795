//! `GET /skyline` on the coordinator: scatter to every shard for its
//! skyline with masks and rows, gather the replies, and finish with the
//! cross-shard subset merge, or answer from what is held when no shard
//! changed (see [`crate::held`]).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use skyline_core::cancel::{CancelToken, Cancelled};
use skyline_core::metrics::Metrics;
use skyline_core::shard_merge::{merge_shard_skylines, EliteRef, MergeEntry};
use skyline_core::subspace::Subspace;
use skyline_obs::json::{Field, ObjectWriter, Value};
use skyline_obs::trace::{self, StageTimer, TraceContext};
use skyline_obs::{Event, NoopRecorder};
use skyline_serve::api::{self, SkylineHead, SkylineQuery};
use skyline_serve::http::{Request, Response};

use crate::held::{Held, HeldBody};
use crate::rpc::{encode_component, reply_handles, scatter, shard_read_rpc};
use crate::{dataset, Shared};

/// One shard's parsed `/skyline` answer (with masks, elites, rows).
pub(crate) struct ShardSkyline {
    /// Shard-local handles of the local skyline points.
    pub(crate) handles: Vec<u32>,
    /// Premasks parallel to `handles`.
    pub(crate) masks: Vec<u64>,
    /// Elite positions into `handles`.
    pub(crate) elites: Vec<usize>,
    /// Coordinates parallel to `handles`, already in query space.
    pub(crate) rows: Vec<Vec<f64>>,
    /// Resolved algorithm name, echoed back to the client.
    pub(crate) algorithm: String,
}

/// Read one shard's `/skyline` reply in a `dims`-dimensional query
/// space. The ids must be handles in strictly ascending order, the
/// masks must fit in `dims` dimensions, and every array must agree with
/// the ids; a reply that fails leaves its shard missing.
pub(crate) fn parse_shard_skyline(body: &str, dims: usize) -> Result<ShardSkyline, String> {
    let v = Value::parse(body).map_err(|e| format!("bad shard response: {e}"))?;
    let handles = reply_handles(&v)?;
    let masks: Vec<u64> = v
        .get("masks")
        .and_then(Field::read)
        .ok_or("shard response lacks numeric \"masks\" (shard too old for include_masks?)")?;
    let elites: Vec<usize> = v
        .get("elites")
        .and_then(Field::read)
        .ok_or("shard response lacks numeric \"elites\"")?;
    let rows: Vec<Vec<f64>> = v
        .get("rows")
        .and_then(Field::read)
        .ok_or("shard response lacks numeric \"rows\"")?;
    if let Some(row) = rows.iter().find(|row| row.len() != dims) {
        return Err(format!(
            "shard row has {} coordinates, expected {dims}",
            row.len()
        ));
    }
    if masks.len() != handles.len() || rows.len() != handles.len() {
        return Err("shard arrays disagree on length".to_string());
    }
    let full = Subspace::full(dims).bits();
    if masks.iter().any(|&m| m & !full != 0) {
        return Err("shard mask has bits outside the query's dimensions".to_string());
    }
    if elites.iter().any(|&e| e >= handles.len()) {
        return Err("shard elite position out of range".to_string());
    }
    let algorithm = v
        .get("algorithm")
        .and_then(Value::as_str)
        .unwrap_or("SDI-Subset")
        .to_string();
    Ok(ShardSkyline {
        handles,
        masks,
        elites,
        rows,
        algorithm,
    })
}

/// `GET /skyline?dataset=&algo=&dims=&threads=&deadline_ms=` —
/// scatter-gather over the shards plus the elite-referenced cross-shard
/// merge. Responds `"partial": true` with a `missing_shards` list when
/// shards stayed unreachable after retries, and `"cached": true` when
/// every shard answered 304 at the version the held ids were merged at.
pub(crate) fn handle_skyline(shared: &Shared, req: &Request) -> Result<Response, Response> {
    let overall = Instant::now();
    let mut timer = StageTimer::start();
    // The coordinator roots the trace: inherit the caller's trace id
    // when one arrived, mint one otherwise, and give this request its
    // own span either way. Scatter legs get per-leg child spans.
    let ctx = match req
        .header(trace::TRACE_HEADER)
        .filter(|t| trace::is_valid_id(t))
    {
        Some(t) => TraceContext::child_of(t).expect("validated id"),
        None => TraceContext::mint(),
    };
    let name = api::dataset_param(req)?;
    let query = SkylineQuery::parse(req)?;
    if query.k != 1 {
        return Err(Response::error(
            400,
            "the cluster coordinator serves k=1 only: k-skyband membership cannot be \
             decided from per-shard skylines",
        ));
    }
    if query.include_masks || query.include_rows {
        return Err(Response::error(
            400,
            "include_masks and include_rows are shard-level options, not available on \
             the coordinator",
        ));
    }
    let budget = query.deadline_ms.map(Duration::from_millis);
    timer.mark("accept");

    // Snapshot the dataset: dims, version and the per-shard
    // handle→global maps (Arc clones — the query must not block behind
    // later mutations, nor see half of one).
    let (total_dims, version, handle_maps) = {
        let state = dataset(shared, name)?;
        let state = state.lock().unwrap_or_else(|e| e.into_inner());
        (state.dims, state.version, state.handle_to_global.clone())
    };

    let mask = query.mask(total_dims)?;
    let query_dims = if mask == Subspace::full(total_dims) {
        total_dims
    } else {
        mask.size()
    };

    let algo_label = query.algo.unwrap_or("SDI-Subset");
    let deadline_response = || {
        shared
            .front
            .deadline_exceeded(name, algo_label, query.deadline_ms.unwrap_or(0))
    };

    // Scatter. Every shard gets the remaining budget as its own
    // deadline *and* as the retry budget: a slow shard cannot spend
    // time the merge no longer has.
    let mut path = format!(
        "/skyline?dataset={}&include_masks=1&include_rows=1",
        encode_component(name)
    );
    if let Some(a) = query.algo {
        path.push_str(&format!("&algo={}", encode_component(a)));
    }
    if query.threads > 0 {
        path.push_str(&format!("&threads={}", query.threads));
    }
    if let Some(raw) = query.dims {
        path.push_str(&format!("&dims={}", encode_component(raw)));
    }
    // Answers are held by the shard query without its deadline.
    let held_query = path.clone();
    let held = shared
        .held
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&held_query);
    let held_body = |s: usize| held.as_ref().and_then(|h| h.shards[s].as_ref());
    let remaining = budget.map(|b| b.saturating_sub(overall.elapsed()));
    if let Some(rem) = remaining {
        if rem.is_zero() {
            return Err(deadline_response());
        }
        path.push_str(&format!("&deadline_ms={}", rem.as_millis().max(1)));
    }
    let shard_count = shared.shard_count;
    timer.mark("route");
    let legs = scatter(shard_count, |s| {
        let etag = held_body(s).map(|b| b.etag.as_str());
        let leg_start = Instant::now();
        let result = shard_read_rpc(shared, s, &path, etag, remaining, Some(&ctx));
        (result, leg_start.elapsed().as_micros() as u64)
    });

    // Split the scatter wall-clock into connect / send / shard_wait
    // (the legs overlap, so each named part is the slowest leg's), note
    // the straggler, and stitch each shard's own stage times in as
    // `shard{i}.*` detail entries.
    let mut max_connect = 0u64;
    let mut max_send = 0u64;
    let mut straggler = String::new();
    let mut straggler_us = 0u64;
    for (s, (outcome, leg_us)) in legs.iter().enumerate() {
        if *leg_us >= straggler_us {
            straggler_us = *leg_us;
            straggler = format!("shard{s}");
        }
        timer.detail(&format!("shard{s}.rpc"), *leg_us);
        if let Ok((resp, timing)) = outcome {
            max_connect = max_connect.max(timing.connect_us);
            max_send = max_send.max(timing.send_us);
            if let Some(h) = resp.header(trace::STAGE_TIMES_HEADER) {
                for (stage, us) in trace::decode_stage_times(h) {
                    timer.detail(&format!("shard{s}.{stage}"), us);
                }
            }
        }
    }
    timer.mark_partitioned(
        &[("connect", max_connect), ("send", max_send)],
        "shard_wait",
    );

    // A 304 stands for the answer held for that shard, a 200 replaces
    // it, and anything else leaves the shard missing.
    let mut bodies: Vec<Option<Arc<HeldBody>>> = Vec::with_capacity(shard_count);
    let mut missing: Vec<u64> = Vec::new();
    let mut unchanged = 0;
    for (s, (outcome, _)) in legs.into_iter().enumerate() {
        let body = match outcome {
            Ok((resp, _)) if resp.status == 304 => {
                unchanged += 1;
                held_body(s).cloned()
            }
            Ok((resp, _)) if resp.status == 200 => {
                parse_shard_skyline(&resp.body_str(), query_dims)
                    .ok()
                    .map(|sky| {
                        let etag = resp.header("etag").unwrap_or_default().to_string();
                        Arc::new(HeldBody { etag, sky })
                    })
            }
            Ok((resp, _)) if resp.status == 504 => return Err(deadline_response()),
            _ => None,
        };
        if body.is_none() {
            missing.push(s as u64);
        }
        bodies.push(body);
    }
    if missing.len() == shard_count {
        return Err(Response::error(502, "no shard answered the skyline query"));
    }
    let partial = !missing.is_empty();

    // The answer, from the held ids or a fresh merge.
    let respond = |ids: &[u64], cached: bool, timer: StageTimer| {
        let algorithm = bodies
            .iter()
            .flatten()
            .next()
            .map_or(algo_label, |body| body.sky.algorithm.as_str());
        let head = SkylineHead {
            dataset: name,
            algorithm,
            version,
            mask_bits: mask.bits(),
            k: 1,
            cached,
            elapsed_us: overall.elapsed().as_micros() as u64,
            ids,
        };
        let cluster_fields = |w: &mut ObjectWriter| {
            w.u64_field("shards", shard_count as u64)
                .bool_field("partial", partial)
                .u64_array_field("missing_shards", &missing);
        };
        let body = head.answer(cluster_fields, query.timings.then(|| timer.stages()));
        shared
            .front
            .finish_skyline(timer, &ctx.trace_id, straggler, Response::json(200, body))
    };
    // No shard changed since the held merge and neither did the
    // coordinator's handle maps: the held ids are the answer.
    if let Some((_, ids)) = held
        .as_ref()
        .and_then(|h| h.merged.as_ref())
        .filter(|(at, _)| unchanged == shard_count && *at == version)
    {
        shared.held_reads.fetch_add(1, Ordering::Relaxed);
        timer.mark("gather");
        timer.mark("merge");
        return Ok(respond(ids, true, timer));
    }

    // Translate shard handles to global ids and assemble the merge
    // inputs. Rows stay in the shard answers, so elite references and
    // the key→row lookup borrow from the same place.
    let mut rows_store: Vec<&[f64]> = Vec::new();
    let mut row_index: HashMap<u64, usize> = HashMap::new();
    let mut entries: Vec<MergeEntry> = Vec::new();
    let mut elites: Vec<EliteRef<'_>> = Vec::new();
    for (s, body) in bodies.iter().enumerate() {
        let Some(HeldBody { sky, .. }) = body.as_deref() else {
            continue;
        };
        let map = &handle_maps[s];
        for (i, &h) in sky.handles.iter().enumerate() {
            let Some(&global) = map.get(&h) else {
                return Err(Response::error(
                    500,
                    &format!("shard {s} returned handle {h} the registry does not know"),
                ));
            };
            row_index.insert(global, rows_store.len());
            entries.push(MergeEntry {
                key: global,
                shard: s as u32,
                premask: Subspace::from_bits(sky.masks[i]),
            });
            rows_store.push(&sky.rows[i]);
        }
        for &e in &sky.elites {
            elites.push(EliteRef {
                shard: s as u32,
                row: &sky.rows[e],
            });
        }
    }
    timer.mark("gather");

    let remaining = budget.map(|b| b.saturating_sub(overall.elapsed()));
    if remaining.is_some_and(|r| r.is_zero()) {
        return Err(deadline_response());
    }
    let cancel = match remaining {
        Some(rem) => CancelToken::with_deadline(rem),
        None => CancelToken::none(),
    };
    let mut metrics = Metrics::new();
    let merge_start = Instant::now();
    let row_of = |key: u64| rows_store[row_index[&key]];
    let merged: Result<Vec<u64>, Cancelled> = match &shared.front.recorder {
        Some(rec) => {
            let mut rec = rec.lock().unwrap_or_else(|e| e.into_inner());
            merge_shard_skylines(
                query_dims,
                shard_count,
                &entries,
                &elites,
                row_of,
                &mut metrics,
                &mut *rec,
                &cancel,
            )
        }
        None => merge_shard_skylines(
            query_dims,
            shard_count,
            &entries,
            &elites,
            row_of,
            &mut metrics,
            &mut NoopRecorder,
            &cancel,
        ),
    };
    let ids = merged.map_err(|Cancelled| deadline_response())?;
    shared.front.emit(Event::ClusterMerge {
        shards: shard_count as u64,
        missing: missing.len() as u64,
        candidates: entries.len() as u64,
        skyline_size: ids.len() as u64,
        dominance_tests: metrics.dominance_tests,
        elapsed_us: merge_start.elapsed().as_micros() as u64,
    });
    timer.mark("merge");

    // Hold what this read merged from; a shard that failed keeps the
    // answer held for it, and a partial merge is not held.
    let shards = (0..shard_count)
        .map(|s| bodies[s].clone().or_else(|| held_body(s).cloned()))
        .collect();
    let merged = (!partial).then(|| (version, ids.clone()));
    shared
        .held
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .put(held_query, Held { shards, merged });
    Ok(respond(&ids, false, timer))
}
