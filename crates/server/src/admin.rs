//! `GET /healthz`, `GET /datasets` and `GET /metrics`: the node's
//! liveness and role, its dataset list, and its counters.

use std::sync::atomic::Ordering;

use skyline_obs::json::ObjectWriter;

use crate::http::{Request, Response};
use crate::metrics::Extra;
use crate::replica::Role;
use crate::{cache, registry, Shared};

/// `GET /healthz` — one JSON shape on both roles: liveness plus the
/// node's `role`, fencing `epoch`, and latest applied versions. The
/// cluster's failure detector reads this to pick the most-caught-up
/// replica at promotion time, so `applied_version` (the per-dataset
/// versions summed) must reflect everything the node has applied.
pub(crate) fn handle_healthz(shared: &Shared) -> Response {
    let infos = shared.registry.list();
    let applied: u64 = infos.iter().map(|i| i.version).sum();
    let mut versions = ObjectWriter::new();
    for info in &infos {
        versions.u64_field(&info.name, info.version);
    }
    let mut w = ObjectWriter::new();
    w.str_field("status", "ok");
    match shared.failover.role() {
        Role::Primary => {
            w.str_field("role", "primary");
        }
        Role::Follower { primary } => {
            w.str_field("role", "replica")
                .str_field("primary", &primary.to_string());
        }
    }
    w.u64_field("epoch", shared.failover.epoch())
        .u64_field("datasets", infos.len() as u64)
        .u64_field("applied_version", applied)
        .raw_field("versions", &versions.finish())
        .u64_field(
            "uptime_us",
            shared.front.started.elapsed().as_micros() as u64,
        );
    Response::json(200, w.finish())
}

pub(crate) fn dataset_info_json(info: &registry::DatasetInfo) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("name", &info.name)
        .u64_field("dims", info.dims as u64)
        .u64_field("points", info.points as u64)
        .u64_field("skyline", info.skyline_len as u64)
        .u64_field("version", info.version);
    w.finish()
}

pub(crate) fn handle_list(shared: &Shared) -> Response {
    let objs: Vec<String> = shared
        .registry
        .list()
        .iter()
        .map(dataset_info_json)
        .collect();
    let mut w = ObjectWriter::new();
    w.raw_field("datasets", &format!("[{}]", objs.join(",")));
    Response::json(200, w.finish())
}

/// The `/metrics` cache hit-rate: hits over lookups, 0.0 before any.
fn cache_hit_rate(stats: &cache::CacheStats) -> f64 {
    let lookups = stats.hits + stats.misses;
    if lookups == 0 {
        0.0
    } else {
        stats.hits as f64 / lookups as f64
    }
}

pub(crate) fn handle_metrics(shared: &Shared, req: &Request) -> Response {
    let stats = shared.cache.stats();
    shared.front.metrics_response(
        req,
        || metrics_json(shared, &stats),
        || prometheus_extras(shared, &stats),
    )
}

/// The series `/metrics?format=prometheus` adds to the front end's own.
fn prometheus_extras(shared: &Shared, stats: &cache::CacheStats) -> Vec<Extra> {
    let state = &shared.failover;
    let mut extras = vec![
        Extra::counter("skyline_cache_hits_total", stats.hits),
        Extra::counter("skyline_cache_misses_total", stats.misses),
        Extra::counter("skyline_cache_evictions_total", stats.evictions),
        Extra::counter("skyline_cache_invalidations_total", stats.invalidations),
        Extra::counter("skyline_cache_patched_total", stats.patched),
        Extra::gauge("skyline_cache_entries", stats.entries as f64),
        Extra::gauge("skyline_cache_hit_rate", cache_hit_rate(stats)),
        Extra::gauge("skyline_datasets", shared.registry.len() as f64),
        Extra::gauge("skyline_epoch", state.epoch() as f64),
        Extra::counter(
            "skyline_promotions_total",
            state.promotions_total.load(Ordering::Relaxed),
        ),
        Extra::counter(
            "skyline_demotions_total",
            state.demotions_total.load(Ordering::Relaxed),
        ),
        Extra::counter(
            "skyline_fenced_requests_total",
            state.fenced_total.load(Ordering::Relaxed),
        ),
        Extra::counter(
            "skyline_replica_applied_total",
            state.applied_total.load(Ordering::Relaxed),
        ),
        Extra::counter(
            "skyline_replica_duplicates_total",
            state.duplicates_total.load(Ordering::Relaxed),
        ),
        Extra::counter(
            "skyline_replica_resyncs_total",
            state.resyncs_total.load(Ordering::Relaxed),
        ),
    ];
    // One family at a time: the renderer writes a TYPE line per
    // consecutive run of the same metric family.
    let progress = state.progress_snapshot();
    for (dataset, applied, latest) in &progress {
        extras.push(Extra::gauge(
            format!("skyline_replica_lag_versions{{dataset=\"{dataset}\"}}"),
            latest.saturating_sub(*applied) as f64,
        ));
    }
    for (dataset, applied, _) in &progress {
        extras.push(Extra::gauge(
            format!("skyline_replica_applied_version{{dataset=\"{dataset}\"}}"),
            *applied as f64,
        ));
    }
    extras
}

/// The `/metrics` JSON document.
fn metrics_json(shared: &Shared, stats: &cache::CacheStats) -> String {
    let metrics = &shared.front.metrics;
    let mut cache_obj = ObjectWriter::new();
    cache_obj
        .u64_field("hits", stats.hits)
        .u64_field("misses", stats.misses)
        .u64_field("evictions", stats.evictions)
        .u64_field("invalidations", stats.invalidations)
        .u64_field("patched", stats.patched)
        .u64_field("entries", stats.entries)
        .u64_field("capacity", shared.cache.capacity() as u64)
        .f64_field("hit_rate", cache_hit_rate(stats));
    let datasets: Vec<String> = shared
        .registry
        .list()
        .iter()
        .map(dataset_info_json)
        .collect();
    let mut w = ObjectWriter::new();
    w.u64_field(
        "uptime_us",
        shared.front.started.elapsed().as_micros() as u64,
    )
    .u64_field("threads", shared.front.threads as u64)
    .u64_field("requests", metrics.total_requests())
    .u64_field("shed_total", metrics.shed_total())
    .u64_field("deadline_exceeded_total", metrics.deadline_exceeded_total())
    .u64_field("panics_total", metrics.panics_total())
    .u64_field("wal_bytes", shared.registry.wal_bytes())
    .u64_field(
        "recovery_replayed_records",
        shared.registry.recovery_replayed(),
    )
    .raw_field("endpoints", &metrics.render_json())
    .raw_field("stages", &metrics.render_stages_json())
    .raw_field("cache", &cache_obj.finish())
    .raw_field("datasets", &format!("[{}]", datasets.join(",")));
    let state = &shared.failover;
    let lag = state.lag.snapshot();
    let progress: Vec<String> = state
        .progress_snapshot()
        .iter()
        .map(|(name, applied, latest)| {
            let mut p = ObjectWriter::new();
            p.str_field("name", name)
                .u64_field("applied", *applied)
                .u64_field("primary_latest", *latest)
                .u64_field("lag", latest.saturating_sub(*applied));
            p.finish()
        })
        .collect();
    let mut r = ObjectWriter::new();
    match state.role() {
        Role::Primary => {
            r.str_field("role", "primary");
        }
        Role::Follower { primary } => {
            r.str_field("role", "replica")
                .str_field("primary", &primary.to_string());
        }
    }
    r.u64_field("epoch", state.epoch())
        .u64_field(
            "promotions_total",
            state.promotions_total.load(Ordering::Relaxed),
        )
        .u64_field(
            "demotions_total",
            state.demotions_total.load(Ordering::Relaxed),
        )
        .u64_field("fenced_total", state.fenced_total.load(Ordering::Relaxed))
        .u64_field("applied_total", state.applied_total.load(Ordering::Relaxed))
        .u64_field(
            "duplicates_total",
            state.duplicates_total.load(Ordering::Relaxed),
        )
        .u64_field("resyncs_total", state.resyncs_total.load(Ordering::Relaxed))
        .u64_field("lag_p50", lag.p50())
        .u64_field("lag_p99", lag.p99())
        .raw_field("datasets", &format!("[{}]", progress.join(",")));
    w.raw_field("replication", &r.finish());
    w.finish()
}
