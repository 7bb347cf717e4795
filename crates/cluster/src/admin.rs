//! `GET /healthz`, `GET /datasets` and `GET /metrics` on the
//! coordinator: liveness, the dataset registry, and per-shard counters.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use skyline_obs::json::ObjectWriter;
use skyline_serve::http::{Request, Response};
use skyline_serve::metrics::Extra;

use crate::shard_map::DatasetState;
use crate::Shared;

pub(crate) fn handle_healthz(shared: &Shared) -> Response {
    let datasets = shared.datasets.lock().unwrap_or_else(|e| e.into_inner());
    let mut w = ObjectWriter::new();
    w.str_field("status", "ok")
        .u64_field("shards", shared.shard_count as u64)
        .u64_field("datasets", datasets.len() as u64)
        .u64_field(
            "uptime_us",
            shared.front.started.elapsed().as_micros() as u64,
        );
    Response::json(200, w.finish())
}

fn dataset_info_json(name: &str, state: &DatasetState, shard_count: usize) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("name", name)
        .u64_field("dims", state.dims as u64)
        .u64_field("points", state.live as u64)
        .u64_field("version", state.version)
        .u64_field("shards", shard_count as u64);
    w.finish()
}

/// [`dataset_info_json`] of every dataset, sorted by name. The registry
/// lock is held only to copy the entries out; a dataset with a write in
/// flight is described once that write ends.
fn dataset_objs(shared: &Shared) -> Vec<String> {
    let mut entries: Vec<(String, Arc<Mutex<DatasetState>>)> = shared
        .datasets
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(name, state)| (name.clone(), Arc::clone(state)))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
        .iter()
        .map(|(name, state)| {
            let state = state.lock().unwrap_or_else(|e| e.into_inner());
            dataset_info_json(name, &state, shared.shard_count)
        })
        .collect()
}

pub(crate) fn handle_list(shared: &Shared) -> Response {
    let mut w = ObjectWriter::new();
    w.raw_field("datasets", &format!("[{}]", dataset_objs(shared).join(",")));
    Response::json(200, w.finish())
}

pub(crate) fn handle_metrics(shared: &Shared, req: &Request) -> Response {
    shared
        .front
        .metrics_response(req, || metrics_json(shared), || prometheus_extras(shared))
}

/// The series `/metrics?format=prometheus` adds to the front end's own.
fn prometheus_extras(shared: &Shared) -> Vec<Extra> {
    let mut extras = Vec::new();
    for counter in ["requests", "not_modified", "errors", "attempts", "total_us"] {
        for (s, stats) in shared.shard_stats.iter().enumerate() {
            let value = match counter {
                "requests" => stats.requests.load(Ordering::Relaxed),
                "not_modified" => stats.not_modified.load(Ordering::Relaxed),
                "errors" => stats.errors.load(Ordering::Relaxed),
                "attempts" => stats.attempts.load(Ordering::Relaxed),
                _ => stats.total_us.load(Ordering::Relaxed),
            };
            extras.push(Extra::counter(
                format!("skyline_shard_rpc_{counter}{{shard=\"{s}\"}}"),
                value,
            ));
        }
    }
    extras.push(Extra::counter(
        "skyline_replica_read_requests_total",
        shared.replica_requests.load(Ordering::Relaxed),
    ));
    extras.push(Extra::counter(
        "skyline_replica_read_fallbacks_total",
        shared.replica_fallbacks.load(Ordering::Relaxed),
    ));
    extras.push(Extra::counter(
        "skyline_promotions_total",
        shared.promotions_total.load(Ordering::Relaxed),
    ));
    extras.push(Extra::counter(
        "skyline_held_reads_total",
        shared.held_reads.load(Ordering::Relaxed),
    ));
    {
        let topo = shared.topology.read().unwrap_or_else(|e| e.into_inner());
        for (s, epoch) in topo.epochs.iter().enumerate() {
            extras.push(Extra::gauge(
                format!("skyline_shard_epoch{{shard=\"{s}\"}}"),
                *epoch as f64,
            ));
        }
    }
    let datasets = shared.datasets.lock().unwrap_or_else(|e| e.into_inner());
    extras.push(Extra::gauge("skyline_datasets", datasets.len() as f64));
    extras
}

/// The `/metrics` JSON document.
fn metrics_json(shared: &Shared) -> String {
    let topo = shared
        .topology
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let shard_objs: Vec<String> = topo
        .primaries
        .iter()
        .zip(&shared.shard_stats)
        .enumerate()
        .map(|(s, (addr, stats))| {
            let mut w = ObjectWriter::new();
            w.str_field("addr", &addr.to_string())
                .u64_field("epoch", topo.epochs[s])
                .u64_field("replicas", topo.replicas[s].len() as u64)
                .u64_field("stale", topo.stale[s].len() as u64)
                .u64_field("requests", stats.requests.load(Ordering::Relaxed))
                .u64_field("not_modified", stats.not_modified.load(Ordering::Relaxed))
                .u64_field("errors", stats.errors.load(Ordering::Relaxed))
                .u64_field("attempts", stats.attempts.load(Ordering::Relaxed))
                .u64_field("total_us", stats.total_us.load(Ordering::Relaxed));
            w.finish()
        })
        .collect();
    let dataset_objs = dataset_objs(shared);
    let manifest_bytes = shared
        .manifest
        .as_ref()
        .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()).bytes())
        .unwrap_or(0);
    let mut w = ObjectWriter::new();
    w.u64_field(
        "uptime_us",
        shared.front.started.elapsed().as_micros() as u64,
    )
    .u64_field("threads", shared.front.threads as u64)
    .u64_field("requests", shared.front.metrics.total_requests())
    .u64_field(
        "deadline_exceeded_total",
        shared.front.metrics.deadline_exceeded_total(),
    )
    .u64_field("panics_total", shared.front.metrics.panics_total())
    .u64_field("manifest_bytes", manifest_bytes)
    .u64_field("recovery_replayed_records", shared.replayed)
    .u64_field(
        "replica_read_requests",
        shared.replica_requests.load(Ordering::Relaxed),
    )
    .u64_field(
        "replica_read_fallbacks",
        shared.replica_fallbacks.load(Ordering::Relaxed),
    )
    .u64_field(
        "promotions_total",
        shared.promotions_total.load(Ordering::Relaxed),
    )
    .u64_field("held_reads", shared.held_reads.load(Ordering::Relaxed))
    .raw_field("endpoints", &shared.front.metrics.render_json())
    .raw_field("stages", &shared.front.metrics.render_stages_json())
    .raw_field("shards", &format!("[{}]", shard_objs.join(",")))
    .raw_field("datasets", &format!("[{}]", dataset_objs.join(",")));
    w.finish()
}
