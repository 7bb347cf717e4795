//! Writes: `POST /datasets` and `POST`/`DELETE /datasets/{name}/points`,
//! each carrying the result cache forward by its skyline delta.

use std::time::Instant;

use skyline_core::point::PointId;
use skyline_core::subspace::Subspace;
use skyline_obs::json::ObjectWriter;
use skyline_obs::trace;
use skyline_obs::Event;

use crate::admin::dataset_info_json;
use crate::api::{self, NewDataset};
use crate::http::{Request, Response};
use crate::service::inherited_trace;
use crate::{cache, registry, registry_response, Shared};

/// `POST /datasets` — body: `{"name": ..., "rows": [[...], ...]}` or
/// `{"name": ..., "synthetic": {"distribution": "AC", "n": 1000,
/// "dims": 6, "seed": 42}}`; an empty dataset needs explicit `"dims"`.
pub(crate) fn handle_create(shared: &Shared, req: &Request) -> Response {
    let new = match NewDataset::parse(req, shared.front.max_body) {
        Ok(new) => new,
        Err(refusal) => return refusal,
    };
    match shared.registry.create(&new.name, new.dims, &new.rows) {
        Ok(entry) => Response::json(201, dataset_info_json(&entry.info())),
        Err(e) => registry_response(e),
    }
}

/// Carry the result cache across a mutation, trace the delta, and
/// account for the write.
///
/// Patches forward every full-space skyline entry sitting at the
/// mutation's base version, drops the rest, bumps the `cache_patched`
/// counter, and emits one `delta_applied` trace event — the observable
/// spine of the incremental-maintenance path. The registry's stages
/// plus this one, `patch`, go into the `/metrics` stage histograms and
/// come back encoded for the reply's stage-times header.
fn apply_mutation(
    shared: &Shared,
    name: &str,
    dims: usize,
    mutation: &registry::Mutation,
    trace_id: &str,
) -> (cache::PatchOutcome, String) {
    let started = Instant::now();
    // An unchanged version (empty batch / no live removals) leaves every
    // cached entry exact, with no delta to trace.
    let out = if mutation.version == mutation.base_version {
        cache::PatchOutcome::default()
    } else {
        let out = shared.cache.patch_dataset(
            name,
            Subspace::full(dims).bits(),
            mutation.base_version,
            &mutation.delta,
        );
        shared.front.emit(Event::DeltaApplied {
            dataset: name.to_string(),
            base_version: mutation.base_version,
            version: mutation.version,
            entered: mutation.delta.entered.len() as u64,
            left: mutation.delta.left.len() as u64,
            cache_patched: out.patched as u64,
            cache_invalidated: out.invalidated as u64,
            trace: trace_id.to_string(),
        });
        out
    };
    let mut stages = mutation.stages.clone();
    stages.push(("patch".to_string(), started.elapsed().as_micros() as u64));
    shared.front.metrics.record_stages(&stages);
    (out, trace::encode_stage_times(&stages))
}

/// Shared tail of the mutation responses: version movement, skyline
/// cardinality, the delta's membership changes, and what happened to
/// the cache — plus the fencing epoch the write was accepted under.
/// `(epoch, version)` is the read-your-writes session token: stamp a
/// later read with [`MIN_VERSION_HEADER`](crate::MIN_VERSION_HEADER)` = version` and it will never
/// observe an older state, on any node.
fn mutation_json_fields(
    w: &mut ObjectWriter,
    mutation: &registry::Mutation,
    out: &cache::PatchOutcome,
    epoch: u64,
) {
    let entered: Vec<u64> = mutation.delta.entered.iter().map(|&i| i as u64).collect();
    let left: Vec<u64> = mutation.delta.left.iter().map(|&i| i as u64).collect();
    w.u64_field("version", mutation.version)
        .u64_field("epoch", epoch)
        .u64_field("skyline", mutation.skyline_len as u64)
        .u64_array_field("entered", &entered)
        .u64_array_field("left", &left)
        .u64_field("cache_patched", out.patched as u64)
        .u64_field("cache_invalidated", out.invalidated as u64);
}

/// `POST /datasets/{name}/points` — body `{"rows": [[...], ...]}`.
pub(crate) fn handle_insert(
    shared: &Shared,
    name: &str,
    req: &Request,
) -> Result<Response, Response> {
    let trace_id = inherited_trace(req);
    let entry = shared.registry.get(name).map_err(registry_response)?;
    let rows = api::insert_rows(req)?;
    let (ids, mutation) = entry.insert_rows(&rows).map_err(registry_response)?;
    let (out, stage_times) = apply_mutation(shared, name, entry.dims(), &mutation, &trace_id);
    let ids64: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
    let mut w = ObjectWriter::new();
    w.u64_field("inserted", ids.len() as u64)
        .u64_array_field("ids", &ids64);
    mutation_json_fields(&mut w, &mutation, &out, shared.failover.epoch());
    Ok(Response::json(200, w.finish()).with_header(trace::STAGE_TIMES_HEADER, &stage_times))
}

/// `DELETE /datasets/{name}/points` — body `{"ids": [...]}`.
pub(crate) fn handle_remove(
    shared: &Shared,
    name: &str,
    req: &Request,
) -> Result<Response, Response> {
    let trace_id = inherited_trace(req);
    let entry = shared.registry.get(name).map_err(registry_response)?;
    let ids: Vec<PointId> = api::remove_ids(req, PointId::MAX as u64)?
        .into_iter()
        .map(|id| id as PointId)
        .collect();
    let (removed, mutation) = entry.remove_ids(&ids).map_err(registry_response)?;
    let (out, stage_times) = apply_mutation(shared, name, entry.dims(), &mutation, &trace_id);
    let mut w = ObjectWriter::new();
    w.u64_field("removed", removed as u64);
    mutation_json_fields(&mut w, &mutation, &out, shared.failover.epoch());
    Ok(Response::json(200, w.finish()).with_header(trace::STAGE_TIMES_HEADER, &stage_times))
}
