//! The traced run: spans around every client call, the server's stage
//! header folded into child spans, and an in-process replay of the run's
//! inputs through each layer's public functions.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use skyline_algos::algorithm_by_name;
use skyline_core::cancel::CancelToken;
use skyline_core::dataset::Dataset;
use skyline_core::dominance::dominates;
use skyline_core::metrics::Metrics;
use skyline_core::point::PointId;
use skyline_core::shard_merge::{
    merge_shard_skylines, select_reference_elites, EliteRef, MergeEntry,
};
use skyline_core::streaming::StreamingSkyline;
use skyline_core::subspace::Subspace;
use skyline_obs::event::Event;
use skyline_obs::json::{ObjectWriter, Value};
use skyline_obs::recorder::{MemoryRecorder, NoopRecorder, Record};
use skyline_obs::trace::{decode_stage_times, encode_stage_times};
use skyline_serve::cache::{CacheKey, CachedResult, ResultCache};
use skyline_serve::http::{Request, Response};
use skyline_serve::registry::Registry;
use skyline_serve::wal::{self, DatasetWal, FsyncPolicy, StorageConfig};

use crate::client::Conn;
use crate::oracle::Write;
use crate::workload::{self, Class, Inputs, Mix, Op, Phase, Rng, Spec, Topology};
use crate::{print_classes, print_metrics, procs, result_json, stats, Args, Metric, WorkDir};

/// One span: a named interval, its parent, and the op it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

/// Spans of one run, kept in memory until the run ends.
#[derive(Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start: u64,
        end: u64,
        parent: Option<usize>,
        op: usize,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start,
            end: end.max(start),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Each span's duration minus the part of it its children cover
    /// (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut parts: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        (
                            self.spans[c].start.max(s.start),
                            self.spans[c].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                parts.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start;
                for (a, b) in parts {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

/// Client spans for the traced phase's ops, with the stage-times header
/// folded in as children. The header carries durations only, so stages
/// are laid end to end from the start of the call; shard legs
/// (`shardN.rpc`) overlap the coordinator's stages, and their own stages
/// are laid out inside them. Returns each op's root span.
pub fn client_spans(ops: &[Op], spans: &mut Spans) -> Vec<usize> {
    let mut roots = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let start = op.start.as_nanos() as u64;
        let end = start + op.latency.as_nanos() as u64;
        let root = spans.push(format!("client.{}", op.class.name()), start, end, None, i);
        roots.push(root);
        let Some(header) = &op.stages else { continue };
        let entries = decode_stage_times(header);
        let mut at = start;
        let mut legs: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        for (name, us) in &entries {
            if name.contains('.') {
                continue;
            }
            let dur = us * 1000;
            spans.push(format!("stage.{name}"), at, at + dur, Some(root), i);
            at += dur;
        }
        for (name, us) in &entries {
            let Some((shard, stage)) = name.split_once('.') else {
                continue;
            };
            let dur = us * 1000;
            if stage == "rpc" {
                let leg = spans.push(format!("{shard}.rpc"), start, start + dur, Some(root), i);
                legs.insert(shard.to_string(), (leg, start));
            } else if let Some((leg, cursor)) = legs.get_mut(shard) {
                spans.push(
                    format!("shard.stage.{stage}"),
                    *cursor,
                    *cursor + dur,
                    Some(*leg),
                    i,
                );
                *cursor += dur;
            }
        }
    }
    roots
}

/// Stage durations (µs) per read, from the stage-times header: the
/// coordinator's own stages, and each shard's stages as the slowest
/// shard's value. A shard answering from its cache recomputes the
/// coordinator's extras (masks, rows) inside its `cache` stage, so the
/// extras cost is kept as `cache+extras`, the slowest shard's sum.
fn stage_samples(ops: &[Op]) -> (HashMap<String, Vec<f64>>, HashMap<String, Vec<f64>>) {
    let mut own: HashMap<String, Vec<f64>> = HashMap::new();
    let mut shard: HashMap<String, Vec<f64>> = HashMap::new();
    for op in ops.iter().filter(|o| o.class.is_read()) {
        let Some(header) = &op.stages else { continue };
        let mut slowest: HashMap<String, u64> = HashMap::new();
        let mut extras: HashMap<String, u64> = HashMap::new();
        for (name, us) in decode_stage_times(header) {
            match name.split_once('.') {
                None => own.entry(name).or_default().push(us as f64),
                Some((leg, stage)) => {
                    let e = slowest.entry(stage.to_string()).or_default();
                    *e = (*e).max(us);
                    if stage == "cache" || stage == "extras" {
                        *extras.entry(leg.to_string()).or_default() += us;
                    }
                }
            }
        }
        slowest.insert(
            "cache+extras".into(),
            extras.into_values().max().unwrap_or(0),
        );
        for (stage, us) in slowest {
            shard.entry(stage).or_default().push(us as f64);
        }
    }
    (own, shard)
}

fn p50_of(map: &HashMap<String, Vec<f64>>, key: &str) -> f64 {
    map.get(key).map_or(0.0, |v| stats::median(v))
}

/// Time `f`, returning its result and the elapsed nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Replay spans: each layer call in its own span, under one span per
/// replayed input.
struct Replay {
    spans: Spans,
    origin: Instant,
    op: usize,
    parent: Option<usize>,
}

impl Replay {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns its result and its
    /// duration in ns.
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        self.spans.push(name, start, end, self.parent, self.op);
        (out, end - start)
    }

    fn open(&mut self, name: &str) -> (usize, u64) {
        self.op += 1;
        let start = self.now();
        let id = self.spans.push(name, start, start, None, self.op);
        self.parent = Some(id);
        (id, start)
    }

    fn close(&mut self, id: usize) {
        self.spans.spans[id].end = self.now();
        self.parent = None;
    }
}

/// Collected per-layer samples (ns unless noted), keyed by metric.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, key: &'static str, v: f64) {
        self.0.entry(key).or_default().push(v);
    }
    fn mean(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |v| stats::mean(v))
    }
    fn median(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |v| stats::median(v))
    }
    fn sum(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |v| v.iter().sum())
    }
}

/// Replay the algorithms on the queries the run sent: DT counts, the
/// merge/sort/scan spans, subset-index counters, and projection time.
fn replay_queries(
    spec: &Spec,
    inputs: &Inputs,
    live: &BTreeMap<u64, u32>,
    phase: &Phase,
    rp: &mut Replay,
    s: &mut Samples,
) {
    let rows: Vec<&[f64]> = live.values().map(|&r| inputs.rows.row(r)).collect();
    let data = Dataset::from_rows(&rows).expect("generated rows are finite");
    let queries: Vec<(Vec<usize>, &str)> = match spec.mix {
        Mix::Cold => {
            let reads = phase.ops.iter().filter(|o| o.class.is_read()).count();
            inputs
                .keys
                .iter()
                .take(reads.min(inputs.keys.len()))
                .cloned()
                .collect()
        }
        _ => vec![((0..spec.dims).collect(), "SDI-Subset"); 3],
    };
    let budget = Instant::now();
    for (dims, algo_name) in queries {
        if budget.elapsed() > Duration::from_secs(20) {
            break;
        }
        let algo = algorithm_by_name(algo_name).expect("known engine");
        let (id, _) = rp.open("replay.query");
        let projected = if dims.len() < spec.dims {
            let mask = Subspace::from_dims(dims.iter().copied());
            let (p, ns) = rp.span("core.dataset.project_dims", || data.project_dims(mask));
            s.add("project", ns as f64);
            Some(p)
        } else {
            None
        };
        let target = projected.as_ref().unwrap_or(&data);
        let mut rec = MemoryRecorder::new();
        let (run, ns) = rp.span(&format!("algos.run_traced.{algo_name}"), || {
            algo.run_traced(target, &mut rec)
        });
        let key: &'static str = match algo_name {
            "SFS-Subset" => "compute.SFS-Subset",
            "SaLSa-Subset" => "compute.SaLSa-Subset",
            _ => "compute.SDI-Subset",
        };
        s.add(key, ns as f64);
        let m = &run.metrics;
        s.add("dt", m.dominance_tests as f64);
        s.add("gets", m.container_gets as f64);
        s.add("candidates", m.candidates_returned as f64);
        s.add("nodes", m.index_nodes_visited as f64);
        s.add("stop_pruned", m.stop_pruned as f64);
        s.add("points", target.len() as f64);
        let (mut merge, mut sort, mut scan, mut pruned) = (0u64, 0u64, 0u64, 0u64);
        for r in rec.records() {
            match r {
                Record::SpanEnd {
                    name: "merge",
                    dur_us,
                    ..
                } => merge += dur_us,
                Record::SpanEnd {
                    name: "sort",
                    dur_us,
                    ..
                } => sort += dur_us,
                Record::SpanEnd {
                    name: "scan",
                    dur_us,
                    ..
                } => scan += dur_us,
                Record::Event(Event::MergeIteration { pruned: p, .. }) => pruned += p,
                _ => {}
            }
        }
        s.add("merge_us", merge as f64);
        s.add("sort_us", sort as f64);
        s.add("scan_us", scan as f64);
        s.add("merge_pruned", pruned as f64);
        rp.close(id);
    }
}

/// Replay the load and every write through the streaming skyline, the
/// registry (with its WAL on the durable workload), the WAL alone, and
/// the result cache.
fn replay_writes(
    spec: &Spec,
    inputs: &Inputs,
    load: &[(u64, u32)],
    writes: &[Write],
    work: &Path,
    rp: &mut Replay,
    s: &mut Samples,
) -> Result<(), String> {
    let dims = spec.dims;
    // Streaming: the load, then the script.
    let mut stream = StreamingSkyline::new(dims).map_err(|e| e.to_string())?;
    let mut handle_of: HashMap<u64, PointId> = HashMap::new();
    let mut metrics = Metrics::new();
    let (id, start) = rp.open("replay.load");
    for &(key, row) in load {
        let (h, _) = stream
            .insert_delta(inputs.rows.row(row), &mut metrics)
            .map_err(|e| e.to_string())?;
        handle_of.insert(key, h);
    }
    rp.close(id);
    s.add("load_ns", (rp.now() - start) as f64);

    // Registry and WAL, durable on the durable workload.
    let wal_dir = work.join("replay-wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
    let storage = StorageConfig {
        fsync: FsyncPolicy::Never,
        ..StorageConfig::new(&wal_dir)
    };
    let registry = if spec.topology == Topology::Durable {
        Registry::open(storage).map_err(|e| e.to_string())?
    } else {
        Registry::new()
    };
    let entry = registry
        .create("replay", dims, &[])
        .map_err(|e| e.to_string())?;
    let load_rows: Vec<Vec<f64>> = load
        .iter()
        .map(|&(_, r)| inputs.rows.row(r).to_vec())
        .collect();
    let mut reg_handle: HashMap<u64, PointId> = HashMap::new();
    for (chunk, keys) in load_rows.chunks(spec.batch).zip(load.chunks(spec.batch)) {
        let (ids, _) = entry.insert_rows(chunk).map_err(|e| e.to_string())?;
        for (h, &(key, _)) in ids.into_iter().zip(keys) {
            reg_handle.insert(key, h);
        }
    }
    // The WAL on its own, as the registry's would append to it.
    let alone_dir = work.join("replay-wal-alone");
    std::fs::create_dir_all(&alone_dir).map_err(|e| e.to_string())?;
    let alone = StorageConfig {
        fsync: FsyncPolicy::Never,
        ..StorageConfig::new(&alone_dir)
    };
    let mut wal_alone = DatasetWal::create(&alone, "replay").map_err(|e| e.to_string())?;
    let cache = ResultCache::new(256);
    let full = Subspace::full(dims).bits();
    let hot_key = |version: u64| CacheKey {
        dataset: "replay".to_string(),
        version,
        algorithm: "SDI-Subset".to_string(),
        mask_bits: full,
        k: 1,
        threads: 0,
    };
    let (version, sky) = entry.streaming_skyline();
    cache.insert(
        hot_key(version),
        CachedResult {
            ids: sky,
            elapsed_us: 0,
        },
    );
    let mut wal_bytes = 0u64;
    // Bytes of the write requests' bodies, as the client sends them.
    let mut user_bytes = 0u64;
    let mut compactions = 0u64;

    for w in writes {
        let (id, _) = rp.open("replay.write");
        let before = metrics.dominance_tests;
        let mutation = match *w {
            Write::Insert { key, row } => {
                user_bytes += workload::rows_json(&inputs.rows, row..row + 1).len() as u64;
                let r = inputs.rows.row(row);
                let ((h, _), ns) = rp.span("core.streaming.insert_delta", || {
                    stream.insert_delta(r, &mut metrics).expect("finite row")
                });
                handle_of.insert(key, h);
                s.add("stream_insert", ns as f64);
                let record = wal::insert_record(r, stream.version());
                wal_bytes += record.len() as u64 + 1;
                let (res, ns) = rp.span("serve.wal.append_batch", || {
                    wal_alone.append_batch(&[record])
                });
                res.map_err(|e| e.to_string())?;
                s.add("wal_append", ns as f64);
                let row_vec = vec![r.to_vec()];
                let (res, ns) =
                    rp.span("serve.registry.insert_rows", || entry.insert_rows(&row_vec));
                let (ids, mutation) = res.map_err(|e| e.to_string())?;
                reg_handle.insert(key, ids[0]);
                s.add("reg_insert", ns as f64);
                mutation
            }
            Write::Remove { key } => {
                user_bytes += format!("{{\"ids\":[{key}]}}").len() as u64;
                let h = handle_of[&key];
                let on_skyline = stream.is_skyline(h);
                let (_, ns) = rp.span("core.streaming.remove_delta", || {
                    stream.remove_delta(h, &mut metrics)
                });
                s.add(
                    if on_skyline {
                        "stream_remove_skyline"
                    } else {
                        "stream_remove"
                    },
                    ns as f64,
                );
                let record = wal::remove_record(h, stream.version());
                wal_bytes += record.len() as u64 + 1;
                let (res, ns) = rp.span("serve.wal.append_batch", || {
                    wal_alone.append_batch(&[record])
                });
                res.map_err(|e| e.to_string())?;
                s.add("wal_append", ns as f64);
                let rh = reg_handle[&key];
                let (res, ns) = rp.span("serve.registry.remove_ids", || entry.remove_ids(&[rh]));
                let (_, mutation) = res.map_err(|e| e.to_string())?;
                s.add("reg_remove", ns as f64);
                mutation
            }
        };
        s.add("tests_per_write", (metrics.dominance_tests - before) as f64);
        let (compacted, _) = rp.span("serve.wal.maybe_compact", || {
            wal_alone.maybe_compact(&stream)
        });
        compactions += u64::from(compacted.unwrap_or(false));
        let (out, ns) = rp.span("serve.cache.patch_dataset", || {
            cache.patch_dataset("replay", full, mutation.base_version, &mutation.delta)
        });
        s.add("cache_patch", ns as f64);
        s.add("cache_patched", out.patched as f64);
        s.add("cache_invalidated", out.invalidated as f64);
        let (_, ns) = rp.span("serve.cache.get", || cache.get(&hot_key(mutation.version)));
        s.add("cache_get", ns as f64);
        let (_, ns) = rp.span("serve.registry.snapshot", || entry.snapshot());
        s.add("reg_snapshot", ns as f64);
        rp.close(id);
    }
    if writes.is_empty() {
        let (_, ns) = rp.span("serve.cache.get", || cache.get(&hot_key(0)));
        s.add("cache_get", ns as f64);
        let (_, ns) = rp.span("serve.registry.snapshot", || entry.snapshot());
        s.add("reg_snapshot", ns as f64);
    }
    s.add("wal_bytes", wal_bytes as f64);
    s.add("user_bytes", user_bytes as f64);
    s.add("compactions", compactions as f64);

    // The per-write snapshot rebuild, at the live n.
    for _ in 0..5 {
        let (_, ns) = rp.span("core.dataset.snapshot", || {
            let (_, rows) = stream.snapshot_rows();
            Dataset::from_rows(&rows).expect("finite rows")
        });
        s.add("snapshot", ns as f64);
    }
    Ok(())
}

/// Cross-shard merge of two shards' local skylines over the live rows.
fn replay_shard_merge(
    inputs: &Inputs,
    live: &BTreeMap<u64, u32>,
    dims: usize,
    rp: &mut Replay,
    s: &mut Samples,
) {
    let algo = algorithm_by_name("SDI-Subset").expect("known engine");
    let mut shards: Vec<Vec<(u64, u32)>> = vec![Vec::new(); 2];
    for (&key, &row) in live {
        shards[(key % 2) as usize].push((key, row));
    }
    let mut entries = Vec::new();
    let mut elite_rows: Vec<(u32, u32)> = Vec::new();
    for (shard, members) in shards.iter().enumerate() {
        let rows: Vec<&[f64]> = members.iter().map(|&(_, r)| inputs.rows.row(r)).collect();
        let data = Dataset::from_rows(&rows).expect("finite rows");
        let local = algo.compute(&data);
        for &e in &select_reference_elites(&data, &local) {
            elite_rows.push((shard as u32, members[e as usize].1));
        }
        for &i in &local {
            entries.push(MergeEntry {
                key: members[i as usize].0,
                shard: shard as u32,
                premask: Subspace::from_bits(0),
            });
        }
    }
    let elites: Vec<EliteRef<'_>> = elite_rows
        .iter()
        .map(|&(shard, row)| EliteRef {
            shard,
            row: inputs.rows.row(row),
        })
        .collect();
    let row_of = |key: u64| inputs.rows.row(live[&key]);
    for _ in 0..3 {
        let (id, _) = rp.open("replay.gather");
        let mut metrics = Metrics::new();
        let (merged, ns) = rp.span("core.shard_merge.merge_shard_skylines", || {
            merge_shard_skylines(
                dims,
                2,
                &entries,
                &elites,
                row_of,
                &mut metrics,
                &mut NoopRecorder,
                &CancelToken::none(),
            )
        });
        rp.close(id);
        let merged = merged.expect("the none token never cancels");
        s.add("shard_merge", ns as f64);
        s.add("shard_merge_tests", metrics.dominance_tests as f64);
        s.add(
            "survivor_ratio",
            merged.len() as f64 / entries.len().max(1) as f64,
        );
    }
}

/// HTTP, JSON and stage-header codecs over recorded requests and replies.
fn replay_codecs(phase: &Phase, rp: &mut Replay, s: &mut Samples) {
    let reads: Vec<&Op> = phase.ops.iter().filter(|o| o.class.is_read()).collect();
    let mut requests: Vec<Vec<u8>> = phase
        .sample_write_bodies
        .iter()
        .map(|b| Conn::encode("POST", "/datasets/bench0/points", b))
        .collect();
    requests.push(Conn::encode(
        "GET",
        "/skyline?dataset=bench0&algo=SDI-Subset",
        b"",
    ));
    for req in &requests {
        for _ in 0..20 {
            let (_, ns) = rp.span("serve.http.read_from", || {
                Request::read_from(&mut &req[..], 16 << 20).expect("well-formed request")
            });
            s.add("http_parse", ns as f64);
        }
    }
    for body in &phase.sample_read_bodies {
        let text = String::from_utf8_lossy(body).into_owned();
        let ids: Vec<u64> = crate::client::json_u64_array(&text, "ids").unwrap_or_default();
        for _ in 0..10 {
            let (_, ns) = rp.span("obs.json.parse", || {
                Value::parse(&text).expect("valid reply")
            });
            s.add(
                "json_parse_per_kb",
                ns as f64 / (body.len() as f64 / 1024.0),
            );
            let (encoded, ns) = rp.span("obs.json.object_writer", || {
                let mut w = ObjectWriter::new();
                w.str_field("dataset", "bench0")
                    .str_field("algorithm", "SDI-Subset")
                    .u64_field("version", 1)
                    .bool_field("cached", true)
                    .u64_field("count", ids.len() as u64)
                    .u64_array_field("ids", &ids);
                w.finish()
            });
            s.add("json_encode", ns as f64);
            let resp = Response::json(200, encoded);
            let mut sink = Vec::with_capacity(body.len() + 256);
            let (_, ns) = rp.span("serve.http.write_to", || resp.write_to(&mut sink));
            s.add("http_write", ns as f64);
        }
    }
    let stages: Vec<(String, u64)> = reads
        .iter()
        .find_map(|o| o.stages.as_deref())
        .map(decode_stage_times)
        .unwrap_or_default();
    for _ in 0..200 {
        let (_, ns) = rp.span("obs.trace.stage_codec", || {
            decode_stage_times(&encode_stage_times(&stages))
        });
        s.add("stage_codec", ns as f64);
    }
    for op in reads {
        s.add("resp_bytes", op.resp_bytes as f64);
    }
}

/// Dominance kernel speed: `dominates` over seeded pairs of the rows.
fn replay_dominance(inputs: &Inputs, seed: u64, s: &mut Samples) {
    let mut rng = Rng::new(seed ^ 0xd0_d0);
    let n = inputs.rows.len();
    let pairs: Vec<(u32, u32)> = (0..1 << 16)
        .map(|_| (rng.below(n) as u32, rng.below(n) as u32))
        .collect();
    for _ in 0..5 {
        let (hits, ns) = timed(|| {
            let mut hits = 0u32;
            for _ in 0..8 {
                for &(a, b) in &pairs {
                    hits += u32::from(dominates(
                        std::hint::black_box(inputs.rows.row(a)),
                        std::hint::black_box(inputs.rows.row(b)),
                    ));
                }
            }
            hits
        });
        std::hint::black_box(hits);
        s.add("ns_per_test", ns as f64 / (pairs.len() * 8) as f64);
    }
}

/// Shard RPC retries: attempts beyond one per logical shard call.
fn rpc_retries(metrics_body: &str) -> f64 {
    let mut retries = 0.0;
    let mut rest = metrics_body;
    while let Some(at) = rest.find("\"attempts\":") {
        let head = &rest[..at];
        let requests = head
            .rfind("\"requests\":")
            .and_then(|r| crate::client::json_u64(&head[r..], "requests"));
        let attempts = crate::client::json_u64(&rest[at..], "attempts");
        if let (Some(r), Some(a)) = (requests, attempts) {
            retries += a.saturating_sub(r) as f64;
        }
        rest = &rest[at + 11..];
    }
    retries
}

/// The traced run of one workload: one set-up, the timed phase with each
/// read's stage-times header kept, answer checks, then the in-process
/// replay. Prints every per-layer metric.
pub fn run_traced(spec: &Spec, inputs: &Inputs, args: &Args) -> Result<ExitCode, String> {
    let work = WorkDir::new(spec.name)?;
    let (mut session, setup_times) = crate::setups(spec, inputs, args, &work, 1)?;
    let initial: Vec<_> = session.tables.iter().map(|t| t.live.clone()).collect();
    // The replay uses the first dataset: its load (with the warm-up
    // write), then every write it took.
    let load: Vec<(u64, u32)> = initial[0].iter().map(|(&k, &r)| (k, r)).collect();
    let seconds = Duration::from_secs(args.seconds);
    let mut rng = Rng::new(args.seed ^ 0x5c41_7e5e);
    let cpu0 = session.server.cpu_ms();
    let host0 = procs::host_ticks();
    let mut traced = workload::timed_phase(spec, inputs, &mut session, &mut rng, seconds, true);
    let host1 = procs::host_ticks();
    let cpu1 = session.server.cpu_ms();
    let server_metrics = Conn::connect(session.server.addr)
        .and_then(|mut c| c.request("GET", "/metrics", b""))
        .map(|r| r.text().to_string())
        .unwrap_or_default();
    let final_failed = workload::final_read(spec, &mut session, &mut traced);
    let live = session.tables[0].live.clone();
    session.close();
    let wrong = workload::check_answers(inputs, &initial, &traced);

    // Spans of the client calls, then of the replay.
    let mut spans = Spans::default();
    let roots = client_spans(&traced.ops, &mut spans);
    let client_self = spans.self_times();
    let mut rp = Replay {
        spans: Spans::default(),
        origin: Instant::now(),
        op: 0,
        parent: None,
    };
    let mut s = Samples::default();
    replay_dominance(inputs, args.seed, &mut s);
    replay_queries(spec, inputs, &live, &traced, &mut rp, &mut s);
    // The load (with the warm-up write) is replayed first, then the
    // phase's writes in order.
    let all_writes: Vec<Write> = traced
        .writes
        .iter()
        .filter(|(k, _)| *k == 0)
        .map(|&(_, w)| w)
        .collect();
    replay_writes(spec, inputs, &load, &all_writes, &work.0, &mut rp, &mut s)?;
    replay_shard_merge(inputs, &live, spec.dims, &mut rp, &mut s);
    replay_codecs(&traced, &mut rp, &mut s);
    let replay_self = rp.spans.self_times();

    // Write the spans out.
    let trace_path =
        Path::new(".bench_trace").join(format!("{}-seed{}.jsonl", spec.name, args.seed));
    spans
        .spans
        .extend(rp.spans.spans.iter().cloned().map(|mut sp| {
            sp.name = format!("replay:{}", sp.name);
            sp
        }));
    if let Err(e) = spans.write_jsonl(&trace_path) {
        println!("  (spans not written: {e})");
    }

    // The traced phase's own end-to-end numbers. Tracing adds no request
    // and no server work: it keeps a header the server sends on every
    // read reply, and builds the spans after the phase.
    let r = workload::latency_of(&traced.ops, true);
    let w = workload::latency_of(&traced.ops, false);
    println!(
        "perfbench {} seed {} traced run: set-up {:.3} s, timed phase {:.1} s",
        spec.name,
        args.seed,
        setup_times[0],
        traced.wall.as_secs_f64()
    );
    println!(
        "  traced    read p50 {:.4} ms (n={})  write p50 {:.4} ms (n={})  ops/s {:.1}",
        r.p50.unwrap_or(0.0),
        r.n,
        w.p50.unwrap_or(0.0),
        w.n,
        stats::median(&crate::window_rates(&traced))
    );
    println!(
        "  tracing overhead: none by construction (the same requests as an untraced run; \
the stage-times header is on every read reply; spans are built after the phase)"
    );
    print_classes(&traced);

    // Share of each class's client median that its layers account for:
    // the server stages under a read's span, or the replayed layers on a
    // write's path.
    let replay_median = |name: &str| -> f64 {
        let times: Vec<f64> = rp
            .spans
            .spans
            .iter()
            .zip(&replay_self)
            .filter(|(sp, _)| sp.name == name)
            .map(|(_, &t)| t as f64)
            .collect();
        stats::median(&times)
    };
    let latency_ns = |i: usize| traced.ops[i].latency.as_nanos() as f64;
    let covered_ns = |i: usize| latency_ns(i) - client_self[roots[i]] as f64;
    println!("  share of client median latency covered by layer self times:");
    for class in Class::ALL {
        let ops: Vec<usize> = (0..traced.ops.len())
            .filter(|&i| traced.ops[i].class == class)
            .collect();
        if ops.is_empty() {
            continue;
        }
        let median = stats::median(&ops.iter().map(|&i| latency_ns(i)).collect::<Vec<_>>());
        let (covered, layers) = if class.is_read() {
            let covered: Vec<f64> = ops.iter().map(|&i| covered_ns(i)).collect();
            (stats::median(&covered), "server stages")
        } else {
            let mutation = match class {
                Class::Insert => replay_median("serve.registry.insert_rows"),
                Class::RemoveAbsent => 0.0,
                _ => replay_median("serve.registry.remove_ids"),
            };
            let patch = if class == Class::RemoveAbsent {
                0.0
            } else {
                replay_median("serve.cache.patch_dataset")
            };
            let http = replay_median("serve.http.read_from") + replay_median("serve.http.write_to");
            (
                mutation + patch + http,
                "replayed http + registry + cache patch",
            )
        };
        println!(
            "    {:<16} median {:>10.1} us, layers {:>10.1} us = {:>5.1}%  ({layers})",
            class.name(),
            median / 1e3,
            covered / 1e3,
            100.0 * covered / median.max(1.0)
        );
    }

    // Per-layer metrics.
    let (own, shard) = stage_samples(&traced.ops);
    let is_cluster = spec.topology == Topology::Cluster;
    let server_stage = |name: &str| {
        if is_cluster {
            p50_of(&shard, name)
        } else {
            p50_of(&own, name)
        }
    };
    let cluster_stage = |name: &str| if is_cluster { p50_of(&own, name) } else { 0.0 };
    let reads_n = traced.ops.iter().filter(|o| o.class.is_read()).count();
    let ops_n = traced.ops.len();
    let points = s.sum("points").max(1.0);
    let gets = s.sum("gets").max(1.0);
    let user_bytes = s.sum("user_bytes").max(1.0);
    let read_self: Vec<f64> = (0..traced.ops.len())
        .filter(|&i| traced.ops[i].class.is_read())
        .map(|i| client_self[roots[i]] as f64 / 1e3)
        .collect();
    let cpu_per_op = match (cpu0, cpu1) {
        (Some(a), Some(b)) if ops_n > 0 => (b - a) / ops_n as f64,
        _ => 0.0,
    };
    let hit_ratio = if reads_n > 0 {
        traced.cache_hits as f64 / reads_n as f64
    } else {
        0.0
    };
    let rpc_retries = rpc_retries(&server_metrics);
    let extras = if is_cluster {
        p50_of(&shard, "cache+extras")
    } else {
        0.0
    };
    let steal = procs::steal_pct(host0, host1);
    // (name, value, unit); README.md says what each one measures.
    let table: [(&str, f64, &'static str); 57] = [
        ("core.dominance.tests", s.mean("dt"), "count"),
        ("core.dominance.ns_per_test", s.median("ns_per_test"), "ns"),
        ("core.merge.ms", s.mean("merge_us") / 1e3, "ms"),
        (
            "core.merge.pruned_ratio",
            s.sum("merge_pruned") / points,
            "ratio",
        ),
        ("core.subset_index.gets", s.mean("gets"), "count"),
        (
            "core.subset_index.candidates_per_get",
            s.sum("candidates") / gets,
            "count",
        ),
        (
            "core.subset_index.nodes_per_get",
            s.sum("nodes") / gets,
            "count",
        ),
        (
            "algos.compute_ms.SFS-Subset",
            s.mean("compute.SFS-Subset") / 1e6,
            "ms",
        ),
        (
            "algos.compute_ms.SaLSa-Subset",
            s.mean("compute.SaLSa-Subset") / 1e6,
            "ms",
        ),
        (
            "algos.compute_ms.SDI-Subset",
            s.mean("compute.SDI-Subset") / 1e6,
            "ms",
        ),
        ("core.boost.sort_ms", s.mean("sort_us") / 1e3, "ms"),
        ("core.boost.scan_ms", s.mean("scan_us") / 1e3, "ms"),
        (
            "core.boost.stop_pruned_ratio",
            s.sum("stop_pruned") / points,
            "ratio",
        ),
        ("core.dataset.project_ms", s.mean("project") / 1e6, "ms"),
        ("core.dataset.snapshot_ms", s.median("snapshot") / 1e6, "ms"),
        (
            "core.streaming.insert_us",
            s.median("stream_insert") / 1e3,
            "us",
        ),
        (
            "core.streaming.remove_us",
            s.median("stream_remove") / 1e3,
            "us",
        ),
        (
            "core.streaming.remove_skyline_us",
            s.median("stream_remove_skyline") / 1e3,
            "us",
        ),
        (
            "core.streaming.tests_per_write",
            s.mean("tests_per_write"),
            "count",
        ),
        ("core.streaming.load_s", s.sum("load_ns") / 1e9, "s"),
        ("core.shard_merge.ms", s.median("shard_merge") / 1e6, "ms"),
        (
            "core.shard_merge.tests",
            s.mean("shard_merge_tests"),
            "count",
        ),
        (
            "cluster.gather.survivor_ratio",
            s.mean("survivor_ratio"),
            "ratio",
        ),
        ("serve.http.parse_us", s.median("http_parse") / 1e3, "us"),
        ("serve.http.write_us", s.median("http_write") / 1e3, "us"),
        ("serve.http.resp_bytes", s.mean("resp_bytes"), "bytes"),
        ("obs.json.encode_us", s.median("json_encode") / 1e3, "us"),
        (
            "obs.json.parse_us_per_kb",
            s.median("json_parse_per_kb") / 1e3,
            "us",
        ),
        (
            "obs.trace.stage_codec_us",
            s.median("stage_codec") / 1e3,
            "us",
        ),
        (
            "serve.registry.insert_us",
            s.median("reg_insert") / 1e3,
            "us",
        ),
        (
            "serve.registry.remove_us",
            s.median("reg_remove") / 1e3,
            "us",
        ),
        (
            "serve.registry.snapshot_us",
            s.median("reg_snapshot") / 1e3,
            "us",
        ),
        ("serve.cache.hit_ratio", hit_ratio, "ratio"),
        ("serve.cache.patched", s.sum("cache_patched"), "count"),
        (
            "serve.cache.invalidated",
            s.sum("cache_invalidated"),
            "count",
        ),
        ("serve.cache.get_us", s.median("cache_get") / 1e3, "us"),
        ("serve.cache.patch_us", s.median("cache_patch") / 1e3, "us"),
        ("serve.wal.append_us", s.median("wal_append") / 1e3, "us"),
        (
            "serve.wal.bytes_per_user_byte",
            s.sum("wal_bytes") / user_bytes,
            "ratio",
        ),
        ("serve.wal.compactions", s.sum("compactions"), "count"),
        ("serve.stage.parse_us", server_stage("parse"), "us"),
        ("serve.stage.cache_us", server_stage("cache"), "us"),
        ("serve.stage.compute_us", server_stage("compute"), "us"),
        ("serve.stage.extras_us", server_stage("extras"), "us"),
        ("serve.stage.respond_us", server_stage("respond"), "us"),
        ("cluster.stage.route_us", cluster_stage("route"), "us"),
        ("cluster.stage.connect_us", cluster_stage("connect"), "us"),
        ("cluster.stage.send_us", cluster_stage("send"), "us"),
        (
            "cluster.stage.shard_wait_us",
            cluster_stage("shard_wait"),
            "us",
        ),
        ("cluster.stage.gather_us", cluster_stage("gather"), "us"),
        ("cluster.stage.merge_us", cluster_stage("merge"), "us"),
        ("cluster.stage.respond_us", cluster_stage("respond"), "us"),
        ("cluster.shard.extras_us", extras, "us"),
        ("cluster.rpc_retries", rpc_retries, "count"),
        ("proc.cpu_ms_per_op", cpu_per_op, "ms"),
        ("host.steal_pct", steal, "%"),
        ("client.unattributed_us", stats::median(&read_self), "us"),
    ];
    let metrics: Vec<Metric> = table
        .into_iter()
        .map(|(name, value, unit)| Metric::new(name, value, unit, ""))
        .collect();
    print_metrics(&metrics);
    let failed = traced.ops.iter().filter(|o| !o.ok).count() + wrong.len() + final_failed;
    let attempted = traced.ops.len() + spec.datasets;
    for line in traced.failures.iter().chain(&wrong).take(20) {
        println!("  FAILED {line}");
    }
    println!("  spans written to {}", trace_path.display());
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut s = Spans::default();
        let root = s.push("root", 0, 100, None, 0);
        let child = s.push("child", 10, 40, Some(root), 0);
        s.push("grandchild", 20, 30, Some(child), 0);
        assert_eq!(s.self_times(), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut s = Spans::default();
        let root = s.push("root", 0, 100, None, 0);
        s.push("a", 10, 50, Some(root), 0);
        s.push("b", 30, 70, Some(root), 0);
        s.push("c", 60, 65, Some(root), 0);
        // Children cover [10, 70): 60 of 100.
        assert_eq!(s.self_times()[0], 40);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut s = Spans::default();
        let root = s.push("root", 50, 100, None, 0);
        s.push("early", 0, 60, Some(root), 0);
        s.push("late", 90, 200, Some(root), 0);
        assert_eq!(s.self_times()[0], 30);
    }

    #[test]
    fn stage_header_becomes_child_spans() {
        let op = Op {
            class: Class::Cached,
            start: Duration::from_micros(0),
            latency: Duration::from_micros(100),
            ok: true,
            resp_bytes: 0,
            stages: Some(
                "route=10,shard_wait=50,merge=20,shard0.rpc=45,shard0.compute=30,shard1.rpc=40"
                    .into(),
            ),
        };
        let mut s = Spans::default();
        client_spans(&[op], &mut s);
        let names: Vec<&str> = s.spans.iter().map(|sp| sp.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "client.cached-read",
                "stage.route",
                "stage.shard_wait",
                "stage.merge",
                "shard0.rpc",
                "shard.stage.compute",
                "shard1.rpc"
            ]
        );
        let selfs = s.self_times();
        // Stages cover [0, 80 us); the shard legs lie inside it.
        assert_eq!(selfs[0], 20_000);
        assert_eq!(selfs[4], 15_000);
    }
}
