//! Server-side metrics, reusing the obs histogram for latencies.
//!
//! One histogram per endpoint (power-of-two microsecond buckets, the
//! same shape the trace summary uses) plus request/error counters, and
//! one histogram per request *stage* (parse, compute, shard_wait, …)
//! fed by the stage timers. The `/metrics` endpoint renders this
//! together with cache and registry state as one JSON object, or as the
//! Prometheus text exposition under `?format=prometheus`.
//!
//! The hot path is lock-free: every counter is an atomic and the
//! latency histograms are [`AtomicHistogram`]s, so concurrent request
//! threads never serialize on a metrics mutex. The only lock is a
//! [`RwLock`] around the endpoint/stage maps, taken for reading on the
//! fast path; a write lock is needed only the first time a new
//! endpoint or stage name appears.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use skyline_obs::histogram::{AtomicHistogram, Histogram, BUCKETS};
use skyline_obs::json::ObjectWriter;

#[derive(Default)]
struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    latency_us: AtomicHistogram,
}

/// Aggregated request counters, grouped by `"{method} {endpoint}"`,
/// plus per-stage latency histograms and robustness counters (shed,
/// deadline, panic) for `/metrics`.
#[derive(Default)]
pub struct ServerMetrics {
    endpoints: RwLock<BTreeMap<String, Arc<EndpointMetrics>>>,
    stages: RwLock<BTreeMap<String, Arc<AtomicHistogram>>>,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics: AtomicU64,
}

/// One series a service adds to the Prometheus exposition: state the
/// metrics struct does not own (cache, registry, replication, shard
/// RPCs). The name may carry inline labels (`name{shard="0"}`).
#[derive(Debug)]
pub struct Extra {
    name: String,
    /// Typed `counter` when set, `gauge` otherwise.
    counter: bool,
    value: f64,
}

impl Extra {
    /// A monotone count since start.
    pub fn counter(name: impl Into<String>, value: u64) -> Extra {
        Extra {
            name: name.into(),
            counter: true,
            value: value as f64,
        }
    }

    /// A value that can go down as well as up.
    pub fn gauge(name: impl Into<String>, value: f64) -> Extra {
        Extra {
            name: name.into(),
            counter: false,
            value,
        }
    }
}

/// Look up `key` in a name-keyed map under the read lock, inserting
/// under the write lock only on first sight of the name.
fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, key: &str) -> Arc<T> {
    if let Some(v) = map
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(key)
        .cloned()
    {
        return v;
    }
    let mut w = map.write().unwrap_or_else(|e| e.into_inner());
    w.entry(key.to_string()).or_default().clone()
}

impl ServerMetrics {
    /// Empty metrics.
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Record one finished request. Lock-free after the first request
    /// to each endpoint.
    pub fn record(&self, method: &str, endpoint: &str, status: u16, elapsed_us: u64) {
        let key = format!("{method} {endpoint}");
        let m = intern(&self.endpoints, &key);
        m.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency_us.record(elapsed_us);
    }

    /// Record one stage duration (e.g. `compute`, `shard_wait`).
    /// Lock-free after the first sample of each stage name.
    pub fn record_stage(&self, stage: &str, elapsed_us: u64) {
        intern(&self.stages, stage).record(elapsed_us);
    }

    /// Record a whole stage list (a finished [`skyline_obs::StageTimer`]).
    pub fn record_stages(&self, stages: &[(String, u64)]) {
        for (name, us) in stages {
            self.record_stage(name, *us);
        }
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        let map = self.endpoints.read().unwrap_or_else(|e| e.into_inner());
        map.values()
            .map(|m| m.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// Count one request shed by the overload gate (503).
    pub fn inc_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed under overload since boot.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Count one query that blew its deadline (504).
    pub fn inc_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries cancelled at their deadline since boot.
    pub fn deadline_exceeded_total(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Count one handler panic turned into a 500.
    pub fn inc_panics(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Handler panics caught and isolated since boot.
    pub fn panics_total(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Consistent snapshot of the per-endpoint stats.
    fn endpoint_snapshots(&self) -> Vec<(String, u64, u64, Histogram)> {
        let map = self.endpoints.read().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    m.requests.load(Ordering::Relaxed),
                    m.errors.load(Ordering::Relaxed),
                    m.latency_us.snapshot(),
                )
            })
            .collect()
    }

    /// Snapshot of the per-stage latency histograms.
    pub fn stage_snapshots(&self) -> Vec<(String, Histogram)> {
        let map = self.stages.read().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect()
    }

    /// Render per-endpoint stats as a JSON object (endpoint → stats).
    pub fn render_json(&self) -> String {
        let mut out = ObjectWriter::new();
        for (key, requests, errors, latency) in self.endpoint_snapshots() {
            let mut ep = ObjectWriter::new();
            ep.u64_field("requests", requests)
                .u64_field("errors", errors)
                .u64_field("latency_us_sum", latency.sum())
                .u64_field("latency_us_max", latency.max());
            if latency.count() > 0 {
                ep.f64_field("latency_us_mean", latency.mean())
                    .u64_field("latency_us_p50", latency.p50())
                    .u64_field("latency_us_p99", latency.p99());
            }
            out.raw_field(&key, &ep.finish());
        }
        out.finish()
    }

    /// Render the per-stage histograms as a JSON object (stage → stats).
    pub fn render_stages_json(&self) -> String {
        let mut out = ObjectWriter::new();
        for (stage, h) in self.stage_snapshots() {
            let mut s = ObjectWriter::new();
            s.u64_field("count", h.count())
                .u64_field("sum_us", h.sum())
                .u64_field("p50_us", h.p50())
                .u64_field("p99_us", h.p99())
                .u64_field("max_us", h.max());
            out.raw_field(&stage, &s.finish());
        }
        out.finish()
    }

    /// Render everything as the Prometheus text exposition format
    /// (`/metrics?format=prometheus`), followed by the caller's
    /// `extras`, each family typed `counter` or `gauge` by its extra.
    pub fn render_prometheus(&self, extras: &[Extra]) -> String {
        let mut out = String::new();
        let endpoints = self.endpoint_snapshots();

        let _ = writeln!(out, "# TYPE skyline_requests_total counter");
        for (key, requests, _, _) in &endpoints {
            let _ = writeln!(
                out,
                "skyline_requests_total{{endpoint=\"{}\"}} {requests}",
                escape_label(key)
            );
        }
        let _ = writeln!(out, "# TYPE skyline_request_errors_total counter");
        for (key, _, errors, _) in &endpoints {
            let _ = writeln!(
                out,
                "skyline_request_errors_total{{endpoint=\"{}\"}} {errors}",
                escape_label(key)
            );
        }
        let _ = writeln!(out, "# TYPE skyline_request_latency_us histogram");
        for (key, _, _, latency) in &endpoints {
            prom_histogram(
                &mut out,
                "skyline_request_latency_us",
                "endpoint",
                key,
                latency,
            );
        }
        let stages = self.stage_snapshots();
        if !stages.is_empty() {
            let _ = writeln!(out, "# TYPE skyline_stage_us histogram");
            for (stage, h) in &stages {
                prom_histogram(&mut out, "skyline_stage_us", "stage", stage, h);
            }
        }
        for (name, value) in [
            ("skyline_shed_total", self.shed_total()),
            (
                "skyline_deadline_exceeded_total",
                self.deadline_exceeded_total(),
            ),
            ("skyline_panics_total", self.panics_total()),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        // Extras may carry inline labels (`name{shard="0"}`); the TYPE
        // line names the bare family, once per consecutive run.
        let mut last_family = "";
        for extra in extras {
            let family = extra.name.split('{').next().unwrap_or(&extra.name);
            if family != last_family {
                let kind = if extra.counter { "counter" } else { "gauge" };
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last_family = family;
            }
            let _ = writeln!(out, "{} {}", extra.name, extra.value);
        }
        out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One histogram in exposition form: cumulative `le` buckets (the upper
/// bound of log2 bucket `i` is `2^i - 1`), then `_sum` and `_count`.
fn prom_histogram(out: &mut String, name: &str, label: &str, value: &str, h: &Histogram) {
    let value = escape_label(value);
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets().iter().enumerate() {
        cumulative += c;
        let le = if i == BUCKETS - 1 {
            "+Inf".to_string()
        } else {
            ((1u64 << i) - 1).to_string()
        };
        let _ = writeln!(
            out,
            "{name}_bucket{{{label}=\"{value}\",le=\"{le}\"}} {cumulative}"
        );
    }
    let _ = writeln!(out, "{name}_sum{{{label}=\"{value}\"}} {}", h.sum());
    let _ = writeln!(out, "{name}_count{{{label}=\"{value}\"}} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_obs::json::Value;

    #[test]
    fn records_and_renders_per_endpoint() {
        let m = ServerMetrics::new();
        m.record("GET", "/skyline", 200, 120);
        m.record("GET", "/skyline", 200, 80);
        m.record("GET", "/skyline", 404, 5);
        m.record("GET", "/healthz", 200, 1);
        assert_eq!(m.total_requests(), 4);

        let v = Value::parse(&m.render_json()).expect("valid json");
        let sky = v.get("GET /skyline").expect("endpoint present");
        assert_eq!(sky.get("requests").unwrap().as_u64(), Some(3));
        assert_eq!(sky.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(sky.get("latency_us_sum").unwrap().as_u64(), Some(205));
        assert_eq!(sky.get("latency_us_max").unwrap().as_u64(), Some(120));
        assert!(sky.get("latency_us_p50").unwrap().as_u64().is_some());
        assert!(sky.get("latency_us_p99").unwrap().as_u64().is_some());
        let health = v.get("GET /healthz").expect("endpoint present");
        assert_eq!(health.get("errors").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn robustness_counters_accumulate() {
        let m = ServerMetrics::new();
        assert_eq!(m.shed_total(), 0);
        m.inc_shed();
        m.inc_shed();
        m.inc_deadline_exceeded();
        m.inc_panics();
        assert_eq!(m.shed_total(), 2);
        assert_eq!(m.deadline_exceeded_total(), 1);
        assert_eq!(m.panics_total(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = ServerMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..500u64 {
                        m.record("GET", "/skyline", 200, i);
                        m.record_stage("compute", i);
                    }
                });
            }
        });
        assert_eq!(m.total_requests(), 4000);
        let stages = m.stage_snapshots();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].1.count(), 4000);
    }

    #[test]
    fn stage_histograms_render_as_json() {
        let m = ServerMetrics::new();
        m.record_stages(&[
            ("parse".to_string(), 4),
            ("compute".to_string(), 900),
            ("respond".to_string(), 12),
        ]);
        m.record_stage("compute", 1100);
        let v = Value::parse(&m.render_stages_json()).expect("valid json");
        let compute = v.get("compute").expect("stage present");
        assert_eq!(compute.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(compute.get("sum_us").unwrap().as_u64(), Some(2000));
        assert!(compute.get("p99_us").unwrap().as_u64().unwrap() >= 1100);
        assert_eq!(
            v.get("parse").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = ServerMetrics::new();
        m.record("GET", "/skyline", 200, 100);
        m.record("GET", "/skyline", 500, 3000);
        m.record_stage("merge", 250);
        m.inc_shed();
        let text = m.render_prometheus(&[
            Extra::gauge("skyline_cache_hit_rate", 0.75),
            Extra::counter("skyline_cache_hits_total", 3),
        ]);
        for needle in [
            "# TYPE skyline_requests_total counter",
            "skyline_requests_total{endpoint=\"GET /skyline\"} 2",
            "skyline_request_errors_total{endpoint=\"GET /skyline\"} 1",
            "# TYPE skyline_request_latency_us histogram",
            "skyline_request_latency_us_bucket{endpoint=\"GET /skyline\",le=\"+Inf\"} 2",
            "skyline_request_latency_us_count{endpoint=\"GET /skyline\"} 2",
            "skyline_request_latency_us_sum{endpoint=\"GET /skyline\"} 3100",
            "# TYPE skyline_stage_us histogram",
            "skyline_stage_us_bucket{stage=\"merge\",le=\"255\"} 1",
            "# TYPE skyline_shed_total counter",
            "skyline_shed_total 1",
            "# TYPE skyline_cache_hit_rate gauge",
            "skyline_cache_hit_rate 0.75",
            "# TYPE skyline_cache_hits_total counter",
            "skyline_cache_hits_total 3",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Buckets are cumulative: every later bucket count >= earlier.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("skyline_request_latency_us_bucket"))
        {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "non-cumulative bucket line: {line}");
            last = n;
        }
    }
}
