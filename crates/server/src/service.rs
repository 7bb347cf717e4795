//! The HTTP front end shared by the shard server and the cluster
//! coordinator.
//!
//! Everything between the socket and a service's routing lives here:
//! binding, the accept thread and its worker pool (with the optional
//! connection-queue shed), the keep-alive connection loop with panic
//! isolation and per-request metrics, the running handle, the trace and
//! slow-query sinks, and the request helpers every handler uses. A
//! service supplies only [`Service::route`].
//!
//! Shutdown is prompt and graceful: it closes the read half of every
//! live connection, so a worker parked on an idle keep-alive connection
//! sees end-of-stream at once instead of waiting out the request
//! timeout. A request that has already been read still gets its full
//! response on the intact write half, and connections still queued for
//! a worker are drained the same way.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use skyline_obs::json::{ObjectWriter, Value};
use skyline_obs::trace::{self, StageTimer};
use skyline_obs::{Event, JsonlRecorder, Recorder};

use crate::http::{HttpError, Request, Response};
use crate::metrics::{Extra, ServerMetrics};
use crate::pool::{lock_ignore_poison as lock, ThreadPool};

/// A service behind the front end.
pub trait Service: Send + Sync + 'static {
    /// The front-end state this service embeds.
    fn front(&self) -> &FrontEnd;

    /// Dispatch one request. Returns the response plus the normalised
    /// endpoint label used for metrics and trace events.
    fn route(&self, req: &Request) -> (Response, &'static str);
}

/// Front-end settings, taken from the service's own configuration.
#[derive(Debug)]
pub struct FrontConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub bind: String,
    /// Thread-name prefix: `{name}-accept` and `{name}-worker-{i}`.
    pub name: &'static str,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Per-connection socket timeout (read and write).
    pub request_timeout: Duration,
    /// Request body cap, bytes.
    pub max_body: usize,
    /// Connections queued for a worker before the accept loop sheds
    /// with 503. `0` = unlimited.
    pub queue_limit: usize,
    /// JSONL trace sink.
    pub trace: Option<PathBuf>,
    /// Slow-query threshold, milliseconds; `0` disables the slow log.
    pub slow_ms: u64,
    /// Dedicated slow-query log. `None` routes slow records to the
    /// trace sink only.
    pub slow_log: Option<PathBuf>,
}

/// Front-end state, embedded in each service and shared by every
/// worker.
pub struct FrontEnd {
    /// The address the service listens on (with the resolved port).
    pub addr: SocketAddr,
    /// Worker threads handling connections.
    pub threads: usize,
    /// When the service started.
    pub started: Instant,
    /// Per-endpoint and per-stage latency plus robustness counters.
    pub metrics: ServerMetrics,
    /// The JSONL trace sink, if one is configured.
    pub recorder: Option<Mutex<JsonlRecorder<File>>>,
    slow_ms: u64,
    slow_log: Option<Mutex<JsonlRecorder<File>>>,
    name: &'static str,
    request_timeout: Duration,
    max_body: usize,
    queue_limit: usize,
    shutdown: AtomicBool,
    /// Connections being served, so shutdown can close their read
    /// halves.
    live: Mutex<HashMap<u64, Arc<TcpStream>>>,
    next_conn: AtomicU64,
}

fn write_event(sink: &Mutex<JsonlRecorder<File>>, event: Event) {
    let mut rec = lock(sink);
    rec.event(event);
    // Request-level events are rare enough to flush eagerly, so a live
    // trace file can be tailed without a shutdown.
    rec.flush();
}

impl FrontEnd {
    /// Bind the listener and open the trace and slow-query sinks.
    pub fn bind(config: FrontConfig) -> io::Result<(TcpListener, FrontEnd)> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let open = |path: &Option<PathBuf>| -> io::Result<_> {
            match path {
                Some(path) => Ok(Some(Mutex::new(JsonlRecorder::create(path)?))),
                None => Ok(None),
            }
        };
        let front = FrontEnd {
            addr,
            threads: config.threads.max(1),
            started: Instant::now(),
            metrics: ServerMetrics::new(),
            recorder: open(&config.trace)?,
            slow_ms: config.slow_ms,
            slow_log: open(&config.slow_log)?,
            name: config.name,
            request_timeout: config.request_timeout,
            max_body: config.max_body,
            queue_limit: config.queue_limit,
            shutdown: AtomicBool::new(false),
            live: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        };
        Ok((listener, front))
    }

    /// Write an event to the trace sink, if one is configured.
    pub fn emit(&self, event: Event) {
        if let Some(rec) = &self.recorder {
            write_event(rec, event);
        }
    }

    /// Write a slow-query record to the dedicated slow log, if any, and
    /// to the trace sink.
    fn emit_slow(&self, event: Event) {
        if let Some(log) = &self.slow_log {
            write_event(log, event.clone());
        }
        self.emit(event);
    }

    /// Whether a shutdown has begun. Long-running handlers and
    /// background loops poll this to wind down.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Sleep `total` in short slices, returning early once shutdown
    /// begins, so a background loop's backoff never delays it.
    pub fn sleep_checking_shutdown(&self, total: Duration) {
        let deadline = Instant::now() + total;
        while Instant::now() < deadline && !self.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(20).min(total));
        }
    }

    /// Stop accepting connections and close the read half of every live
    /// one: idle keep-alive connections end at once, requests already
    /// read still get their responses.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for conn in lock(&self.live).values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        // Nudge the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// `POST /shutdown`: begin a graceful shutdown and acknowledge it.
    pub fn handle_shutdown(&self) -> Response {
        self.begin_shutdown();
        let mut w = ObjectWriter::new();
        w.str_field("status", "shutting down");
        Response::json(200, w.finish())
    }

    /// A 503 with `Retry-After`, counted and traced as shed load.
    pub fn shed(&self, endpoint: &str, why: &str) -> Response {
        self.metrics.inc_shed();
        self.emit(Event::Shed {
            endpoint: endpoint.to_string(),
        });
        Response::error(503, why).with_header("Retry-After", "1")
    }

    /// `GET /metrics`: the service's JSON document by default, the
    /// Prometheus text exposition plus the service's extra series under
    /// `format=prometheus`.
    pub fn metrics_response(
        &self,
        req: &Request,
        json: impl FnOnce() -> String,
        extras: impl FnOnce() -> Vec<Extra>,
    ) -> Response {
        match req.query_param("format") {
            None | Some("") | Some("json") => Response::json(200, json()),
            Some("prometheus") => Response::text(200, self.metrics.render_prometheus(&extras())),
            Some(other) => Response::error(
                400,
                &format!("bad \"format\" value {other:?} (json or prometheus)"),
            ),
        }
    }

    /// Seal a `/skyline` response: mark the `respond` stage, record the
    /// per-stage histograms, attach the stage-times header (and the
    /// trace id, when there is one), and emit the `stage_breakdown` —
    /// to the trace sink always (that is what `skyline report --stages`
    /// aggregates), and to the slow-query log past the threshold.
    pub fn finish_skyline(
        &self,
        mut timer: StageTimer,
        trace_id: &str,
        straggler: String,
        resp: Response,
    ) -> Response {
        timer.mark("respond");
        self.metrics.record_stages(timer.stages());
        let entries = timer.all_entries();
        let mut resp = resp.with_header(
            trace::STAGE_TIMES_HEADER,
            &trace::encode_stage_times(&entries),
        );
        if !trace_id.is_empty() {
            resp = resp.with_header(trace::TRACE_HEADER, trace_id);
        }
        let total_us = timer.stages().iter().map(|(_, us)| us).sum();
        let breakdown = Event::StageBreakdown {
            trace: trace_id.to_string(),
            endpoint: "/skyline".to_string(),
            total_us,
            stages: entries,
            straggler,
        };
        if self.slow_ms > 0 && total_us >= self.slow_ms.saturating_mul(1000) {
            self.emit_slow(breakdown);
        } else {
            self.emit(breakdown);
        }
        resp
    }

    /// Register a connection for the shutdown sweep. One picked up
    /// after shutdown began is closed for reading at once; a request it
    /// already carries is still read and answered. The flag is checked
    /// under the `live` lock, and `begin_shutdown` sets it before it
    /// sweeps under that lock, so every connection is either swept or
    /// sees the flag.
    fn track(&self, stream: TcpStream) -> Tracked<'_> {
        let stream = Arc::new(stream);
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let mut live = lock(&self.live);
        if self.is_shutting_down() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        live.insert(id, Arc::clone(&stream));
        Tracked {
            front: self,
            id,
            stream,
        }
    }

    /// Shed a connection straight from the accept loop: the worker queue
    /// is over its limit, so write one 503 inline without occupying a
    /// worker.
    fn shed_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        self.metrics.record("?", "(shed)", 503, 0);
        let response = self.shed("(accept)", "server overloaded: connection queue is full");
        let _ = response.write_to(&mut stream);
    }
}

/// A connection in [`FrontEnd`]'s live set; leaves it on drop.
struct Tracked<'a> {
    front: &'a FrontEnd,
    id: u64,
    stream: Arc<TcpStream>,
}

impl Drop for Tracked<'_> {
    fn drop(&mut self) {
        lock(&self.front.live).remove(&self.id);
    }
}

/// A running service. Dropping it shuts the service down.
pub struct Running {
    service: Arc<dyn Service>,
    /// The accept thread, then any background thread the service runs.
    threads: Vec<JoinHandle<()>>,
}

/// Start serving `listener` on a background accept thread.
pub fn start(listener: TcpListener, service: Arc<dyn Service>) -> io::Result<Running> {
    let accept_service = Arc::clone(&service);
    let accept = std::thread::Builder::new()
        .name(format!("{}-accept", service.front().name))
        .spawn(move || accept_loop(listener, accept_service))?;
    Ok(Running {
        service,
        threads: vec![accept],
    })
}

impl Running {
    /// The address the service is listening on (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.service.front().addr
    }

    /// Run `body` on a named background thread that stops with the
    /// service: it must return once [`FrontEnd::is_shutting_down`]
    /// holds, and [`Running::wait`] joins it after the accept thread.
    pub fn spawn(&mut self, name: &str, body: impl FnOnce() + Send + 'static) -> io::Result<()> {
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(body)?;
        self.threads.push(thread);
        Ok(())
    }

    /// Block until the service stops (via `POST /shutdown` or
    /// [`Running::shutdown`] from another thread).
    pub fn wait(&mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Stop accepting connections, close idle ones, let in-flight
    /// requests finish, and join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.service.front().begin_shutdown();
        self.wait();
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, service: Arc<dyn Service>) {
    let front = service.front();
    // The pool lives in the accept thread: when the loop breaks,
    // dropping it drains queued connections and joins the workers, so
    // shutdown never truncates a response.
    let pool = ThreadPool::new(front.threads, &format!("{}-worker", front.name));
    for stream in listener.incoming() {
        if front.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        if front.queue_limit > 0 && pool.queue_depth() >= front.queue_limit {
            front.shed_connection(stream);
            continue;
        }
        let conn_service = Arc::clone(&service);
        if pool
            .execute(move || handle_connection(stream, &*conn_service))
            .is_err()
        {
            break;
        }
    }
}

fn handle_connection(stream: TcpStream, service: &dyn Service) {
    let front = service.front();
    let _ = stream.set_read_timeout(Some(front.request_timeout));
    let _ = stream.set_write_timeout(Some(front.request_timeout));
    let _ = stream.set_nodelay(true); // latency over throughput: no Nagle stalls
    let conn = front.track(stream);
    let mut reader = BufReader::new(&*conn.stream);
    let mut writer = &*conn.stream;
    loop {
        match Request::read_from(&mut reader, front.max_body) {
            Ok(Some(req)) => {
                let start = Instant::now();
                // Panic isolation: a handler bug takes down one request,
                // not the worker (and with it the keep-alive connection
                // queue). The sentinel in [`crate::pool`] would respawn
                // the worker anyway, but catching here turns the failure
                // into a well-formed 500 instead of a dropped connection.
                let (response, endpoint) =
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        service.route(&req)
                    })) {
                        Ok(pair) => pair,
                        Err(_) => {
                            front.metrics.inc_panics();
                            front.emit(Event::HandlerPanic {
                                endpoint: req.path.clone(),
                            });
                            (
                                Response::error(500, "internal error: handler panicked"),
                                "(panic)",
                            )
                        }
                    };
                let elapsed_us = start.elapsed().as_micros() as u64;
                front
                    .metrics
                    .record(&req.method, endpoint, response.status, elapsed_us);
                front.emit(Event::Request {
                    method: req.method.clone(),
                    endpoint: endpoint.to_string(),
                    status: response.status as u64,
                    elapsed_us,
                    trace: inherited_trace(&req),
                });
                let close = req.wants_close() || front.is_shutting_down();
                if response.write_to(&mut writer).is_err() || close {
                    return;
                }
            }
            Ok(None) => return,              // idle keep-alive connection closed
            Err(HttpError::Io(_)) => return, // timeout or reset: peer is gone
            Err(e) => {
                let status = match e {
                    HttpError::TooLarge { .. } => 413,
                    _ => 400,
                };
                front.metrics.record("?", "(malformed)", status, 0);
                let _ = Response::error(status, &e.to_string()).write_to(&mut writer);
                return;
            }
        }
    }
}

/// The validated trace id a request carries in `X-Skyline-Trace`, or
/// `""` when absent or malformed (never propagate junk into traces).
pub fn inherited_trace(req: &Request) -> String {
    req.header(trace::TRACE_HEADER)
        .filter(|t| trace::is_valid_id(t))
        .unwrap_or("")
        .to_string()
}

/// The request body as JSON, or a 400 saying why it is not.
pub fn parse_body(req: &Request) -> Result<Value, Response> {
    let text = req
        .body_str()
        .map_err(|e| Response::error(400, &e.to_string()))?;
    Value::parse(text).map_err(|e| Response::error(400, &format!("bad JSON body: {e}")))
}

/// A `"rows"` value as numeric rows, or a message naming the first bad
/// entry.
pub fn parse_rows(v: &Value) -> Result<Vec<Vec<f64>>, String> {
    let arr = v.as_arr().ok_or("\"rows\" must be an array of arrays")?;
    arr.iter()
        .enumerate()
        .map(|(i, row)| {
            let row = row
                .as_arr()
                .ok_or_else(|| format!("row {i} is not an array"))?;
            row.iter()
                .enumerate()
                .map(|(j, val)| {
                    val.as_f64()
                        .ok_or_else(|| format!("row {i}, value {j} is not a number"))
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::mpsc::{channel, Sender};

    /// Answers `GET /slow` 300 ms after announcing it on `entered`, and
    /// everything else at once.
    struct Sleepy {
        front: FrontEnd,
        entered: Sender<()>,
    }

    impl Service for Sleepy {
        fn front(&self) -> &FrontEnd {
            &self.front
        }

        fn route(&self, req: &Request) -> (Response, &'static str) {
            if req.path == "/slow" {
                let _ = self.entered.send(());
                std::thread::sleep(Duration::from_millis(300));
            }
            (Response::text(200, "done".to_string()), "/")
        }
    }

    /// Read from `stream` until the peer closes it.
    fn read_to_close(stream: &mut TcpStream) -> String {
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn shutdown_closes_idle_connections_and_finishes_in_flight_requests() {
        let (listener, front) = FrontEnd::bind(FrontConfig {
            bind: "127.0.0.1:0".to_string(),
            name: "test",
            threads: 2,
            request_timeout: Duration::from_secs(30),
            max_body: crate::http::DEFAULT_MAX_BODY,
            queue_limit: 0,
            trace: None,
            slow_ms: 0,
            slow_log: None,
        })
        .expect("bind");
        let (entered, handler_entered) = channel();
        let service = Sleepy { front, entered };
        let mut running = start(listener, Arc::new(service)).expect("start");
        let addr = running.local_addr();

        // An idle keep-alive client: one answered request, then silence
        // while a worker waits on its next read.
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 256];
        let mut seen = String::new();
        while !seen.ends_with("done") {
            let n = idle.read(&mut buf).unwrap();
            assert!(n > 0, "closed before answering: {seen:?}");
            seen.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
        // A request still being handled when shutdown begins.
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.write_all(b"GET /slow HTTP/1.1\r\n\r\n").unwrap();
        handler_entered
            .recv_timeout(Duration::from_secs(5))
            .expect("the slow handler started");

        let begun = Instant::now();
        running.shutdown();
        let took = begun.elapsed();
        assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
        let answer = read_to_close(&mut busy);
        assert!(
            answer.starts_with("HTTP/1.1 200") && answer.ends_with("done"),
            "in-flight request lost its response: {answer:?}"
        );
        assert_eq!(read_to_close(&mut idle), "", "idle client just sees EOF");
    }
}
