//! A minimal blocking HTTP/1.1 client, just enough to exercise the
//! server from integration tests and benchmarks without pulling in an
//! external crate. One request per connection (`Connection: close`)
//! unless a keep-alive session is opened explicitly.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response headers as `(lowercased-name, value)` pairs, in order.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First header with this name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_response<R: BufRead>(reader: &mut R) -> io::Result<ClientResponse> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(bad("connection closed before status line"));
    }
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;

    let mut content_length: Option<usize> = None;
    let mut close = false;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
            } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                close = true;
            }
            headers.push((name, value.to_string()));
        }
    }

    let body = match content_length {
        Some(n) => {
            let mut body = vec![0u8; n];
            reader.read_exact(&mut body)?;
            body
        }
        None if close => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
        None => Vec::new(),
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    path: &str,
    body: &[u8],
    close: bool,
    headers: &[(String, String)],
) -> io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut buf = Vec::with_capacity(body.len() + 128);
    write!(
        buf,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: {connection}\r\nContent-Length: {}\r\n",
        body.len()
    )?;
    for (name, value) in headers {
        write!(buf, "{name}: {value}\r\n")?;
    }
    buf.extend_from_slice(b"\r\n");
    buf.extend_from_slice(body);
    writer.write_all(&buf)?;
    writer.flush()
}

/// Where one request's wall-clock went, as seen from the client:
/// TCP connect, request serialization+send, and the wait for (plus
/// read of) the response. The coordinator uses this split to attribute
/// scatter-gather time to stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestTiming {
    /// TCP connect time, microseconds.
    pub connect_us: u64,
    /// Request write time, microseconds.
    pub send_us: u64,
    /// Time from request flushed to response fully read, microseconds.
    pub wait_us: u64,
}

/// Issue one request on a fresh connection and read the full response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<ClientResponse> {
    request_timed(addr, method, path, body, &[]).map(|(resp, _)| resp)
}

/// [`request`] bounded by one explicit timeout covering connect, send,
/// and read. The failure detector's probe primitive: a dead or hung
/// peer must cost at most `timeout`, not the default 30s socket
/// timeouts.
pub fn request_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<ClientResponse> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    write_request(&mut writer, method, path, body, true, &[])?;
    read_response(&mut BufReader::new(stream))
}

/// [`request`] with extra request headers and a per-phase timing split.
pub fn request_timed(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    headers: &[(String, String)],
) -> io::Result<(ClientResponse, RequestTiming)> {
    let mut timing = RequestTiming::default();
    let t = std::time::Instant::now();
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    timing.connect_us = t.elapsed().as_micros() as u64;
    let mut writer = stream.try_clone()?;
    let t = std::time::Instant::now();
    write_request(&mut writer, method, path, body, true, headers)?;
    timing.send_us = t.elapsed().as_micros() as u64;
    let mut reader = BufReader::new(stream);
    let t = std::time::Instant::now();
    let resp = read_response(&mut reader)?;
    timing.wait_us = t.elapsed().as_micros() as u64;
    Ok((resp, timing))
}

/// Bounded retry with jittered exponential backoff.
///
/// Retries fire only on *safe-to-repeat* failures: connection errors
/// (the server never saw the request, or it was shed before a worker
/// picked it up) and 503 shed responses (explicitly retryable — the
/// server sets `Retry-After`). Any other status, including 5xx from a
/// handler, is returned as-is: the request may have had effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Total-deadline budget across *all* attempts and backoffs. A retry
    /// only fires if its backoff still fits inside the remaining budget;
    /// otherwise the last response or error is surfaced immediately, so
    /// backoff can never sleep past a caller's deadline. `None` (the
    /// default) keeps the historical attempts-only behaviour.
    pub budget: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
            budget: None,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based), with ±50% jitter
    /// so synchronised clients do not re-converge on the server.
    fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (retry - 1).min(16))
            .min(self.max_delay);
        // Cheap jitter from the clock's sub-microsecond bits: this is
        // decorrelation, not cryptography.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0) as u64;
        let jitter_pct = 50 + (nanos.wrapping_mul(6364136223846793005) >> 57) % 101; // 50..=150
        exp.mul_f64(jitter_pct as f64 / 100.0).min(self.max_delay)
    }
}

/// Issue a request with [`RetryPolicy`] retries on connect errors and
/// 503 shed responses.
pub fn request_with_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    policy: &RetryPolicy,
) -> io::Result<ClientResponse> {
    let (outcome, _attempts) = request_with_retry_timed(addr, method, path, body, &[], policy);
    outcome.map(|(resp, _)| resp)
}

/// The server's own `Retry-After` (whole seconds) on a shed response.
/// It is an explicit instruction, so it preempts the jittered backoff —
/// but capped by the policy's ceiling, so a misbehaving server cannot
/// park the client arbitrarily long.
fn retry_after_delay(resp: &ClientResponse, policy: &RetryPolicy) -> Option<Duration> {
    let secs: u64 = resp.header("retry-after")?.trim().parse().ok()?;
    Some(Duration::from_secs(secs).min(policy.max_delay))
}

/// How many `307` redirects one logical request may follow before the
/// client gives up. Replicas answer writes with a redirect to their
/// primary; after a failover the stale primary may in turn redirect
/// once more — anything past that is a routing loop, not a topology.
pub const MAX_REDIRECT_HOPS: u32 = 2;

/// Parse a `Location: http://{addr}{path}` redirect target. `None` for
/// anything the in-tree client cannot follow (other schemes, names
/// needing DNS).
fn parse_location(value: &str) -> Option<(SocketAddr, String)> {
    let rest = value.strip_prefix("http://")?;
    let split = rest.find('/').unwrap_or(rest.len());
    let addr = rest[..split].parse().ok()?;
    let path = if split == rest.len() {
        "/".to_string()
    } else {
        rest[split..].to_string()
    };
    Some((addr, path))
}

/// One attempt of `method path`, following up to [`MAX_REDIRECT_HOPS`]
/// `307` redirects (re-sending the body each hop, as 307 demands). A
/// redirect chain longer than the hop cap is a loop and errors out; a
/// 307 whose `Location` the client cannot parse is surfaced as-is.
fn request_following_redirects(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    headers: &[(String, String)],
) -> io::Result<(ClientResponse, RequestTiming)> {
    let mut addr = addr;
    let mut path = path.to_string();
    for _ in 0..=MAX_REDIRECT_HOPS {
        let (resp, timing) = request_timed(addr, method, &path, body, headers)?;
        if resp.status != 307 {
            return Ok((resp, timing));
        }
        let Some((next_addr, next_path)) = resp.header("location").and_then(parse_location) else {
            return Ok((resp, timing));
        };
        addr = next_addr;
        path = next_path;
    }
    Err(io::Error::other(format!(
        "redirect loop: more than {MAX_REDIRECT_HOPS} hops from {method} {path}"
    )))
}

/// [`request_with_retry`] with extra request headers, the
/// [`RequestTiming`] of the attempt whose outcome is returned, and how
/// many attempts fired. The cluster coordinator uses this to propagate
/// trace headers to shards, attribute connect/send/wait time per leg,
/// and account retry load per shard. Each attempt follows up to
/// [`MAX_REDIRECT_HOPS`] `307` write redirects.
pub fn request_with_retry_timed(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    headers: &[(String, String)],
    policy: &RetryPolicy,
) -> (io::Result<(ClientResponse, RequestTiming)>, u32) {
    let attempts = policy.attempts.max(1);
    let start = std::time::Instant::now();
    let mut last: io::Result<(ClientResponse, RequestTiming)> = Err(bad("retry budget exhausted"));
    for attempt in 1..=attempts {
        match request_following_redirects(addr, method, path, body, headers) {
            Ok((resp, timing)) if resp.status != 503 => return (Ok((resp, timing)), attempt),
            outcome => last = outcome, // latest 503 or error wins
        }
        if attempt == attempts {
            return (last, attempt); // attempts spent
        }
        let delay = match &last {
            Ok((resp, _)) => {
                retry_after_delay(resp, policy).unwrap_or_else(|| policy.backoff(attempt))
            }
            Err(_) => policy.backoff(attempt),
        };
        if let Some(budget) = policy.budget {
            // A retry only fires if its backoff still fits in the
            // remaining budget; the attempt itself is bounded by the
            // per-request socket timeouts, not by us.
            if start.elapsed() + delay >= budget {
                return (last, attempt);
            }
        }
        std::thread::sleep(delay);
    }
    (last, attempts)
}

/// GET convenience wrapper around [`request`].
pub fn get(addr: SocketAddr, path: &str) -> io::Result<ClientResponse> {
    request(addr, "GET", path, &[])
}

/// POST convenience wrapper around [`request`].
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<ClientResponse> {
    request(addr, "POST", path, body.as_bytes())
}

/// A persistent keep-alive connection for latency benchmarks, where the
/// TCP handshake would otherwise dominate the measurement.
pub struct Session {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Session {
    /// Open a connection to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Session> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Session {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Issue one request on the persistent connection.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        write_request(&mut self.writer, method, path, body, false, &[])?;
        read_response(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_response_with_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4\r\n\r\n{\"\":1}";
        let resp = read_response(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"\":");
    }

    #[test]
    fn reads_to_eof_when_connection_close_without_length() {
        let raw = b"HTTP/1.1 500 Internal Server Error\r\nConnection: close\r\n\r\noops";
        let resp = read_response(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 500);
        assert_eq!(resp.body_str(), "oops");
    }

    #[test]
    fn rejects_garbage() {
        let raw = b"not http at all\r\n\r\n";
        assert!(read_response(&mut Cursor::new(&raw[..])).is_err());
    }

    #[test]
    fn headers_are_collected_and_looked_up_case_insensitively() {
        let raw =
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n";
        let resp = read_response(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.header("Retry-After"), Some("1"));
        assert_eq!(resp.header("x-missing"), None);
    }

    #[test]
    fn custom_headers_are_written_into_the_request() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            "GET",
            "/skyline",
            b"",
            true,
            &[
                (
                    "X-Skyline-Trace".to_string(),
                    "deadbeef01234567".to_string(),
                ),
                ("X-Skyline-Span".to_string(), "cafe0123cafe0123".to_string()),
            ],
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("X-Skyline-Trace: deadbeef01234567\r\n"),
            "{text}"
        );
        assert!(
            text.contains("X-Skyline-Span: cafe0123cafe0123\r\n"),
            "{text}"
        );
        let headers_end = text.find("\r\n\r\n").unwrap();
        assert!(text.find("X-Skyline-Span").unwrap() < headers_end);
    }

    #[test]
    fn backoff_grows_and_stays_bounded() {
        let p = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            budget: None,
        };
        for retry in 1..=10 {
            let d = p.backoff(retry);
            assert!(d <= p.max_delay, "retry {retry}: {d:?} over ceiling");
            assert!(
                d >= Duration::from_millis(5),
                "retry {retry}: {d:?} under floor"
            );
        }
    }

    #[test]
    fn retry_surfaces_connect_errors_after_budget() {
        // Port 1 on localhost refuses connections.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let policy = RetryPolicy {
            attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            budget: None,
        };
        assert!(request_with_retry(addr, "GET", "/healthz", &[], &policy).is_err());
    }

    #[test]
    fn retry_honours_a_total_deadline_budget() {
        // Port 1 refuses instantly, so elapsed time is backoff sleeps
        // alone. Without the budget this policy would sleep ~100ms+200ms
        // +400ms+800ms ≈ 1.5s (modulo jitter); the 40ms budget admits at
        // most the first backoff and must stop there.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let policy = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(1),
            budget: Some(Duration::from_millis(40)),
        };
        let start = std::time::Instant::now();
        assert!(request_with_retry(addr, "GET", "/healthz", &[], &policy).is_err());
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(500),
            "budgeted retries overshot the deadline: {elapsed:?}"
        );
    }

    #[test]
    fn retry_after_header_is_honoured_before_backoff() {
        // A fixture server that sheds every request with Retry-After: 0.
        // The policy's own backoff is 300ms per retry, so finishing all
        // three attempts well under one backoff proves the header's
        // explicit delay preempted it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                    line.clear();
                }
                stream
                    .write_all(
                        b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\n\
                          Content-Length: 0\r\n\r\n",
                    )
                    .unwrap();
            }
        });
        let policy = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(300),
            max_delay: Duration::from_secs(2),
            budget: None,
        };
        let start = std::time::Instant::now();
        let resp = request_with_retry(addr, "GET", "/x", &[], &policy).unwrap();
        assert_eq!(resp.status, 503, "all attempts were shed");
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "Retry-After: 0 should preempt the 300ms jittered backoff, took {:?}",
            start.elapsed()
        );
        server.join().unwrap();
    }

    #[test]
    fn retry_after_is_parsed_and_capped_by_the_policy_ceiling() {
        let policy = RetryPolicy {
            max_delay: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let resp = |headers: Vec<(String, String)>| ClientResponse {
            status: 503,
            headers,
            body: Vec::new(),
        };
        let shed = resp(vec![("retry-after".to_string(), "1".to_string())]);
        assert_eq!(
            retry_after_delay(&shed, &policy),
            Some(Duration::from_millis(200)),
            "a 1s instruction is capped by the 200ms ceiling"
        );
        let instant = resp(vec![("retry-after".to_string(), "0".to_string())]);
        assert_eq!(retry_after_delay(&instant, &policy), Some(Duration::ZERO));
        assert_eq!(retry_after_delay(&resp(Vec::new()), &policy), None);
        let junk = resp(vec![("retry-after".to_string(), "soon".to_string())]);
        assert_eq!(retry_after_delay(&junk, &policy), None);
    }

    /// A fixture server answering `conns` connections with one canned
    /// response each; returns its address and the join handle.
    fn fixture(
        conns: usize,
        response: impl Fn(usize) -> String + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..conns {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 && line != "\r\n" {
                    line.clear();
                }
                let _ = stream.write_all(response(i).as_bytes());
            }
        });
        (addr, handle)
    }

    fn redirect_to(addr: SocketAddr, path: &str) -> String {
        format!("HTTP/1.1 307 Temporary Redirect\r\nLocation: http://{addr}{path}\r\nContent-Length: 0\r\n\r\n")
    }

    #[test]
    fn location_headers_parse_or_are_refused() {
        assert_eq!(
            parse_location("http://127.0.0.1:9999/datasets/d/points"),
            Some((
                "127.0.0.1:9999".parse().unwrap(),
                "/datasets/d/points".into()
            ))
        );
        assert_eq!(
            parse_location("http://127.0.0.1:80"),
            Some(("127.0.0.1:80".parse().unwrap(), "/".into()))
        );
        assert_eq!(parse_location("https://127.0.0.1:80/x"), None);
        assert_eq!(parse_location("http://example.com/x"), None, "needs DNS");
    }

    #[test]
    fn write_redirects_are_followed_to_the_primary() {
        // B answers the real write; A merely points at it.
        let (b_addr, b) = fixture(1, |_| {
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok".to_string()
        });
        let (a_addr, a) = fixture(1, move |_| redirect_to(b_addr, "/datasets/d/points"));
        let policy = RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        };
        let resp =
            request_with_retry(a_addr, "POST", "/datasets/d/points", b"{}", &policy).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str(), "ok");
        a.join().unwrap();
        b.join().unwrap();
    }

    #[test]
    fn a_redirect_loop_errors_out_instead_of_spinning() {
        // A server that bounces every write back to itself, forever.
        // The hop cap must turn that into an error after exactly
        // MAX_REDIRECT_HOPS+1 requests, not an unbounded ping-pong.
        let served = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let counter = std::sync::Arc::clone(&served);
        let _server = std::thread::spawn(move || {
            for _ in 0..16 {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 && line != "\r\n" {
                    line.clear();
                }
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let _ = stream.write_all(redirect_to(addr, "/w").as_bytes());
            }
        });
        let policy = RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        };
        let err = request_with_retry(addr, "POST", "/w", b"{}", &policy).unwrap_err();
        assert!(
            err.to_string().contains("redirect loop"),
            "unexpected error: {err}"
        );
        assert_eq!(
            served.load(std::sync::atomic::Ordering::SeqCst),
            MAX_REDIRECT_HOPS as usize + 1,
            "the loop kept spinning"
        );
    }

    #[test]
    fn zero_budget_still_makes_one_attempt() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let policy = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(1),
            budget: Some(Duration::ZERO),
        };
        let start = std::time::Instant::now();
        assert!(request_with_retry(addr, "GET", "/healthz", &[], &policy).is_err());
        assert!(start.elapsed() < Duration::from_millis(200));
    }
}
