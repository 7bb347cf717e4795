//! Hand-rolled HTTP/1.1 framing: just enough of RFC 9112 for a JSON API
//! behind trusted clients — request-line + header parsing, fixed-length
//! bodies, percent-decoding, and keep-alive — with hard limits on every
//! dimension an untrusted peer controls (line length, header count, body
//! size).

use std::fmt;
use std::io::{self, BufRead, Write};

/// Default cap on request body size (16 MiB).
pub const DEFAULT_MAX_BODY: usize = 16 << 20;

/// Cap on a single request or header line, bytes.
const MAX_LINE: usize = 16 << 10;

/// Cap on the number of headers per request.
const MAX_HEADERS: usize = 100;

/// Errors raised while reading a request.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket failure (includes read timeouts).
    Io(io::Error),
    /// The peer sent something that is not HTTP.
    Malformed(String),
    /// The declared body exceeds the configured cap.
    TooLarge {
        /// The configured cap, bytes.
        limit: usize,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "I/O error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Percent-decoded query parameters in source order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in source order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Read one request off `reader`. Returns `Ok(None)` on a clean EOF
    /// before the first byte (the peer closed an idle keep-alive
    /// connection).
    pub fn read_from<R: BufRead>(
        reader: &mut R,
        max_body: usize,
    ) -> Result<Option<Request>, HttpError> {
        let Some(request_line) = read_line(reader)? else {
            return Ok(None);
        };
        let mut parts = request_line.split(' ');
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )));
        };
        if parts.next().is_some() || !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )));
        }
        let (raw_path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target, None),
        };
        let path = percent_decode(raw_path);
        let query = raw_query.map(parse_query).unwrap_or_default();

        let mut headers = Vec::new();
        loop {
            let line = read_line(reader)?
                .ok_or_else(|| HttpError::Malformed("EOF inside headers".to_string()))?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(HttpError::Malformed("too many headers".to_string()));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::Malformed(format!("bad header {line:?}")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let mut req = Request {
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers,
            body: Vec::new(),
        };
        if let Some(len) = req.header("content-length") {
            let len: usize = len
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {len:?}")))?;
            if len > max_body {
                return Err(HttpError::TooLarge { limit: max_body });
            }
            let mut body = vec![0u8; len];
            io::Read::read_exact(reader, &mut body)?;
            req.body = body;
        }
        Ok(Some(req))
    }

    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("body is not UTF-8".to_string()))
    }

    /// Whether the peer asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Read one CRLF- (or LF-) terminated line, without the terminator.
/// Returns `None` on EOF before any byte.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match io::Read::read(reader, &mut byte)? {
            0 => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("EOF inside line".to_string()));
            }
            _ => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let s = String::from_utf8(buf)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 line".to_string()))?;
                    return Ok(Some(s));
                }
                if buf.len() >= MAX_LINE {
                    return Err(HttpError::Malformed("line too long".to_string()));
                }
                buf.push(byte[0]);
            }
        }
    }
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Decode `%XX` escapes and `+` (as space), leaving invalid escapes as-is.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b? {
        b @ b'0'..=b'9' => Some(b - b'0'),
        b @ b'a'..=b'f' => Some(b - b'a' + 10),
        b @ b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// An HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body text (JSON, except for the Prometheus exposition).
    pub body: String,
    /// Extra response headers (`Retry-After`, …), written verbatim.
    pub headers: Vec<(String, String)>,
    /// `Content-Type` the body is written under.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            headers: Vec::new(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (the Prometheus exposition format).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// A JSON error response: `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Response {
        let mut w = skyline_obs::json::ObjectWriter::new();
        w.str_field("error", msg);
        Response {
            status,
            body: w.finish(),
            headers: Vec::new(),
            content_type: "application/json",
        }
    }

    /// Attach an extra response header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The reason phrase for a status code.
    pub fn status_text(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            304 => "Not Modified",
            307 => "Temporary Redirect",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            410 => "Gone",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serialise status line, headers and body to `w` as one write, so a
    /// response never straddles TCP segments a delayed ACK could stall.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut buf = Vec::with_capacity(self.body.len() + 96);
        write!(
            buf,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            Self::status_text(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(buf, "{name}: {value}\r\n")?;
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(self.body.as_bytes());
        w.write_all(&buf)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Request {
        let mut r = BufReader::new(raw.as_bytes());
        Request::read_from(&mut r, DEFAULT_MAX_BODY)
            .expect("parse")
            .expect("one request")
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /skyline?dataset=hotels&dims=0%2C2&empty HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/skyline");
        assert_eq!(req.query_param("dataset"), Some("hotels"));
        assert_eq!(req.query_param("dims"), Some("0,2"));
        assert_eq!(req.query_param("empty"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_and_headers() {
        let req = parse(
            "POST /datasets HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
             Content-Length: 13\r\nConnection: close\r\n\r\n{\"name\":\"a\"}x",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_str().unwrap(), "{\"name\":\"a\"}x");
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.header("CONNECTION"), Some("close"));
        assert!(req.wants_close());
    }

    #[test]
    fn two_requests_on_one_connection() {
        let raw = "GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(raw.as_bytes());
        let a = Request::read_from(&mut r, DEFAULT_MAX_BODY)
            .unwrap()
            .unwrap();
        let b = Request::read_from(&mut r, DEFAULT_MAX_BODY)
            .unwrap()
            .unwrap();
        assert_eq!(a.path, "/healthz");
        assert_eq!(b.path, "/metrics");
        assert!(Request::read_from(&mut r, DEFAULT_MAX_BODY)
            .unwrap()
            .is_none());
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        let mut r = BufReader::new("NOT HTTP\r\n\r\n".as_bytes());
        assert!(Request::read_from(&mut r, DEFAULT_MAX_BODY).is_err());
        let mut r =
            BufReader::new("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789".as_bytes());
        assert!(matches!(
            Request::read_from(&mut r, 5),
            Err(HttpError::TooLarge { limit: 5 })
        ));
        let mut r = BufReader::new("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n".as_bytes());
        assert!(Request::read_from(&mut r, DEFAULT_MAX_BODY).is_err());
    }

    #[test]
    fn percent_decoding_handles_escapes_and_junk() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("caf%C3%A9"), "café");
    }

    #[test]
    fn response_wire_format() {
        let mut buf = Vec::new();
        Response::json(200, "{}".to_string())
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        let err = Response::error(404, "no such dataset \"x\"");
        assert_eq!(err.status, 404);
        assert!(err.body.contains("no such dataset"));
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut buf = Vec::new();
        Response::error(503, "shed")
            .with_header("Retry-After", "1")
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        let headers_end = text.find("\r\n\r\n").unwrap();
        assert!(text.find("Retry-After").unwrap() < headers_end);
        assert_eq!(Response::status_text(504), "Gateway Timeout");
    }

    #[test]
    fn text_responses_carry_a_plain_content_type() {
        let mut buf = Vec::new();
        Response::text(200, "# TYPE x counter\n".to_string())
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("Content-Type: text/plain; charset=utf-8\r\n"),
            "{text}"
        );
        let mut buf = Vec::new();
        Response::json(200, "{}".to_string())
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("Content-Type: application/json\r\n"),
            "{text}"
        );
    }
}
