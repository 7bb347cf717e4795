//! A minimal HTTP/1.1 client over one keep-alive connection.
//!
//! The benchmark keeps its own client instead of the server crate's, so a
//! change to the program's client code cannot move the benchmark's numbers.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
pub struct Reply {
    pub status: u16,
    /// The `X-Skyline-Stage-Times` header, when the server sent one.
    pub stage_times: Option<String>,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// A keep-alive connection: requests are sent one at a time, each after
/// the previous reply was read in full (a closed loop with one client).
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
            buf: Vec::with_capacity(1 << 12),
        })
    }

    /// The raw bytes of a request as this client writes them.
    pub fn encode(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128 + body.len());
        write!(
            buf,
            "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n",
            body.len()
        )
        .expect("writing to a Vec cannot fail");
        if !body.is_empty() {
            buf.extend_from_slice(b"Content-Type: application/json\r\n");
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(body);
        buf
    }

    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Reply> {
        self.buf = Self::encode(method, target, body);
        self.writer.write_all(&self.buf)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        let mut stage_times = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.parse().map_err(|_| bad("bad content-length"))?;
                } else if name.eq_ignore_ascii_case("x-skyline-stage-times") {
                    stage_times = Some(value.to_string());
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            stage_times,
            body,
        })
    }
}

/// The unsigned integer after `"key":` in a flat JSON object.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = find_key(body, key)?;
    let digits: &str = &body[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// The boolean after `"key":`.
pub fn json_bool(body: &str, key: &str) -> Option<bool> {
    let at = find_key(body, key)?;
    if body[at..].starts_with("true") {
        Some(true)
    } else if body[at..].starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// The array of unsigned integers after `"key":`.
pub fn json_u64_array(body: &str, key: &str) -> Option<Vec<u64>> {
    let at = find_key(body, key)?;
    let rest = body[at..].strip_prefix('[')?;
    let end = rest.find(']')?;
    let inner = rest[..end].trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|s| s.trim().parse().ok()).collect()
}

fn find_key(body: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let skipped = body[at..].len() - body[at..].trim_start().len();
    Some(at + skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_fields() {
        let body = r#"{"dataset":"b","version":42,"cached":true,"ids":[3,5, 9],"empty":[]}"#;
        assert_eq!(json_u64(body, "version"), Some(42));
        assert_eq!(json_bool(body, "cached"), Some(true));
        assert_eq!(json_u64_array(body, "ids"), Some(vec![3, 5, 9]));
        assert_eq!(json_u64_array(body, "empty"), Some(vec![]));
        assert_eq!(json_u64(body, "missing"), None);
    }
}
