//! The server child process and the host counters read beside it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Conn;

/// Linux reports process CPU time in clock ticks of 1/100 s.
const TICKS_PER_SECOND: f64 = 100.0;

/// A running `skyline serve` or `skyline cluster` process.
pub struct ServerProc {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start `bin args...` and wait for its `listening on ADDR` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // `cluster --spawn-local` first prints one line per shard.
        let mut line = String::new();
        while matches!(stdout.read_line(&mut line), Ok(n) if n > 0) {
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                if let Ok(addr) = addr.parse() {
                    return Ok(ServerProc {
                        child,
                        _stdout: stdout,
                        addr,
                    });
                }
                break;
            }
            line.clear();
        }
        let _ = child.kill();
        let _ = child.wait();
        Err(format!("server printed {line:?} instead of its address"))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// User plus system CPU time of the process so far, in ms.
    pub fn cpu_ms(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) * 1000.0 / TICKS_PER_SECOND)
    }

    /// Ask the server to shut down, and kill it if it has not exited
    /// within a few seconds. Always waits for the process to end.
    pub fn stop(mut self) {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let _ = conn.request("POST", "/shutdown", b"");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Host CPU counters from `/proc/stat`: (steal, total) ticks.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    let vals: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total: u64 = vals.iter().take(8).sum();
    Some((*vals.get(7)?, total))
}

/// Steal as a percentage of host CPU time between two `host_ticks` reads.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}
