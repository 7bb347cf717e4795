//! The failure detector: probe each shard primary's `/healthz`,
//! promote the most-caught-up replica under a fresh fencing epoch when
//! a primary stays down, and demote deposed nodes into the replica pool.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use skyline_obs::json::Value;
use skyline_obs::Event;
use skyline_serve::client::request_with_timeout;

use crate::Shared;

/// One `/healthz` probe. Returns the parsed body on a 200, `None` on
/// transport failure or any other status — for the detector those are
/// the same thing: a miss.
fn probe_healthz(addr: SocketAddr, timeout: Duration) -> Option<Value> {
    let resp = request_with_timeout(addr, "GET", "/healthz", b"", timeout).ok()?;
    if resp.status != 200 {
        return None;
    }
    let text = std::str::from_utf8(&resp.body).ok()?;
    Value::parse(text).ok()
}

/// The failure detector: probe every shard primary's `/healthz` on a
/// jittered cadence; `suspect_misses` consecutive misses confirm the
/// primary dead and trigger [`try_failover`]. Deposed primaries (and
/// replicas that missed their demotion notice) sit in the topology's
/// `stale` lists and are probed too — once they answer again they are
/// demoted under the current epoch and rejoin the replica pool.
pub(crate) fn run_prober(shared: Arc<Shared>) {
    let mut misses: Vec<u32> = vec![0; shared.shard_count];
    // Tiny deterministic LCG for probe jitter — keeps probes from N
    // coordinators (or N shards) from landing in lockstep. Quality is
    // irrelevant; it only de-synchronises timers.
    let mut jitter_state: u64 = 0x243f_6a88_85a3_08d3 ^ (shared.front.addr.port() as u64);
    while !shared.front.is_shutting_down() {
        jitter_state = jitter_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let jitter = jitter_state % (shared.probe_ms / 4 + 1);
        shared
            .front
            .sleep_checking_shutdown(Duration::from_millis(shared.probe_ms + jitter));
        if shared.front.is_shutting_down() {
            return;
        }
        let timeout = Duration::from_millis(shared.probe_ms.max(50));
        for (shard, miss) in misses.iter_mut().enumerate() {
            let primary = shared.primary_of(shard);
            if probe_healthz(primary, timeout).is_some() {
                *miss = 0;
                continue;
            }
            *miss = miss.saturating_add(1);
            shared.front.emit(Event::FailoverSuspect {
                shard: shard as u64,
                addr: primary.to_string(),
                misses: *miss as u64,
            });
            if *miss >= shared.suspect_misses && try_failover(&shared, shard, timeout) {
                *miss = 0;
            }
        }
        reintegrate_stale(&shared, timeout);
    }
}

/// Promote `shard`'s most-caught-up replica under a fresh fencing
/// epoch. Returns `true` when the topology was updated (so the caller
/// resets its miss counter and starts probing the new primary).
fn try_failover(shared: &Shared, shard: usize, timeout: Duration) -> bool {
    let (candidates, epoch, old_primary) = {
        let topo = shared.topology.read().unwrap_or_else(|e| e.into_inner());
        (
            topo.replicas[shard].clone(),
            topo.epochs[shard],
            topo.primaries[shard],
        )
    };
    // Elect the most-caught-up live replica: losing a dead primary is
    // unavoidable, losing replicated writes by picking a laggard is not.
    let mut winner: Option<(u64, SocketAddr)> = None;
    for addr in &candidates {
        let Some(health) = probe_healthz(*addr, timeout) else {
            continue;
        };
        let applied = health
            .get("applied_version")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        if winner.map_or(true, |(best, _)| applied > best) {
            winner = Some((applied, *addr));
        }
    }
    let Some((_, new_primary)) = winner else {
        // No live replica — nothing to promote, keep probing.
        return false;
    };
    let new_epoch = epoch + 1;
    let body = format!("{{\"epoch\":{new_epoch}}}");
    match request_with_timeout(new_primary, "POST", "/promote", body.as_bytes(), timeout) {
        Ok(resp) if resp.status == 200 => {}
        _ => return false,
    }
    // Promotion is durable on the node; make the routing change durable
    // here before serving on it, so a coordinator restart replays it.
    if let Some(m) = &shared.manifest {
        let mut m = m.lock().unwrap_or_else(|e| e.into_inner());
        let _ = m.append_promote(shard, new_epoch, &new_primary);
    }
    let siblings: Vec<SocketAddr> = {
        let mut topo = shared.topology.write().unwrap_or_else(|e| e.into_inner());
        topo.primaries[shard] = new_primary;
        topo.replicas[shard].retain(|a| *a != new_primary);
        topo.epochs[shard] = new_epoch;
        topo.stale[shard].push(old_primary);
        topo.replicas[shard].clone()
    };
    shared.promotions_total.fetch_add(1, Ordering::Relaxed);
    shared.front.emit(Event::Failover {
        shard: shard as u64,
        epoch: new_epoch,
        old_primary: old_primary.to_string(),
        new_primary: new_primary.to_string(),
    });
    // Point the surviving replicas at the new primary. One that cannot
    // be reached right now goes stale and is retargeted when it
    // resurfaces (it would also self-demote on the first fenced feed
    // poll that reaches the new primary).
    for sibling in siblings {
        if !demote_node(sibling, new_epoch, new_primary, timeout) {
            let mut topo = shared.topology.write().unwrap_or_else(|e| e.into_inner());
            topo.replicas[shard].retain(|a| *a != sibling);
            topo.stale[shard].push(sibling);
        }
    }
    true
}

/// `POST /demote` to `addr`, pointing it at `primary` under `epoch`.
fn demote_node(addr: SocketAddr, epoch: u64, primary: SocketAddr, timeout: Duration) -> bool {
    let body = format!("{{\"epoch\":{epoch},\"primary\":\"{primary}\"}}");
    matches!(
        request_with_timeout(addr, "POST", "/demote", body.as_bytes(), timeout),
        Ok(resp) if resp.status == 200
    )
}

/// Probe every stale node (deposed primaries, unreachable siblings);
/// any that answers is demoted into following the current primary and
/// moved back into the replica pool.
fn reintegrate_stale(shared: &Shared, timeout: Duration) {
    for shard in 0..shared.shard_count {
        let (stale, epoch, primary) = {
            let topo = shared.topology.read().unwrap_or_else(|e| e.into_inner());
            (
                topo.stale[shard].clone(),
                topo.epochs[shard],
                topo.primaries[shard],
            )
        };
        for addr in stale {
            if probe_healthz(addr, timeout).is_none() {
                continue;
            }
            if demote_node(addr, epoch, primary, timeout) {
                let mut topo = shared.topology.write().unwrap_or_else(|e| e.into_inner());
                topo.stale[shard].retain(|a| *a != addr);
                if !topo.replicas[shard].contains(&addr) {
                    topo.replicas[shard].push(addr);
                }
            }
        }
    }
}
