//! The replica role state machine: follower mode, promotion, fencing.
//!
//! `skyline serve --follow <primary>` starts the server in the
//! [`Role::Follower`] state and the supervisor loop here tails the
//! primary's change feeds into local datasets. The discovery loop polls
//! the primary's `/datasets` listing and hands each dataset to a
//! dedicated tailer thread, which long-polls
//! `GET /datasets/{name}/changes?ops=1&subscribe=1` and pushes every
//! record through the wrong-base-refusing
//! [`DatasetEntry::apply_replicated`]. Anything suspicious — a stale
//! cursor (410 Gone), a version gap, a delta that refuses our base, a
//! delta mismatch after applying the op — fails closed: the tailer
//! discards the dataset and resyncs from `GET /datasets/{name}/snapshot`
//! rather than ever serving a wrong answer.
//!
//! Roles are not fixed at boot. A `POST /promote` carrying a fencing
//! epoch strictly above the node's own flips a follower to
//! [`Role::Primary`] in place: the generation counter bumps, every
//! tailer notices and exits, and the node starts accepting writes and
//! serving its own change feed from the inherited version. A
//! `POST /demote` (or a fenced request revealing a higher epoch) flips
//! a node the other way. The epoch only ever rises; requests stamped
//! with a stale epoch are refused with `409 Fenced` so a resurrected
//! old primary cannot split the brain.
//!
//! Delivery is at-least-once end to end. Reconnects replay from the
//! follower's own applied version, so duplicates are routine and
//! version arithmetic (`ReplicaApply::Duplicate`) makes them harmless;
//! a skipped version is impossible because `apply_replicated` only
//! accepts the next dense version.
//!
//! [`DatasetEntry::apply_replicated`]: crate::registry::DatasetEntry::apply_replicated

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use skyline_core::changelog::{ChangeOp, ChangeRecord};
use skyline_core::delta::SkylineDelta;
use skyline_core::streaming::StreamingSkyline;
use skyline_obs::json::{Field, ObjectWriter, Value};
use skyline_obs::{AtomicHistogram, Event};

use crate::registry::ReplicaApply;
use crate::{client, wal, Shared};

/// Response header a follower stamps on reads: how many versions its
/// copy of the queried dataset trailed the primary by at the last
/// applied batch. The cluster coordinator uses it as the bounded-
/// staleness guard when routing reads to replicas.
pub const LAG_HEADER: &str = "X-Skyline-Replica-Lag";

/// What this node currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes and serves its own change feed.
    Primary,
    /// Read-only; tails `primary`'s change feeds.
    Follower {
        /// The primary this node replicates from.
        primary: SocketAddr,
    },
}

/// The node's failover state: its role, fencing epoch, and everything a
/// follower tracks about its replication stream.
pub struct ReplicaState {
    /// Current role. Guarded by a lock so role flips are atomic with
    /// the epoch/generation updates they imply.
    role: RwLock<Role>,
    /// Bumped on every role change; tailer threads snapshot it and exit
    /// as soon as it moves, which is how promotion "stops the tailers".
    generation: AtomicU64,
    /// The fencing epoch this node serves under. Only ever rises.
    epoch: AtomicU64,
    /// Long-poll hold passed to the primary's `/changes`, milliseconds.
    pub wait_ms: u64,
    /// Promotions accepted (follower → primary).
    pub promotions_total: AtomicU64,
    /// Demotions accepted (primary/follower → follower).
    pub demotions_total: AtomicU64,
    /// Requests refused with `409 Fenced` for a stale epoch.
    pub fenced_total: AtomicU64,
    /// Change records applied (duplicates excluded).
    pub applied_total: AtomicU64,
    /// Duplicate records skipped by version arithmetic.
    pub duplicates_total: AtomicU64,
    /// Snapshot resyncs, the initial sync included.
    pub resyncs_total: AtomicU64,
    /// Distribution of `primary_latest - record_version` at apply time:
    /// how far behind each applied record was when it landed.
    pub lag: AtomicHistogram,
    /// Per-dataset `(applied_version, primary_latest)` at the last batch.
    progress: Mutex<HashMap<String, (u64, u64)>>,
}

impl ReplicaState {
    /// Fresh state starting in `role` under fencing epoch `epoch`.
    pub fn new(role: Role, wait_ms: u64, epoch: u64) -> ReplicaState {
        ReplicaState {
            role: RwLock::new(role),
            generation: AtomicU64::new(0),
            epoch: AtomicU64::new(epoch),
            wait_ms,
            promotions_total: AtomicU64::new(0),
            demotions_total: AtomicU64::new(0),
            fenced_total: AtomicU64::new(0),
            applied_total: AtomicU64::new(0),
            duplicates_total: AtomicU64::new(0),
            resyncs_total: AtomicU64::new(0),
            lag: AtomicHistogram::new(),
            progress: Mutex::new(HashMap::new()),
        }
    }

    /// The node's current role.
    pub fn role(&self) -> Role {
        *self.role.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The primary this node follows, when it is a follower.
    pub fn follow_target(&self) -> Option<SocketAddr> {
        match self.role() {
            Role::Primary => None,
            Role::Follower { primary } => Some(primary),
        }
    }

    /// The fencing epoch this node serves under.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The role-change generation; tailers exit when it moves.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Accept a promotion to primary under `epoch`. The epoch must be
    /// strictly above ours (a retry of an already-accepted promotion is
    /// an idempotent success); otherwise our epoch is returned as the
    /// error so the caller can see who outran them.
    pub fn promote(&self, epoch: u64) -> Result<(), u64> {
        let mut role = self.role.write().unwrap_or_else(|e| e.into_inner());
        let current = self.epoch.load(Ordering::Acquire);
        if matches!(*role, Role::Primary) && epoch == current {
            return Ok(());
        }
        if epoch <= current {
            return Err(current);
        }
        self.epoch.store(epoch, Ordering::Release);
        *role = Role::Primary;
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.promotions_total.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Step down into a follower of `primary` under `epoch`. The epoch
    /// must be at or above ours (equal allows a retarget within one
    /// epoch); a lower epoch is refused with ours as the error. When
    /// the node is already following `primary`, only the epoch widens —
    /// the generation stays put so running tailers are not churned.
    pub fn demote(&self, epoch: u64, primary: SocketAddr) -> Result<(), u64> {
        let mut role = self.role.write().unwrap_or_else(|e| e.into_inner());
        let current = self.epoch.load(Ordering::Acquire);
        if epoch < current {
            return Err(current);
        }
        self.epoch.store(epoch, Ordering::Release);
        if *role == (Role::Follower { primary }) {
            return Ok(());
        }
        *role = Role::Follower { primary };
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.demotions_total.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Versions `dataset` trailed the primary by at the last applied
    /// batch (0 when unknown or fully caught up).
    pub fn lag_of(&self, dataset: &str) -> u64 {
        let map = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        map.get(dataset)
            .map_or(0, |&(applied, latest)| latest.saturating_sub(applied))
    }

    /// Record `dataset`'s replication progress after a batch.
    fn note(&self, dataset: &str, applied: u64, latest: u64) {
        let mut map = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        map.insert(dataset.to_string(), (applied, latest));
    }

    /// Snapshot of per-dataset `(name, applied, primary_latest)`,
    /// sorted by name for stable rendering.
    pub fn progress_snapshot(&self) -> Vec<(String, u64, u64)> {
        let map = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<(String, u64, u64)> = map
            .iter()
            .map(|(name, &(applied, latest))| (name.clone(), applied, latest))
            .collect();
        rows.sort();
        rows
    }
}

/// The follower supervisor, spawned once per server regardless of the
/// boot role. While the node is a primary it idles; while it is a
/// follower it runs the discovery loop — poll the primary's dataset
/// listing, spawn one tailer per dataset — for as long as the
/// generation holds. A role flip bumps the generation: the discovery
/// loop and every tailer notice, wind down, and the supervisor starts
/// over against the new role (possibly a new primary).
pub(crate) fn run_follower(shared: Arc<Shared>) {
    while !shared.front.is_shutting_down() {
        let state = &shared.failover;
        let Some(primary) = state.follow_target() else {
            shared
                .front
                .sleep_checking_shutdown(Duration::from_millis(100));
            continue;
        };
        let generation = state.generation();
        let mut tails: HashMap<String, JoinHandle<()>> = HashMap::new();
        while !shared.front.is_shutting_down() && state.generation() == generation {
            if let Ok(names) = list_primary_datasets(primary) {
                for name in names {
                    if tails.contains_key(&name) {
                        continue;
                    }
                    let tail_shared = Arc::clone(&shared);
                    let tail_name = name.clone();
                    let spawned = std::thread::Builder::new()
                        .name(format!("skyline-tail-{name}"))
                        .spawn(move || tail_dataset(&tail_shared, &tail_name, primary, generation));
                    if let Ok(handle) = spawned {
                        tails.insert(name, handle);
                    }
                }
            }
            shared
                .front
                .sleep_checking_shutdown(Duration::from_millis(250));
        }
        for (_, handle) in tails {
            let _ = handle.join();
        }
    }
}

/// The primary's dataset names, from `GET /datasets`.
fn list_primary_datasets(primary: SocketAddr) -> Result<Vec<String>, ()> {
    let resp = client::get(primary, "/datasets").map_err(|_| ())?;
    if resp.status != 200 {
        return Err(());
    }
    let v = Value::parse(&resp.body_str()).map_err(|_| ())?;
    let arr = v.get("datasets").and_then(Value::as_arr).ok_or(())?;
    Ok(arr
        .iter()
        .filter_map(|d| d.get("name").and_then(Value::as_str))
        .map(str::to_string)
        .collect())
}

/// Tail one dataset's change feed until shutdown or a role change.
fn tail_dataset(shared: &Arc<Shared>, name: &str, primary: SocketAddr, generation: u64) {
    let state = &shared.failover;
    // `Some(reason)` = the cursor is unusable and the next step is a
    // full snapshot resync; the reason lands in the trace event.
    let mut needs_resync: Option<String> = Some("initial sync".to_string());
    let mut cursor: u64 = 0;
    while !shared.front.is_shutting_down() && state.generation() == generation {
        if let Some(reason) = needs_resync.take() {
            match resync(shared, name, primary, generation, &reason) {
                Ok(version) => cursor = version,
                Err(_) => {
                    needs_resync = Some(reason);
                    shared
                        .front
                        .sleep_checking_shutdown(Duration::from_millis(200));
                    continue;
                }
            }
        }
        let path = format!(
            "/datasets/{name}/changes?since={cursor}&ops=1&subscribe=1&wait_ms={}",
            state.wait_ms
        );
        // Stamp the feed read with our epoch (and who we think the
        // primary is): a node that fell behind an epoch learns so from
        // the 409, a stale primary we still point at learns of its own
        // succession and demotes itself.
        let mut headers: Vec<(String, String)> = Vec::new();
        let epoch = state.epoch();
        if epoch > 0 {
            headers.push((crate::EPOCH_HEADER.to_string(), epoch.to_string()));
            headers.push((crate::PRIMARY_HEADER.to_string(), primary.to_string()));
        }
        let resp = match client::request_timed(primary, "GET", &path, b"", &headers) {
            Ok((resp, _)) => resp,
            Err(_) => {
                // Primary unreachable (crashed, restarting): keep the
                // cursor and reconnect-replay from it.
                shared
                    .front
                    .sleep_checking_shutdown(Duration::from_millis(200));
                continue;
            }
        };
        match resp.status {
            200 => {}
            409 => {
                // Fenced: the primary serves a higher epoch than we
                // carry. Adopt it (same follow target) and retry.
                if let Some(theirs) = Value::parse(&resp.body_str())
                    .ok()
                    .and_then(|v| v.get("epoch").and_then(Value::as_u64))
                {
                    let _ = state.demote(theirs, primary);
                }
                shared
                    .front
                    .sleep_checking_shutdown(Duration::from_millis(200));
                continue;
            }
            410 => {
                needs_resync = Some(format!(
                    "cursor {cursor} predates the primary's retention horizon"
                ));
                continue;
            }
            _ => {
                shared
                    .front
                    .sleep_checking_shutdown(Duration::from_millis(200));
                continue;
            }
        }
        let Ok(body) = Value::parse(&resp.body_str()) else {
            shared
                .front
                .sleep_checking_shutdown(Duration::from_millis(200));
            continue;
        };
        let Some((records, latest)) = parse_batch(&body) else {
            needs_resync = Some("unparseable change batch".to_string());
            continue;
        };
        // A batch fetched before a promotion must not land after it:
        // the promoted node owns its versions now.
        if state.generation() != generation {
            break;
        }
        match apply_batch(shared, name, &records, latest) {
            Ok(version) => {
                cursor = version;
                state.note(name, version, latest.max(version));
            }
            Err(reason) => needs_resync = Some(reason),
        }
    }
}

/// Apply one parsed batch; returns the follower's version afterwards,
/// or the divergence reason that forces a resync.
fn apply_batch(
    shared: &Arc<Shared>,
    name: &str,
    records: &[ChangeRecord],
    latest: u64,
) -> Result<u64, String> {
    let state = &shared.failover;
    let entry = shared
        .registry
        .get(name)
        .map_err(|e| format!("dataset vanished locally: {e}"))?;
    let mut applied = 0u64;
    let mut version = entry.info().version;
    for record in records {
        match entry.apply_replicated(record) {
            Ok(ReplicaApply::Applied) => {
                applied += 1;
                version = record.version();
                state.applied_total.fetch_add(1, Ordering::Relaxed);
                state.lag.record(latest.saturating_sub(record.version()));
            }
            Ok(ReplicaApply::Duplicate) => {
                state.duplicates_total.fetch_add(1, Ordering::Relaxed);
            }
            Ok(ReplicaApply::Diverged(why)) => return Err(why),
            Err(e) => return Err(e.to_string()),
        }
    }
    if applied > 0 {
        shared.front.emit(Event::ReplicaApply {
            dataset: name.to_string(),
            version,
            records: applied,
            lag: latest.saturating_sub(version),
        });
    }
    Ok(version)
}

/// Discard the local dataset and rebuild it from the primary's
/// snapshot endpoint. Returns the installed content version.
fn resync(
    shared: &Arc<Shared>,
    name: &str,
    primary: SocketAddr,
    generation: u64,
    reason: &str,
) -> Result<u64, ()> {
    let state = &shared.failover;
    let resp = client::get(primary, &format!("/datasets/{name}/snapshot")).map_err(|_| ())?;
    if resp.status != 200 {
        return Err(());
    }
    let (dims, version, slots) = wal::parse_snapshot(&resp.body_str()).ok_or(())?;
    let stream = StreamingSkyline::restore(dims, &slots, version).map_err(|_| ())?;
    // Never install a snapshot fetched under an old role: a promoted
    // node's state must not be clobbered by a straggling resync.
    if state.generation() != generation {
        return Err(());
    }
    shared
        .registry
        .install_replica(name, stream)
        .map_err(|_| ())?;
    state.resyncs_total.fetch_add(1, Ordering::Relaxed);
    state.note(name, version, version);
    shared.front.emit(Event::ReplicaResync {
        dataset: name.to_string(),
        version,
        reason: reason.to_string(),
    });
    Ok(version)
}

/// One change record on the feed wire: always the delta
/// (`version`/`entered`/`left`), plus the raw operation (`row` for an
/// insert, `remove` for a removal) when the consumer asked for
/// `ops=1` — that is what lets a follower rebuild the full point set
/// with identical handle assignment. [`parse_batch`] reads it back.
pub(crate) fn record_json(record: &ChangeRecord, with_ops: bool) -> String {
    let mut w = ObjectWriter::new();
    w.field("version", &record.version())
        .field("entered", &record.delta.entered)
        .field("left", &record.delta.left);
    if with_ops {
        match &record.op {
            ChangeOp::Insert { row } => w.field("row", row),
            ChangeOp::Remove { id } => w.field("remove", id),
        };
    }
    w.finish()
}

/// Parse a `/changes?ops=1` body into records plus the primary's
/// `latest`. `None` on any shape surprise — the caller resyncs.
pub fn parse_batch(v: &Value) -> Option<(Vec<ChangeRecord>, u64)> {
    let latest = Field::read(v.get("latest")?)?;
    let records = v.get("records")?.as_arr()?.iter().map(read_record);
    Some((records.collect::<Option<_>>()?, latest))
}

/// One record [`record_json`] wrote with `ops=1`. A record with neither
/// `row` nor `remove` is refused: `ops=1` was requested.
fn read_record(r: &Value) -> Option<ChangeRecord> {
    let op = match (r.get("row"), r.get("remove")) {
        (Some(row), _) => ChangeOp::Insert {
            row: Field::read(row)?,
        },
        (None, Some(id)) => ChangeOp::Remove {
            id: Field::read(id)?,
        },
        (None, None) => return None,
    };
    let entered = Field::read(r.get("entered")?)?;
    let left = Field::read(r.get("left")?)?;
    let version = Field::read(r.get("version")?)?;
    Some(ChangeRecord {
        op,
        delta: SkylineDelta::from_events(entered, left, version),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    /// The feed records of one script, byte for byte as earlier
    /// releases wrote them, with and without `ops=1`; and read back.
    #[test]
    fn feed_records_are_written_byte_for_byte_and_read_back() {
        let registry = crate::registry::Registry::new();
        let entry = registry
            .create("g", 2, &[vec![1.0, 5.0], vec![5.0, 1.0]])
            .unwrap();
        let rows = [vec![f64::NEG_INFINITY, 0.1], vec![f64::INFINITY, -1.5]];
        entry.insert_rows(&rows).unwrap();
        entry.remove_ids(&[2, 0]).unwrap();
        let batch = entry.changes_since(2, 100).unwrap();
        let with_ops: Vec<String> = batch.records.iter().map(|r| record_json(r, true)).collect();
        assert_eq!(
            with_ops,
            [
                r#"{"version":3,"entered":[2],"left":[0,1],"row":[-1e999,0.1]}"#,
                r#"{"version":4,"entered":[3],"left":[],"row":[1e999,-1.5]}"#,
                r#"{"version":5,"entered":[0,1],"left":[2],"remove":2}"#,
                r#"{"version":6,"entered":[],"left":[0],"remove":0}"#,
            ]
        );
        let bare: Vec<String> = batch
            .records
            .iter()
            .map(|r| record_json(r, false))
            .collect();
        assert_eq!(
            bare,
            [
                r#"{"version":3,"entered":[2],"left":[0,1]}"#,
                r#"{"version":4,"entered":[3],"left":[]}"#,
                r#"{"version":5,"entered":[0,1],"left":[2]}"#,
                r#"{"version":6,"entered":[],"left":[0]}"#,
            ]
        );
        let body = format!(r#"{{"latest":6,"records":[{}]}}"#, with_ops.join(","));
        let parsed = parse_batch(&Value::parse(&body).unwrap()).unwrap();
        assert_eq!(parsed, (batch.records, 6));
        // A bare record, a fractional id or a handle past u32 is refused.
        for bad in [
            bare[0].clone(),
            with_ops[2].replace(":2}", ":2.5}"),
            with_ops[2].replace(":2}", ":4294967296}"),
        ] {
            let body = format!(r#"{{"latest":6,"records":[{bad}]}}"#);
            assert_eq!(parse_batch(&Value::parse(&body).unwrap()), None, "{bad}");
        }
    }

    #[test]
    fn promote_requires_a_strictly_higher_epoch() {
        let state = ReplicaState::new(Role::Follower { primary: addr(1) }, 100, 0);
        assert_eq!(state.promote(0), Err(0), "epoch must rise");
        assert_eq!(state.promote(2), Ok(()));
        assert_eq!(state.role(), Role::Primary);
        assert_eq!(state.epoch(), 2);
        let generation = state.generation();
        assert_eq!(state.promote(2), Ok(()), "idempotent retry");
        assert_eq!(state.generation(), generation, "retry does not churn");
        assert_eq!(state.promote(1), Err(2), "stale epoch refused");
        assert_eq!(state.promotions_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn demote_accepts_equal_epochs_and_keeps_tailers_on_retarget() {
        let state = ReplicaState::new(Role::Primary, 100, 3);
        assert_eq!(state.demote(2, addr(2)), Err(3), "lower epoch refused");
        assert_eq!(state.demote(3, addr(2)), Ok(()), "equal epoch retargets");
        assert_eq!(state.follow_target(), Some(addr(2)));
        let generation = state.generation();
        // Same target, higher epoch: only the epoch widens.
        assert_eq!(state.demote(5, addr(2)), Ok(()));
        assert_eq!(state.epoch(), 5);
        assert_eq!(state.generation(), generation);
        // New target: the generation moves so tailers restart.
        assert_eq!(state.demote(5, addr(9)), Ok(()));
        assert_eq!(state.follow_target(), Some(addr(9)));
        assert!(state.generation() > generation);
        assert_eq!(state.demotions_total.load(Ordering::Relaxed), 2);
    }
}
