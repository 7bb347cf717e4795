//! Typed trace events.
//!
//! Every event serialises to one JSON-lines record with a `"type"`
//! discriminator; the recorders add two span record types
//! (`span_start` / `span_end`) on top.

use crate::histogram::Histogram;
use crate::json::Value;

crate::json_records! {
    /// A structured telemetry event emitted by an instrumented algorithm.
    // Events are emitted at most once per phase or per Merge pivot, never in
    // per-point loops, so `TrieStats`' two inline histograms (the size-skew
    // clippy flags) are cheaper than boxing them would be.
    #[allow(clippy::large_enum_variant)]
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event: "type" {
        /// One algorithm run is starting.
        RunStart = "run_start" {
            /// Algorithm display name, e.g. `"SFS-SUBSET"`.
            algorithm: String,
            /// Number of input points.
            points: u64,
            /// Input dimensionality.
            dims: u64,
        },
        /// One iteration of the Merge phase (Algorithm 1) finished.
        MergeIteration = "merge_iteration" {
            /// 0-based iteration index.
            iteration: u64,
            /// Point id of the pivot chosen this iteration.
            pivot: u64,
            /// Points removed (dominated in the full space) this iteration.
            pruned: u64,
            /// Points still alive after this iteration.
            survivors: u64,
            /// Points whose maximum dominating subspace did not change —
            /// the stability count that drives the σ termination rule.
            stable: u64,
            /// Survivor counts per subspace size: `subspace_hist[k]` = number
            /// of survivors whose maximum dominating subspace has size `k+1`.
            /// These are exactly the buckets the σ stability rule compares.
            subspace_hist: Vec<u64>,
        },
        /// Subset-index statistics for one run, taken after the scan phase.
        TrieStats = "trie_stats" {
            /// Total trie nodes visited across the run's container queries.
            nodes: u64,
            /// Points stored into the container (`put` operations).
            entries: u64,
            /// Distribution of query recursion depth.
            depth: Histogram,
            /// Distribution of candidates returned per container query.
            candidates: Histogram,
        },
        /// One shard of a parallel engine finished its local skyline.
        ///
        /// Emitted once per shard after the workers join; `elapsed_us` is the
        /// worker's own wall-clock, measured inside the worker thread, so the
        /// trace stays exact even though the event is written afterwards.
        ShardScan = "shard_scan" {
            /// 0-based shard index.
            shard: u64,
            /// First point id of the shard (inclusive).
            lo: u64,
            /// One past the last point id of the shard.
            hi: u64,
            /// Local skyline cardinality of the shard.
            skyline_size: u64,
            /// Dominance tests the worker performed.
            dominance_tests: u64,
            /// Worker wall-clock in microseconds.
            elapsed_us: u64,
        },
        /// The cross-shard merge of a parallel engine finished.
        ParallelMerge = "parallel_merge" {
            /// Local skyline sizes, one entry per shard.
            shard_skylines: Vec<u64>,
            /// Size of the merged candidate union fed into the final pass.
            candidates: u64,
            /// Global skyline cardinality after the merge.
            skyline_size: u64,
            /// Dominance tests performed by the merge pass alone.
            dominance_tests: u64,
        },
        /// One HTTP request handled by `skyline-serve`.
        Request = "request" {
            /// Request method (`GET`, `POST`, `DELETE`).
            method: String,
            /// Normalised endpoint (path pattern, e.g. `/skyline` or
            /// `/datasets/{name}/points`), not the raw request path.
            endpoint: String,
            /// HTTP status code of the response.
            status: u64,
            /// End-to-end handling time in microseconds.
            elapsed_us: u64,
            /// Trace id inherited from `X-Skyline-Trace` (or minted by the
            /// coordinator); empty when the request was untraced.
            trace: String = "",
        },
        /// A skyline query was answered from the server's result cache.
        CacheHit = "cache_hit" {
            /// Dataset name the cached result belongs to.
            dataset: String,
            /// Algorithm the cached result was computed with.
            algorithm: String,
            /// Dataset content version the result was computed at.
            version: u64,
            /// Trace id of the request that hit; empty when untraced.
            trace: String = "",
        },
        /// A streaming mutation produced a skyline delta that was applied to
        /// the server's state — and, where possible, patched forward into
        /// cached results instead of invalidating them.
        DeltaApplied = "delta_applied" {
            /// Dataset name the mutation targeted.
            dataset: String,
            /// Content version before the mutation batch.
            base_version: u64,
            /// Content version after the mutation batch.
            version: u64,
            /// Points that entered the skyline.
            entered: u64,
            /// Points that left the skyline.
            left: u64,
            /// Cache entries patched forward to `version`.
            cache_patched: u64,
            /// Cache entries the delta could not describe and dropped.
            cache_invalidated: u64,
            /// Trace id of the mutating request; empty when untraced.
            trace: String = "",
        },
        /// A request was shed by the server's overload gate (503).
        Shed = "shed" {
            /// Normalised endpoint the shed request targeted.
            endpoint: String,
        },
        /// A skyline query was cancelled at its client-supplied deadline.
        DeadlineExceeded = "deadline_exceeded" {
            /// Dataset name the query targeted.
            dataset: String,
            /// Algorithm the query requested.
            algorithm: String,
            /// The deadline the client asked for, in milliseconds.
            deadline_ms: u64,
        },
        /// A request handler panicked and was isolated into a 500.
        HandlerPanic = "handler_panic" {
            /// Normalised endpoint whose handler panicked.
            endpoint: String,
        },
        /// One dataset was recovered from its WAL/snapshot at boot.
        Recovery = "recovery" {
            /// Dataset name.
            dataset: String,
            /// WAL records replayed on top of the snapshot.
            replayed: u64,
            /// Content version the dataset recovered to.
            version: u64,
        },
        /// One change-feed cursor read (`GET /datasets/{name}/changes`)
        /// was answered, including long-poll heartbeats.
        FeedPoll = "feed_poll" {
            /// Dataset the feed belongs to.
            dataset: String,
            /// Cursor the consumer presented.
            since: u64,
            /// Records returned in this batch.
            returned: u64,
            /// Cursor after this batch (`== since` on a heartbeat).
            next: u64,
            /// The dataset's latest version at read time.
            latest: u64,
            /// Whether this was a long-poll timeout heartbeat.
            heartbeat: bool,
        },
        /// A follower applied one batch of replicated change records.
        ReplicaApply = "replica_apply" {
            /// Dataset the records belong to.
            dataset: String,
            /// Follower content version after the batch.
            version: u64,
            /// Records applied in this batch (duplicates excluded).
            records: u64,
            /// Versions the follower still trailed the primary by after
            /// this batch.
            lag: u64,
        },
        /// A follower discarded a dataset and resynced from a primary
        /// snapshot (initial sync, stale cursor, or divergence).
        ReplicaResync = "replica_resync" {
            /// Dataset that was resynced.
            dataset: String,
            /// Content version of the snapshot the follower installed.
            version: u64,
            /// Why the follower resynced rather than applying the feed.
            reason: String,
        },
        /// One RPC from the cluster coordinator to a shard node finished
        /// (successfully or not).
        ShardRpc = "shard_rpc" {
            /// 0-based shard index in the coordinator's shard list.
            shard: u64,
            /// Normalised endpoint on the shard (e.g. `/skyline`).
            endpoint: String,
            /// HTTP status the shard answered with; `0` when the call
            /// failed at the transport level (connect/read error).
            status: u64,
            /// Attempts the retrying client made, including the first.
            attempts: u64,
            /// End-to-end RPC time across all attempts, microseconds.
            elapsed_us: u64,
            /// Trace id the coordinator propagated to the shard; empty when
            /// the RPC was untraced.
            trace: String = "",
        },
        /// A node accepted a `POST /promote` and became the primary for a
        /// new fencing epoch.
        Promotion = "promotion" {
            /// Fencing epoch the node now serves under.
            epoch: u64,
            /// Datasets the node inherited from its replication feed.
            datasets: u64,
            /// Summed content version across those datasets at promotion.
            version: u64,
        },
        /// A node stepped down into follower mode, either told to by the
        /// coordinator or after discovering a higher fencing epoch.
        Demotion = "demotion" {
            /// Fencing epoch the node demoted under.
            epoch: u64,
            /// Address of the primary the node now follows.
            primary: String,
        },
        /// A request carrying a mismatched fencing epoch was refused with
        /// `409 Fenced`.
        FencedRequest = "fenced_request" {
            /// Endpoint the stale request hit.
            endpoint: String,
            /// Epoch the request was stamped with.
            request_epoch: u64,
            /// Epoch this node is serving under.
            node_epoch: u64,
        },
        /// The coordinator's failure detector missed a health probe and
        /// raised (or advanced) suspicion of a shard primary.
        FailoverSuspect = "failover_suspect" {
            /// 0-based shard index of the suspected primary.
            shard: u64,
            /// Address of the suspected primary.
            addr: String,
            /// Consecutive probe misses so far.
            misses: u64,
        },
        /// The coordinator confirmed a primary dead and promoted the most
        /// caught-up replica under a new fencing epoch.
        Failover = "failover" {
            /// 0-based shard index that failed over.
            shard: u64,
            /// Fencing epoch the new primary serves under.
            epoch: u64,
            /// Address of the dead primary.
            old_primary: String,
            /// Address of the promoted replica.
            new_primary: String,
        },
        /// Stage-attributed breakdown of one traced request: contiguous
        /// stage durations that sum to (within scheduling noise of) the
        /// request wall-clock, stitched by the coordinator from its own
        /// timer plus the `X-Skyline-Stage-Times` each shard returned.
        /// Also the record shape of the slow-query log.
        StageBreakdown = "stage_breakdown" {
            /// Trace id the breakdown belongs to.
            trace: String,
            /// Normalised endpoint the request hit.
            endpoint: String,
            /// Measured wall-clock of the whole request, microseconds.
            total_us: u64,
            /// Ordered `(stage, microseconds)` pairs. Top-level stage names
            /// are contiguous and sum to ≈`total_us`; names containing a
            /// `.` (e.g. `shard1.compute`) are overlapping per-leg detail
            /// and excluded from that sum.
            stages: Vec<(String, u64)>,
            /// Straggler attribution, e.g. `"shard2"` — the leg that
            /// bounded `shard_wait`. Empty for single-process breakdowns.
            straggler: String = "",
        },
        /// The coordinator finished a cross-shard scatter-gather merge.
        ClusterMerge = "cluster_merge" {
            /// Shards that contributed a local skyline.
            shards: u64,
            /// Shards that failed and were left out (`partial` response).
            missing: u64,
            /// Union of per-shard skyline candidates fed into the merge.
            candidates: u64,
            /// Global skyline cardinality after the merge.
            skyline_size: u64,
            /// Dominance tests the coordinator-side merge performed.
            dominance_tests: u64,
            /// Merge wall-clock, microseconds (excluding shard RPCs).
            elapsed_us: u64,
        },
        /// One algorithm run finished.
        RunSummary = "run_summary" {
            /// Algorithm display name.
            algorithm: String,
            /// Skyline cardinality.
            skyline_size: u64,
            /// Full-space dominance tests performed.
            dominance_tests: u64,
            /// Container queries issued during the scan phase.
            container_gets: u64,
            /// Wall-clock time of the whole run in microseconds.
            elapsed_us: u64,
        },
    }
}

impl Event {
    /// The `"type"` discriminator this event serialises under.
    pub fn type_name(&self) -> &'static str {
        self.tag()
    }

    /// Serialise to one JSON-lines record (no trailing newline).
    /// `ts_us` is the microsecond offset from the start of the trace.
    pub fn to_json(&self, ts_us: u64) -> String {
        self.to_json_with(|w| {
            w.u64_field("ts_us", ts_us);
        })
    }

    /// Reconstruct an event from a parsed trace record. Returns `None`
    /// for span records and unknown types — callers treat those
    /// separately — and for a missing or ill-typed field.
    pub fn from_value(v: &Value) -> Option<Event> {
        Event::read(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let mut depth = Histogram::new();
        depth.record(2);
        depth.record(5);
        let mut candidates = Histogram::new();
        candidates.record(0);
        candidates.record(120);
        vec![
            Event::RunStart {
                algorithm: "SFS-SUBSET".into(),
                points: 1000,
                dims: 8,
            },
            Event::MergeIteration {
                iteration: 0,
                pivot: 412,
                pruned: 73,
                survivors: 927,
                stable: 800,
                subspace_hist: vec![0, 3, 12, 900],
            },
            Event::TrieStats {
                nodes: 99,
                entries: 40,
                depth,
                candidates,
            },
            Event::ShardScan {
                shard: 2,
                lo: 500,
                hi: 750,
                skyline_size: 61,
                dominance_tests: 4_812,
                elapsed_us: 311,
            },
            Event::ParallelMerge {
                shard_skylines: vec![64, 58, 61, 70],
                candidates: 253,
                skyline_size: 211,
                dominance_tests: 1_099,
            },
            Event::Request {
                method: "GET".into(),
                endpoint: "/skyline".into(),
                status: 200,
                elapsed_us: 412,
                trace: "deadbeef01234567".into(),
            },
            Event::CacheHit {
                dataset: "hotels".into(),
                algorithm: "SDI-Subset".into(),
                version: 17,
                trace: String::new(),
            },
            Event::DeltaApplied {
                dataset: "hotels".into(),
                base_version: 17,
                version: 18,
                entered: 1,
                left: 2,
                cache_patched: 1,
                cache_invalidated: 3,
                trace: "deadbeef01234567".into(),
            },
            Event::Shed {
                endpoint: "/skyline".into(),
            },
            Event::DeadlineExceeded {
                dataset: "hotels".into(),
                algorithm: "SDI-Subset".into(),
                deadline_ms: 25,
            },
            Event::HandlerPanic {
                endpoint: "/skyline".into(),
            },
            Event::Recovery {
                dataset: "hotels".into(),
                replayed: 42,
                version: 58,
            },
            Event::FeedPoll {
                dataset: "hotels".into(),
                since: 17,
                returned: 2,
                next: 19,
                latest: 19,
                heartbeat: false,
            },
            Event::ReplicaApply {
                dataset: "hotels".into(),
                version: 19,
                records: 2,
                lag: 0,
            },
            Event::ReplicaResync {
                dataset: "hotels".into(),
                version: 19,
                reason: "cursor 3 predates oldest retained version 12".into(),
            },
            Event::ShardRpc {
                shard: 1,
                endpoint: "/skyline".into(),
                status: 200,
                attempts: 2,
                elapsed_us: 1_832,
                trace: "deadbeef01234567".into(),
            },
            Event::Promotion {
                epoch: 3,
                datasets: 2,
                version: 57,
            },
            Event::Demotion {
                epoch: 3,
                primary: "127.0.0.1:7101".into(),
            },
            Event::FencedRequest {
                endpoint: "/datasets/hotels/points".into(),
                request_epoch: 2,
                node_epoch: 3,
            },
            Event::FailoverSuspect {
                shard: 1,
                addr: "127.0.0.1:7100".into(),
                misses: 2,
            },
            Event::Failover {
                shard: 1,
                epoch: 3,
                old_primary: "127.0.0.1:7100".into(),
                new_primary: "127.0.0.1:7101".into(),
            },
            Event::StageBreakdown {
                trace: "deadbeef01234567".into(),
                endpoint: "/skyline".into(),
                total_us: 40_100,
                stages: vec![
                    ("accept".into(), 3),
                    ("route".into(), 2),
                    ("connect".into(), 90),
                    ("send".into(), 15),
                    ("shard_wait".into(), 38_000),
                    ("gather".into(), 700),
                    ("merge".into(), 1_200),
                    ("respond".into(), 40),
                    ("shard1.compute".into(), 36_500),
                ],
                straggler: "shard1".into(),
            },
            Event::ClusterMerge {
                shards: 4,
                missing: 1,
                candidates: 253,
                skyline_size: 211,
                dominance_tests: 1_099,
                elapsed_us: 642,
            },
            Event::RunSummary {
                algorithm: "SFS-SUBSET".into(),
                skyline_size: 211,
                dominance_tests: 48_213,
                container_gets: 927,
                elapsed_us: 1523,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_json() {
        for (i, e) in sample_events().into_iter().enumerate() {
            let line = e.to_json(i as u64 * 10);
            let v = Value::parse(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(v.get("ts_us").unwrap().as_u64(), Some(i as u64 * 10));
            let back = Event::from_value(&v).unwrap_or_else(|| panic!("no parse: {line}"));
            assert_eq!(back, e, "round-trip mismatch for {line}");
        }
    }

    /// Every sample event as the hand-written encoder of each type wrote
    /// it, before the codec was declared with `json_records!`.
    const GOLDEN: [&str; 24] = [
        r#"{"type":"run_start","ts_us":0,"algorithm":"SFS-SUBSET","points":1000,"dims":8}"#,
        r#"{"type":"merge_iteration","ts_us":10,"iteration":0,"pivot":412,"pruned":73,"survivors":927,"stable":800,"subspace_hist":[0,3,12,900]}"#,
        r#"{"type":"trie_stats","ts_us":20,"nodes":99,"entries":40,"depth":{"count":2,"sum":7,"min":2,"max":5,"buckets":[0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0]},"candidates":{"count":2,"sum":120,"min":0,"max":120,"buckets":[1,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0]}}"#,
        r#"{"type":"shard_scan","ts_us":30,"shard":2,"lo":500,"hi":750,"skyline_size":61,"dominance_tests":4812,"elapsed_us":311}"#,
        r#"{"type":"parallel_merge","ts_us":40,"shard_skylines":[64,58,61,70],"candidates":253,"skyline_size":211,"dominance_tests":1099}"#,
        r#"{"type":"request","ts_us":50,"method":"GET","endpoint":"/skyline","status":200,"elapsed_us":412,"trace":"deadbeef01234567"}"#,
        r#"{"type":"cache_hit","ts_us":60,"dataset":"hotels","algorithm":"SDI-Subset","version":17}"#,
        r#"{"type":"delta_applied","ts_us":70,"dataset":"hotels","base_version":17,"version":18,"entered":1,"left":2,"cache_patched":1,"cache_invalidated":3,"trace":"deadbeef01234567"}"#,
        r#"{"type":"shed","ts_us":80,"endpoint":"/skyline"}"#,
        r#"{"type":"deadline_exceeded","ts_us":90,"dataset":"hotels","algorithm":"SDI-Subset","deadline_ms":25}"#,
        r#"{"type":"handler_panic","ts_us":100,"endpoint":"/skyline"}"#,
        r#"{"type":"recovery","ts_us":110,"dataset":"hotels","replayed":42,"version":58}"#,
        r#"{"type":"feed_poll","ts_us":120,"dataset":"hotels","since":17,"returned":2,"next":19,"latest":19,"heartbeat":false}"#,
        r#"{"type":"replica_apply","ts_us":130,"dataset":"hotels","version":19,"records":2,"lag":0}"#,
        r#"{"type":"replica_resync","ts_us":140,"dataset":"hotels","version":19,"reason":"cursor 3 predates oldest retained version 12"}"#,
        r#"{"type":"shard_rpc","ts_us":150,"shard":1,"endpoint":"/skyline","status":200,"attempts":2,"elapsed_us":1832,"trace":"deadbeef01234567"}"#,
        r#"{"type":"promotion","ts_us":160,"epoch":3,"datasets":2,"version":57}"#,
        r#"{"type":"demotion","ts_us":170,"epoch":3,"primary":"127.0.0.1:7101"}"#,
        r#"{"type":"fenced_request","ts_us":180,"endpoint":"/datasets/hotels/points","request_epoch":2,"node_epoch":3}"#,
        r#"{"type":"failover_suspect","ts_us":190,"shard":1,"addr":"127.0.0.1:7100","misses":2}"#,
        r#"{"type":"failover","ts_us":200,"shard":1,"epoch":3,"old_primary":"127.0.0.1:7100","new_primary":"127.0.0.1:7101"}"#,
        r#"{"type":"stage_breakdown","ts_us":210,"trace":"deadbeef01234567","endpoint":"/skyline","total_us":40100,"stages":{"accept":3,"route":2,"connect":90,"send":15,"shard_wait":38000,"gather":700,"merge":1200,"respond":40,"shard1.compute":36500},"straggler":"shard1"}"#,
        r#"{"type":"cluster_merge","ts_us":220,"shards":4,"missing":1,"candidates":253,"skyline_size":211,"dominance_tests":1099,"elapsed_us":642}"#,
        r#"{"type":"run_summary","ts_us":230,"algorithm":"SFS-SUBSET","skyline_size":211,"dominance_tests":48213,"container_gets":927,"elapsed_us":1523}"#,
    ];

    #[test]
    fn events_are_written_byte_for_byte_as_before() {
        for (i, (e, want)) in sample_events().iter().zip(GOLDEN).enumerate() {
            assert_eq!(e.to_json(i as u64 * 10), want);
        }
        let untraced = Event::StageBreakdown {
            trace: String::new(),
            endpoint: "/skyline".into(),
            total_us: 7,
            stages: vec![],
            straggler: String::new(),
        };
        assert_eq!(
            untraced.to_json(5),
            r#"{"type":"stage_breakdown","ts_us":5,"trace":"","endpoint":"/skyline","total_us":7,"stages":{}}"#
        );
        let escaped = Event::ReplicaResync {
            dataset: "h\"q\\b".into(),
            version: 0,
            reason: "line\nbreak\ttab \u{1} σ".into(),
        };
        assert_eq!(
            escaped.to_json(5),
            r#"{"type":"replica_resync","ts_us":5,"dataset":"h\"q\\b","version":0,"reason":"line\nbreak\ttab \u0001 σ"}"#
        );
    }

    #[test]
    fn type_names_are_distinct() {
        let names: Vec<&str> = sample_events().iter().map(|e| e.type_name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn legacy_records_without_a_trace_tag_still_parse() {
        let v = Value::parse(
            r#"{"type":"request","ts_us":0,"method":"GET","endpoint":"/skyline","status":200,"elapsed_us":5}"#,
        )
        .unwrap();
        match Event::from_value(&v) {
            Some(Event::Request { trace, .. }) => assert!(trace.is_empty()),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn unknown_and_span_types_are_skipped() {
        let v = Value::parse(r#"{"type":"span_start","name":"merge","ts_us":0}"#).unwrap();
        assert!(Event::from_value(&v).is_none());
        let v = Value::parse(r#"{"type":"mystery"}"#).unwrap();
        assert!(Event::from_value(&v).is_none());
    }
}
