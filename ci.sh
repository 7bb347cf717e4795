#!/usr/bin/env bash
# Offline CI for the skyline-subset workspace.
#
# Everything here runs without network access: the workspace has no
# registry dependencies (proptest and criterion are in-tree shims under
# crates/), so a cold `cargo build` never touches crates.io.
#
#   ./ci.sh         # fmt + clippy + tier-1 build/test + gated targets
#   ./ci.sh quick   # tier-1 only (what the driver enforces)

set -euo pipefail
cd "$(dirname "$0")"

quick=${1:-}

# Wait for a server that was sent POST /shutdown. Graceful shutdown
# closes idle connections at once, so fail if it is still running 5 s
# later; otherwise return its exit status.
wait_exit() {
    local pid=$1
    for _ in $(seq 1 50); do
        kill -0 "$pid" 2>/dev/null || { wait "$pid"; return; }
        sleep 0.1
    done
    echo "process $pid still running 5 s after POST /shutdown"
    kill -9 "$pid"
    return 1
}

# Report trace $1 into $1.report, and fail unless every record in it
# read back: the report's header line says `(0 skipped)`.
report_whole() {
    ./target/release/skyline report "$1" > "$1.report"
    grep -q '^trace: [0-9]* records (0 skipped)' "$1.report"
}

if [[ "$quick" != "quick" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --check

    echo "==> cargo clippy --all-targets -- -D warnings"
    cargo clippy --all-targets --quiet -- -D warnings

    echo "==> cargo doc (rustdoc warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

if [[ "$quick" != "quick" ]]; then
    echo "==> parallel differential tests (single- and multi-threaded runner)"
    RUST_TEST_THREADS=1 cargo test -q -p skyline-integration-tests \
        --test parallel_agreement
    cargo test -q -p skyline-integration-tests --test parallel_agreement

    echo "==> delta engine: differential oracle + property suites (tier-1)"
    cargo test -q -p skyline-integration-tests --test delta_oracle
    cargo test -q -p skyline-integration-tests --test delta_properties

    echo "==> opt-in: property tests"
    cargo test -q -p skyline-integration-tests --features property-tests \
        --test property_skyline

    echo "==> opt-in: criterion benches compile + smoke"
    cargo clippy -p skyline-bench --features criterion-benches --benches \
        --quiet -- -D warnings
    cargo bench -p skyline-bench --features criterion-benches \
        --bench dominance -- --test >/dev/null

    echo "==> trace smoke: compute --trace + report"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    ./target/release/skyline generate --dist UI -n 500 -d 4 --seed 1 \
        -o "$tmp/ui.csv"
    ./target/release/skyline compute "$tmp/ui.csv" --trace "$tmp/t.jsonl" \
        >/dev/null
    report_whole "$tmp/t.jsonl"
    grep -q "algorithm runs" "$tmp/t.jsonl.report"

    echo "==> trace smoke: parallel engine (--threads) emits shard telemetry"
    ./target/release/skyline compute "$tmp/ui.csv" --threads 3 \
        --trace "$tmp/p.jsonl" >/dev/null
    report_whole "$tmp/p.jsonl"
    grep -q "parallel engine" "$tmp/p.jsonl.report"
    grep -q '"type":"shard_scan"' "$tmp/p.jsonl"
    grep -q '"type":"parallel_merge"' "$tmp/p.jsonl"

    echo "==> server smoke: serve + cache hit + mutation patches cache + shutdown"
    ./target/release/skyline serve --port 0 --threads 2 \
        --trace "$tmp/serve.jsonl" > "$tmp/serve.out" &
    serve_pid=$!
    for _ in $(seq 1 50); do
        grep -q '^listening on ' "$tmp/serve.out" && break
        sleep 0.1
    done
    addr=$(sed -n 's/^listening on //p' "$tmp/serve.out")
    [[ -n "$addr" ]] || { echo "server never reported its address"; exit 1; }
    curl -sf "http://$addr/healthz" | grep -q '"status":"ok"'
    curl -sf -X POST "http://$addr/datasets" \
        -d '{"name": "ci", "synthetic": {"distribution": "UI", "n": 400, "dims": 4, "seed": 1}}' \
        | grep -q '"points":400'
    curl -sf "http://$addr/skyline?dataset=ci&algo=SDI-Subset" \
        | grep -q '"cached":false'
    curl -sf "http://$addr/skyline?dataset=ci&algo=SDI-Subset" \
        | grep -q '"cached":true'
    # A write explains itself: its reply carries the registry's stages.
    curl -sf -D "$tmp/insert-hdrs" -X POST "http://$addr/datasets/ci/points" \
        -d '{"rows": [[0.001, 0.001, 0.001, 0.001]]}' \
        | grep -q '"cache_patched":1'
    grep -qi '^x-skyline-stage-times: .*lock=.*apply=' "$tmp/insert-hdrs"
    curl -sf "http://$addr/skyline?dataset=ci&algo=SDI-Subset" \
        | grep -q '"cached":true'
    curl -sf "http://$addr/metrics" | grep -q '"hits":2'
    curl -sf "http://$addr/metrics" | grep -q '"patched":1'
    # The write left the read snapshot empty and the patched read did not
    # need rows, so the first read with rows builds it.
    curl -sf -D "$tmp/rows-hdrs" \
        "http://$addr/skyline?dataset=ci&algo=SDI-Subset&include_rows=1" \
        > "$tmp/rows-body"
    grep -q '"cached":true' "$tmp/rows-body"
    grep -qi '^x-skyline-stage-times: .*snapshot=' "$tmp/rows-hdrs"
    # Save the body first: `grep -q` closing the pipe early makes curl
    # fail with exit 23 under pipefail.
    curl -sf "http://$addr/metrics?format=prometheus" > "$tmp/serve-prom.txt"
    grep -q '^# TYPE skyline_stage_us histogram' "$tmp/serve-prom.txt"
    curl -sf -X POST "http://$addr/shutdown" | grep -q 'shutting down'
    wait_exit "$serve_pid"   # clean exit after graceful shutdown
    grep -q '"type":"request"' "$tmp/serve.jsonl"
    grep -q '"type":"cache_hit"' "$tmp/serve.jsonl"
    grep -q '"type":"delta_applied"' "$tmp/serve.jsonl"
    report_whole "$tmp/serve.jsonl"

    echo "==> cluster smoke: 2 shards + coordinator, scatter-gather, shard loss"
    ./target/release/skyline serve --port 0 --threads 2 \
        --trace "$tmp/shard0.jsonl" > "$tmp/shard0.out" &
    shard0_pid=$!
    ./target/release/skyline serve --port 0 --threads 2 > "$tmp/shard1.out" &
    shard1_pid=$!
    for f in shard0 shard1; do
        for _ in $(seq 1 50); do
            grep -q '^listening on ' "$tmp/$f.out" && break
            sleep 0.1
        done
    done
    shard0=$(sed -n 's/^listening on //p' "$tmp/shard0.out")
    shard1=$(sed -n 's/^listening on //p' "$tmp/shard1.out")
    [[ -n "$shard0" && -n "$shard1" ]] || { echo "shards never reported addresses"; exit 1; }
    ./target/release/skyline cluster --shards "$shard0,$shard1" --port 0 \
        --trace "$tmp/cluster.jsonl" > "$tmp/cluster.out" &
    cluster_pid=$!
    for _ in $(seq 1 50); do
        grep -q '^listening on ' "$tmp/cluster.out" && break
        sleep 0.1
    done
    coord=$(sed -n 's/^listening on //p' "$tmp/cluster.out")
    [[ -n "$coord" ]] || { echo "coordinator never reported its address"; exit 1; }
    curl -sf "http://$coord/healthz" | grep -q '"shards":2'
    curl -sf -X POST "http://$coord/datasets" \
        -d '{"name": "ci", "synthetic": {"distribution": "AC", "n": 600, "dims": 4, "seed": 3}}' \
        | grep -q '"points":600'
    curl -sf "http://$coord/skyline?dataset=ci&algo=SDI-Subset" \
        | grep -q '"cached":false.*"partial":false'
    # No write since: every shard answers 304 and the held merge stands.
    curl -sf "http://$coord/skyline?dataset=ci&algo=SDI-Subset" \
        | grep -q '"cached":true.*"partial":false'
    curl -sf "http://$coord/metrics" | grep -q '"shards":\['
    curl -sf "http://$coord/metrics" | grep -q '"held_reads":[1-9]'

    echo "==> tracing smoke: propagated trace id + stitched shard spans"
    trace_id=feedbead12345678
    curl -sf -D "$tmp/trace-hdrs" -H "X-Skyline-Trace: $trace_id" \
        "http://$coord/skyline?dataset=ci&algo=SDI-Subset&timings=1" \
        | grep -q '"timings":{'
    grep -qi "^x-skyline-trace: $trace_id" "$tmp/trace-hdrs"
    grep -qi '^x-skyline-stage-times: .*shard_wait=.*shard0\.' "$tmp/trace-hdrs"
    grep -q "\"type\":\"shard_rpc\".*\"trace\":\"$trace_id\"" "$tmp/cluster.jsonl"
    grep -q "\"type\":\"stage_breakdown\".*\"trace\":\"$trace_id\"" "$tmp/cluster.jsonl"
    grep -q "\"trace\":\"$trace_id\"" "$tmp/shard0.jsonl"

    echo "==> prometheus exposition on the coordinator"
    curl -sf "http://$coord/metrics?format=prometheus" > "$tmp/prom.txt"
    grep -q '^# TYPE skyline_requests_total counter' "$tmp/prom.txt"
    grep -q '^# TYPE skyline_stage_us histogram' "$tmp/prom.txt"
    grep -q 'skyline_shard_rpc_requests{shard="0"}' "$tmp/prom.txt"
    grep -q '^# TYPE skyline_shard_rpc_requests counter' "$tmp/prom.txt"
    grep -q 'skyline_shard_rpc_not_modified{shard="1"} [1-9]' "$tmp/prom.txt"
    grep -q 'skyline_held_reads_total [1-9]' "$tmp/prom.txt"

    curl -sf "http://$coord/skyline?dataset=ci&algo=SDI-Subset" \
        | grep -q '"cached":true'
    kill -9 "$shard1_pid"    # shard death degrades, never errors, held or not
    wait "$shard1_pid" 2>/dev/null || true
    curl -sf "http://$coord/skyline?dataset=ci&algo=SDI-Subset" \
        | grep -q '"partial":true,"missing_shards":\[1\]'
    curl -sf -X POST "http://$coord/shutdown" | grep -q 'shutting down'
    wait_exit "$cluster_pid"
    curl -sf -X POST "http://$shard0/shutdown" >/dev/null
    wait_exit "$shard0_pid"
    report_whole "$tmp/shard0.jsonl"
    grep -q '"type":"shard_rpc"' "$tmp/cluster.jsonl"
    grep -q '"type":"cluster_merge"' "$tmp/cluster.jsonl"
    report_whole "$tmp/cluster.jsonl"
    ./target/release/skyline report "$tmp/cluster.jsonl" --stages \
        > "$tmp/cluster-stages.report"
    grep -q 'dominant stage' "$tmp/cluster-stages.report"

    echo "==> chaos smoke: kill -9 mid-flight, reboot from the WAL, same answer"
    ./target/release/skyline serve --port 0 --threads 2 \
        --data-dir "$tmp/data" --fsync always > "$tmp/crash.out" &
    serve_pid=$!
    for _ in $(seq 1 50); do
        grep -q '^listening on ' "$tmp/crash.out" && break
        sleep 0.1
    done
    addr=$(sed -n 's/^listening on //p' "$tmp/crash.out")
    [[ -n "$addr" ]] || { echo "durable server never reported its address"; exit 1; }
    curl -sf -X POST "http://$addr/datasets" \
        -d '{"name": "crashy", "synthetic": {"distribution": "AC", "n": 200, "dims": 4, "seed": 9}}' \
        | grep -q '"points":200'
    curl -sf -X POST "http://$addr/datasets/crashy/points" \
        -d '{"rows": [[0.001, 0.001, 0.001, 0.001]]}' | grep -q '"inserted":1'
    curl -sf -X DELETE "http://$addr/datasets/crashy/points" \
        -d '{"ids": [200]}' | grep -q '"removed":1'
    before=$(curl -sf "http://$addr/skyline?dataset=crashy&algo=SFS")
    kill -9 "$serve_pid"    # hard crash: no graceful shutdown, no final flush
    wait "$serve_pid" 2>/dev/null || true

    ./target/release/skyline serve --port 0 --threads 2 \
        --data-dir "$tmp/data" > "$tmp/reboot.out" &
    serve_pid=$!
    for _ in $(seq 1 50); do
        grep -q '^listening on ' "$tmp/reboot.out" && break
        sleep 0.1
    done
    addr=$(sed -n 's/^listening on //p' "$tmp/reboot.out")
    [[ -n "$addr" ]] || { echo "rebooted server never reported its address"; exit 1; }
    after=$(curl -sf "http://$addr/skyline?dataset=crashy&algo=SFS")
    before_core=$(printf '%s' "$before" | sed 's/"elapsed_us":[0-9]*//')
    after_core=$(printf '%s' "$after" | sed 's/"elapsed_us":[0-9]*//')
    [[ "$before_core" == "$after_core" ]] || {
        echo "recovery mismatch:"; echo "  before: $before"; echo "  after:  $after"; exit 1; }
    curl -sf "http://$addr/metrics" | grep -q '"recovery_replayed_records":202'
    curl -sf -X POST "http://$addr/shutdown" | grep -q 'shutting down'
    wait_exit "$serve_pid"

    echo "==> replication smoke: follower converges, survives a primary kill -9"
    ./target/release/skyline serve --port 0 --threads 2 \
        --data-dir "$tmp/primary" --fsync always > "$tmp/primary.out" &
    primary_pid=$!
    for _ in $(seq 1 50); do
        grep -q '^listening on ' "$tmp/primary.out" && break
        sleep 0.1
    done
    paddr=$(sed -n 's/^listening on //p' "$tmp/primary.out")
    [[ -n "$paddr" ]] || { echo "primary never reported its address"; exit 1; }
    pport=${paddr##*:}
    curl -sf -X POST "http://$paddr/datasets" \
        -d '{"name": "rep", "synthetic": {"distribution": "AC", "n": 300, "dims": 4, "seed": 7}}' \
        | grep -q '"points":300'
    ./target/release/skyline serve --port 0 --threads 2 \
        --follow "$paddr" --follow-wait-ms 200 > "$tmp/follower.out" &
    follower_pid=$!
    for _ in $(seq 1 50); do
        grep -q '^listening on ' "$tmp/follower.out" && break
        sleep 0.1
    done
    faddr=$(sed -n 's/^listening on //p' "$tmp/follower.out")
    [[ -n "$faddr" ]] || { echo "follower never reported its address"; exit 1; }

    # skyline_core: "version":N plus "ids":[...], timing fields stripped.
    skyline_core() {
        local body
        body=$(curl -sf "http://$1/skyline?dataset=rep&algo=SFS" 2>/dev/null) || return 0
        printf '%s;%s' \
            "$(printf '%s' "$body" | grep -o '"version":[0-9]*')" \
            "$(printf '%s' "$body" | grep -o '"ids":\[[^]]*\]')"
    }
    converge() {
        for _ in $(seq 1 100); do
            p=$(skyline_core "$paddr"); f=$(skyline_core "$faddr")
            [[ -n "$p" && "$p" == "$f" ]] && return 0
            sleep 0.1
        done
        echo "follower never converged: primary=$p follower=$f"; return 1
    }
    converge                 # initial snapshot sync
    curl -sf -X POST "http://$paddr/datasets/rep/points" \
        -d '{"rows": [[0.001, 0.001, 0.001, 0.001]]}' | grep -q '"inserted":1'
    converge                 # this mutation had to travel the change feed
    # The follower patched its cached answer by the record's delta.
    curl -sf "http://$faddr/metrics" | grep -q '"patched":[1-9]'
    curl -sfD "$tmp/replica-hdrs" "http://$faddr/skyline?dataset=rep" >/dev/null
    grep -qi '^x-skyline-replica-lag: ' "$tmp/replica-hdrs"
    curl -sf "http://$faddr/healthz" | grep -q '"role":"replica"'
    # Writes bounce to the primary with a 307 + Location.
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        "http://$faddr/datasets/rep/points" -d '{"rows": [[1, 1, 1, 1]]}')
    [[ "$code" == "307" ]] || { echo "follower accepted a write ($code)"; exit 1; }
    # Replication counters, JSON and prometheus exposition.
    curl -sf "http://$faddr/metrics" | grep -q '"resyncs_total":1'
    curl -sf "http://$faddr/metrics?format=prometheus" > "$tmp/replica-prom.txt"
    grep -q '^skyline_replica_applied_total [1-9]' "$tmp/replica-prom.txt"
    grep -q 'skyline_replica_lag_versions{dataset="rep"}' "$tmp/replica-prom.txt"
    # The feed itself: dense records from the start, resumable cursor.
    curl -sf "http://$paddr/datasets/rep/changes?since=0&limit=2" \
        | grep -q '"records":\[{"version":1,'
    curl -sf "http://$paddr/datasets/rep/changes?since=301&subscribe=1&wait_ms=100" \
        | grep -q '"heartbeat":true'

    kill -9 "$primary_pid"   # hard crash mid-stream: the follower holds its cursor
    wait "$primary_pid" 2>/dev/null || true
    sleep 0.3
    for _ in $(seq 1 20); do   # rebind the vacated port, retrying while the kernel frees it
        ./target/release/skyline serve --port "$pport" --threads 2 \
            --data-dir "$tmp/primary" --fsync always > "$tmp/primary2.out" 2>&1 &
        primary_pid=$!
        for _ in $(seq 1 30); do
            grep -q '^listening on ' "$tmp/primary2.out" && break
            kill -0 "$primary_pid" 2>/dev/null || break
            sleep 0.1
        done
        grep -q '^listening on ' "$tmp/primary2.out" && break
        wait "$primary_pid" 2>/dev/null || true
        sleep 0.2
    done
    grep -q '^listening on ' "$tmp/primary2.out" \
        || { echo "primary never came back on port $pport"; exit 1; }
    curl -sf -X POST "http://$paddr/datasets/rep/points" \
        -d '{"rows": [[0.0005, 0.0005, 0.0005, 0.0005]]}' | grep -q '"inserted":1'
    converge                 # reconnect-replay from the follower's cursor
    curl -sf "http://$faddr/metrics" | grep -q '"resyncs_total":1'   # replay, not resync
    curl -sf -X POST "http://$paddr/shutdown" | grep -q 'shutting down'
    wait_exit "$primary_pid"
    curl -sf -X POST "http://$faddr/shutdown" | grep -q 'shutting down'
    wait_exit "$follower_pid"

    echo "==> replication bench artefact (quick)"
    ./target/release/repro bench-json --replicated --requests 2 \
        --out "$tmp/BENCH_REPL.json" 2>/dev/null
    grep -q '"lag":{' "$tmp/BENCH_REPL.json"
    grep -q '"follower_reads"' "$tmp/BENCH_REPL.json"

    echo "==> failover smoke: kill -9 the primary, coordinator promotes the replica"
    ./target/release/skyline serve --port 0 --threads 2 \
        --data-dir "$tmp/fo-primary" --fsync always > "$tmp/fo-primary.out" &
    primary_pid=$!
    for _ in $(seq 1 50); do
        grep -q '^listening on ' "$tmp/fo-primary.out" && break
        sleep 0.1
    done
    paddr=$(sed -n 's/^listening on //p' "$tmp/fo-primary.out")
    [[ -n "$paddr" ]] || { echo "failover primary never reported its address"; exit 1; }
    ./target/release/skyline serve --port 0 --threads 2 \
        --follow "$paddr" --follow-wait-ms 100 > "$tmp/fo-follower.out" &
    follower_pid=$!
    for _ in $(seq 1 50); do
        grep -q '^listening on ' "$tmp/fo-follower.out" && break
        sleep 0.1
    done
    faddr=$(sed -n 's/^listening on //p' "$tmp/fo-follower.out")
    [[ -n "$faddr" ]] || { echo "failover follower never reported its address"; exit 1; }
    ./target/release/skyline cluster --shards "$paddr" --replicas "0=$faddr" \
        --failover --probe-ms 100 --suspect-misses 2 \
        --manifest "$tmp/fo-manifest.jsonl" --port 0 > "$tmp/fo-cluster.out" &
    cluster_pid=$!
    for _ in $(seq 1 50); do
        grep -q '^listening on ' "$tmp/fo-cluster.out" && break
        sleep 0.1
    done
    coord=$(sed -n 's/^listening on //p' "$tmp/fo-cluster.out")
    [[ -n "$coord" ]] || { echo "failover coordinator never reported its address"; exit 1; }
    curl -sf -X POST "http://$coord/datasets" \
        -d '{"name": "fo", "synthetic": {"distribution": "UI", "n": 100, "dims": 3, "seed": 5}}' \
        | grep -q '"points":100'
    # Let the replica catch up before the crash: the promotion target
    # must hold everything the client was acked.
    for _ in $(seq 1 50); do
        curl -sf "http://$faddr/healthz" | grep -q '"applied_version":100' && break
        sleep 0.1
    done
    curl -sf "http://$faddr/healthz" | grep -q '"applied_version":100' \
        || { echo "replica never caught up before the crash"; exit 1; }

    kill -9 "$primary_pid"   # hard crash: the detector must notice and promote
    wait "$primary_pid" 2>/dev/null || true
    # Within the detection budget (2 misses at 100ms probes plus the
    # promotion round-trips) a coordinator write lands on the promoted
    # replica. Poll: earlier attempts 502 while the primary is "down".
    promoted=""
    for _ in $(seq 1 50); do
        if curl -sf -X POST "http://$coord/datasets/fo/points" \
            -d '{"rows": [[0.001, 0.001, 0.001]]}' 2>/dev/null | grep -q '"inserted":1'; then
            promoted=yes
            break
        fi
        sleep 0.2
    done
    [[ -n "$promoted" ]] || { echo "no write landed after the primary died"; exit 1; }
    curl -sf "http://$faddr/healthz" | grep -q '"role":"primary"' \
        || { echo "replica was never promoted"; exit 1; }
    curl -sf "http://$coord/metrics?format=prometheus" > "$tmp/fo-prom.txt"
    grep -q '^skyline_promotions_total 1' "$tmp/fo-prom.txt" \
        || { echo "skyline_promotions_total never incremented"; cat "$tmp/fo-prom.txt"; exit 1; }
    grep -q 'skyline_shard_epoch{shard="0"} 1' "$tmp/fo-prom.txt"
    grep -q '"op":"promote"' "$tmp/fo-manifest.jsonl"
    curl -sf -X POST "http://$coord/shutdown" | grep -q 'shutting down'
    wait_exit "$cluster_pid"
    curl -sf -X POST "http://$faddr/shutdown" | grep -q 'shutting down'
    wait_exit "$follower_pid"

    echo "==> opt-in: chaos fault-injection harness"
    cargo test -q -p skyline-integration-tests --features chaos --test chaos

    echo "==> benchmark self-tests: every perfbench workload against this checkout"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
fi

echo "CI OK"
