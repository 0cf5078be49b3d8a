#!/bin/sh
# CI gate: build, vet, gofmt cleanliness, the full test suite, and the
# race-enabled run (the concurrent paths — shared-store partitioned
# runs, concurrent replay, block cache — must stay race-free).
set -eu

cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test -timeout 10m ./...

echo "== go test -race (short)"
go test -race -short -timeout 10m ./...

echo "== go test -race (store engines, full)"
# Full (non-short) race pass over the store API and every engine: the
# snapshot/iterator paths are exercised under concurrent writers in the
# differential suite, and those schedules only run outside -short.
go test -race -timeout 10m ./internal/kv/ ./internal/stores/ \
    ./internal/lsm/ ./internal/btree/ ./internal/memstore/ \
    ./internal/faster/ ./internal/lethe/ ./internal/remote/ \
    ./internal/shard/ ./internal/tracing/

echo "== go test -race (crash recovery, full)"
# The recovery paths — checkpoint save/restore, the crash-replay loop,
# and the campaign sweep — run full (non-short) under the race detector:
# checkpoints are cut from live stores, so snapshot acquisition races
# against the replay writer by construction.
go test -race -timeout 10m ./internal/replay/ ./internal/campaign/

echo "== open-loop smoke"
# End-to-end open-loop run: drifting-hotspot workload replayed under a
# Poisson arrival schedule with coordinated-omission-free latency and an
# SLO verdict, exercising config -> eventgen -> replay -> obs -> CLI.
go run ./cmd/gadget run -config configs/open-loop-drift.json

echo "== scan scenario smoke"
# Scan-heavy scenario: windowed top-K drain issues OpScan range reads on
# every window fire, exercising config -> core -> replay -> snapshot API.
go run ./cmd/gadget run -config configs/scan-topk.json

echo "== crash recovery smoke"
# Scripted mid-run crashes with a checkpoint cadence: the run must crash
# twice, restore from the newest checkpoint, replay the delta, and report
# RTO/RPO counters, exercising config -> replay recovery -> checkpoint
# codec -> CLI.
go run ./cmd/gadget run -config configs/crash-recovery.json

# start_server NAME SHARDS ADDR: builds gadget-server into a fresh temp
# dir, starts it in the background with SHARDS memstore shards on ADDR
# (port, port+1, ...), and waits for its ready file. Sets server_tmp and
# server_pid; stop_server tears both down.
start_server() {
    server_tmp=$(mktemp -d)
    go build -o "$server_tmp/gadget-server" ./cmd/gadget-server
    "$server_tmp/gadget-server" -shards "$2" -engine memstore \
        -addr "$3" -ready-file "$server_tmp/ready" &
    server_pid=$!
    trap stop_server EXIT
    for _ in $(seq 1 100); do
        [ -f "$server_tmp/ready" ] && return 0
        sleep 0.1
    done
    echo "$1: server never wrote its ready file" >&2
    exit 1
}

stop_server() {
    kill "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    trap - EXIT
    rm -rf "$server_tmp"
}

echo "== sharded remote smoke"
# Two-shard memstore cluster on fixed ports 7301/7302, driven end to end
# through the standard config surface (store.remote.shards expands the
# base addr into per-shard listeners), exercising config -> stores ->
# shard client -> protocol v3 batching -> CLI.
start_server "sharded smoke" 2 127.0.0.1:7301
go run ./cmd/gadget run -config configs/sharded-remote.json
stop_server

echo "== traced sharded smoke"
# Same two-shard topology on port 7311 with per-op tracing enabled
# (obs.trace): the run must produce a report whose slow_ops section has
# traces with the wire and server stages populated, asserted through the
# `gadget trace` renderer — exercising trace-flagged hello negotiation,
# response trailers, flight recorder, report JSON, and the CLI printer.
start_server "traced sharded smoke" 2 127.0.0.1:7311
go run ./cmd/gadget run -config configs/traced-sharded.json -report "$server_tmp/report.json"
go run ./cmd/gadget trace -report "$server_tmp/report.json" -n 3 -require-stages wire,server
stop_server

echo "== traced single-endpoint smoke"
# One server on port 7321, a bare store.addr with no store.remote
# section, and obs.trace on: the remote engine must still negotiate
# trace trailers, so the wire and server stages are populated rather
# than the whole round trip being charged to the engine.
start_server "traced single-endpoint smoke" 1 127.0.0.1:7321
go run ./cmd/gadget run -config configs/traced-remote.json -report "$server_tmp/report.json"
go run ./cmd/gadget trace -report "$server_tmp/report.json" -n 3 -require-stages wire,server
stop_server

echo "== fuzz remote protocol framing (short)"
go test -run '^$' -fuzz '^FuzzServerFrame$' -fuzztime 3s -timeout 5m ./internal/remote/
go test -run '^$' -fuzz '^FuzzClientFrame$' -fuzztime 3s -timeout 5m ./internal/remote/
go test -run '^$' -fuzz '^FuzzBatchFrame$' -fuzztime 3s -timeout 5m ./internal/remote/
go test -run '^$' -fuzz '^FuzzTraceTrailer$' -fuzztime 3s -timeout 5m ./internal/remote/

echo "== fuzz shard routing (short)"
go test -run '^$' -fuzz '^FuzzShardRouting$' -fuzztime 3s -timeout 5m ./internal/shard/

echo "== fuzz iterator bounds (short)"
go test -run '^$' -fuzz '^FuzzIterBounds$' -fuzztime 3s -timeout 5m ./internal/kv/

echo "== fuzz checkpoint codec (short)"
go test -run '^$' -fuzz '^FuzzCheckpointCodec$' -fuzztime 3s -timeout 5m ./internal/kv/

echo "== bench drift guard"
# Re-run the overhead-sensitive micro-benchmarks and compare ns/op
# against results/bench-baseline.txt, failing on >25% regression. The
# threshold is wide because CI boxes vary; it catches structural
# regressions (an accidental lock on the hot path), not noise.
bench_out=$(mktemp)
trap 'rm -f "$bench_out"' EXIT
go test -run '^$' -bench 'BenchmarkResilientOverhead|BenchmarkObsOverhead|BenchmarkOpenLoopOverhead|BenchmarkRecoveryOverhead|BenchmarkTracingOverhead' -benchtime 0.5s -timeout 10m . | tee "$bench_out"
# Snapshot/scan/checkpoint micro-benchmarks: only the native-snapshot
# engines are guarded — the fallback engines (memstore, faster) copy the
# whole store per snapshot, so their run-to-run noise exceeds the 25%
# signal; their numbers are recorded in the baseline for reference only.
go test -run '^$' -bench '(BenchmarkSnapshotOverhead|BenchmarkScanRange|BenchmarkCheckpoint)/(rocksdb|berkeleydb)' -benchtime 0.5s -timeout 10m . | tee -a "$bench_out"
go test -run '^$' -bench 'BenchmarkStripedHistogramRecordParallel|BenchmarkHistogramRecordParallel' -benchtime 0.5s -timeout 5m ./internal/stats/ | tee -a "$bench_out"
# Sharded-remote scaling and the pipeline-depth sweep: TCP round trips
# are the noisiest numbers in the suite, so each point is averaged over
# -count 3 (the awk below averages duplicates) before the comparison.
go test -run '^$' -bench 'BenchmarkShardedThroughput|BenchmarkPipelineDepth' -benchtime 0.3s -count 3 -timeout 10m . | tee -a "$bench_out"
awk '
    # Collect ns/op per benchmark name (strip the -N GOMAXPROCS suffix),
    # averaging duplicate counts, from both baseline and fresh output.
    FNR == NR && $1 ~ /^Benchmark/ && $4 == "ns/op" {
        name = $1; sub(/-[0-9]+$/, "", name)
        base_sum[name] += $3; base_n[name]++
        next
    }
    FNR != NR && $1 ~ /^Benchmark/ && $4 == "ns/op" {
        name = $1; sub(/-[0-9]+$/, "", name)
        new_sum[name] += $3; new_n[name]++
    }
    END {
        failed = 0
        for (name in new_sum) {
            if (!(name in base_sum)) {
                printf "bench-drift: %s has no baseline (refresh results/bench-baseline.txt)\n", name
                continue
            }
            base = base_sum[name] / base_n[name]
            new = new_sum[name] / new_n[name]
            ratio = new / base
            # Loopback-TCP round trips (the sharded/pipeline benches)
            # carry far more run-to-run noise than in-process paths even
            # after -count 3 averaging, so they get a wider threshold:
            # still failing on a structural (>60%) regression, not on
            # scheduler jitter.
            thr = (name ~ /ShardedThroughput|PipelineDepth/) ? 1.60 : 1.25
            printf "bench-drift: %-50s %10.1f -> %10.1f ns/op (%+.1f%%)\n", name, base, new, (ratio - 1) * 100
            if (ratio > thr) {
                printf "bench-drift: FAIL %s regressed %.1f%% (>%d%% threshold)\n", name, (ratio - 1) * 100, (thr - 1) * 100
                failed = 1
            }
        }
        exit failed
    }
' results/bench-baseline.txt "$bench_out"

echo "CI OK"
