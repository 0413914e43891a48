#!/bin/sh
# check.sh — the repository's local verification gate.
#
# Runs, in order: gofmt (fails on any unformatted file), go vet, a full
# build, the full test suite, the race detector over the packages that
# exercise concurrency (the evolve evaluation pool and study runner, the
# compiled-network kernel and its reuse cache, the hardware counter
# registry, fault injector included, the experiment harness's
# singleflight run cache + parallel scheduler, the persistent run
# store, the genesysd serving layer with its integration test, and the
# NEAT speciation kernel whose distance pass fans out over workers,
# and the NSGA-II sort whose determinism test runs concurrently), a
# server smoke that runs the real genesysd + genesysctl binaries end to
# end on an ephemeral port — including a scalar, an island and a
# multi-objective job whose streams must each replay byte-identically
# from the shared run cache — a durability smoke that SIGKILLs a
# store-backed daemon and proves the restarted one replays the result
# from disk, a one-iteration smoke over the kernel and replay
# trajectory benchmarks (so a change that breaks the bench harness
# fails here, not in scripts/bench.sh), and a short fuzz smoke over the
# untrusted-input decoders (trace parser, NEAT checkpoint and genome
# codec, each differential against its retained reflective reference,
# the POST /jobs spec decoder, the worker island RPC, store manifest).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (evolve, network, env, hw, experiments, serve, store, cluster, neat, gene, moea)"
# env is in the race set since the batch engine: BatchEnv lane state is
# advanced by evaluation workers whose batch tests (network batch
# differential, env lockstep, evolve batch-vs-serial) all run here.
# store is in it since the persistent run store: commits, hits, GC, and
# quarantine all cross the scheduler's worker pool. cluster is in it
# since fleet mode: membership heartbeats, ring rebuilds, and the
# sharded island session protocol are all cross-goroutine. neat and
# gene are in it since the speciation kernel: the parallel distance
# pass fans CompatDistance over worker goroutines reading shared
# genomes, and the kernel differential test forces multi-worker fan-out
# even on a single-core host. moea is in it since NSGA-II: its
# determinism test runs the sort from concurrent goroutines to prove
# byte-identical fronts at any parallelism.
go test -race ./internal/evolve/... ./internal/network/... ./internal/env/... \
    ./internal/hw/... ./internal/experiments/... ./internal/serve/... \
    ./internal/store/... ./internal/cluster/... ./internal/neat/... \
    ./internal/gene/... ./internal/moea/...

echo "== genesysd smoke (real binaries, ephemeral port)"
smokedir=$(mktemp -d)
go build -o "$smokedir/genesysd" ./cmd/genesysd
go build -o "$smokedir/genesysctl" ./cmd/genesysctl
"$smokedir/genesysd" -addr 127.0.0.1:0 -addr-file "$smokedir/addr" &
daemon=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr" ] && break
    sleep 0.1
done
addr="http://$(cat "$smokedir/addr")"
# A tiny CartPole job end to end: the watch output must carry SSE
# generation records and a terminal done state.
watch_out=$("$smokedir/genesysctl" -addr "$addr" submit \
    -workload cartpole -pop 24 -generations 3 -watch)
echo "$watch_out"
echo "$watch_out" | grep -q "gen " || { echo "no SSE generation records" >&2; exit 1; }
echo "$watch_out" | grep -q ": done solved=" || { echo "job did not finish" >&2; exit 1; }
# /metrics must be valid JSON: genesysctl decodes the body into the
# counter-report type (dying on malformed JSON) before re-rendering it.
"$smokedir/genesysctl" -addr "$addr" metrics > "$smokedir/metrics.json"
grep -q '"genesysd"' "$smokedir/metrics.json" || { echo "metrics missing root" >&2; exit 1; }
# The per-phase generation accounting must be present and nonzero after
# a computed job: the local executor mounts its "phases" node into the
# tree and every Step charges evaluate/speciate/reproduce wall-clock.
for phase in evaluate_ns speciate_ns reproduce_ns; do
    grep -q "\"$phase\": [1-9]" "$smokedir/metrics.json" \
        || { echo "metrics missing nonzero $phase" >&2; exit 1; }
done
# Every run kind end to end through the one executor path — scalar,
# island, and multi-objective (NSGA-II): an identical resubmission must
# replay the exact same stream from the shared run cache, byte-identical
# modulo the job ids, and the Pareto stream must carry front records
# after the history.
strip_ids() { grep -v '^submitted ' | sed 's/job-[0-9]*//g'; }
for kind in scalar island pareto; do
    case $kind in
        scalar) flags="" ;;
        island) flags="-islands 2 -migration-every 2" ;;
        pareto) flags="-objectives fitness+genes+energy" ;;
    esac
    # $flags is deliberately unquoted: it splits into separate options.
    r1=$("$smokedir/genesysctl" -addr "$addr" submit \
        -workload cartpole -pop 24 -generations 3 -seed 888 $flags -watch)
    echo "$r1" | tail -2
    echo "$r1" | grep -q ": done solved=" || { echo "$kind job did not finish" >&2; exit 1; }
    if [ "$kind" = pareto ]; then
        echo "$r1" | grep -q "front point" || { echo "no Pareto-front records" >&2; exit 1; }
    fi
    r2=$("$smokedir/genesysctl" -addr "$addr" submit \
        -workload cartpole -pop 24 -generations 3 -seed 888 $flags -watch)
    [ "$(echo "$r1" | strip_ids)" = "$(echo "$r2" | strip_ids)" ] \
        || { echo "$kind replay not byte-identical to the live stream" >&2; exit 1; }
done
# SIGTERM must drain cleanly.
kill -TERM "$daemon"
wait "$daemon" || { echo "genesysd exited non-zero on SIGTERM" >&2; exit 1; }

echo "== store durability smoke (kill -9 the daemon, restart, replay from disk)"
# Life 1: a store-backed daemon computes one job, then dies hard —
# SIGKILL, no drain, no goodbye. Life 2 over the same -store-dir must
# serve the identical resubmission from disk (stored=true, one
# store_hit) without re-running the evolution.
"$smokedir/genesysd" -addr 127.0.0.1:0 -addr-file "$smokedir/addr2" \
    -store-dir "$smokedir/store" -checkpoint-dir "$smokedir/ckpt" &
daemon=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr2" ] && break
    sleep 0.1
done
addr="http://$(cat "$smokedir/addr2")"
out1=$("$smokedir/genesysctl" -addr "$addr" submit \
    -workload cartpole -pop 24 -generations 3 -seed 777 -watch)
echo "$out1" | grep -q "stored=false" || { echo "first life claims a store hit" >&2; exit 1; }
kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
"$smokedir/genesysd" -addr 127.0.0.1:0 -addr-file "$smokedir/addr3" \
    -store-dir "$smokedir/store" -checkpoint-dir "$smokedir/ckpt" &
daemon=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/addr3" ] && break
    sleep 0.1
done
addr="http://$(cat "$smokedir/addr3")"
out2=$("$smokedir/genesysctl" -addr "$addr" submit \
    -workload cartpole -pop 24 -generations 3 -seed 777 -watch)
echo "$out2"
echo "$out2" | grep -q "stored=true" || { echo "restart did not replay from the store" >&2; exit 1; }
"$smokedir/genesysctl" -addr "$addr" metrics | grep -q '"store_hits": 1' \
    || { echo "metrics missing the store hit" >&2; exit 1; }
kill -TERM "$daemon"
wait "$daemon" || { echo "genesysd exited non-zero on SIGTERM" >&2; exit 1; }

echo "== cluster fleet smoke (coordinator + 2 workers, kill -9 one mid-job)"
# A real 3-process fleet over loopback: the coordinator admits, two
# workers execute against a shared checkpoint directory. One worker is
# SIGKILLed while it runs the job; the coordinator must mark it dead,
# re-dispatch, and the survivor must resume from the orphaned
# checkpoint — the watch stream ends done with resumed=true.
fleetckpt="$smokedir/fleet-ckpt"
"$smokedir/genesysd" -coordinator -addr 127.0.0.1:0 -addr-file "$smokedir/coord-addr" \
    -heartbeat-every 200ms -heartbeat-timeout 300ms -fail-after 2 &
coord=$!
for _ in $(seq 1 100); do
    [ -s "$smokedir/coord-addr" ] && break
    sleep 0.1
done
coord_addr="http://$(cat "$smokedir/coord-addr")"
"$smokedir/genesysd" -worker -join "$coord_addr" -addr 127.0.0.1:0 \
    -addr-file "$smokedir/w1-addr" -checkpoint-dir "$fleetckpt" -checkpoint-every 1 &
w1=$!
"$smokedir/genesysd" -worker -join "$coord_addr" -addr 127.0.0.1:0 \
    -addr-file "$smokedir/w2-addr" -checkpoint-dir "$fleetckpt" -checkpoint-every 1 &
w2=$!
for _ in $(seq 1 150); do
    alive=$("$smokedir/genesysctl" -addr "$coord_addr" cluster | grep -c " true " || true)
    [ "$alive" -ge 2 ] && break
    sleep 0.1
done
[ "$alive" -ge 2 ] || { echo "workers never joined the fleet" >&2; exit 1; }
w1_addr="http://$(cat "$smokedir/w1-addr")"
w2_addr="http://$(cat "$smokedir/w2-addr")"
# A slow job (the RAM workload, generous generation budget) so the
# victim is reliably mid-run when killed.
"$smokedir/genesysctl" -addr "$coord_addr" submit \
    -workload alien-ram -pop 30 -generations 40 -seed 4242 -watch \
    > "$smokedir/fleet-watch" 2>&1 &
watcher=$!
# Find the worker actually running it, wait for its first *completed*
# checkpoint (a rename-committed .ckpt — a .ckpt.tmp still staging
# would be torn by the kill and resume nothing), then kill -9.
victim=""
for _ in $(seq 1 200); do
    if "$smokedir/genesysctl" -addr "$w1_addr" list | grep -q running; then victim=$w1; break; fi
    if "$smokedir/genesysctl" -addr "$w2_addr" list | grep -q running; then victim=$w2; break; fi
    sleep 0.1
done
[ -n "$victim" ] || { echo "no worker picked the job up" >&2; exit 1; }
has_ckpt() { find "$fleetckpt" -name '*.ckpt' 2>/dev/null | grep -q .; }
for _ in $(seq 1 200); do
    has_ckpt && break
    sleep 0.1
done
has_ckpt || { echo "no checkpoint before kill" >&2; exit 1; }
kill -9 "$victim"
wait "$victim" 2>/dev/null || true
wait "$watcher" || { echo "fleet watch exited non-zero" >&2; cat "$smokedir/fleet-watch" >&2; exit 1; }
tail -3 "$smokedir/fleet-watch"
grep -q ": done solved=" "$smokedir/fleet-watch" \
    || { echo "fleet job did not finish after worker kill" >&2; cat "$smokedir/fleet-watch" >&2; exit 1; }
grep -q "resumed=true" "$smokedir/fleet-watch" \
    || { echo "failover did not resume from the orphaned checkpoint" >&2; cat "$smokedir/fleet-watch" >&2; exit 1; }
"$smokedir/genesysctl" -addr "$coord_addr" metrics | grep -q '"redispatched": ' \
    || { echo "metrics missing the cluster redispatch counter" >&2; exit 1; }
kill -TERM "$coord" 2>/dev/null || true
for p in "$w1" "$w2"; do kill -TERM "$p" 2>/dev/null || true; done
wait "$coord" 2>/dev/null || true
wait "$w1" 2>/dev/null || true
wait "$w2" 2>/dev/null || true
rm -rf "$smokedir"

echo "== bench smoke (kernel + batch + replay trajectory benches, 1 iteration)"
# The NetworkFeed/EvaluateGeneration patterns are prefixes, so the
# batch-engine variants (BenchmarkNetworkFeedBatch,
# BenchmarkEvaluateGenerationBatch/Scalar) smoke here too.
go test -run=NONE -bench='BenchmarkNetworkCompile|BenchmarkNetworkFeed' \
    -benchtime=1x ./internal/network/
go test -run=NONE -bench='BenchmarkSpeciate$|BenchmarkEpoch$|BenchmarkCheckpoint' \
    -benchtime=1x ./internal/neat/
go test -run=NONE -bench='BenchmarkEvaluateGeneration' \
    -benchtime=1x ./internal/evolve/
go test -run=NONE -bench='BenchmarkSoCRunGeneration' \
    -benchtime=1x ./internal/hw/soc/
go test -run=NONE -bench='BenchmarkEvEReplay' \
    -benchtime=1x ./internal/hw/eve/
go test -run=NONE -bench='BenchmarkServeThroughput' \
    -benchtime=1x ./internal/serve/
go test -run=NONE -bench='BenchmarkStoreHitThroughput' \
    -benchtime=1x ./internal/store/
go test -run=NONE -bench='BenchmarkClusterThroughput' \
    -benchtime=1x ./internal/serve/
go test -run=NONE -bench='BenchmarkNonDominatedSort' \
    -benchtime=1x ./internal/moea/

echo "== fuzz smoke (trace, neat checkpoint, genome codec, job spec, island RPC, store manifest)"
# -fuzzminimizetime is bounded in execs: the default 60s-per-input
# minimization budget would eat the whole smoke window on the ~5 KB
# checkpoint corpus entries.
go test -run=NONE -fuzz=FuzzParse -fuzztime=5s -fuzzminimizetime=50x ./internal/trace/
go test -run=NONE -fuzz=FuzzRestore -fuzztime=5s -fuzzminimizetime=50x ./internal/neat/
go test -run=NONE -fuzz=FuzzGenomeCodec -fuzztime=5s -fuzzminimizetime=50x ./internal/gene/
go test -run=NONE -fuzz=FuzzSpec -fuzztime=5s -fuzzminimizetime=50x ./internal/serve/
go test -run=NONE -fuzz=FuzzIslandStep -fuzztime=5s -fuzzminimizetime=50x ./internal/cluster/
go test -run=NONE -fuzz=FuzzManifest -fuzztime=5s -fuzzminimizetime=50x ./internal/store/

echo "ok"
