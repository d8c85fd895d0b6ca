#!/usr/bin/env bash
# Full offline verification gate for wsp-repro.
#
# Everything runs with --offline: the workspace has no external crate
# dependencies, so no network access is ever required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== release build (offline) =="
cargo build --release --offline --workspace

echo "== workspace tests (offline) =="
cargo test -q --offline --workspace

echo "== crash sweeps under a pinned seed =="
WSP_DET_SEED=42 cargo test -q --offline --test fault_injection
WSP_DET_SEED=42 cargo test -q --offline --test crash_consistency

echo "== golden traces: pinned at both recorded seeds =="
cargo test -q --offline --test golden_trace
WSP_DET_SEED=7 cargo test -q --offline --test golden_trace
WSP_DET_SEED=42 cargo test -q --offline --test golden_trace
# A run with WSP_UPDATE_GOLDEN set rewrites the corpus and passes;
# a rewritten golden must show up here, not slip through.
git diff --exit-code -- tests/golden

echo "== observability error-path contracts =="
cargo test -q --offline --test observability

echo "== trace schema validation (sweep export must parse) =="
cargo run --release --offline --example trace_export -- --out target/trace-gate.jsonl

echo "== crash-sweep soak: three seeds, serial and sharded =="
for seed in 11 42 1337; do
    echo "  -- seed $seed (thread default)"
    WSP_DET_SEED=$seed cargo test -q --offline --test fault_injection
    echo "  -- seed $seed (WSP_FAULTSIM_THREADS=1)"
    WSP_DET_SEED=$seed WSP_FAULTSIM_THREADS=1 cargo test -q --offline --test fault_injection
done

echo "== cross-shard 2PC sweep: serial and sharded must agree =="
WSP_DET_SEED=7 WSP_FAULTSIM_THREADS=1 cargo test -q --offline --test fault_injection cross_shard
WSP_DET_SEED=7 WSP_FAULTSIM_THREADS=4 cargo test -q --offline --test fault_injection cross_shard

echo "== benches compile (bench feature) =="
cargo build --offline -p wsp-bench --features bench --benches

echo "== bench smoke (quick mode) =="
cargo test -q --offline -p wsp-bench --features bench

echo "== host-time throughput gate (>20% hash-table regression fails) =="
cargo run --release --offline -p wsp-bench --features bench --bin bench_pr2 -- check BENCH_PR2.json

echo "== recovery-ladder time gate (>20% sweep slowdown fails) =="
cargo run --release --offline -p wsp-bench --features bench --bin bench_pr3 -- check BENCH_PR3.json

echo "== epoch group-commit + shard-scaling gate =="
cargo run --release --offline -p wsp-bench --features bench --bin bench_pr5 -- check BENCH_PR5.json

echo "== cross-shard 2PC throughput gate =="
cargo run --release --offline -p wsp-bench --features bench --bin bench_pr6 -- check BENCH_PR6.json

echo "== FliT elision + seal-pipeline gate (epoch-32 STM floor 1.8x) =="
cargo run --release --offline -p wsp-bench --features bench --bin bench_pr7 -- check BENCH_PR7.json

echo "== shared-domain triage + storm-survival gate =="
cargo run --release --offline -p wsp-bench --features bench --bin bench_pr8 -- check BENCH_PR8.json

echo "== concurrent in-shard scaling + FoF-gap gate (floor 1.8x at 4 threads) =="
cargo run --release --offline -p wsp-bench --features bench --bin bench_pr9 -- check BENCH_PR9.json

echo "== group-decided 2PC gate (batching floor 2.0x, coordinator floor 1.8x) =="
cargo run --release --offline -p wsp-bench --features bench --bin bench_pr10 -- check BENCH_PR10.json

echo "== benchmark fingerprints: simulated output pinned per workload =="
# A host-only change must leave every simulated latency, clock and
# counter bitwise identical; each workload's fingerprint digests them.
for pin in kv-foc:6564ceb8e3cea7a8 xshard-2pc:3010282090e5703b \
    power-cycle:c1fd5e7f91659cc7 kv-lockfree:e7a53eae4511d5a9; do
    workload=${pin%%:*}
    want=${pin#*:}
    got=$(cargo run --release --offline -q --manifest-path wspbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 2>&1 |
        sed -n 's/^wspbench: .* fingerprint \([0-9a-f]*\)$/\1/p')
    if [ "$got" != "$want" ]; then
        echo "fingerprint mismatch for $workload: got '$got', pinned $want" >&2
        exit 1
    fi
    echo "  -- $workload $got"
done

echo "== grouped split-resolution sweep: serial and sharded must agree =="
WSP_FAULTSIM_THREADS=1 cargo test -q --offline --test crash_consistency grouped_split
WSP_FAULTSIM_THREADS=4 cargo test -q --offline --test crash_consistency grouped_split

echo "== lock-free interleaving sweep: fixed-seed corpus at both worker counts =="
WSP_FAULTSIM_THREADS=1 cargo test -q --release --offline --test lockfree_detect
WSP_FAULTSIM_THREADS=4 cargo test -q --release --offline --test lockfree_detect

echo "== power-storm soak: three seeds, serial and sharded must agree =="
for seed in 42 7 4242; do
    echo "  -- seed $seed (WSP_FAULTSIM_THREADS=1)"
    WSP_DET_SEED=$seed WSP_FAULTSIM_THREADS=1 \
        cargo test -q --release --offline --test fault_injection power_storm
    echo "  -- seed $seed (WSP_FAULTSIM_THREADS=4)"
    WSP_DET_SEED=$seed WSP_FAULTSIM_THREADS=4 \
        cargo test -q --release --offline --test fault_injection power_storm
done

echo "== extended mid-seal crash sweep: serial and sharded must agree =="
WSP_DET_SEED=7 WSP_FAULTSIM_THREADS=1 cargo test -q --offline --test crash_consistency mid_epoch
WSP_DET_SEED=7 WSP_FAULTSIM_THREADS=4 cargo test -q --offline --test crash_consistency mid_epoch

echo "== sharded KV determinism spot-check (single worker) =="
WSP_KV_SHARDS=1 cargo test -q --offline -p wsp-workloads shard::

echo "== deny-warnings build =="
RUSTFLAGS="-D warnings" cargo build --offline --workspace --all-targets

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "verify.sh: all gates passed"
