#!/usr/bin/env bash
# CI gate: formatting, lints, and the tier-1 verify line.
#
#   ./ci.sh          # everything
#   ./ci.sh quick    # skip the workspace test pass (tier-1 only)
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

if [[ "${1:-}" != "quick" ]]; then
    echo "== workspace tests =="
    cargo test --workspace -q

    echo "== benches compile (cargo bench --no-run) =="
    cargo bench --workspace --no-run

    echo "== benchmark harness: builds against crates/*, quick suite is correct =="
    # benchmarks/e2e is a cargo workspace of its own that compiles against
    # the public API of crates/* and checks what it runs (determinism FNV,
    # sample conservation, finite losses, predictions recomputed). A change
    # under crates/ that breaks its build or trips one of its checks must
    # fail here, not at the next benchmark run. Timings are not compared.
    (cd benchmarks/e2e && cargo test --offline -q)
    bash benchmarks/run.sh --quick >/dev/null
    echo "benchmark harness: tests pass, --quick suite exits 0"

    echo "== fig2 trace determinism =="
    # The scheduler trace must be byte-for-byte reproducible: regenerate it
    # at the default scale into a scratch dir and diff against the
    # checked-in artifact.
    tmp_out="$(mktemp -d)"
    trap 'rm -rf "$tmp_out"' EXIT
    ASGD_OUT_DIR="$tmp_out" cargo run --release -p asgd-bench --bin fig2_trace >/dev/null
    diff -u results/fig2_trace.txt "$tmp_out/fig2_trace.txt"
    echo "fig2_trace.txt reproduced byte-for-byte"

    # gate [--debug] [--no-golden] <bin> <output-file> [VAR=val ...]
    #
    # The determinism gate every probe goes through. Default: run the probe
    # in the release profile at ASGD_THREADS=1 and =8 (separate processes,
    # so each gets its own worker pool), byte-diff the two reports, then
    # byte-diff against the checked-in results/<output-file> (--no-golden
    # skips that last diff). --debug is the cross-profile row: one run in
    # the debug profile, diffed against the golden — optimization level,
    # inlining and (Thin)LTO must not change a single bit.
    gate() {
        local debug= golden=1
        while [[ "$1" == --* ]]; do
            case "$1" in
                --debug) debug=1 ;;
                --no-golden) golden= ;;
                *) echo "gate: unknown flag $1" >&2; exit 2 ;;
            esac
            shift
        done
        local bin="$1" out="$2" t
        shift 2
        rm -rf "$tmp_out/t1" "$tmp_out/t8" "$tmp_out/dbg"
        if [[ -n "$debug" ]]; then
            env "$@" ASGD_OUT_DIR="$tmp_out/dbg" \
                cargo run -p asgd-bench --bin "$bin" >/dev/null
            diff -u "results/$out" "$tmp_out/dbg/$out"
            echo "$out: debug profile matches the checked-in golden"
            return
        fi
        for t in 1 8; do
            env "$@" ASGD_THREADS="$t" ASGD_OUT_DIR="$tmp_out/t$t" \
                cargo run --release -p asgd-bench --bin "$bin" >/dev/null
        done
        diff -u "$tmp_out/t1/$out" "$tmp_out/t8/$out"
        if [[ -n "$golden" ]]; then
            diff -u "results/$out" "$tmp_out/t8/$out"
        fi
        echo "$out: bit-identical at ASGD_THREADS=1 and =8${golden:+, matches the checked-in golden}"
    }

    echo "== probe determinism gates =="
    # One row per gate. What each probe pins, and the DESIGN.md section that
    # states the contract:
    #   chaos_probe         a faulted run is a pure function of (run seed,
    #                       fault seed), f32 and bf16 merge arena alike —
    #                       "Fault model & degradation semantics", "Precision
    #                       tiers & rounding contract"
    #   cluster_probe       the hierarchical multi-node merge (256 replicas at
    #                       64x4; whole-server losses and inter-node stalls in
    #                       the plan) — "Cluster topology & hierarchical merge"
    #   serve_probe         train -> checkpoint -> serve, faulted and clean:
    #                       `serve` as the one-tenant configuration of the one
    #                       serving loop — "Serving subsystem"
    #   autoscale_probe     the multi-tenant fleet (registry dedup, cache,
    #                       hedging, autoscaling, faults) — "Serving subsystem"
    #   sparse_merge_probe  sparse delta merge == dense merge, bit for bit,
    #                       survivor-subset unions included — "Sparse delta
    #                       merge"
    #   kernel_probe        blocked GEMM/SpMM micro-kernels, fused epilogues,
    #                       streaming top-k — "Kernel layer"
    #   sampled_probe       the LSH-sampled training path — "Sampled softmax &
    #                       sparse output path"
    cluster=(ASGD_MEGA_LIMIT=3 ASGD_SCALE=0.002 ASGD_HIDDEN=16 ASGD_BMAX=16
             ASGD_BATCHES_PER_MEGA=64 ASGD_DEVICES_PER_SERVER=4)
    gate --no-golden chaos_probe chaos_probe_7.txt ASGD_MEGA_LIMIT=4 ASGD_FAULT_SEED=7
    gate --no-golden chaos_probe chaos_probe_23.txt ASGD_MEGA_LIMIT=4 ASGD_FAULT_SEED=23
    gate chaos_probe chaos_probe_7_bf16.txt ASGD_MEGA_LIMIT=4 ASGD_FAULT_SEED=7 ASGD_PRECISION=bf16
    gate cluster_probe cluster_probe_7_64x4.txt "${cluster[@]}" ASGD_SERVERS=64
    gate --no-golden cluster_probe cluster_probe_7_4x4_bf16.txt "${cluster[@]}" \
        ASGD_SERVERS=4 ASGD_PRECISION=bf16 ASGD_FAULT_SEED=7
    gate --no-golden cluster_probe cluster_probe_23_4x4_bf16.txt "${cluster[@]}" \
        ASGD_SERVERS=4 ASGD_PRECISION=bf16 ASGD_FAULT_SEED=23
    gate serve_probe serve_probe_11_7.txt ASGD_SERVE_SEED=11 ASGD_FAULT_SEED=7
    gate --debug serve_probe serve_probe_11_7.txt ASGD_SERVE_SEED=11 ASGD_FAULT_SEED=7
    gate autoscale_probe autoscale_probe_7_7.txt ASGD_SERVE_SEED=7 ASGD_FAULT_SEED=7
    gate autoscale_probe autoscale_probe_23_5.txt ASGD_SERVE_SEED=23 ASGD_FAULT_SEED=5
    gate autoscale_probe autoscale_probe_7_7_bf16.txt ASGD_SERVE_SEED=7 ASGD_FAULT_SEED=7 \
        ASGD_PRECISION=bf16
    gate sparse_merge_probe sparse_merge_probe_7.txt ASGD_MEGA_LIMIT=4
    gate sparse_merge_probe sparse_merge_probe_7_bf16.txt ASGD_MEGA_LIMIT=4 ASGD_PRECISION=bf16
    gate --debug sparse_merge_probe sparse_merge_probe_7.txt ASGD_MEGA_LIMIT=4
    # The fused sparse pass under the two-level schedule on a 2x2 cluster
    # (plan 7 there: merge OOM, a device loss that leaves server 1 one
    # survivor, an inter-node stall); the probe itself exits non-zero unless
    # sparse == dense.
    gate --no-golden sparse_merge_probe sparse_merge_probe_7_2x2.txt ASGD_MEGA_LIMIT=4 \
        ASGD_SERVERS=2 ASGD_DEVICES_PER_SERVER=2
    gate --no-golden sparse_merge_probe sparse_merge_probe_7_2x2_bf16.txt ASGD_MEGA_LIMIT=4 \
        ASGD_SERVERS=2 ASGD_DEVICES_PER_SERVER=2 ASGD_PRECISION=bf16
    gate kernel_probe kernel_probe.txt
    gate --debug kernel_probe kernel_probe.txt
    gate sampled_probe sampled_probe.txt ASGD_MEGA_LIMIT=4
    gate --debug sampled_probe sampled_probe.txt ASGD_MEGA_LIMIT=4

    echo "== autoscale acceptance =="
    # BENCH_autoscale.json carries the subsystem's headline claim as
    # deterministic booleans: elastic holds the p99 SLO static-min misses,
    # at >=1.3x less device-seconds than static-max, with the Zipf head
    # hitting the cache more than half the time. Regenerate, byte-diff
    # against the checked-in artifact, and assert the booleans.
    ASGD_OUT_DIR="$tmp_out/fleetjson" \
        cargo run --release -p asgd-bench --bin run_all BENCH_autoscale >/dev/null
    diff -u results/BENCH_autoscale.json "$tmp_out/fleetjson/BENCH_autoscale.json"
    for claim in elastic_meets_slo staticmin_misses_slo cost_ratio_ok cache_hit_ok; do
        grep -q "\"$claim\": true" "$tmp_out/fleetjson/BENCH_autoscale.json" \
            || { echo "autoscale acceptance claim $claim failed"; exit 1; }
    done
    echo "autoscale acceptance: reproduced byte-for-byte, all four claims hold"

    echo "== serve acceptance =="
    # BENCH_serve.json is the single-model engine's sweep (adaptive vs fixed
    # micro-batching over a two-tier server) — `serve` runs the fleet's loop,
    # so its numbers move with any change to that loop. Regenerate and
    # byte-diff against the checked-in artifact.
    ASGD_OUT_DIR="$tmp_out/servejson" \
        cargo run --release -p asgd-bench --bin run_all BENCH_serve >/dev/null
    diff -u results/BENCH_serve.json "$tmp_out/servejson/BENCH_serve.json"
    echo "serve acceptance: BENCH_serve.json reproduced byte-for-byte"

    echo "== sparse-merge acceptance =="
    # BENCH_sparse_merge.json carries the subsystem's headline claims as
    # asserted facts: ≥10x simulated-byte reduction at the full Amazon-670k
    # shape (asserted inside the experiment) and bit-identity of every
    # paired dense/sparse run (f32/bf16 × flat/cluster). Regenerate,
    # byte-diff against the checked-in artifact, and count the gates.
    ASGD_OUT_DIR="$tmp_out/smjson" \
        cargo run --release -p asgd-bench --bin run_all BENCH_sparse_merge >/dev/null
    diff -u results/BENCH_sparse_merge.json "$tmp_out/smjson/BENCH_sparse_merge.json"
    [ "$(grep -c '"bits_equal_dense": true' "$tmp_out/smjson/BENCH_sparse_merge.json")" -eq 4 ] \
        || { echo "sparse-merge bit-identity gates missing"; exit 1; }
    echo "sparse-merge acceptance: reproduced byte-for-byte, all four bit-identity gates hold"
fi

echo "CI OK"
