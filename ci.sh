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

    echo "== chaos determinism across thread counts =="
    # A faulted run must be a pure function of (run seed, fault seed):
    # replay the same fault plans under different worker-pool sizes (in
    # separate processes, so each gets its own pool) and byte-diff the
    # reports. See DESIGN.md, "Fault model & degradation semantics".
    for fault_seed in 7 23; do
        ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/chaos1" ASGD_MEGA_LIMIT=4 \
            ASGD_FAULT_SEED="$fault_seed" \
            cargo run --release -p asgd-bench --bin chaos_probe >/dev/null
        ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/chaos8" ASGD_MEGA_LIMIT=4 \
            ASGD_FAULT_SEED="$fault_seed" \
            cargo run --release -p asgd-bench --bin chaos_probe >/dev/null
        diff -u "$tmp_out/chaos1/chaos_probe_$fault_seed.txt" \
                "$tmp_out/chaos8/chaos_probe_$fault_seed.txt"
        echo "fault seed $fault_seed: bit-identical at ASGD_THREADS=1 and =8"
    done

    echo "== chaos determinism in the bf16 merge arena =="
    # The bf16 storage tier promises the same contract as f32: half-width
    # gather/reduce/redistribute buffers, f32 accumulation, exactly one RNE
    # round point per store — still a pure function of (run seed, fault
    # seed), independent of worker count, and matching the checked-in
    # golden. See DESIGN.md, "Precision tiers & rounding contract".
    ASGD_PRECISION=bf16 ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/chaos1" \
        ASGD_MEGA_LIMIT=4 ASGD_FAULT_SEED=7 \
        cargo run --release -p asgd-bench --bin chaos_probe >/dev/null
    ASGD_PRECISION=bf16 ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/chaos8" \
        ASGD_MEGA_LIMIT=4 ASGD_FAULT_SEED=7 \
        cargo run --release -p asgd-bench --bin chaos_probe >/dev/null
    diff -u "$tmp_out/chaos1/chaos_probe_7_bf16.txt" \
            "$tmp_out/chaos8/chaos_probe_7_bf16.txt"
    diff -u results/chaos_probe_7_bf16.txt "$tmp_out/chaos8/chaos_probe_7_bf16.txt"
    echo "bf16 merge arena: bit-identical at ASGD_THREADS=1 and =8, matches checked-in golden"

    echo "== cluster determinism across thread counts (64x4) =="
    # A hierarchical multi-node merge must be a pure function of
    # (run seed, fault seed, cluster shape): replay the full 64-server x
    # 4-device fleet (256 replicas, whole-server losses and inter-node
    # stalls in the fault plan) under different worker-pool sizes (in
    # separate processes, so each gets its own pool) and byte-diff the
    # FNV reports (trace + final model) against each other and the
    # checked-in golden. See DESIGN.md, "Cluster topology & hierarchical
    # merge".
    cluster_env=(ASGD_MEGA_LIMIT=3 ASGD_SCALE=0.002 ASGD_HIDDEN=16
                 ASGD_BMAX=16 ASGD_BATCHES_PER_MEGA=64
                 ASGD_SERVERS=64 ASGD_DEVICES_PER_SERVER=4)
    env "${cluster_env[@]}" ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/clu1" \
        cargo run --release -p asgd-bench --bin cluster_probe >/dev/null
    env "${cluster_env[@]}" ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/clu8" \
        cargo run --release -p asgd-bench --bin cluster_probe >/dev/null
    diff -u "$tmp_out/clu1/cluster_probe_7_64x4.txt" \
            "$tmp_out/clu8/cluster_probe_7_64x4.txt"
    diff -u results/cluster_probe_7_64x4.txt "$tmp_out/clu8/cluster_probe_7_64x4.txt"
    echo "cluster 64x4: bit-identical at ASGD_THREADS=1 and =8, matches checked-in golden"

    echo "== cluster determinism in the bf16 merge arena (4x4, two seeds) =="
    # The bf16 tier promises the same topology-invariance contract; gate a
    # smaller shape under two fault seeds so server-loss and stall paths
    # both replay through the half-width arena.
    for fault_seed in 7 23; do
        env "${cluster_env[@]}" ASGD_SERVERS=4 ASGD_PRECISION=bf16 \
            ASGD_FAULT_SEED="$fault_seed" \
            ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/clu1" \
            cargo run --release -p asgd-bench --bin cluster_probe >/dev/null
        env "${cluster_env[@]}" ASGD_SERVERS=4 ASGD_PRECISION=bf16 \
            ASGD_FAULT_SEED="$fault_seed" \
            ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/clu8" \
            cargo run --release -p asgd-bench --bin cluster_probe >/dev/null
        diff -u "$tmp_out/clu1/cluster_probe_${fault_seed}_4x4_bf16.txt" \
                "$tmp_out/clu8/cluster_probe_${fault_seed}_4x4_bf16.txt"
        echo "cluster 4x4 bf16 fault seed $fault_seed: bit-identical at ASGD_THREADS=1 and =8"
    done

    echo "== serve determinism across thread counts =="
    # A serving run (train → checkpoint → serve, faulted and fault-free)
    # must be a pure function of (request seed, fault seed): replay the
    # probe under different worker-pool sizes and byte-diff the latency/
    # throughput reports. See DESIGN.md, "Serving subsystem".
    serve_seed=11 fault_seed=7
    ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/serve1" \
        ASGD_SERVE_SEED="$serve_seed" ASGD_FAULT_SEED="$fault_seed" \
        cargo run --release -p asgd-bench --bin serve_probe >/dev/null
    ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/serve8" \
        ASGD_SERVE_SEED="$serve_seed" ASGD_FAULT_SEED="$fault_seed" \
        cargo run --release -p asgd-bench --bin serve_probe >/dev/null
    diff -u "$tmp_out/serve1/serve_probe_${serve_seed}_${fault_seed}.txt" \
            "$tmp_out/serve8/serve_probe_${serve_seed}_${fault_seed}.txt"
    diff -u results/serve_probe_${serve_seed}_${fault_seed}.txt \
            "$tmp_out/serve8/serve_probe_${serve_seed}_${fault_seed}.txt"
    echo "serve seeds $serve_seed/$fault_seed: bit-identical at ASGD_THREADS=1 and =8, matches checked-in report"

    echo "== autoscale fleet determinism across thread counts =="
    # A multi-tenant fleet run (registry dedup, prediction cache, hedged
    # requests, elastic autoscaling, faults) must be a pure function of
    # (load seed, fault seed): replay the probe under different worker-pool
    # sizes and byte-diff the reports against each other and the checked-in
    # goldens — two seed pairs in the f32 tier plus one bf16-registry case.
    # See DESIGN.md, "Serving subsystem".
    for seeds in "7 7" "23 5"; do
        read -r serve_seed fault_seed <<<"$seeds"
        ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/fleet1" \
            ASGD_SERVE_SEED="$serve_seed" ASGD_FAULT_SEED="$fault_seed" \
            cargo run --release -p asgd-bench --bin autoscale_probe >/dev/null
        ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/fleet8" \
            ASGD_SERVE_SEED="$serve_seed" ASGD_FAULT_SEED="$fault_seed" \
            cargo run --release -p asgd-bench --bin autoscale_probe >/dev/null
        diff -u "$tmp_out/fleet1/autoscale_probe_${serve_seed}_${fault_seed}.txt" \
                "$tmp_out/fleet8/autoscale_probe_${serve_seed}_${fault_seed}.txt"
        diff -u "results/autoscale_probe_${serve_seed}_${fault_seed}.txt" \
                "$tmp_out/fleet8/autoscale_probe_${serve_seed}_${fault_seed}.txt"
        echo "fleet seeds $serve_seed/$fault_seed: bit-identical at ASGD_THREADS=1 and =8, match checked-in golden"
    done
    ASGD_PRECISION=bf16 ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/fleet1" \
        ASGD_SERVE_SEED=7 ASGD_FAULT_SEED=7 \
        cargo run --release -p asgd-bench --bin autoscale_probe >/dev/null
    ASGD_PRECISION=bf16 ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/fleet8" \
        ASGD_SERVE_SEED=7 ASGD_FAULT_SEED=7 \
        cargo run --release -p asgd-bench --bin autoscale_probe >/dev/null
    diff -u "$tmp_out/fleet1/autoscale_probe_7_7_bf16.txt" \
            "$tmp_out/fleet8/autoscale_probe_7_7_bf16.txt"
    diff -u results/autoscale_probe_7_7_bf16.txt \
            "$tmp_out/fleet8/autoscale_probe_7_7_bf16.txt"
    echo "fleet bf16 registry: bit-identical at ASGD_THREADS=1 and =8, matches checked-in golden"

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

    echo "== sparse-merge determinism across thread counts =="
    # The sparse delta merge promises the merged model is bit-identical to
    # the dense flat reduction — the probe runs both paths in one process,
    # asserts equality, and renders FNV fingerprints of both models plus the
    # sparse traffic accounting. Replay under different worker-pool sizes
    # and byte-diff against each other and the checked-in goldens (f32 and
    # the bf16 arena), faults included (survivor-subset unions). See
    # DESIGN.md, "Sparse delta merge".
    ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/sm1" ASGD_MEGA_LIMIT=4 \
        cargo run --release -p asgd-bench --bin sparse_merge_probe >/dev/null
    ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/sm8" ASGD_MEGA_LIMIT=4 \
        cargo run --release -p asgd-bench --bin sparse_merge_probe >/dev/null
    diff -u "$tmp_out/sm1/sparse_merge_probe_7.txt" \
            "$tmp_out/sm8/sparse_merge_probe_7.txt"
    diff -u results/sparse_merge_probe_7.txt "$tmp_out/sm8/sparse_merge_probe_7.txt"
    ASGD_PRECISION=bf16 ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/sm1" ASGD_MEGA_LIMIT=4 \
        cargo run --release -p asgd-bench --bin sparse_merge_probe >/dev/null
    ASGD_PRECISION=bf16 ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/sm8" ASGD_MEGA_LIMIT=4 \
        cargo run --release -p asgd-bench --bin sparse_merge_probe >/dev/null
    diff -u "$tmp_out/sm1/sparse_merge_probe_7_bf16.txt" \
            "$tmp_out/sm8/sparse_merge_probe_7_bf16.txt"
    diff -u results/sparse_merge_probe_7_bf16.txt \
            "$tmp_out/sm8/sparse_merge_probe_7_bf16.txt"
    echo "sparse merge: bit-identical at ASGD_THREADS=1 and =8 (f32 + bf16), match checked-in goldens"

    echo "== sparse-merge goldens across build profiles =="
    # Same probe, debug vs release: the delta gather/scatter and the sparse
    # timing charge must survive optimization-level changes bit-for-bit.
    ASGD_OUT_DIR="$tmp_out/sm_dbg" ASGD_MEGA_LIMIT=4 \
        cargo run -p asgd-bench --bin sparse_merge_probe >/dev/null
    diff -u results/sparse_merge_probe_7.txt "$tmp_out/sm_dbg/sparse_merge_probe_7.txt"
    echo "sparse-merge goldens: bit-identical in debug and release profiles"

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

    echo "== kernel goldens across thread counts =="
    # The compute-kernel layer (blocked GEMM/SpMM micro-kernels, fused
    # epilogues, streaming top-k) promises bit-identical results for every
    # ASGD_THREADS: replay the probe under different worker-pool sizes (in
    # separate processes, so each gets its own pool) and byte-diff the
    # FNV-checksum reports against each other and the checked-in golden.
    # See DESIGN.md, "Kernel layer".
    ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/kern1" \
        cargo run --release -p asgd-bench --bin kernel_probe >/dev/null
    ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/kern8" \
        cargo run --release -p asgd-bench --bin kernel_probe >/dev/null
    diff -u "$tmp_out/kern1/kernel_probe.txt" "$tmp_out/kern8/kernel_probe.txt"
    diff -u results/kernel_probe.txt "$tmp_out/kern8/kernel_probe.txt"
    echo "kernel goldens: bit-identical at ASGD_THREADS=1 and =8, match checked-in report"

    echo "== sampled-softmax goldens across thread counts =="
    # The LSH-sampled training path promises bit-identical runs for every
    # ASGD_THREADS: candidate sets are a pure function of (LSH seed, synced
    # W2, batch labels), the gathered kernels follow the reduction contract,
    # and the sparse output update applies in canonical candidate order.
    # Replay the probe under different worker-pool sizes and byte-diff the
    # FNV reports (trace + final model) against each other and the
    # checked-in golden. See DESIGN.md, "Sampled softmax & sparse output
    # path".
    ASGD_THREADS=1 ASGD_OUT_DIR="$tmp_out/sampled1" ASGD_MEGA_LIMIT=4 \
        cargo run --release -p asgd-bench --bin sampled_probe >/dev/null
    ASGD_THREADS=8 ASGD_OUT_DIR="$tmp_out/sampled8" ASGD_MEGA_LIMIT=4 \
        cargo run --release -p asgd-bench --bin sampled_probe >/dev/null
    diff -u "$tmp_out/sampled1/sampled_probe.txt" "$tmp_out/sampled8/sampled_probe.txt"
    diff -u results/sampled_probe.txt "$tmp_out/sampled8/sampled_probe.txt"
    echo "sampled goldens: bit-identical at ASGD_THREADS=1 and =8, match checked-in report"

    echo "== sampled-softmax goldens across build profiles =="
    # Same probe, debug vs release: the gathered-row kernels must survive
    # optimization-level and LTO changes bit-for-bit, like the dense kernels
    # below.
    ASGD_OUT_DIR="$tmp_out/sampled_dbg" ASGD_MEGA_LIMIT=4 \
        cargo run -p asgd-bench --bin sampled_probe >/dev/null
    diff -u results/sampled_probe.txt "$tmp_out/sampled_dbg/sampled_probe.txt"
    echo "sampled goldens: bit-identical in debug and release profiles"

    echo "== kernel goldens across build profiles =="
    # The same probe, debug vs release: optimization level, inlining, and
    # (Thin)LTO must not change a single bit. This is the gate that catches
    # the nastiest class of kernel bug — LTO inlining a fused multiply-add
    # across a target-feature boundary and legalizing it into a separate
    # multiply and add (silent double rounding). See DESIGN.md, "Kernel
    # layer".
    ASGD_OUT_DIR="$tmp_out/kern_dbg" \
        cargo run -p asgd-bench --bin kernel_probe >/dev/null
    diff -u results/kernel_probe.txt "$tmp_out/kern_dbg/kernel_probe.txt"
    echo "kernel goldens: bit-identical in debug and release profiles"
fi

echo "CI OK"
