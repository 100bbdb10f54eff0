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

echo "== unsafe invariants: every .rs under crates/ that says unsafe =="
# Every `unsafe` — the pool, the raw-pointer carves, the SIMD leaves of the
# dense, bf16 and sparse kernels — states what keeps it sound: a
# `// SAFETY:` comment or a `# Safety` doc section within the six lines
# above it.
grep -rlw --include='*.rs' unsafe crates | xargs awk '
    FNR == 1 { marked = -99 }
    /SAFETY|# Safety/ { marked = FNR }
    /^[[:space:]]*\/\// { next }
    /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ && FNR - marked > 6 {
        printf "%s:%d: unsafe with no SAFETY comment in the six lines above\n", FILENAME, FNR
        bad = 1
    }
    END { exit bad }
'

echo "== one ISA detection site =="
# The CPU is asked in one function of this workspace
# (kernels::avx2_fma_available), which is what lets kernels::force_portable
# switch every AVX2 leaf off at once. (benchmarks/e2e, a workspace of its
# own, asks again for its host roofline; it dispatches no kernel.)
[ "$(grep -rl --include='*.rs' 'is_x86_feature_detected!(' crates src tests examples | xargs awk '/fn [a-z0-9_]+/ { match($0, /fn [a-z0-9_]+/); f = FILENAME ":" substr($0, RSTART, RLENGTH) } /is_x86_feature_detected!\(/ { print f }' | sort -u)" = "crates/tensor/src/kernels.rs:fn avx2_fma_available" ]

echo "== one fault interpreter =="
# FaultKind is matched in asgd-gpusim alone: DevicePool::apply turns every
# fault event into effects, under one policy, for the trainer and the serving
# loop alike, and they react to its FaultOutcome. A match anywhere else is a
# second policy. (Comment lines may name the kinds.)
if grep -rn --include='*.rs' 'FaultKind::' crates/*/src src | grep -v '^crates/gpusim/src/' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then exit 1; fi

echo "== one huge-page advice site =="
# Model-sized buffers are advised in one module, asgd_tensor::pages, and only
# buffers written whole before they are read go through it: advice on a
# sparsely touched buffer turns one write into a 2 MiB fault and grows the
# resident set. (Comment lines may name the call.)
if grep -rnE --include='*.rs' 'madvise|MADV_HUGEPAGE' crates/*/src src tests examples \
    | grep -v '^crates/tensor/src/pages.rs:' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then exit 1; fi

echo "== the serving loop is the only actor =="
# crates/serve starts no thread and opens no channel: the scheduler loop
# makes every decision and scores the forward math itself, in blocks, through
# the kernel pool. A worker thread there is a second actor to keep ordered.
if grep -rnE 'thread::|mpsc' crates/serve/src; then exit 1; fi

echo "== the trainer is one actor =="
# crates/core/src/trainer opens no channel: the scheduler decides a whole
# mega-batch on virtual clocks, then the replicas train it in a phase of
# scoped threads that borrow them, and the merge reads what they wrote. A
# channel there is a message protocol between actors to keep ordered again.
if grep -rnE 'mpsc|Sender<|Receiver<' crates/core/src/trainer; then exit 1; fi

echo "== the replicas are the merge's source =="
# A model is one flat buffer: the dense merge reads every replica's
# parameters where they live, the sparse merge its delta, and eval reads the
# global model in place. A flat export in the trainer is a model-sized copy
# per replica (or per merge) again. Test modules may build flat buffers, so
# each file is read up to its first `#[cfg(test)]`.
awk 'FNR == 1 { live = 1 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    live && /(^|[^[:alnum:]_])(to_flat|load_flat|write_flat_buf)\(/ {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
        bad = 1
    }
    END { exit bad }' crates/core/src/trainer/*.rs

echo "== a sampled replica copies no model =="
# A sampled replica is an overlay on the buffer it imported
# (asgd_model::Overlay): a slot is filled per row a step selects, and an
# import only forgets the slots, so nothing on its path copies a whole
# model. In the replica (crates/core/src/trainer/manager.rs) a whole-model
# import, blend or copy may sit only in a `Model::Owned` arm — dense-softmax
# and CROSSBOW replicas own a model — and the overlay makes one only in
# `materialize`, its copy for checks and tests. Each file is read up to its
# first `#[cfg(test)]`.
awk 'FNR == 1 { live = 1; arm = ""; skip = 0 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    /^    (pub(\([a-z]+\))? )?fn / { arm = "" }
    /Model::Owned/ { arm = "owned" }
    /Model::Overlay/ { arm = "overlay" }
    /fn materialize/ { skip = 1 }
    skip && /^    }$/ { skip = 0; next }
    live && !skip && arm != "owned" &&
        /(read_flat_buf|blend_from_flat_buf|write_flat_buf|to_flat|load_flat|Mlp::zeros|mlp\.clone\(\))/ {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
        bad = 1
    }
    END { exit bad }' crates/core/src/trainer/manager.rs crates/model/src/overlay.rs

echo "== one copy of W2 =="
# W2 is stored once, class-major, in the model's flat buffer: a class's
# weights are one contiguous run, read in place by the forward, the
# backward, the LSH sweep, the gate and the sparse wire format. A transposed
# copy needs a coherence protocol (epochs, row stamps) and a strided
# `k * classes + c` walk reads a class as a column again. Test modules may
# build either as an oracle, so each file is read up to its first
# `#[cfg(test)]`.
find crates/*/src -name '*.rs' -print0 | xargs -0 awk 'FNR == 1 { live = 1 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    live && /w2t_rows|RowStamps|w2_epoch|W2_EPOCH|\*[[:space:]]*([[:alnum:]_]+\.)?(num_)?classes[[:space:]]*\+/ {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
        bad = 1
    }
    END { exit bad }'

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

if [[ "${1:-}" != "quick" ]]; then
    echo "== workspace tests =="
    cargo test --workspace -q

    echo "== worker pool: concurrent submitters, debug and release, 2 and 8 threads =="
    # The pool takes jobs from any number of threads at once; its tests
    # (overlap, panic isolation, wake-ups, 8 submitters x 2,000 jobs) run
    # with and without optimization — the interleavings differ — at a
    # process default of as many and of more threads than this host has
    # cores. The 64x4 `cluster` gate row below (every training phase runs
    # 256 replica threads submitting to one pool) is the standing stress at
    # 1 and 8.
    for t in 2 8; do
        ASGD_THREADS="$t" cargo test -q -p asgd-tensor --lib -- pool:: parallel::
        ASGD_THREADS="$t" cargo test -q --release -p asgd-tensor --lib -- pool:: parallel::
    done

    echo "== AVX2 leaves vs portable twins: release, 1 and 8 threads =="
    # The three in-process differentials (every leaf against its portable
    # twin, bit for bit) in the profile where an FMA landing outside a
    # #[target_feature] leaf was once split by ThinLTO, with the pool off
    # and with more lanes than cores.
    for t in 1 8; do
        ASGD_THREADS="$t" cargo test -q --release -p asgd-tensor -p asgd-sparse -p asgd-model \
            --lib -- avx2_leaves_and_portable_
    done
    # The softmax computes kernels::exp_f32 (glibc's expf, transcribed) and
    # its 8-lane AVX2 twin, not f32::exp; the goldens under results/ and the
    # determinism FNVs were cut with f32::exp. They hold because all three
    # are bit-equal on every one of the 2^32 floats, which this checks
    # exhaustively (ignored in the plain test pass: ~1 min on two cores).
    cargo test -q --release -p asgd-tensor --lib -- --ignored exp_f32_is_the_host_expf_on_every_input

    echo "== init oracle: Mlp::init against the serial stream, release, 1 and 8 threads =="
    # Mlp::init draws W1 and W2 on the pool, each segment from a clone of
    # the one StdRng stream taken by a serial acceptance scan, generated by
    # the two-pass block generator, W2's class blocks placed class-major;
    # the weights must be the serial layer_init stream bit for bit (W2
    # transposed), the stream left where it leaves it (and the block
    # generator Normal::sample's), with the pool off and with more lanes
    # than cores.
    for t in 1 8; do
        ASGD_THREADS="$t" cargo test -q --release -p asgd-tensor -p asgd-model --lib -- init_oracle_
    done

    echo "== perturbation gate: release, 1 and 8 threads =="
    # Algorithm 2's gate is estimated from the rows each replica changed and
    # swept whole only when its error bound straddles pert_thr: the gate
    # differential holds every replica's estimate to the exact norm at
    # thresholds far off, a relative 1e-3 off (it must decide) and 1e-12 off
    # (it must not), f32 and bf16, sparse and dense merge, dense softmax, and
    # every merge's sides and decision to the exact norms', also through a
    # device loss. With the pool off and more lanes than cores.
    for t in 1 8; do
        ASGD_THREADS="$t" cargo test -q --release -p asgd-core --lib -- gate_differential_
    done

    echo "== sampled replicas are overlays: differential, census, resume, release, 1 and 8 threads =="
    # The differential runs random train / export / import / eviction
    # sequences through pairs of replicas, one an overlay on the imported
    # model, one owning a copy, and holds every loss, delta, gate estimate,
    # exact norm and materialized model equal bit for bit; the overlay's own
    # tests pin its steps and its carried-lane norm. The census: one
    # Trainer::run allocates the global model, its momentum memory and one
    # model-sized buffer per owned (dense-softmax or CROSSBOW) replica, and
    # no other — none for an overlay (at bf16 also the half-size payload);
    # the final model and the resumable state share one; a replica's
    # workspace holds nothing W2-sized (tests/model_buffers.rs's counting
    # allocator). A sampled, sparse-merge run resumed twice from one
    # snapshot gives the final model pinned before replicas were overlays.
    # With the pool off and with more lanes than cores.
    for t in 1 8; do
        ASGD_THREADS="$t" cargo test -q --release -p asgd-core --lib -- \
            overlay_replicas_are_owned_replicas_bit_for_bit
        ASGD_THREADS="$t" cargo test -q --release -p asgd-model --lib -- overlay
        ASGD_THREADS="$t" cargo test -q --release --test model_buffers
        ASGD_THREADS="$t" cargo test -q --release --test checkpoint_resume -- sampled_sparse_resume
    done

    echo "== serving forward on the pool: 1 and 8 threads =="
    # run_session scores 256-row blocks on the calling thread and the pool
    # splits them; every prediction, checksum and conservation check of
    # crates/serve must hold with no split and with more lanes than cores.
    for t in 1 8; do
        ASGD_THREADS="$t" cargo test -q --release -p asgd-serve
    done

    echo "== benchmark harness: builds against crates/*, quick suite is correct =="
    # benchmarks/e2e is a cargo workspace of its own that compiles against
    # the public API of crates/* and checks what it runs (determinism FNV,
    # sample conservation, finite losses, predictions recomputed). A change
    # under crates/ that breaks its build or trips one of its checks must
    # fail here, not at the next benchmark run. Timings are not compared.
    (cd benchmarks/e2e && cargo test --offline -q)
    bash benchmarks/run.sh --quick >/dev/null
    echo "benchmark harness: tests pass, --quick suite exits 0"

    tmp_out="$(mktemp -d)"
    trap 'rm -rf "$tmp_out"' EXIT

    echo "== deterministic artifacts: regenerate and byte-diff =="
    # What `run_all` produces as a pure function of its seeds (simulated
    # time, cost-model outputs, traces) must reproduce byte for byte at the
    # default scale:
    #   fig2_trace.txt           the scheduler's dispatch trace
    #   BENCH_autoscale.json     elastic vs static fleets; the headline claim
    #                            rides along as booleans, asserted below:
    #                            elastic holds the p99 SLO static-min misses,
    #                            at >=1.3x less device-seconds than
    #                            static-max, the Zipf head hitting the cache
    #                            more than half the time
    #   BENCH_serve.json         adaptive vs fixed micro-batching on a
    #                            two-tier server, through the one serving loop
    #   BENCH_sparse_merge.json  >=10x simulated-byte reduction at the full
    #                            Amazon-670k shape (asserted inside the
    #                            experiment) and four paired dense/sparse
    #                            bit-identity gates (f32/bf16 x flat/cluster),
    #                            counted below
    #   BENCH_cluster.json       flat vs hierarchical merge from 1x4 to 64x4
    #                            (the 9.6x headline); the experiment asserts
    #                            the merged bits equal across schedules
    #   sec4_claims.csv          the paper's simulated all-reduce and
    #                            kernel-fusion tables
    artifacts=(fig2_trace.txt BENCH_autoscale.json BENCH_serve.json BENCH_sparse_merge.json
               BENCH_cluster.json sec4_claims.csv)
    ASGD_OUT_DIR="$tmp_out/artifacts" \
        cargo run --release -p asgd-bench --bin run_all "${artifacts[@]}" >/dev/null
    for f in "${artifacts[@]}"; do
        diff -u "results/$f" "$tmp_out/artifacts/$f"
    done
    for claim in elastic_meets_slo staticmin_misses_slo cost_ratio_ok cache_hit_ok; do
        grep -q "\"$claim\": true" "$tmp_out/artifacts/BENCH_autoscale.json" \
            || { echo "autoscale acceptance claim $claim failed"; exit 1; }
    done
    [ "$(grep -c '"bits_equal_dense": true' "$tmp_out/artifacts/BENCH_sparse_merge.json")" -eq 4 ] \
        || { echo "sparse-merge bit-identity gates missing"; exit 1; }
    echo "${#artifacts[@]} artifacts reproduced byte-for-byte, autoscale and sparse-merge claims hold"

    # gate [--debug] [--no-golden] <scenario> <output-file> [VAR=val ...]
    #
    # The determinism gate every probe goes through. Default: run `probe
    # <scenario>` in the release profile at ASGD_THREADS=1 and =8 (separate
    # processes, so each gets its own worker pool), byte-diff the two
    # reports, then byte-diff against the checked-in results/<output-file>
    # (--no-golden skips that last diff). --debug is the cross-profile row:
    # one run in the debug profile, diffed against the golden — optimization
    # level, inlining and (Thin)LTO must not change a single bit.
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
        local scenario="$1" out="$2" t
        shift 2
        rm -rf "$tmp_out/t1" "$tmp_out/t8" "$tmp_out/dbg"
        if [[ -n "$debug" ]]; then
            env "$@" ASGD_OUT_DIR="$tmp_out/dbg" \
                cargo run -p asgd-bench --bin probe -- "$scenario" >/dev/null
            diff -u "results/$out" "$tmp_out/dbg/$out"
            echo "$out: debug profile matches the checked-in golden"
            return
        fi
        for t in 1 8; do
            env "$@" ASGD_THREADS="$t" ASGD_OUT_DIR="$tmp_out/t$t" \
                cargo run --release -p asgd-bench --bin probe -- "$scenario" >/dev/null
        done
        diff -u "$tmp_out/t1/$out" "$tmp_out/t8/$out"
        if [[ -n "$golden" ]]; then
            diff -u "results/$out" "$tmp_out/t8/$out"
        fi
        echo "$out: bit-identical at ASGD_THREADS=1 and =8${golden:+, matches the checked-in golden}"
    }

    echo "== probe determinism gates =="
    # One row per gate; what each scenario pins, its knobs and the DESIGN.md
    # section that states the contract are tabulated in the module docs of
    # crates/bench/src/probe. The output-file column is checked against the
    # names the scenarios produce by `cargo test -p asgd-bench`.
    cluster=(ASGD_MEGA_LIMIT=3 ASGD_SCALE=0.002 ASGD_HIDDEN=16 ASGD_BMAX=16
             ASGD_BATCHES_PER_MEGA=64 ASGD_DEVICES_PER_SERVER=4)
    gate chaos chaos_probe_7.txt ASGD_MEGA_LIMIT=4 ASGD_FAULT_SEED=7
    gate --no-golden chaos chaos_probe_23.txt ASGD_MEGA_LIMIT=4 ASGD_FAULT_SEED=23
    gate chaos chaos_probe_7_bf16.txt ASGD_MEGA_LIMIT=4 ASGD_FAULT_SEED=7 ASGD_PRECISION=bf16
    # 256 replicas at 64x4.
    gate cluster cluster_probe_7_64x4.txt "${cluster[@]}" ASGD_SERVERS=64
    gate --no-golden cluster cluster_probe_7_4x4_bf16.txt "${cluster[@]}" \
        ASGD_SERVERS=4 ASGD_PRECISION=bf16 ASGD_FAULT_SEED=7
    gate --no-golden cluster cluster_probe_23_4x4_bf16.txt "${cluster[@]}" \
        ASGD_SERVERS=4 ASGD_PRECISION=bf16 ASGD_FAULT_SEED=23
    gate serve serve_probe_11_7.txt ASGD_SERVE_SEED=11 ASGD_FAULT_SEED=7
    gate --debug serve serve_probe_11_7.txt ASGD_SERVE_SEED=11 ASGD_FAULT_SEED=7
    gate autoscale autoscale_probe_7_7.txt ASGD_SERVE_SEED=7 ASGD_FAULT_SEED=7
    gate autoscale autoscale_probe_23_5.txt ASGD_SERVE_SEED=23 ASGD_FAULT_SEED=5
    gate autoscale autoscale_probe_7_7_bf16.txt ASGD_SERVE_SEED=7 ASGD_FAULT_SEED=7 \
        ASGD_PRECISION=bf16
    gate sparse_merge sparse_merge_probe_7.txt ASGD_MEGA_LIMIT=4
    gate sparse_merge sparse_merge_probe_7_bf16.txt ASGD_MEGA_LIMIT=4 ASGD_PRECISION=bf16
    gate --debug sparse_merge sparse_merge_probe_7.txt ASGD_MEGA_LIMIT=4
    # The fused sparse pass under the two-level schedule on a 2x2 cluster
    # (plan 7 there: merge OOM, a device loss that leaves server 1 one
    # survivor, an inter-node stall); the probe itself exits non-zero unless
    # sparse == dense.
    gate --no-golden sparse_merge sparse_merge_probe_7_2x2.txt ASGD_MEGA_LIMIT=4 \
        ASGD_SERVERS=2 ASGD_DEVICES_PER_SERVER=2
    gate --no-golden sparse_merge sparse_merge_probe_7_2x2_bf16.txt ASGD_MEGA_LIMIT=4 \
        ASGD_SERVERS=2 ASGD_DEVICES_PER_SERVER=2 ASGD_PRECISION=bf16
    gate kernel kernel_probe.txt
    gate --debug kernel kernel_probe.txt
    gate sampled sampled_probe.txt ASGD_MEGA_LIMIT=4
    gate --debug sampled sampled_probe.txt ASGD_MEGA_LIMIT=4
fi

echo "CI OK"
