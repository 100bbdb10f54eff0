#!/usr/bin/env bash
# The one command of the benchmark.
#
#   benchmarks/run.sh                      every workload: end-to-end pass, then traced pass
#   benchmarks/run.sh --workload NAME      one workload
#   benchmarks/run.sh --seed N             inputs from another seed (default 42)
#   benchmarks/run.sh --quick              tiny specs, whole suite in seconds (smoke use)
#   benchmarks/run.sh --aa                 the suite twice on one build, then `compare`
#   benchmarks/run.sh --record             append this run to benchmarks/history.jsonl
#
# With --trace 0|1 it is the command of BENCHMARK.json: one workload, one pass,
# one JSON result line last on standard output:
#   benchmarks/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."

workload="" seed=42 seconds=10 trace="" quick="" aa="" record=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --quick) quick="--quick"; shift ;;
    --aa) aa=1; shift ;;
    --record) record=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Kernel worker threads: pinned and recorded, so two hosts' numbers say what
# they ran on. The harness starts no threads of its own.
nproc=$(nproc)
export ASGD_THREADS="${ASGD_THREADS:-$(( nproc < 4 ? nproc : 4 ))}"

# The harness is its own cargo workspace; the repository's is never touched.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmarks/e2e/target}"
cargo build --release --offline --quiet --manifest-path benchmarks/e2e/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/asgd-e2e"

if [ -n "$trace" ]; then
  exec "$bin" bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" $quick
fi

if [ -n "$workload" ]; then
  names="$workload"
else
  names=$("$bin" list | cut -f1)
fi

# One suite: each workload in its own process, untraced pass first.
suite() {
  local out="$1" failed=0 name
  for name in $names; do
    for pass in 0 1; do
      "$bin" bench --workload "$name" --seed "$seed" --seconds "$seconds" --trace "$pass" \
        --out "$out" $quick || failed=1
    done
  done
  return $failed
}

stamp=(--sha "$(git rev-parse HEAD 2>/dev/null || echo unknown)"
       --rustc "$(rustc --version)" --when "$(date -u +%Y-%m-%dT%H:%M:%SZ)")
status=0
if [ -n "$aa" ]; then
  suite benchmarks/out/a || status=1
  suite benchmarks/out/b || status=1
  "$bin" collect --out benchmarks/out/a "${stamp[@]}"
  "$bin" collect --out benchmarks/out/b "${stamp[@]}"
  "$bin" compare benchmarks/out/a/suite.json benchmarks/out/b/suite.json || status=1
else
  suite benchmarks/out || status=1
  "$bin" collect --out benchmarks/out "${stamp[@]}" \
    ${record:+--record benchmarks/history.jsonl}
fi
exit $status
