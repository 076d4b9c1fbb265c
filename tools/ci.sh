#!/usr/bin/env bash
# The full local CI gate: plain, ASan, and UBSan builds, every test suite,
# and the fast fault-injection campaign. Sanitized builds live in their own
# trees (sanitizers change the ABI of everything they touch).
#
#   tools/ci.sh              # everything (~a few minutes)
#   tools/ci.sh --fast       # plain build + tests + check-fast + bench smokes
#
# Any failure stops the script with a nonzero exit.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

GENERATOR=()
command -v ninja >/dev/null 2>&1 && GENERATOR=(-G Ninja)

configure() {
  local dir="$1" src="$2"
  shift 2
  echo "=== ${dir}: configure ==="
  # Only pick a generator for a fresh tree; an existing cache keeps its own.
  local gen=("${GENERATOR[@]}")
  [[ -f "${dir}/CMakeCache.txt" ]] && gen=()
  cmake -B "${dir}" -S "${src}" "${gen[@]}" "$@"
}

configure_and_test() {
  local dir="$1"
  shift
  configure "${dir}" . "$@"
  echo "=== ${dir}: build ==="
  cmake --build "${dir}" -j
  echo "=== ${dir}: test ==="
  ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)"
}

configure_and_test build

echo "=== build: check-fast ==="
cmake --build build --target check-fast

# Gray-failure acceptance: a 10x CPU straggler must be quarantined and the
# ring's agreed throughput must recover to >= 80% of the fault-free
# baseline (the campaign above already audits that no HEALTHY member is
# ever quarantined; this checks the flip side — the sick one actually is).
echo "=== build: gray-failure A/B acceptance ==="
cmake --build build --target fig_gray_failure
./build/bench/fig_gray_failure

# Bench smokes: each stage builds one bench, runs it short into a fresh
# artifact dir under build/, and checks the BENCH_*.json it emits with
# tools/validate_bench_json.py (populated, internally consistent latency
# histograms; an unserializable registry fails).
#
#   smoke <title> <target> <artifact dir> <bench args> <artifacts>
#
# <bench args> and <artifacts> split on spaces; artifacts may be globs,
# relative to the artifact dir.
smoke() {
  local title="$1" target="$2" dir="build/$3" args="$4" artifacts="$5"
  echo "=== build: ${title} ==="
  cmake --build build --target "${target}"
  rm -rf "${dir}"
  mkdir -p "${dir}"
  # shellcheck disable=SC2086  # word splitting of args is intended
  ACCELRING_BENCH_DIR="${dir}" "./build/bench/${target}" ${args} >/dev/null
  local files=() pattern
  for pattern in ${artifacts}; do
    # shellcheck disable=SC2206  # glob expansion is intended
    files+=("${dir}"/${pattern})
  done
  python3 tools/validate_bench_json.py "${files[@]}"
}

# Observability: one single-ring point and one K=4 multiring point; the
# end-to-end guard that the metrics layer records (the determinism tests
# prove it records without perturbing).
smoke "obs artifact validation" obs_smoke obs_artifacts "" \
  "BENCH_obs_smoke_1ring.json BENCH_obs_smoke_4ring.json"
# KV service: a short million-key-space session workload end to end (rsm
# replicas, lease reads, exactly-once frontends over the merged stream),
# single-shard and K=4. The kv-labelled ctest suite covers the corners.
smoke "kv service smoke, 1 shard" kv_service kv_1shard_artifacts \
  "--smoke --shards 1" BENCH_kv_smoke_1shard.json
smoke "kv service smoke, 4 shards" kv_service kv_4shard_artifacts \
  "--smoke --shards 4" BENCH_kv_smoke_4shard.json
# The WAN, storage and migration scenarios (and their seed corpora) run in
# check_campaign_test above; these rows smoke the benches of those stacks:
# the topology classes (LAN/metro/regional), the KV smoke with per-node WAL
# + checkpoint persistence, and the migration handoff phases.
smoke "topology bench smoke" fig_wan_topologies wan_artifacts "--smoke" \
  "BENCH_wan_*.json"
smoke "durable kv smoke" kv_service storage_artifacts \
  "--smoke --shards 1 --durable" BENCH_kv_smoke_1shard_durable.json
smoke "handoff bench smoke" fig_migration migration_artifacts "--smoke" \
  BENCH_migration_smoke.json

# Wall-clock suite acceptance: bench/suite is a standalone project over the
# library sources, so a src/ change can break it without breaking the main
# tree. Build it, then run each workload once, short and traced. accel_bench
# exits nonzero when a correctness check fails: FIFO order, prefix-hash
# agreement and completeness of the ring over real UDP, and the KV repeat
# counts. The per-layer lines it prints (wire.*, engine.*, ...) show the
# hot-path cost of the change under test.
configure build-bench bench/suite -DCMAKE_BUILD_TYPE=RelWithDebInfo
echo "=== build-bench: accel_bench smoke ==="
cmake --build build-bench -j --target accel_bench
for workload in ring_agreed_1350 ring_safe_200 sim_kv_k4; do
  ./build-bench/accel_bench --workload "${workload}" --seed 1 --seconds 3 \
    --trace 1
done

if [[ "${FAST}" == "0" ]]; then
  configure_and_test build-asan -DACCELRING_SANITIZE=address
  configure_and_test build-ubsan -DACCELRING_SANITIZE=undefined
fi

echo "=== ci.sh: all green ==="
