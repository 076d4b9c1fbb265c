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

# Observability acceptance: the obs smoke bench (one single-ring point and
# one K=4 multiring point) must emit machine-readable BENCH_*.json whose
# latency histograms are populated and internally consistent. This is the
# end-to-end guard that the metrics layer is actually recording — the
# determinism tests above prove it records without perturbing.
echo "=== build: obs artifact validation ==="
cmake --build build --target obs_smoke
OBS_DIR="build/obs_artifacts"
rm -rf "${OBS_DIR}"
mkdir -p "${OBS_DIR}"
ACCELRING_BENCH_DIR="${OBS_DIR}" ./build/bench/obs_smoke >/dev/null
python3 tools/validate_bench_json.py \
  "${OBS_DIR}/BENCH_obs_smoke_1ring.json" \
  "${OBS_DIR}/BENCH_obs_smoke_4ring.json"

# KV service acceptance: the sharded KV smoke (single-shard and K=4) must
# complete a short million-key-space session workload end to end — rsm
# replicas, lease reads, exactly-once frontends over the merged stream —
# and emit validating artifacts. The kv-labelled ctest suite above covers
# the protocol corners; this guards the full-stack wiring and the bench
# artifact contract.
echo "=== build: kv service smoke ==="
cmake --build build --target kv_service
KV_DIR="build/kv_artifacts"
rm -rf "${KV_DIR}"
mkdir -p "${KV_DIR}"
ACCELRING_BENCH_DIR="${KV_DIR}" ./build/bench/kv_service --smoke --shards 1 >/dev/null
ACCELRING_BENCH_DIR="${KV_DIR}" ./build/bench/kv_service --smoke --shards 4 >/dev/null
python3 tools/validate_bench_json.py \
  "${KV_DIR}/BENCH_kv_smoke_1shard.json" \
  "${KV_DIR}/BENCH_kv_smoke_4shard.json"

# The WAN, storage and migration campaign scenarios (and their seed
# corpora) run in check_campaign_test above; these stages smoke the benches
# of the same stacks.
#
# WAN acceptance: the topology-class bench (LAN/metro/regional in --smoke)
# emits validating BENCH_wan_*.json artifacts.
echo "=== build: topology bench smoke ==="
cmake --build build --target fig_wan_topologies
WAN_DIR="build/wan_artifacts"
rm -rf "${WAN_DIR}"
mkdir -p "${WAN_DIR}"
ACCELRING_BENCH_DIR="${WAN_DIR}" ./build/bench/fig_wan_topologies --smoke >/dev/null
python3 tools/validate_bench_json.py "${WAN_DIR}"/BENCH_wan_*.json

# Storage acceptance: the KV smoke with per-node WAL + checkpoint
# persistence enabled emits a validating artifact.
echo "=== build: durable kv smoke ==="
STORAGE_DIR="build/storage_artifacts"
rm -rf "${STORAGE_DIR}"
mkdir -p "${STORAGE_DIR}"
ACCELRING_BENCH_DIR="${STORAGE_DIR}" \
  ./build/bench/kv_service --smoke --shards 1 --durable >/dev/null
python3 tools/validate_bench_json.py \
  "${STORAGE_DIR}/BENCH_kv_smoke_1shard_durable.json"

# Migration acceptance: the migration bench (handoff latency/throughput
# phases in --smoke) emits a validating artifact.
echo "=== build: handoff bench smoke ==="
cmake --build build --target fig_migration
MIGRATION_DIR="build/migration_artifacts"
rm -rf "${MIGRATION_DIR}"
mkdir -p "${MIGRATION_DIR}"
ACCELRING_BENCH_DIR="${MIGRATION_DIR}" \
  ./build/bench/fig_migration --smoke >/dev/null
python3 tools/validate_bench_json.py \
  "${MIGRATION_DIR}/BENCH_migration_smoke.json"

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
