#!/usr/bin/env bash
# The full local CI gate: plain, ASan, and UBSan builds, every test suite,
# and the fast fault-injection campaign. Sanitized builds live in their own
# trees (sanitizers change the ABI of everything they touch).
#
#   tools/ci.sh              # everything (~a few minutes)
#   tools/ci.sh --fast       # plain build + tests + check-fast + simulated
#                            # digest + accel_bench smokes
#
# The full run also compares this checkout's simulated output and its
# wall-clock bench/suite numbers against its parent commit's (HEAD^), so run
# it with the change under test committed.
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

# The main tree needs no Google Benchmark; disabling the package makes a
# find_package(benchmark REQUIRED) that creeps back in fail configure.
NO_BENCHMARK=(-DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON)

configure_and_test build "${NO_BENCHMARK[@]}"

# The loopback ring's token visits send their data in segmented bursts, so
# node 0 sends several data datagrams per send call; one per call means the
# batching silently stopped.
echo "=== build: udp_ring batching ==="
./build/examples/udp_ring 1 | tee build/udp_ring.txt
python3 - build/udp_ring.txt <<'EOF'
import re, sys
m = re.search(r"p0 .*data datagrams=(\d+) in send calls=(\d+)",
              open(sys.argv[1]).read())
datagrams, calls = int(m.group(1)), int(m.group(2))
per_call = datagrams / max(calls, 1)
print(f"udp_ring p0 data datagrams per send call = {per_call:.2f}")
sys.exit(0 if per_call >= 2 else
         "below 2: the group path is not batching its sends")
EOF

echo "=== build: check-fast ==="
cmake --build build --target check-fast

# Simulated outputs, run once: tools/sim_digest.sh runs the campaign seed
# corpora at K = 1 and 4, every simulated bench smoke (obs_smoke, the KV
# service at 1 and 4 shards and with per-node WAL + checkpoint persistence,
# the WAN topology classes) and fig_gray_failure into build/sim_digest.
# Every run must exit 0: for fig_gray_failure that is the gray-failure A/B
# acceptance (a 10x CPU straggler is quarantined and agreed throughput
# recovers to >= 80% of the fault-free baseline; the campaign audits that
# no HEALTHY member is ever quarantined). Every BENCH_*.json a smoke wrote
# must pass tools/validate_bench_json.py (populated, internally consistent
# latency histograms; an unserializable registry fails). The full run
# diffs the same directory against the parent commit's (parent_digest).
echo "=== build: simulated digest ==="
rm -rf build/sim_digest
tools/sim_digest.sh build build/sim_digest
for out in build/sim_digest/*.txt; do
  status="$(tail -n 1 "${out}")"
  if [[ "${status}" != "exit 0" ]]; then
    echo "${out}: ${status}" >&2
    exit 1
  fi
done
python3 tools/validate_bench_json.py build/sim_digest/*/BENCH_*.json

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
    --trace 1 | tee "build-bench/smoke_${workload}.txt"
done
# The ring on 127.0.0.1 multicasts its data and packs its 200 B messages:
# about 0.175 datagrams per message, token share included. Unpacked it reads
# about 1.05, and unicast fan-out to the two other nodes 2.05, so a silent
# loss of either packing or multicast fails here.
python3 - build-bench/smoke_ring_safe_200.txt <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
per_msg = json.loads(lines[-1])["metrics"]["transport.datagrams_per_msg"]["value"]
print(f"ring_safe_200 transport.datagrams_per_msg = {per_msg}")
sys.exit(0 if per_msg <= 0.5 else
         "above 0.5: the ring is not packing or not multicasting")
EOF
# On a CPU with PCLMULQDQ, util::crc32 folds every input of 64 B or more, so
# decoding a 1350 B message costs about 2x a 200 B one; the table loop
# alone reads about 5. Above 3 there, the fold has silently stopped running.
python3 - build-bench/smoke_ring_agreed_1350.txt <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
m = json.loads(lines[-1])["metrics"]
ratio = (m["wire.decode_data_1350_ns"]["value"] /
         m["wire.decode_data_200_ns"]["value"])
print(f"wire.decode_data_1350_ns / wire.decode_data_200_ns = {ratio:.2f}")
clmul = "pclmulqdq" in open("/proc/cpuinfo").read().split()
sys.exit(0 if ratio <= 3 or not clmul else
         "above 3 on a CPU with pclmulqdq: the CRC fold is not running")
EOF
# sim_campaign is not in BENCHMARK.json, but it runs every campaign scenario
# under the oracles and checks that its repeated units reproduce the same
# counts, so a simulator change that breaks either fails here.
./build-bench/accel_bench --workload sim_campaign --seed 1 --seconds 3 \
  --trace 0

# Parent digest: simulated output is deterministic, so a change that does
# not mean to move it must leave tools/sim_digest.sh's output byte-identical
# to the parent commit's. The parent is checked out as a detached worktree
# under build-parent/ (ignored), built, digested with this tree's script,
# diffed against build/sim_digest from above, and removed again.
parent_digest() {
  local targets=(check_campaign obs_smoke kv_service fig_wan_topologies
                 fig_gray_failure)
  local tree=build-parent/src
  echo "=== build-parent: digest against HEAD^ ==="
  git worktree remove --force "${tree}" 2>/dev/null || true
  git worktree prune
  git worktree add --detach "${tree}" HEAD^
  trap 'git worktree remove --force build-parent/src' EXIT
  configure build-parent/build "${tree}" "${NO_BENCHMARK[@]}"
  cmake --build build-parent/build -j "$(nproc)" --target "${targets[@]}"
  rm -rf build-parent/digest
  tools/sim_digest.sh build-parent/build build-parent/digest
  diff -r build-parent/digest build/sim_digest
  wall_clock_gate "${tree}"
  git worktree remove --force "${tree}"
  trap - EXIT
}

# Wall-clock gate: the parent's bench/suite, built from the worktree, and
# this tree's build-bench run every BENCHMARK.json workload in alternating
# pairs, and compare.py sets them side by side. Three pairs on a shared
# host rarely resolve a speed-up (compare.py wants ten), so an `unresolved`
# row passes; a `worse` row, a regression beyond the metric's bound with
# both sides tight, fails. accel_bench itself fails a run whose correctness
# checks fail.
wall_clock_gate() {
  local tree="$1" gate=build-parent/gate workload seed side
  echo "=== build-parent: wall-clock gate against HEAD^ ==="
  local start=${SECONDS}
  configure build-parent/bench "${tree}/bench/suite" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-parent/bench -j "$(nproc)" --target accel_bench
  rm -rf "${gate}"
  mkdir -p "${gate}/parent" "${gate}/change"
  local workloads
  workloads="$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
  for workload in ${workloads}; do
    for seed in 1 2 3; do
      # Alternate which side runs first, so drift on the host hits both.
      local sides=(parent change)
      ((seed % 2 == 0)) && sides=(change parent)
      for side in "${sides[@]}"; do
        local bin=build-bench/accel_bench
        [[ "${side}" == parent ]] && bin=build-parent/bench/accel_bench
        # A failed run names itself and its errors, then fails the gate.
        if ! "${bin}" --workload "${workload}" --seed "${seed}" \
          --seconds 10 --out "${gate}/${side}" >/dev/null; then
          echo "wall-clock gate: ${workload} seed ${seed} failed on the" \
            "${side} side; its errors:" >&2
          python3 -c 'import json, sys
print(json.dumps(json.load(open(sys.argv[1]))["errors"], indent=1))' \
            "${gate}/${side}/${workload}.seed${seed}.json" >&2 || true
          exit 1
        fi
      done
    done
  done
  python3 bench/suite/compare.py --a "${gate}/parent" --b "${gate}/change" \
    | tee "${gate}/compare.txt" || true
  echo "wall-clock gate: $((SECONDS - start)) s"
  if grep -E ' worse \(bound|runs with failures' "${gate}/compare.txt"; then
    echo "wall-clock gate: a metric is worse than at the parent" >&2
    exit 1
  fi
}

if [[ "${FAST}" == "0" ]]; then
  parent_digest
  configure_and_test build-asan -DACCELRING_SANITIZE=address \
    "${NO_BENCHMARK[@]}"
  configure_and_test build-ubsan -DACCELRING_SANITIZE=undefined \
    "${NO_BENCHMARK[@]}"
fi

echo "=== ci.sh: all green ==="
