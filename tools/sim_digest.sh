#!/usr/bin/env bash
# Writes every simulated output a behaviour-preserving refactor must keep
# byte-identical into one directory, so that comparing two builds is one
# `diff -r`:
#
#   tools/sim_digest.sh build-parent /tmp/digest-parent
#   tools/sim_digest.sh build        /tmp/digest-change
#   diff -r /tmp/digest-parent /tmp/digest-change    # empty = identical
#
# <build-dir> is a configured and built tree of this repository (the
# binaries it needs: tools/check_campaign, bench/obs_smoke, kv_service,
# fig_wan_topologies, fig_gray_failure). <out-dir> is
# created; files already in it are overwritten. It takes about a minute
# on one core.
#
# Contents:
#   campaign_<corpus>_k<rings>.txt  check_campaign over tests/seeds/<corpus>
#                                   at --rings 1 and 4, without artifacts
#   <smoke>.txt, <smoke>/           a bench smoke's stdout+stderr and the
#                                   BENCH_*.json / BENCH_*.csv it wrote;
#                                   obs_smoke/ also keeps its healthy-run
#                                   flight record, the one deterministic
#                                   flight_to_json output with a merged
#                                   registry in it
#   fig_gray_failure.txt            fig_gray_failure's stdout+stderr
#
# Each .txt ends with the run's exit status: a run that fails is recorded
# and the digest goes on, so the diff shows every output that moved.
#
# The benches run from inside <out-dir> with a relative artifact dir, so
# the paths they print do not depend on it; the "artifacts: <path>" lines
# are dropped all the same (the artifacts themselves are in the digest).
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "$1" && pwd)"
mkdir -p "$2"
out="$(cd "$2" && pwd)"

# record <command...>: its stdout+stderr, then "exit <status>".
record() {
  local status=0
  "$@" 2>&1 || status=$?
  echo "exit ${status}"
}
strip_paths() { grep -v '^artifacts: ' || true; }

for corpus in regression storage; do
  for rings in 1 4; do
    echo "campaign ${corpus} --rings ${rings}" >&2
    record "${build}/tools/check_campaign" --no-artifacts --seeds 0 \
      --seed-file "${root}/tests/seeds/${corpus}.seeds" --rings "${rings}" |
      strip_paths >"${out}/campaign_${corpus}_k${rings}.txt"
  done
done

cd "${out}"

# smoke <name> <bench> [args...]
smoke() {
  local name="$1" bench="$2"
  shift 2
  echo "smoke ${name}" >&2
  rm -rf "${name}"
  mkdir -p "${name}"
  ACCELRING_BENCH_DIR="${name}" record "${build}/bench/${bench}" "$@" |
    strip_paths >"${name}.txt"
  find "${name}" -type f ! -name 'BENCH_*.json' ! -name 'BENCH_*.csv' \
    ! -name 'obs_smoke_healthy_*.json' -delete
}

smoke obs_smoke obs_smoke
smoke kv_1shard kv_service --smoke --shards 1
smoke kv_4shard kv_service --smoke --shards 4
smoke kv_1shard_durable kv_service --smoke --shards 1 --durable
smoke wan_topologies fig_wan_topologies --smoke

echo "fig_gray_failure" >&2
record "${build}/bench/fig_gray_failure" | strip_paths >fig_gray_failure.txt

echo "digest written to ${out}" >&2
