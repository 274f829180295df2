#!/usr/bin/env bash
# Repeats the threaded service suites under CPU contention, so a test that
# depends on how threads get scheduled fails here every time instead of
# intermittently elsewhere.
#
# Usage: tools/run_contention.sh BUILD_DIR MODE [REPEATS]
#   MODE oversubscribed  two busy loops per CPU compete with the suites
#   MODE pinned          suites and two busy loops all share CPU 0
#   REPEATS              ctest --repeat until-fail count (default 50)
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,10p' "$0" >&2
  exit 2
fi
build_dir=$1
mode=$2
repeats=${3:-50}
suites='fleet_engine_test|fleet_stress_test|fleet_overload_test|fleet_storage_health_test|spsc_ring_test'

busy_pids=()
stop_busy() {
  for pid in "${busy_pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap stop_busy EXIT

case "$mode" in
  oversubscribed)
    loops=$(( $(nproc) * 2 ))
    pin=()
    ;;
  pinned)
    loops=2
    pin=(taskset -c 0)
    ;;
  *)
    echo "unknown mode: $mode (oversubscribed|pinned)" >&2
    exit 2
    ;;
esac

for (( i = 0; i < loops; ++i )); do
  ${pin[@]+"${pin[@]}"} bash -c 'while :; do :; done' &
  busy_pids+=($!)
done

cd "$build_dir"
${pin[@]+"${pin[@]}"} ctest --output-on-failure -j "$(nproc)" \
  --repeat "until-fail:${repeats}" -R "$suites"
