#!/usr/bin/env bash
# Replicated-read-tier smoke: drives examples/cluster_node the way an
# operator would run the tier, and checks the properties the design
# promises.
#
#   1. Start a coordinator and two replicas on ephemeral ports; the
#      replicas subscribe on the coordinator's query port.
#   2. Release an updatable oracle on the coordinator; wait until both
#      replicas report the epoch applied; `drive query` all three nodes
#      and diff the hex-float answers — bit-identity, not approximation.
#   3. Apply a weight-update epoch (ships as a delta) and re-check
#      three-way bit-identity at the new epoch.
#   4. kill -9 one replica mid-service, run another update epoch while
#      it is down, restart it (late joiner: its catch-up is the handle's
#      current image), and check bit-identity again.
#
# Usage: tools/replica_smoke.sh [build-dir]   (default: build)

set -euo pipefail

BUILD_DIR="${1:-build}"
NODE="${BUILD_DIR}/examples/cluster_node"

if [[ ! -x "${NODE}" ]]; then
  echo "error: ${NODE} not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "${pid}" 2>/dev/null || true
  done
  rm -rf "${WORK}"
}
trap cleanup EXIT

# Waits for a node's READY line and echoes it.
ready_line() {  # <logfile>
  for _ in $(seq 1 100); do
    if grep -q '^READY' "$1" 2>/dev/null; then
      grep '^READY' "$1" | head -n1
      return 0
    fi
    sleep 0.1
  done
  echo "error: node never printed READY ($1)" >&2
  exit 1
}

echo "== start coordinator + two replicas =="
"${NODE}" coordinator >"${WORK}/coord.log" 2>&1 &
PIDS+=($!); disown
COORD_QUERY="$(ready_line "${WORK}/coord.log" | sed -n 's/.*query=\([0-9]*\).*/\1/p')"
echo "   coordinator: query=${COORD_QUERY}"

"${NODE}" replica "${COORD_QUERY}" r1 >"${WORK}/r1.log" 2>&1 &
R1_PID=$!
PIDS+=("${R1_PID}"); disown
R1_QUERY="$(ready_line "${WORK}/r1.log" | sed -n 's/.*query=\([0-9]*\).*/\1/p')"

"${NODE}" replica "${COORD_QUERY}" r2 >"${WORK}/r2.log" 2>&1 &
R2_PID=$!
PIDS+=("${R2_PID}"); disown
R2_QUERY="$(ready_line "${WORK}/r2.log" | sed -n 's/.*query=\([0-9]*\).*/\1/p')"
echo "   replicas: r1 query=${R1_QUERY}  r2 query=${R2_QUERY}"

echo "== release on the coordinator; replicas must converge =="
HANDLE="$("${NODE}" drive "${COORD_QUERY}" release live | awk '{print $2}')"
"${NODE}" drive "${R1_QUERY}" wait_lsn 1 >/dev/null
"${NODE}" drive "${R2_QUERY}" wait_lsn 1 >/dev/null

check_identity() {  # <label>
  "${NODE}" drive "${COORD_QUERY}" query "${HANDLE}" >"${WORK}/coord.q"
  "${NODE}" drive "${R1_QUERY}" query "${HANDLE}" >"${WORK}/r1.q"
  "${NODE}" drive "${R2_QUERY}" query "${HANDLE}" >"${WORK}/r2.q"
  diff "${WORK}/coord.q" "${WORK}/r1.q" >/dev/null || {
    echo "error: r1 diverges from the coordinator ($1)" >&2; exit 1; }
  diff "${WORK}/coord.q" "${WORK}/r2.q" >/dev/null || {
    echo "error: r2 diverges from the coordinator ($1)" >&2; exit 1; }
  echo "   bit-identical across all three nodes ($1)"
}
check_identity "post-release"

echo "== update epoch ships as a delta; identity must hold at LSN 2 =="
"${NODE}" drive "${COORD_QUERY}" update "${HANDLE}" >/dev/null
"${NODE}" drive "${R1_QUERY}" wait_lsn 2 >/dev/null
"${NODE}" drive "${R2_QUERY}" wait_lsn 2 >/dev/null
check_identity "post-update"

echo "== kill -9 r2, update while it is down, restart as late joiner =="
kill -9 "${R2_PID}"
wait "${R2_PID}" 2>/dev/null || true
"${NODE}" drive "${COORD_QUERY}" update "${HANDLE}" >/dev/null
"${NODE}" drive "${R1_QUERY}" wait_lsn 3 >/dev/null

"${NODE}" replica "${COORD_QUERY}" r2-reborn >"${WORK}/r2b.log" 2>&1 &
PIDS+=($!); disown
R2_QUERY="$(ready_line "${WORK}/r2b.log" | sed -n 's/.*query=\([0-9]*\).*/\1/p')"
"${NODE}" drive "${R2_QUERY}" wait_lsn 3 >/dev/null
check_identity "late-joiner"

echo "OK: replica smoke passed"
