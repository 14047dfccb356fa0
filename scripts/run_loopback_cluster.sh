#!/usr/bin/env bash
# Spins up the paper's 2-group x 3-replica cluster as SEVEN separate OS
# processes (6 wbamd replicas + 1 wbamd client) over loopback TCP, waits
# for the client's workload to complete, and validates that every replica
# delivered the identical totally-ordered sequence (the workload addresses
# every message to both groups, so all six sequences must match).
#
#   scripts/run_loopback_cluster.sh [BUILD_DIR] [PROTO] [MSGS]
#
# Robustness: ALL child processes (replicas and client) run in the
# background and are killed-and-reaped by an EXIT trap, so no orphan can
# outlive a failure; and because the randomized base port can collide
# with a busy port on a shared CI host (a bind failure aborts that wbamd
# immediately), the whole launch retries on a fresh port range before the
# run is declared failed.
#
# Exit 0 on a validated run; non-zero on incomplete workload or divergent
# delivery sequences.
set -euo pipefail

BUILD_DIR=${1:-build}
PROTO=${2:-wbcast}
MSGS=${3:-25}
NGROUPS=2
GROUP_SIZE=3
# Skeen's classic protocol assumes reliable singleton groups.
if [[ "$PROTO" == "skeen" ]]; then GROUP_SIZE=1; fi
REPLICAS=$((NGROUPS * GROUP_SIZE))
RUN_MS=${WBAMD_RUN_MS:-8000}
ATTEMPTS=${WBAMD_PORT_ATTEMPTS:-4}

WBAMD="$BUILD_DIR/wbamd"
if [[ ! -x "$WBAMD" ]]; then
    echo "error: $WBAMD not built (cmake --build $BUILD_DIR --target wbamd)" >&2
    exit 2
fi

DIR=$(mktemp -d)
PIDS=()
kill_children() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    for pid in "${PIDS[@]:-}"; do wait "$pid" 2>/dev/null || true; done
    PIDS=()
}
cleanup() {
    kill_children
    rm -rf "$DIR"
}
trap cleanup EXIT

launch_attempt() {
    local base_port=$1
    rm -f "$DIR"/replica_*.txt
    for ((p = 0; p < REPLICAS; p++)); do
        "$WBAMD" --pid="$p" --proto="$PROTO" --groups=$NGROUPS \
            --group-size=$GROUP_SIZE --clients=1 --base-port="$base_port" \
            --run-ms="$RUN_MS" --out="$DIR/replica_$p.txt" \
            >"$DIR/wbamd_$p.log" 2>&1 &
        PIDS+=($!)
    done

    # A bind collision aborts the affected wbamd within milliseconds; give
    # the replicas a beat and check they are all still serving.
    sleep 0.4
    for pid in "${PIDS[@]}"; do
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "-- a replica died at startup (port collision on base" \
                 "$base_port?); retrying on a fresh range" >&2
            kill_children
            return 2
        fi
    done

    # The client exits as soon as every multicast is acknowledged by both
    # groups; its exit code is the workload verdict.
    local client_status=0
    "$WBAMD" --pid=$REPLICAS --proto="$PROTO" --groups=$NGROUPS \
        --group-size=$GROUP_SIZE --clients=1 --base-port="$base_port" \
        --run-ms="$RUN_MS" --msgs="$MSGS" &
    PIDS+=($!)
    wait "${PIDS[-1]}" || client_status=$?

    # SIGABRT from the bind assertion = the CLIENT hit the collision.
    if [[ $client_status -eq 134 ]]; then
        echo "-- client died at startup (port collision on base" \
             "$base_port?); retrying on a fresh range" >&2
        kill_children
        return 2
    fi

    # Replicas keep serving until their deadline, then dump their sequences.
    for pid in "${PIDS[@]}"; do wait "$pid" || true; done
    PIDS=()

    if [[ $client_status -ne 0 ]]; then
        echo "FAIL: client workload incomplete (status $client_status)" >&2
        return 1
    fi

    # Every message went to both groups: all replica delivery sequences
    # must be identical (atomic multicast total order), and complete.
    local lines
    lines=$(wc -l < "$DIR/replica_0.txt")
    if [[ "$lines" -ne "$MSGS" ]]; then
        echo "FAIL: replica 0 delivered $lines/$MSGS" >&2
        return 1
    fi
    for ((p = 1; p < REPLICAS; p++)); do
        if ! cmp -s "$DIR/replica_0.txt" "$DIR/replica_$p.txt"; then
            echo "FAIL: replica $p's delivery sequence diverges from replica 0" >&2
            diff "$DIR/replica_0.txt" "$DIR/replica_$p.txt" | head -10 >&2 || true
            return 1
        fi
    done
    return 0
}

for ((attempt = 1; attempt <= ATTEMPTS; attempt++)); do
    # Randomized base port keeps parallel CI jobs and repeated runs from
    # colliding on a fixed range; stays below 32768 so it cannot collide
    # with the kernel's ephemeral port range either.
    BASE_PORT=$((20000 + (RANDOM % 12000)))
    echo "== wbamd loopback cluster: $PROTO, ${NGROUPS}x${GROUP_SIZE}" \
         "replicas, base port $BASE_PORT, $MSGS msgs" \
         "(attempt $attempt/$ATTEMPTS) =="
    STATUS=0
    launch_attempt "$BASE_PORT" || STATUS=$?
    if [[ $STATUS -eq 0 ]]; then
        echo "PASS: $REPLICAS replicas delivered the identical" \
             "$MSGS-message sequence"
        exit 0
    fi
    if [[ $STATUS -ne 2 ]]; then
        exit "$STATUS"  # genuine workload/validation failure: do not mask
    fi
done
echo "FAIL: could not find a collision-free port range in $ATTEMPTS attempts" >&2
exit 1
