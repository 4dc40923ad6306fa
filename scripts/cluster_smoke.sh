#!/bin/sh
# End-to-end smoke test for the relserve scale-out: generate a CRM
# scenario, start two backends with the catalog preloaded plus a
# consistent-hash router in front, drive them with relload, and assert
# (a) a router burst finishes with zero transport errors and zero
# drops, (b) the verdict counts seen through the router are identical
# to the direct-backend run, and (c) /v1/backends reports both backends
# ready. Run via `make cluster-smoke`.
set -eu

GO=${GO:-go}
here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
repo=$(dirname -- "$here")
tmp=$(mktemp -d)
pids=""

cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "cluster-smoke: building relserve, relload, relgen"
"$GO" build -o "$tmp/relserve" "$repo/cmd/relserve"
"$GO" build -o "$tmp/relload" "$repo/cmd/relload"
"$GO" build -o "$tmp/relgen" "$repo/cmd/relgen"

"$tmp/relgen" -out "$tmp/scenario" >/dev/null

wait_addr() { # file pid name
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "cluster-smoke: $3 never wrote its address" >&2
            cat "$tmp/$3.log" >&2
            exit 1
        fi
        kill -0 "$2" 2>/dev/null || {
            echo "cluster-smoke: $3 exited early" >&2
            cat "$tmp/$3.log" >&2
            exit 1
        }
        sleep 0.1
    done
}

start_backend() { # name
    # Explicit pool sizes: the default (GOMAXPROCS workers, 2x queue)
    # is too small on single-core CI boxes for the burst below, and the
    # smoke asserts zero 429s.
    "$tmp/relserve" -addr 127.0.0.1:0 -addr-file "$tmp/$1.addr" \
        -workers 4 -queue 60 \
        -catalog "crm=$tmp/scenario" >"$tmp/$1.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    wait_addr "$tmp/$1.addr" "$pid" "$1"
}

start_backend b1
start_backend b2
B1="http://$(cat "$tmp/b1.addr")"
B2="http://$(cat "$tmp/b2.addr")"
echo "cluster-smoke: backends up on $B1 $B2"

"$tmp/relserve" -addr 127.0.0.1:0 -addr-file "$tmp/router.addr" \
    -route "$B1,$B2" >"$tmp/router.log" 2>&1 &
pid=$!
pids="$pids $pid"
wait_addr "$tmp/router.addr" "$pid" "router"
ROUTER="http://$(cat "$tmp/router.addr")"
echo "cluster-smoke: router up on $ROUTER"

# Both backends must be ready through the router's health endpoint.
backends=$(curl -fsS "$ROUTER/v1/backends")
ready=$(printf '%s' "$backends" | grep -c '"ready": true' || true)
if [ "$ready" != 2 ]; then
    echo "cluster-smoke: /v1/backends ready count = $ready, want 2" >&2
    printf '%s\n' "$backends" >&2
    exit 1
fi

run_load() { # out extra-args...
    out=$1
    shift
    "$tmp/relload" -scenario "$tmp/scenario" -catalog crm -n 16 \
        -concurrency 4 -json "$tmp/$out" "$@" >/dev/null
}

run_load direct.json -addr "$B1"
run_load routed.json -addr "$ROUTER"

verdicts() { # file -> normalized verdict object
    sed -n '/"verdicts": {/,/}/p' "$tmp/$1" | tr -d ' \n'
}

for rep in direct routed; do
    for field in '"errors": 0' '"dropped": 0' '"ok": 16'; do
        grep -q "$field" "$tmp/$rep.json" || {
            echo "cluster-smoke: $rep report missing $field" >&2
            cat "$tmp/$rep.json" >&2
            exit 1
        }
    done
done

direct=$(verdicts direct.json)
routed=$(verdicts routed.json)
if [ "$routed" != "$direct" ]; then
    echo "cluster-smoke: routed verdicts $routed differ from direct $direct" >&2
    exit 1
fi
echo "cluster-smoke: routed verdicts identical to direct ($direct)"

# A burst through the router with a batch per request: still no errors
# and no drops, and all 64 per-item verdicts agree with the direct run.
vlabel=$(printf '%s' "$direct" | grep -oE '"[a-z]+":' | grep -v verdicts | head -1 | tr -d '":')
"$tmp/relload" -scenario "$tmp/scenario" -catalog crm -addr "$ROUTER" \
    -batch 8 -n 8 -concurrency 4 -json "$tmp/batch.json" >/dev/null
for field in '"errors": 0' '"dropped": 0' "\"$vlabel\": 64"; do
    grep -q "$field" "$tmp/batch.json" || {
        echo "cluster-smoke: batch report missing $field" >&2
        cat "$tmp/batch.json" >&2
        exit 1
    }
done
echo "cluster-smoke: batch burst clean (64 $vlabel verdicts over 8 batches)"

echo "cluster-smoke: OK"
