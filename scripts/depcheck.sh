#!/usr/bin/env bash
# depcheck.sh — the serving path must not import the paper-reproduction
# packages or another binary, and the node must not link the JSON codec.
#
# Usage: depcheck.sh
#
# Lists every dependency of the packages a running node is made of, the
# damocles binary included, and fails when one of them is a reproduction
# package (baseline, flow, task, tools, wrapper, cli) or lives under cmd/.
# Then builds damocles and fails when `go tool nm` finds in it the JSON
# document's reader or writer (meta.LoadShards, meta.(*DB).Save) or the
# encoding/json decoder or encoder state: the node reads and writes only
# the journal's frames, and `dquery upgrade` is the one reader of the JSON
# snapshots of older builds.
set -euo pipefail
cd "$(dirname "$0")/.."

serving="./internal/meta ./internal/state ./internal/engine ./internal/journal ./internal/replica ./internal/server ./cmd/damocles"
# shellcheck disable=SC2086
bad=$(go list -deps $serving | grep -vxF "$(go list $serving)" |
    grep -E '^repro/(internal/(baseline|flow|task|tools|wrapper|cli)|cmd)(/|$)' || true)
if [ -n "$bad" ]; then
    echo "depcheck: the serving path ($serving) imports:" >&2
    printf '  %s\n' $bad >&2
    exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/damocles" ./cmd/damocles
json=$(go tool nm "$tmp/damocles" |
    grep -E ' (repro/internal/meta\.(LoadShards|\(\*DB\)\.Save)|encoding/json\.\(\*(decodeState|encodeState)\))($|\.)' || true)
if [ -n "$json" ]; then
    echo "depcheck: the damocles binary links the JSON codec:" >&2
    printf '%s\n' "$json" | head -20 >&2
    exit 1
fi
echo "depcheck: ok"
