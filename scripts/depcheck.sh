#!/usr/bin/env bash
# depcheck.sh — the serving path must not import the paper-reproduction
# packages, a test instrument or another binary, and no program of the
# module may import the JSON codec.
#
# Usage: depcheck.sh
#
# Lists every dependency of the packages a running node is made of, the
# damocles binary included, and fails when one of them is a reproduction
# package (baseline, flow, task, tools, wrapper, cli), the test instrument
# netfault (the network-fault proxy) or lives under cmd/.
# Then fails when the engine depends on the journal: the engine reaches
# persistence only through meta, whose recorder the journal attaches.
# Then fails when encoding/json is among the dependencies of ./internal/...
# and ./cmd/...: a node reads and writes only the journal's frames, and the
# JSON snapshots of older builds are refused, not read.  bench/ is a module
# of its own and keeps its JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

serving="./internal/meta ./internal/state ./internal/engine ./internal/journal ./internal/replica ./internal/server ./cmd/damocles"
# shellcheck disable=SC2086
bad=$(go list -deps $serving | grep -vxF "$(go list $serving)" |
    grep -E '^repro/(internal/(baseline|flow|task|tools|wrapper|cli|netfault)|cmd)(/|$)' || true)
if [ -n "$bad" ]; then
    echo "depcheck: the serving path ($serving) imports:" >&2
    printf '  %s\n' $bad >&2
    exit 1
fi

if go list -deps ./internal/engine | grep -qxF repro/internal/journal; then
    echo "depcheck: internal/engine imports repro/internal/journal; it journals through meta's recorder" >&2
    exit 1
fi

if go list -deps ./internal/... ./cmd/... | grep -qxF encoding/json; then
    echo "depcheck: a package under internal/ or cmd/ imports encoding/json:" >&2
    go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/... ./cmd/... | grep -w encoding/json >&2 || true
    exit 1
fi
echo "depcheck: ok"
