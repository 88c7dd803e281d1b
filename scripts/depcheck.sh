#!/usr/bin/env bash
# depcheck.sh — the serving path must not import the paper-reproduction
# packages or a binary.
#
# Usage: depcheck.sh
#
# Lists every dependency of the packages a running node is made of and
# fails when one of them is a reproduction package (baseline, flow, task,
# tools, wrapper, cli) or lives under cmd/.
set -euo pipefail
cd "$(dirname "$0")/.."

serving="./internal/meta ./internal/state ./internal/engine ./internal/journal ./internal/replica ./internal/server"
# shellcheck disable=SC2086
bad=$(go list -deps $serving | grep -E '^repro/(internal/(baseline|flow|task|tools|wrapper|cli)|cmd)(/|$)' || true)
if [ -n "$bad" ]; then
    echo "depcheck: the serving path ($serving) imports:" >&2
    printf '  %s\n' $bad >&2
    exit 1
fi
echo "depcheck: ok"
