#!/usr/bin/env bash
# ci-run-patterns.sh — every test a CI lane names must exist.
#
# Usage: ci-run-patterns.sh [WORKFLOW.yml]
#
# `go test -run PATTERN` passes with "no tests to run" when PATTERN matches
# nothing, so a lane pointed at a renamed or deleted test goes green
# forever.  For each `go test` line of the workflow that carries a -run or
# -fuzz pattern (other than the '^$' that selects nothing on purpose), each
# |-alternative of the pattern must match a name `go test -list` prints for
# the packages on that line; a -fuzz pattern must match a Fuzz target.
set -euo pipefail
cd "$(dirname "$0")/.."
wf=${1:-.github/workflows/ci.yml}

declare -A listed # package -> the names go test -list prints, one per line

fail=0
checked=0
while IFS= read -r line; do
    n=${line%%:*}
    cmd=${line#*:}
    pkgs=()
    for tok in $cmd; do
        if [[ $tok =~ ^\.(/[A-Za-z0-9_./-]*)?$ ]]; then
            pkgs+=("$tok")
        fi
    done
    for flag in run fuzz; do
        if [[ $cmd =~ -$flag[[:space:]]+\'([^\']*)\' ]] || [[ $cmd =~ -$flag[[:space:]]+([^[:space:]\'\"]+) ]]; then
            pat=${BASH_REMATCH[1]}
        else
            continue
        fi
        if [ "$pat" = '^$' ]; then
            continue
        fi
        if [ ${#pkgs[@]} -eq 0 ]; then
            echo "$wf:$n: -$flag '$pat' names no package" >&2
            fail=1
            continue
        fi
        kind='^(Test|Fuzz|Example)' # what -run selects
        if [ "$flag" = fuzz ]; then
            kind='^Fuzz'
        fi
        IFS='|' read -ra alts <<<"$pat"
        for alt in "${alts[@]}"; do
            checked=$((checked + 1))
            hit=0
            for pkg in "${pkgs[@]}"; do
                if [ -z "${listed[$pkg]+x}" ]; then
                    listed[$pkg]=$(go test -list . "$pkg")
                fi
                if grep -E "$kind" <<<"${listed[$pkg]}" | grep -qE -- "$alt"; then
                    hit=1
                    break
                fi
            done
            if [ $hit -eq 0 ]; then
                echo "$wf:$n: -$flag '$alt' matches nothing in ${pkgs[*]}" >&2
                fail=1
            fi
        done
    done
done < <(grep -nE 'go test .*-(run|fuzz)[[:space:]]' "$wf")

if [ $fail -ne 0 ]; then
    exit 1
fi
echo "ci-run-patterns: $checked patterns, each selects a test"
