#!/usr/bin/env bash
# loc.sh — the number every simplicity PR counts: non-test Go lines.
#
# Usage: loc.sh [BASE-REF]
#
# Prints the non-test Go lines of each package directory (tracked files;
# bench/ is a module of its own and listed like any other directory), the
# total, and — with BASE-REF, or HEAD~1 when there is one — the non-test
# `git diff --numstat` against it, per directory and in total, working tree
# included.  Renames are not paired, so a file moved into a test file counts
# as deleted where it was.  It reports; it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

nontest() { grep -E '\.go$' | grep -vE '_test\.go$' || true; }

echo "non-test Go lines per package:"
git ls-files | nontest | while IFS= read -r f; do
    printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
done | awk '{n[$1] += $2; t += $2}
    END {for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t}' | sort -k2

base=${1:-}
if [ -z "$base" ] && git rev-parse -q --verify HEAD~1 >/dev/null; then
    base=HEAD~1
fi
if [ -z "$base" ]; then
    exit 0
fi
echo
echo "non-test git diff --numstat against $base:"
git diff --no-renames --numstat "$base" -- | awk '
    $3 !~ /\.go$/ || $3 ~ /_test\.go$/ {next}
    {d = $3; sub(/\/[^\/]*$/, "", d); if (d == $3) d = "."
     a[d] += $1; r[d] += $2; ta += $1; tr += $2}
    END {for (d in a) printf "%+6d %+6d = %+6d  %s\n", a[d], -r[d], a[d] - r[d], d
         printf "%+6d %+6d = %+6d  total\n", ta, -tr, ta - tr}' | sort -k5
