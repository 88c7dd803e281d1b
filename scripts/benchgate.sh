#!/usr/bin/env bash
# benchgate.sh — fail when the PR's smoke benches allocate more than the base's.
#
# Usage: benchgate.sh BASE.txt PR.txt [LIMIT_PERCENT]
#
# BASE.txt and PR.txt are `go test -bench -benchmem` outputs (same benches,
# same -count) from the base branch and the PR.  For each benchmark in both
# files and each unit, the gate takes the median over the runs and the ratio
# PR / base (one added to both sides, so that a zero count compares); per
# unit it reports the geometric mean of the ratios.  B/op and allocs/op are
# gated: a geomean regression above LIMIT_PERCENT (default 5) fails, and so
# does a file without them.  They do not move between two runs of one commit.
# sec/op is printed and not gated: on a shared machine it moves −24 … +35 %
# between two runs of one commit (docs/PERF.md §3, §7).  benchstat's table
# is printed first when benchstat is installed.
set -euo pipefail

base=${1:?usage: benchgate.sh BASE.txt PR.txt [LIMIT_PERCENT]}
pr=${2:?usage: benchgate.sh BASE.txt PR.txt [LIMIT_PERCENT]}
limit=${3:-5}
export LC_ALL=C

if command -v benchstat >/dev/null; then
    benchstat "$base" "$pr" || true
    echo
fi

# medians FILE prints "<benchmark>|<unit> <median>" for every benchmark and
# unit of FILE, sorted for join.
medians() {
    awk '/^Benchmark/ { for (i = 3; i < NF; i += 2) print $1 "|" $(i + 1), $i }' "$1" |
        sort -k1,1 -k2,2g |
        awk 'function flush() { print key, (n % 2 ? v[(n - 1) / 2] : (v[n / 2 - 1] + v[n / 2]) / 2); n = 0 }
             $1 != key { if (n) flush(); key = $1 }
             { v[n++] = $2 }
             END { if (n) flush() }'
}

join <(medians "$base") <(medians "$pr") | awk -v limit="$limit" '
    {
        split($1, k, "|")
        r = ($3 + 1) / ($2 + 1)
        sum[k[2]] += log(r)
        n[k[2]]++
        if (k[2] ~ /^(B|allocs)\/op$/ && r != 1) {
            printf "  %-64s %-9s %12.6g -> %-12.6g (%+.2f%%)\n", k[1], k[2], $2, $3, (r - 1) * 100
        }
    }
    END {
        split("ns/op B/op allocs/op", units, " ")
        for (i = 1; i <= 3; i++) {
            u = units[i]
            gated = u != "ns/op"
            if (!(u in n)) {
                printf "benchgate: no %s in both files%s\n", u, gated ? " — run the benches with -benchmem: FAIL" : ""
                fail = fail || gated
                continue
            }
            d = (exp(sum[u] / n[u]) - 1) * 100
            verdict = "printed, not gated"
            if (gated) {
                verdict = d > limit ? "FAIL, limit " limit "%" : "ok, limit " limit "%"
                fail = fail || d > limit
            }
            printf "benchgate: %-9s geomean %+7.2f%% over %d benchmarks (%s)\n", u, d, n[u], verdict
        }
        exit fail
    }'
