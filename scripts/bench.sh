#!/usr/bin/env bash
# Runs the key engine benchmarks and emits BENCH_<n>.json so the perf
# trajectory across PRs is machine-readable.
#
#   BENCH_INDEX=2 BENCH_COUNT=3 BENCH_CPU=1,4 scripts/bench.sh
#
# BENCH_INDEX (default 1) selects the output file BENCH_<n>.json;
# BENCH_COUNT (default 1) is passed to -count; BENCH_CPU, when set, is
# passed to -cpu and the GOMAXPROCS suffix is kept in the recorded name as
# "@cN" (without it, names stay bare for continuity with BENCH_1).  With
# -count > 1 the JSON records, per benchmark, the run with the lowest
# ns/op — the least-noise estimate on a shared/virtualized host; every raw
# run is kept next to the JSON as BENCH_<n>.txt.  A family listed below that
# produced no result (renamed, deleted, skipped) fails the script once the
# JSON is written: a trajectory file that silently lacks a family reads as
# "unchanged".
set -euo pipefail
cd "$(dirname "$0")/.."

INDEX="${BENCH_INDEX:-1}"
COUNT="${BENCH_COUNT:-1}"
CPU="${BENCH_CPU:-}"
# The legacy trio runs in its own process, in the same order as BENCH_1,
# so numbers stay comparable across PRs (a long-lived benchmark process
# accumulates heap/GC state that skews whatever runs last).  Families
# added later run in a second process.
LEGACY="BenchmarkEventThroughput\$|BenchmarkPropagationScaling|BenchmarkStateReport"
EXTRA="BenchmarkEventThroughputParallel\$|BenchmarkBatchDrain|BenchmarkParallelDrain|BenchmarkBatchPost"
# MVCC reader-latency family (PR 5, extended PR 9): report, snapshot and
# graph-walk latency with paced concurrent writers vs. the idle baseline,
# plus the versioned-adjacency point-lookup cost.  ReportStream (PR 14, in
# internal/server because it drives serveConn) is one REPORT as a
# connection handler serves it, with its writes/op; ReportUnderWrites is
# state.StreamSorted, the OIDState form.
MVCC="BenchmarkReportUnderWrites|BenchmarkReportStream|BenchmarkSnapshotUnderLoad|BenchmarkSnapshotEncode|BenchmarkReachableUnderWrites|BenchmarkQueryIndexLookup"
# Recovery (PR 18, in internal/journal): one journal.Replay of a loaded
# primary's directory at 16 and 64 trees, with a short and a long tail
# behind the newest snapshot; B/op and allocs/op are the point.
RECOVERY="BenchmarkRecovery"
# Replication: a cold follower catching up on 10,000 check-in records over
# loopback FOLLOW; B/record and allocs/record are the point.
FOLLOW="BenchmarkFollowerCatchUp"
OUT="BENCH_${INDEX}.json"
RAW="BENCH_${INDEX}.txt"

CPUFLAGS=()
if [ -n "$CPU" ]; then
  CPUFLAGS=(-cpu "$CPU")
fi
if [ -n "${BENCH_PATTERN:-}" ]; then
  go test -run '^$' -bench "$BENCH_PATTERN" -benchmem -count "$COUNT" "${CPUFLAGS[@]}" . | tee "$RAW"
else
  go test -run '^$' -bench "$LEGACY" -benchmem -count "$COUNT" "${CPUFLAGS[@]}" . | tee "$RAW"
  go test -run '^$' -bench "$EXTRA" -benchmem -count "$COUNT" "${CPUFLAGS[@]}" . | tee -a "$RAW"
  go test -run '^$' -bench "$MVCC" -benchmem -count "$COUNT" "${CPUFLAGS[@]}" . ./internal/server | tee -a "$RAW"
  go test -run '^$' -bench "$RECOVERY" -benchmem -count "$COUNT" "${CPUFLAGS[@]}" ./internal/journal | tee -a "$RAW"
  go test -run '^$' -bench "$FOLLOW" -benchmem -count "$COUNT" "${CPUFLAGS[@]}" . | tee -a "$RAW"
fi

{
  printf '{\n'
  printf '  "index": %s,\n' "$INDEX"
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "go": "%s",\n' "$(go version | sed 's/"/\\"/g')"
  printf '  "commit": "%s",\n' "$(git describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)"
  # Runner facts (GOMAXPROCS, visible CPUs, affinity-mask size) so a
  # reader comparing BENCH files across machines sees the quota truth.
  printf '  "runner": %s,\n' "$(go run ./cmd/loadgen -facts)"
  printf '  "benchmarks": [\n'
  awk -v keepcpu="$CPU" '
    /^Benchmark/ {
      name = $1
      if (keepcpu != "" && match(name, /-[0-9]+$/)) {
        name = substr(name, 1, RSTART - 1) "@c" substr(name, RSTART + 1)
      } else {
        sub(/-[0-9]+$/, "", name)
      }
      ns = ""
      json = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {", name, $2)
      sep = ""
      for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "ns/op") ns = $i + 0
        json = json sprintf("%s\"%s\": %s", sep, $(i+1), $i)
        sep = ", "
      }
      json = json "}}"
      # Keep the fastest of -count runs per benchmark.
      if (!(name in best) || (ns != "" && ns < bestns[name])) {
        if (!(name in best)) order[++n] = name
        best[name] = json
        bestns[name] = ns
      }
    }
    END {
      for (i = 1; i <= n; i++) {
        printf "%s%s\n", best[order[i]], (i < n ? "," : "")
      }
    }
  ' "$RAW"
  printf '  ]\n'
  printf '}\n'
} > "$OUT"

echo "wrote $OUT"

if [ -z "${BENCH_PATTERN:-}" ]; then
  missing=0
  IFS='|' read -ra families <<<"$LEGACY|$EXTRA|$MVCC|$RECOVERY|$FOLLOW"
  for fam in "${families[@]}"; do
    if ! grep -qE "^${fam%\$}(/|-[0-9]+[[:space:]]|[[:space:]])" "$RAW"; then
      echo "bench.sh: family ${fam%\$} produced no result" >&2
      missing=1
    fi
  done
  exit $missing
fi
