//go:build !race

package server

import (
	"bufio"
	"io"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// coldBytes is the fewest heap bytes one call of f allocated in runs calls,
// each made cold: two GC cycles first, so that every sync.Pool, its victim
// cache too, has forgotten what it held.  Excluded under -race, which
// changes allocation.
func coldBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// TestColdScanBytesIndependentOfSize: what a cold REPORT and a cold QUERY
// reach allocate — the pinned view, the pooled scratch made anew, the
// visited set of one tree — is the same at 16 and at 64 trees.  A scan that
// collected its rows, or kept a buffer of them between requests, would
// allocate, or retain, bytes in proportion to the project.
func TestColdScanBytesIndependentOfSize(t *testing.T) {
	const slack = 512
	measure := func(trees int) (report, reach uint64) {
		s := treeServer(t, trees)
		ss := &session{w: bufio.NewWriter(io.Discard)}
		scan := func() {
			if !ss.flush(s.respond(ss, ss.w.AvailableBuffer(), wire.Request{Verb: wire.VerbReport})) {
				t.Fatal("scan failed")
			}
		}
		query := func() {
			if resp := s.Handle(wire.Request{Verb: wire.VerbQuery, Args: []string{"0", "reach", "t0b0,schematic,1", "all"}}); !resp.OK {
				t.Fatalf("QUERY: %s", resp.Detail)
			}
		}
		scan() // the first scan after the project was built orders its chains
		return coldBytes(5, scan), coldBytes(5, query)
	}
	report16, reach16 := measure(16)
	report64, reach64 := measure(64)
	t.Logf("bytes per cold REPORT: %d at 16 trees, %d at 64; per cold QUERY reach: %d, %d", report16, report64, reach16, reach64)
	if report64 > report16+slack {
		t.Errorf("a cold REPORT of 64 trees allocates %d bytes, of 16 trees %d: want at most %d more", report64, report16, slack)
	}
	if reach64 > reach16+slack {
		t.Errorf("a cold QUERY reach at 64 trees allocates %d bytes, at 16 trees %d: want at most %d more", reach64, reach16, slack)
	}
}
