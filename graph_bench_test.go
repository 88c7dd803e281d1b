package repro

// Graph-query benchmarks: walk latency while writers keep committing.
// The pre-MVCC walks took every shard (or stripe) read lock for the whole
// traversal; the view walks read the versioned adjacency index and hold
// none, so latency under write load should sit near the idle baseline.
//
// The writers are benchWriteDB's (startWriters, mvcc_bench_test.go): a
// fixed number of writes per iteration, so B/op reads the walk.

import (
	"fmt"
	"testing"

	"repro/internal/meta"
)

// benchGraphDB builds a project with n blocks, chains the first `chain`
// of them with derive links (blk i → blk i+1, no propagation events) and
// starts that many writers over them.  It returns the chain root.
func benchGraphDB(b *testing.B, n, chain, writers int) (*Project, meta.Key, *writerSet) {
	b.Helper()
	proj := mustProject(b, EDTCExample)
	keys := make([]meta.Key, n)
	for i := 0; i < n; i++ {
		k, err := proj.Engine.CreateOID(fmt.Sprintf("blk%04d", i), "schematic", "bench")
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = k
		if i > 0 && i < chain {
			if _, err := proj.Engine.CreateLink(meta.DeriveLink, keys[i-1], k); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := proj.Engine.Drain(); err != nil {
		b.Fatal(err)
	}

	return proj, keys[0], startWriters(proj, n, writers)
}

// BenchmarkReachableUnderWrites measures a full-closure Reachable walk
// (every block, via the public DB method, which pins a read view) on an
// idle database and under four concurrent writers.  The acceptance
// bar for the lock-free walks is the two sub-benchmarks staying close.
func BenchmarkReachableUnderWrites(b *testing.B) {
	const blocks = 500
	for _, writers := range []int{0, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			proj, root, ws := benchGraphDB(b, blocks, blocks, writers)
			defer ws.stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.run(func() {
					keys := proj.DB.Head().Reachable(root, meta.FollowAllLinks)
					if len(keys) != blocks {
						b.Fatal(len(keys))
					}
				})
			}
		})
	}
}

// BenchmarkQueryIndexLookup measures a small-closure walk (8 linked
// blocks) pinned on one long-lived view over a large database (2000
// blocks): the versioned-adjacency point-lookup cost, with the view pin
// amortised away.
func BenchmarkQueryIndexLookup(b *testing.B) {
	const blocks, chain = 2000, 8
	proj, root, ws := benchGraphDB(b, blocks, chain, 0)
	defer ws.stop()
	v := proj.DB.ReadView()
	defer v.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys := v.Reachable(root, meta.FollowAllLinks)
		if len(keys) != chain {
			b.Fatal(len(keys))
		}
	}
}
