package replica_test

import (
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/meta"
)

// TestFollowerQueryAtMatchesPrimary is the wire-level acceptance check for
// QUERY <lsn>: every query kind, pinned at the same LSN, returns a
// byte-identical body from the primary and from a read-only follower —
// including time-travel queries at an LSN the graph has since moved past.
func TestFollowerQueryAtMatchesPrimary(t *testing.T) {
	c := newCluster(t, journal.Options{SnapshotEvery: -1})
	c.startFollower()

	pc := c.dial(c.paddr)
	defer pc.Close()

	blocks := []string{"CPU", "ALU", "REG", "IO"}
	var keys []meta.Key
	for i, b := range blocks {
		k, err := pc.Create(b, "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if i > 0 {
			if err := pc.Link("derive", keys[i-1], k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := pc.Snapshot("cfg1", "*"); err != nil {
		t.Fatal(err)
	}
	lsn := c.catchUp()

	fc := c.dial(c.faddr)
	defer fc.Close()

	root := keys[0]
	queries := [][]string{
		{"reach", root.String(), "all"},
		{"reach", root.String(), "use"},
		{"reach", root.String(), "type:" + meta.TypeEquivalence},
		{"deps", root.String()},
		{"deps", keys[1].String(), "all"},
		{"equiv", root.String()},
		{"resolve", "cfg1"},
	}
	bodies := make([]string, len(queries))
	for i, q := range queries {
		pb, err := pc.QueryAt(lsn, q[0], q[1:]...)
		if err != nil {
			t.Fatalf("primary QUERY %d %v: %v", lsn, q, err)
		}
		fb, err := fc.QueryAt(lsn, q[0], q[1:]...)
		if err != nil {
			t.Fatalf("follower QUERY %d %v: %v", lsn, q, err)
		}
		if strings.Join(pb, "\n") != strings.Join(fb, "\n") {
			t.Fatalf("QUERY %d %v diverges:\n--- primary\n%s\n--- follower\n%s",
				lsn, q, strings.Join(pb, "\n"), strings.Join(fb, "\n"))
		}
		bodies[i] = strings.Join(pb, "\n")
	}
	// reach all from the chain head covers the whole chain.
	if got := len(strings.Split(bodies[0], "\n")); got != len(keys) {
		t.Fatalf("reach all from %v returned %d keys, want %d:\n%s", root, got, len(keys), bodies[0])
	}

	// Move the graph past the pin: a new version and a new link.  The old
	// LSN must still answer with the old graph, identically on both nodes,
	// and differently from the new head.
	k2, err := pc.Create("CPU", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Link("derive", root, k2); err != nil {
		t.Fatal(err)
	}
	lsn2 := c.catchUp()
	if lsn2 <= lsn {
		t.Fatalf("catchUp did not advance: %d -> %d", lsn, lsn2)
	}
	pOld, err := pc.QueryAt(lsn, "reach", root.String(), "all")
	if err != nil {
		t.Fatal(err)
	}
	fOld, err := fc.QueryAt(lsn, "reach", root.String(), "all")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(pOld, "\n") != bodies[0] || strings.Join(fOld, "\n") != bodies[0] {
		t.Fatalf("time-travel reach at lsn %d diverges from the original body:\nwas %s\nprimary now %s\nfollower now %s",
			lsn, bodies[0], strings.Join(pOld, "\n"), strings.Join(fOld, "\n"))
	}
	pNew, err := pc.QueryAt(lsn2, "reach", root.String(), "all")
	if err != nil {
		t.Fatal(err)
	}
	fNew, err := fc.QueryAt(lsn2, "reach", root.String(), "all")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(pNew, "\n") != strings.Join(fNew, "\n") {
		t.Fatalf("QUERY at head lsn %d diverges between nodes", lsn2)
	}
	if len(pNew) != len(keys)+1 {
		t.Fatalf("reach at head returned %d keys, want %d", len(pNew), len(keys)+1)
	}
}
