package meta

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the view-based graph walks and the versioned reachability
// index behind them (graphview.go): byte-stable under concurrent writers,
// repaired by AuditGraphIndex.  (That a walk at a historical LSN equals
// the walk on a replay of that prefix is TestQuickPlainViewEqualsReplay.)

// TestWalksMissingRootNil pins the unified missing-root semantics: all
// four walks treat a root that does not exist the same way — nil from
// Reachable/Dependents/Equivalents, ErrNotFound from Resolve.
func TestWalksMissingRootNil(t *testing.T) {
	db := NewDB()
	k, err := db.NewVersion("cpu", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := db.NewVersion("alu", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddLink(DeriveLink, k, k2, "t", nil, nil); err != nil {
		t.Fatal(err)
	}
	ghost := Key{Block: "ghost", View: "HDL_model", Version: 1}
	if got := db.Head().Reachable(ghost, nil); got != nil {
		t.Errorf("Reachable(missing) = %v, want nil", got)
	}
	if got := db.Head().Dependents(ghost, nil); got != nil {
		t.Errorf("Dependents(missing) = %v, want nil", got)
	}
	if got := db.Head().Equivalents(ghost); got != nil {
		t.Errorf("Equivalents(missing) = %v, want nil", got)
	}
	if _, err := db.Head().Resolve("ghost-config"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Resolve(missing) = %v, want ErrNotFound", err)
	}
	// And an existing root still answers.
	if got := db.Head().Reachable(k, nil); len(got) != 1 || got[0] != k {
		t.Errorf("Reachable(%v) = %v, want [%v] (use links only)", k, got, k)
	}
	if got := db.Head().Dependents(k, nil); len(got) != 1 || got[0] != k2 {
		t.Errorf("Dependents(%v) = %v, want [%v]", k, got, k2)
	}
}

// graphProgram drives a randomized link program — creates, props, links
// (a third of them equivalence-typed) and retargets — against a database.  Identical seeds produce identical programs.
func graphProgram(db *DB, rng *rand.Rand) ([]Key, bool) {
	blocks := []string{"cpu", "alu", "reg", "shifter", "dec", "mmu"}
	views := []string{"HDL_model", "schematic", "netlist"}
	var keys []Key
	for i := 0; i < rng.Intn(25)+8; i++ {
		k, err := db.NewVersion(blocks[rng.Intn(len(blocks))], views[rng.Intn(len(views))])
		if err != nil {
			return nil, false
		}
		if rng.Intn(2) == 0 {
			if err := db.SetProp(k, "p", fmt.Sprintf("v%d", rng.Intn(3))); err != nil {
				return nil, false
			}
		}
		keys = append(keys, k)
	}
	for i := 0; i < rng.Intn(30); i++ {
		a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		if a == b {
			continue
		}
		props := map[string]string{PropType: TypeEquivalence}
		if rng.Intn(3) > 0 {
			props = nil
		}
		if _, err := db.AddLink(DeriveLink, a, b, "t", []string{"outofdate"}, props); err != nil {
			return nil, false
		}
	}
	ids := db.Head().LinkIDs()
	for i := 0; i < rng.Intn(5) && len(ids) > 0; i++ {
		id := ids[rng.Intn(len(ids))]
		if l, err := db.Head().GetLink(id); err == nil {
			_ = db.RetargetLink(id, l.To, keys[rng.Intn(len(keys))])
		}
	}
	return keys, true
}

// walkFingerprint renders every walk from every root through the view —
// the byte-stable identity of the graph at one LSN.
func walkFingerprint(v *View, roots []Key) string {
	var sb bytes.Buffer
	for _, root := range roots {
		if !v.HasOID(root) {
			continue
		}
		fmt.Fprintf(&sb, "R%v=%v;", root, v.Reachable(root, FollowAllLinks))
		fmt.Fprintf(&sb, "U%v=%v;", root, v.Reachable(root, FollowUseLinks))
		fmt.Fprintf(&sb, "D%v=%v;", root, v.Dependents(root, FollowAllLinks))
		fmt.Fprintf(&sb, "Q%v=%v;", root, v.Equivalents(root))
	}
	return sb.String()
}

// TestGraphIndexAfterRebuild corrupts an adjacency posting in place and
// checks that AuditGraphIndex repairs it from the link table: view walks
// and the head's out-postings match those of an untouched twin database
// again afterwards.
func TestGraphIndexAfterRebuild(t *testing.T) {
	db := NewDB()
	rng := rand.New(rand.NewSource(7))
	keys, ok := graphProgram(db, rng)
	if !ok {
		t.Fatal("program failed")
	}
	twin := NewDB()
	if _, ok := graphProgram(twin, rand.New(rand.NewSource(7))); !ok {
		t.Fatal("program failed")
	}
	tv := twin.ReadView()
	want := walkFingerprint(tv, keys)
	tv.Close()

	// Sanity: index agrees before the corruption.
	v := db.ReadView()
	if got := walkFingerprint(v, keys); got != want {
		t.Fatalf("index diverges before corruption:\nwant %s\ngot  %s", want, got)
	}
	v.Close()

	// Corrupt: publish, at the current epoch and through no mutation, a
	// posting of one linked key whose out side is empty, as if an
	// incremental update had been lost.
	var victim Key
	for _, k := range keys {
		if len(db.Head().posting(k).out) > 0 {
			victim = k
			break
		}
	}
	if victim == (Key{}) {
		t.Skip("program produced no linked key")
	}
	st := db.store.Load()
	lost := st.posting(victim, newest)
	lost.out = nil
	st.put(victim, db.mvcc.epoch.Load(), lost)
	if n := len(db.Head().posting(victim).out); n != 0 {
		t.Fatalf("live read sees %d links through the corrupted posting", n)
	}

	v = db.ReadView()
	broken := walkFingerprint(v, keys)
	v.Close()
	if broken == want {
		t.Fatalf("corruption was not observable; test is vacuous")
	}

	db.AuditGraphIndex()

	v = db.ReadView()
	repaired := walkFingerprint(v, keys)
	v.Close()
	if repaired != want {
		t.Fatalf("AuditGraphIndex did not repair the index:\nwant %s\ngot  %s", want, repaired)
	}
	ids := func(links []*Link) []LinkID {
		out := make([]LinkID, len(links))
		for i, l := range links {
			out[i] = l.ID
		}
		slices.Sort(out)
		return out
	}
	if got, want := ids(db.Head().posting(victim).out), ids(twin.Head().posting(victim).out); !slices.Equal(got, want) {
		t.Fatalf("out-posting(%v) after the audit: links %v, want %v", victim, got, want)
	}
}

// TestViewWalkRaceHammer runs 4 writers mutating the link graph against
// concurrent graph queries that pin views, walk twice (byte-stability on
// one view) and re-pin the same LSN (byte-stability across pins).  Run
// with -race this is the zero-lock proof: a view walk that touched the
// writer lock or shared mutable state would trip the detector.
func TestViewWalkRaceHammer(t *testing.T) {
	db := NewDB()
	var pool []Key
	for i := 0; i < 24; i++ {
		k, err := db.NewVersion(fmt.Sprintf("blk%02d", i%8), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, k)
	}

	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []LinkID
			// Capped op count and a bounded link population (past 64 links
			// a writer only retargets): an unbounded writer grows postings
			// so fast the readers' walks slow quadratically and the test
			// never converges.
			for i := 0; i < 4000 && !stop.Load(); i++ {
				a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
				if a == b {
					continue
				}
				switch op := rng.Intn(3); {
				case op < 2 && len(mine) <= 64:
					if id, err := db.AddLink(DeriveLink, a, b, "t", nil, nil); err == nil {
						mine = append(mine, id)
					}
				default:
					if len(mine) > 0 {
						id := mine[rng.Intn(len(mine))]
						if l, err := db.Head().GetLink(id); err == nil {
							_ = db.RetargetLink(id, l.To, pool[rng.Intn(len(pool))])
						}
					}
				}
			}
		}(w)
	}

	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				v := db.ReadView()
				f1 := walkFingerprint(v, pool)
				f2 := walkFingerprint(v, pool)
				if f1 != f2 {
					t.Errorf("reader %d: same view, different bytes", r)
					v.Close()
					return
				}
				lsn := v.LSN()
				v.Close()
				if v2, err := db.ReadViewAt(lsn); err == nil {
					f3 := walkFingerprint(v2, pool)
					v2.Close()
					if f3 != f1 {
						t.Errorf("reader %d: re-pinned lsn %d, different bytes", r, lsn)
						return
					}
				}
			}
		}(r)
	}

	// Readers bound the test: writers hammer until every reader has done
	// its rounds against a live, churning graph.
	readers.Wait()
	stop.Store(true)
	writers.Wait()
}
