package meta

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Tests for the view-based graph walks and the versioned reachability
// index behind them (graphview.go): byte-stable under concurrent writers,
// and the postings are exactly the link table
// (TestQuickPostingsAreTheLinkTable).  (That a walk at a historical LSN
// equals the walk on a replay of that prefix is
// TestQuickPlainViewEqualsReplay.)

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

// TestQuickPostingsAreTheLinkTable: the reachability index is derived
// state, written in the same locked act as the link it indexes — by
// installLinkLocked, RetargetLink and a checkpoint load's installer — so
// at every stamp it is exactly the link table.  Random mutation programs
// check it on the head after every step, on views pinned along the way
// (after the later writes), on the database each pinned view's checkpoint
// loads into, and across a RestoreFrom that the second half of the
// program runs on.
func TestQuickPostingsAreTheLinkTable(t *testing.T) {
	f := func(seed int64) bool {
		fail := func(where string, err error) bool {
			t.Logf("seed=%d: %s: %v", seed, where, err)
			return false
		}
		steps := mutationProgram(seed)
		db := NewDB()
		var pinned []*View
		defer func() {
			for _, v := range pinned {
				v.Close()
			}
		}()
		for i, step := range steps {
			if i == len(steps)/2 {
				v := db.ReadView()
				src, err := loadPayloads(checkpointOf(t, v))
				v.Close()
				if err != nil {
					return fail("load", err)
				}
				if err := db.RestoreFrom(src, db.mvcc.epoch.Load()); err != nil {
					return fail("restore", err)
				}
				if err := postingsAreLinks(db.Head()); err != nil {
					return fail("head after RestoreFrom", err)
				}
			}
			step(db)
			if err := postingsAreLinks(db.Head()); err != nil {
				return fail(fmt.Sprintf("head after step %d", i), err)
			}
			if i%3 == 0 {
				pinned = append(pinned, db.ReadView())
			}
		}
		for _, v := range pinned {
			if err := postingsAreLinks(v); err != nil {
				return fail(fmt.Sprintf("view at stamp %d", v.LSN()), err)
			}
			loaded, err := loadPayloads(checkpointOf(t, v))
			if err != nil {
				return fail(fmt.Sprintf("load of the view at stamp %d", v.LSN()), err)
			}
			if err := postingsAreLinks(loaded.Head()); err != nil {
				return fail(fmt.Sprintf("load of the view at stamp %d", v.LSN()), err)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// postingsAreLinks reports where v's postings differ from its link table:
// each key's out- and in-posting must hold exactly the live links with
// that end, as the very objects the table holds, and no posting may name a
// key that no live link names.
func postingsAreLinks(v *View) error {
	want := make(map[Key]posting)
	v.EachLink(func(l *Link) bool {
		p := want[l.From]
		p.out = append(p.out, l)
		want[l.From] = p
		p = want[l.To]
		p.in = append(p.in, l)
		want[l.To] = p
		return true
	})
	sorted := func(links []*Link) []*Link {
		links = slices.Clone(links)
		slices.SortFunc(links, func(a, b *Link) int { return cmp.Compare(a.ID, b.ID) })
		return links
	}
	for k, p := range want {
		have := v.posting(k)
		for _, out := range []bool{true, false} {
			got, exp := sorted(have.of(out)), sorted(p.of(out))
			if !slices.Equal(got, exp) {
				return fmt.Errorf("%v's out=%v posting holds %s, the link table %s", k, out, linkRefs(got), linkRefs(exp))
			}
		}
	}
	var err error
	v.store().adj.each(v.lsn, func(k Key, p posting) bool {
		if _, named := want[k]; !named {
			err = fmt.Errorf("%v's posting holds %s and %s, but no live link names it", k, linkRefs(p.out), linkRefs(p.in))
		}
		return err == nil
	})
	return err
}

// linkRefs names each link by ID and object.
func linkRefs(links []*Link) string {
	var sb bytes.Buffer
	for _, l := range links {
		fmt.Fprintf(&sb, "[%d@%p]", l.ID, l)
	}
	return sb.String()
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
