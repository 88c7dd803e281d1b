package meta

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// viewText is how the tests compare databases: v's checkpoint, a line per
// record — its op, its Seq and its spelled args, and a term's LSN.  The
// view's LSN is left out, so that databases at two positions compare.
func viewText(t testing.TB, v *View) []byte {
	t.Helper()
	var b []byte
	if err := v.Checkpoint(func(r Record, args []byte) error {
		if r.Op == OpTerm {
			b = fmt.Appendf(b, "@%d ", r.LSN)
		}
		b = fmt.Appendf(b, "%s %d%s\n", r.Op, r.Seq, args)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

// dbText is the viewText of a view pinned on db.
func dbText(t testing.TB, db *DB) []byte {
	t.Helper()
	v := db.ReadView()
	defer v.Close()
	return viewText(t, v)
}

// TestReadViewPointInTime pins views at successive epochs and checks each
// reads exactly the state of its moment — later mutations invisible,
// earlier ones present — and that a view's checkpoint equals a live one
// taken at the same quiesced point.
func TestReadViewPointInTime(t *testing.T) {
	db := NewDB()
	a := mustNewVersion(t, db, "cpu", "HDL_model")

	if err := db.SetProp(a, "state", "old"); err != nil {
		t.Fatal(err)
	}
	v1 := db.ReadView()
	defer v1.Close()
	liveAtV1 := dbText(t, db)

	b := mustNewVersion(t, db, "alu", "HDL_model")
	if err := db.SetProp(a, "state", "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddLink(DeriveLink, a, b, "", []string{"ckin"}, nil); err != nil {
		t.Fatal(err)
	}
	v2 := db.ReadView()
	defer v2.Close()

	// v1: pre-mutation state, byte-stable, equal to the live checkpoint taken then.
	if v1.HasOID(b) {
		t.Error("v1 sees an OID created after it was pinned")
	}
	o, err := v1.GetOID(a)
	if err != nil || prop(o.Props, "state") != "old" {
		t.Errorf("v1 GetOID(a) = %v, %v; want state=old", o, err)
	}
	if got := viewText(t, v1); !bytes.Equal(got, liveAtV1) {
		t.Errorf("v1 differs from the live checkpoint at pin time:\n%s\nvs\n%s", got, liveAtV1)
	}
	v1.EachLink(func(l *Link) bool {
		t.Errorf("v1 sees link %d created after it", l.ID)
		return true
	})

	// v2: current state, equal to a live checkpoint now.
	o2, err := v2.GetOID(a)
	if err != nil || prop(o2.Props, "state") != "new" {
		t.Errorf("v2 GetOID(a) = %v, %v; want state=new", o2, err)
	}
	if !v2.HasOID(b) {
		t.Error("v2 misses OID b")
	}
	if got, live := viewText(t, v2), dbText(t, db); !bytes.Equal(got, live) {
		t.Errorf("v2 differs from the live checkpoint:\n%s\nvs\n%s", got, live)
	}

	// Re-reading v1 after everything still yields the same bytes.
	if got := viewText(t, v1); !bytes.Equal(got, liveAtV1) {
		t.Error("v1 is not byte-stable after later mutations")
	}

	// ReadViewAt re-pins the same positions exactly.
	r1, err := db.ReadViewAt(v1.LSN())
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	if got := viewText(t, r1); !bytes.Equal(got, liveAtV1) {
		t.Error("ReadViewAt(v1.LSN) differs from v1")
	}
}

// TestReadViewTombstones checks deletions are versioned, on the two kinds
// of tombstone a database writes: the adjacency posting a RetargetLink
// empties and a deleted configuration.  A view pinned before them still
// reads the link at its old end and the configuration, one pinned after
// does not; a reclaim keeps their dead entries while the older view is
// pinned, and drops them from the adj and configs tables once the horizon
// passes the tombstones.
func TestReadViewTombstones(t *testing.T) {
	db := NewDB()
	a := mustNewVersion(t, db, "cpu", "HDL_model")
	b := mustNewVersion(t, db, "alu", "HDL_model")
	id, err := db.AddLink(DeriveLink, a, b, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SnapshotQuery("doomed", func(*OID) bool { return true }); err != nil {
		t.Fatal(err)
	}
	a2 := mustNewVersion(t, db, "cpu", "HDL_model")

	before := db.ReadView()
	if err := db.RetargetLink(id, a, a2); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteConfiguration("doomed"); err != nil {
		t.Fatal(err)
	}
	after := db.ReadView()

	adjEntry := func() bool { return db.store.Load().adj.entry(a) != nil }
	configEntry := func() bool { return db.store.Load().configs.entry("doomed") != nil }
	// check fails the test unless v reads the link at from and the
	// configuration as had says.
	check := func(name string, v *View, from Key, had bool) {
		t.Helper()
		for _, k := range []Key{a, a2} {
			got := v.LinksOf(k)
			ok := len(got) == 0
			if k == from {
				ok = len(got) == 1 && got[0].ID == id && got[0].From == from
			}
			if !ok {
				t.Errorf("%s view: links of %v = %v, want link %d from %v", name, k, got, id, from)
			}
		}
		if _, err := v.GetConfiguration("doomed"); (err == nil) != had {
			t.Errorf("%s view: configuration doomed: %v, want present %v", name, err, had)
		}
	}
	check("pre-tombstone", before, a, true)
	check("post-tombstone", after, a2, false)

	db.ReclaimVersions()
	if !adjEntry() || !configEntry() {
		t.Errorf("a reclaim below the tombstones dropped entries a pinned view reads: posting %v, configuration %v", adjEntry(), configEntry())
	}
	check("pinned pre-tombstone", before, a, true)

	before.Close()
	after.Close()
	db.ReclaimVersions()
	if h, s := db.VersionHorizon(), db.mvcc.epoch.Load(); h < s {
		t.Fatalf("horizon %d short of the epoch %d with nothing pinned", h, s)
	}
	if adjEntry() || configEntry() {
		t.Errorf("a reclaim past the tombstones kept dead entries: posting of %v %v, configuration %v", a, adjEntry(), configEntry())
	}
	cur := db.ReadView()
	defer cur.Close()
	check("reclaimed", cur, a2, false)
}

// TestViewByteStableUnderWriters is the -race hammer: four writers mutate
// continuously while readers pin views and assert each is byte-stable —
// two checkpoints of one view, and a re-pin of the same LSN, all identical.
func TestViewByteStableUnderWriters(t *testing.T) {
	db := NewDB()
	var seed []Key
	for i := 0; i < 8; i++ {
		seed = append(seed, mustNewVersion(t, db, fmt.Sprintf("blk%d", i), "HDL_model"))
	}

	const writerOps = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var links []LinkID
			for i := 0; i < writerOps; i++ {
				k := seed[(w*7+i)%len(seed)]
				switch i % 5 {
				case 0:
					if _, err := db.NewVersion(k.Block, "netlist"); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := db.SetProp(k, "state", fmt.Sprintf("w%d-%d", w, i)); err != nil {
						t.Error(err)
						return
					}
				case 2:
					err := db.UpdateOID(k, func(props map[string]string) {
						props["count"] = fmt.Sprint(i)
						delete(props, "tmp")
					})
					if err != nil {
						t.Error(err)
						return
					}
				case 3:
					to := seed[(w*3+i+1)%len(seed)]
					if id, err := db.AddLink(DeriveLink, k, to, "", []string{"ckin"}, nil); err == nil {
						links = append(links, id)
					}
				case 4:
					if len(links) > 0 {
						id := links[len(links)-1]
						if l, err := db.Head().GetLink(id); err == nil {
							_ = db.RetargetLink(id, l.From, seed[(w*5+i)%len(seed)])
						}
					}
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(stop) }()

	readers := 3
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := db.ReadView()
				b1 := viewText(t, v)
				b2 := viewText(t, v)
				if !bytes.Equal(b1, b2) {
					t.Errorf("view at lsn %d not byte-stable across re-reads", v.LSN())
					v.Close()
					return
				}
				rv, err := db.ReadViewAt(v.LSN())
				if err != nil {
					t.Errorf("re-pin lsn %d: %v", v.LSN(), err)
					v.Close()
					return
				}
				if b3 := viewText(t, rv); !bytes.Equal(b1, b3) {
					t.Errorf("ReadViewAt(%d) differs from the view pinned there", v.LSN())
				}
				rv.Close()
				v.Close()
			}
		}()
	}
	rg.Wait()

	// Quiesced: a fresh view equals the live checkpoint.
	v := db.ReadView()
	defer v.Close()
	if got, live := viewText(t, v), dbText(t, db); !bytes.Equal(got, live) {
		t.Error("final view differs from the live checkpoint")
	}
}

// TestReclaimVersions checks the reclaimer trims below the floor: with no
// pins the horizon advances to the stable epoch, old positions refuse
// with ErrViewReclaimed, and a pinned view holds the floor back.
func TestReclaimVersions(t *testing.T) {
	db := NewDB()
	k := mustNewVersion(t, db, "cpu", "HDL_model")
	for i := 0; i < 10; i++ {
		if err := db.SetProp(k, "state", fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	tip := db.ReadView()
	tipLSN := tip.LSN()
	tip.Close()
	old, err := db.ReadViewAt(tipLSN - 5)
	if err != nil {
		t.Fatal(err)
	}

	// A pinned view holds the floor at its LSN.
	db.ReclaimVersions()
	if h := db.VersionHorizon(); h > old.LSN() {
		t.Fatalf("horizon %d advanced past the pinned view at %d", h, old.LSN())
	}
	if got := viewState(t, old, k); got != "4" {
		t.Errorf("pinned view reads state=%q, want 4", got)
	}

	cur := db.ReadView()
	old.Close()
	db.ReclaimVersions()
	if h := db.VersionHorizon(); h != cur.LSN() {
		t.Errorf("horizon = %d, want stable epoch %d", h, cur.LSN())
	}
	if _, err := db.ReadViewAt(cur.LSN() - 1); !errors.Is(err, ErrViewReclaimed) {
		t.Errorf("ReadViewAt below horizon: err = %v, want ErrViewReclaimed", err)
	}
	// The retained base still serves current reads.
	if got := viewState(t, cur, k); got != "9" {
		t.Errorf("current view reads state=%q, want 9", got)
	}
	cur.Close()
}

// viewState reads the "state" property of one OID through a view.
func viewState(t *testing.T, v *View, k Key) string {
	t.Helper()
	o, err := v.GetOID(k)
	if err != nil {
		t.Fatal(err)
	}
	return prop(o.Props, "state")
}
