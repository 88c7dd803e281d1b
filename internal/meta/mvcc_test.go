package meta

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func viewSave(t *testing.T, v *View) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadViewPointInTime pins views at successive epochs and checks each
// reads exactly the state of its moment — later mutations invisible,
// earlier ones present — and that a view Save equals a live Save taken at
// the same quiesced point.
func TestReadViewPointInTime(t *testing.T) {
	db := NewDB()
	a := mustNewVersion(t, db, "cpu", "HDL_model")

	if err := db.SetProp(a, "state", "old"); err != nil {
		t.Fatal(err)
	}
	v1 := db.ReadView()
	defer v1.Close()
	liveAtV1 := saveDB(t, db)

	b := mustNewVersion(t, db, "alu", "HDL_model")
	if err := db.SetProp(a, "state", "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddLink(DeriveLink, a, b, "", []string{"ckin"}, nil); err != nil {
		t.Fatal(err)
	}
	v2 := db.ReadView()
	defer v2.Close()

	// v1: pre-mutation state, byte-stable, equal to the live Save taken then.
	if v1.HasOID(b) {
		t.Error("v1 sees an OID created after it was pinned")
	}
	o, err := v1.GetOID(a)
	if err != nil || o.Props["state"] != "old" {
		t.Errorf("v1 GetOID(a) = %v, %v; want state=old", o, err)
	}
	if got := viewSave(t, v1); !bytes.Equal(got, liveAtV1) {
		t.Errorf("v1 Save differs from the live Save at pin time:\n%s\nvs\n%s", got, liveAtV1)
	}
	v1.EachLink(func(l *Link) bool {
		t.Errorf("v1 sees link %d created after it", l.ID)
		return true
	})

	// v2: current state, equal to a live Save now.
	o2, err := v2.GetOID(a)
	if err != nil || o2.Props["state"] != "new" {
		t.Errorf("v2 GetOID(a) = %v, %v; want state=new", o2, err)
	}
	if !v2.HasOID(b) {
		t.Error("v2 misses OID b")
	}
	if got, live := viewSave(t, v2), saveDB(t, db); !bytes.Equal(got, live) {
		t.Errorf("v2 Save differs from live Save:\n%s\nvs\n%s", got, live)
	}

	// Re-reading v1 after everything still yields the same bytes.
	if got := viewSave(t, v1); !bytes.Equal(got, liveAtV1) {
		t.Error("v1 is not byte-stable after later mutations")
	}

	// ReadViewAt re-pins the same positions exactly.
	r1, err := db.ReadViewAt(v1.LSN())
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	if got := viewSave(t, r1); !bytes.Equal(got, liveAtV1) {
		t.Error("ReadViewAt(v1.LSN) differs from v1")
	}
}

func saveDB(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadViewTombstones checks deletions are versioned: a view pinned
// before a DeleteLink/PruneVersions still sees the objects, one pinned
// after does not.
func TestReadViewTombstones(t *testing.T) {
	db := NewDB()
	a := mustNewVersion(t, db, "cpu", "HDL_model")
	b := mustNewVersion(t, db, "alu", "HDL_model")
	mustNewVersion(t, db, "cpu", "HDL_model") // version 2
	id, err := db.AddLink(DeriveLink, a, b, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	before := db.ReadView()
	defer before.Close()

	if err := db.DeleteLink(id); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PruneVersions("cpu", "HDL_model", 1); err != nil {
		t.Fatal(err)
	}
	after := db.ReadView()
	defer after.Close()

	if !before.HasOID(a) {
		t.Error("pre-prune view lost cpu v1")
	}
	found := false
	before.EachLink(func(l *Link) bool { found = found || l.ID == id; return true })
	if !found {
		t.Error("pre-delete view lost the link")
	}
	if after.HasOID(a) {
		t.Error("post-prune view still sees pruned cpu v1")
	}
	after.EachLink(func(l *Link) bool {
		if l.ID == id {
			t.Error("post-delete view still sees the link")
		}
		return true
	})
	if k, err := after.Latest("cpu", "HDL_model"); err != nil || k.Version != 2 {
		t.Errorf("after.Latest = %v, %v; want cpu v2", k, err)
	}
}

// TestViewByteStableUnderWriters is the -race hammer: four writers mutate
// continuously while readers pin views and assert each is byte-stable —
// two Saves of one view, and a re-pin of the same LSN, all identical.
func TestViewByteStableUnderWriters(t *testing.T) {
	db := NewDBWithShards(4)
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
					err := db.UpdateOID(k, func(o *OID) {
						o.Props["count"] = fmt.Sprint(i)
						delete(o.Props, "tmp")
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
						links = links[:len(links)-1]
						if err := db.DeleteLink(id); err != nil {
							t.Error(err)
							return
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
				b1 := viewSave(t, v)
				b2 := viewSave(t, v)
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
				if b3 := viewSave(t, rv); !bytes.Equal(b1, b3) {
					t.Errorf("ReadViewAt(%d) differs from the view pinned there", v.LSN())
				}
				rv.Close()
				v.Close()
			}
		}()
	}
	rg.Wait()

	// Quiesced: a fresh view equals the live Save.
	if got, live := viewSave(t, db.ReadView()), saveDB(t, db); !bytes.Equal(got, live) {
		t.Error("final view differs from live Save")
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
	return o.Props["state"]
}
