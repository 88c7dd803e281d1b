package meta

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestSaveLoadRoundTrip: a database's checkpoint loads back to it.
func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	root, nl := buildHierarchy(t, db)
	if err := db.SetProp(root, "uptodate", "true"); err != nil {
		t.Fatal(err)
	}
	if err := db.SetProp(nl, "sim_result", "4 errors"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SnapshotHierarchy("snap", root, FollowAllLinks); err != nil {
		t.Fatal(err)
	}
	if err := db.AddWorkspace("ws", "/proj/data"); err != nil {
		t.Fatal(err)
	}
	if err := db.BindPath("ws", root, "cpu/schema/1"); err != nil {
		t.Fatal(err)
	}

	rv := db.ReadView()
	db2, err := loadPayloads(checkpointOf(t, rv))
	rv.Close()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(db.Head().Stats(), db2.Head().Stats()) {
		t.Errorf("stats differ: %+v vs %+v", db.Head().Stats(), db2.Head().Stats())
	}
	if !reflect.DeepEqual(db.Head().Keys(), db2.Head().Keys()) {
		t.Errorf("keys differ")
	}
	v, ok, err := db2.Head().GetProp(nl, "sim_result")
	if err != nil || !ok || v != "4 errors" {
		t.Errorf("prop lost: %q %v %v", v, ok, err)
	}
	// Links with identical IDs and contents.
	for _, id := range db.Head().LinkIDs() {
		l1, _ := db.Head().GetLink(id)
		l2, err := db2.Head().GetLink(id)
		if err != nil {
			t.Fatalf("link %d lost: %v", id, err)
		}
		if !reflect.DeepEqual(l1, l2) {
			t.Errorf("link %d differs:\n%+v\n%+v", id, l1, l2)
		}
	}
	// Configuration survives.
	c1, _ := db.Head().GetConfiguration("snap")
	c2, err := db2.Head().GetConfiguration("snap")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("configuration differs")
	}
	// Workspace binding survives.
	w, err := db2.Head().GetWorkspace("ws")
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := w.Path(root); !ok || p != "cpu/schema/1" {
		t.Errorf("workspace path = %q %v", p, ok)
	}
	// Seq counters survive so new objects don't collide.
	if db.Seq() != db2.Seq() {
		t.Errorf("seq differs: %d vs %d", db.Seq(), db2.Seq())
	}
	k, err := db2.NewVersion("cpu", "SCHEMA")
	if err != nil {
		t.Fatal(err)
	}
	if k.Version != 2 {
		t.Errorf("post-load NewVersion = %v, want version 2", k)
	}
}

// checkpointLines is a checkpoint written out one record a line.
func checkpointLines(text string) [][]byte {
	return bytes.Split([]byte(text), []byte("\n"))
}

// TestLoadRejectsCorrupt: a checkpoint that is not one, or whose links
// dangle, loop on one OID or are spelled wrong, does not load.
func TestLoadRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"garbage": "not a checkpoint",
		"dup oid": "0 0 oid a,v,1 0\n0 0 oid a,v,1 0\n0 0 clock 0",
		"dangling link": "0 0 oid a,v,1 0\n" +
			`0 0 link 1 use a,v,1 b,v,1 "" 0 0` + "\n0 0 clock 1",
		"bad class": "0 0 oid a,v,1 0\n0 0 oid b,v,1 0\n" +
			`0 0 link 1 weird a,v,1 b,v,1 "" 0 0` + "\n0 0 clock 1",
		"bad key": "0 0 oid a,v,1 0\n0 0 oid b,v,1 0\n" +
			`0 0 link 1 use nokey b,v,1 "" 0 0` + "\n0 0 clock 1",
		"self link": "0 0 oid a,v,1 0\n" +
			`0 0 link 1 use a,v,1 a,v,1 "" 0 0` + "\n0 0 clock 1",
	}
	for name, text := range cases {
		if _, err := loadPayloads(checkpointLines(text)); err == nil {
			t.Errorf("%s: LoadCheckpoint accepted corrupt input", name)
		} else if !strings.HasPrefix(err.Error(), "meta: checkpoint") {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLoadRejectsDuplicates: an OID, configuration or workspace a
// checkpoint holds twice is refused by name, not loaded last-wins.
func TestLoadRejectsDuplicates(t *testing.T) {
	cases := map[string]struct{ text, wantSub string }{
		"oid": {
			text:    "0 0 oid a,v,1 0 1 p first\n0 0 oid a,v,1 0 1 p second\n0 0 oid b,v,1 0\n0 0 clock 0",
			wantSub: "duplicate oid a,v,1",
		},
		"configuration": {
			text:    "0 0 config c 1 0\n0 0 config c 1 0\n0 0 clock 0",
			wantSub: `duplicate configuration "c"`,
		},
		"workspace": {
			text:    "0 0 workspace w /a\n0 0 workspace w /b\n0 0 clock 0",
			wantSub: `duplicate workspace "w"`,
		},
	}
	for name, tc := range cases {
		_, err := loadPayloads(checkpointLines(tc.text))
		if err == nil {
			t.Errorf("%s: LoadCheckpoint accepted a duplicate (last-wins would silently drop data)", name)
			continue
		}
		if !errors.Is(err, ErrExists) {
			t.Errorf("%s: err = %v, want ErrExists", name, err)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: err %q does not describe the duplicate (want %q)", name, err, tc.wantSub)
		}
	}
}

// TestLoadFloorsLinkCounter: a checkpoint whose clock is below one of its
// link IDs loads with the counter at its largest link ID, so the next link
// added gets an ID above every loaded one — and so does a link ID below 1,
// which a journal replay accepts too, load and come back from the checkpoint.
func TestLoadFloorsLinkCounter(t *testing.T) {
	db, err := loadPayloads([][]byte{
		[]byte("0 0 oid a,v,1 0"),
		[]byte("0 0 oid b,v,1 0"),
		[]byte(`0 0 link -3 derive a,v,1 b,v,1 "" 0 0`),
		[]byte(`0 0 link 0 use a,v,1 b,v,1 "" 0 0`),
		[]byte(`0 0 link 7 use b,v,1 a,v,1 "" 0 0`),
		[]byte("0 0 clock 2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := Key{Block: "a", View: "v", Version: 1}, Key{Block: "b", View: "v", Version: 1}
	id, err := db.AddLink(DeriveLink, b, a, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 8 {
		t.Errorf("the link added after loading IDs -3, 0 and 7 under next_link 2 got ID %d, want 8", id)
	}
	v := db.ReadView()
	defer v.Close()
	again, err := loadPayloads(checkpointOf(t, v))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.Head().LinkIDs(), []LinkID{-3, 0, 7, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint of the loaded database holds links %v, want %v", got, want)
	}
}
