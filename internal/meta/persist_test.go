package meta

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

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

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
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

func TestSaveLoadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewDB().Save(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s := db.Head().Stats(); s.OIDs != 0 || s.Links != 0 {
		t.Errorf("empty load stats = %+v", s)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json",
		"dup oid":       `{"oids":[{"block":"a","view":"v","version":1},{"block":"a","view":"v","version":1}]}`,
		"dangling link": `{"oids":[{"block":"a","view":"v","version":1}],"links":[{"id":1,"class":"use","from":"a,v,1","to":"b,v,1"}]}`,
		"bad class":     `{"oids":[{"block":"a","view":"v","version":1},{"block":"b","view":"v","version":1}],"links":[{"id":1,"class":"weird","from":"a,v,1","to":"b,v,1"}]}`,
		"bad key":       `{"oids":[{"block":"a","view":"v","version":1},{"block":"b","view":"v","version":1}],"links":[{"id":1,"class":"use","from":"nokey","to":"b,v,1"}]}`,
		"self link":     `{"oids":[{"block":"a","view":"v","version":1}],"links":[{"id":1,"class":"use","from":"a,v,1","to":"a,v,1"}]}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: Load accepted corrupt input", name)
		}
	}
}

func TestLoadRejectsDuplicates(t *testing.T) {
	cases := map[string]struct{ doc, wantSub string }{
		"oid": {
			doc: `{"oids":[
				{"block":"a","view":"v","version":1,"props":{"p":"first"}},
				{"block":"b","view":"v","version":1},
				{"block":"a","view":"v","version":1,"props":{"p":"second"}}
			]}`,
			wantSub: "duplicate oid a,v,1",
		},
		"configuration": {
			doc:     `{"configurations":[{"name":"c","oids":[]},{"name":"c","oids":[]}]}`,
			wantSub: `duplicate configuration "c"`,
		},
		"workspace": {
			doc:     `{"workspaces":[{"name":"w","root":"/a"},{"name":"w","root":"/b"}]}`,
			wantSub: `duplicate workspace "w"`,
		},
	}
	for name, tc := range cases {
		_, err := Load(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: Load accepted a duplicate (last-wins would silently drop data)", name)
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

func TestLoadVersionChainOutOfOrderInput(t *testing.T) {
	// Versions listed out of order in the document must still load.
	doc := `{"oids":[
		{"block":"a","view":"v","version":3},
		{"block":"a","view":"v","version":1},
		{"block":"a","view":"v","version":2}
	]}`
	db, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Head().Versions("a", "v"); len(got) != 3 {
		t.Errorf("Versions = %v", got)
	}
}
