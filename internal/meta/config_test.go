package meta

import (
	"errors"
	"testing"
)

// buildHierarchy creates cpu -> {reg, alu} -> ... use-link hierarchy in view
// SCHEMA plus one derive link to a netlist, and returns the root.
func buildHierarchy(t *testing.T, db *DB) (root Key, netlist Key) {
	t.Helper()
	cpu := mustNewVersion(t, db, "cpu", "SCHEMA")
	reg := mustNewVersion(t, db, "reg", "SCHEMA")
	alu := mustNewVersion(t, db, "alu", "SCHEMA")
	shifter := mustNewVersion(t, db, "shifter", "SCHEMA")
	nl := mustNewVersion(t, db, "cpu", "netlist")
	mustLink := func(class LinkClass, from, to Key, props map[string]string) {
		t.Helper()
		if _, err := db.AddLink(class, from, to, "", nil, props); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(UseLink, cpu, reg, nil)
	mustLink(UseLink, cpu, alu, nil)
	mustLink(UseLink, alu, shifter, nil)
	mustLink(DeriveLink, cpu, nl, map[string]string{PropType: TypeDeriveFrom})
	return cpu, nl
}

func TestSnapshotHierarchyUseOnly(t *testing.T) {
	db := NewDB()
	root, _ := buildHierarchy(t, db)
	c, err := db.SnapshotHierarchy("snap", root, FollowUseLinks)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.OIDs) != 4 {
		t.Errorf("snapshot OIDs = %v, want 4 schematic OIDs", c.OIDs)
	}
	if len(c.Links) != 3 {
		t.Errorf("snapshot Links = %v, want 3 use links", c.Links)
	}
	for _, k := range c.OIDs {
		if k.View != "SCHEMA" {
			t.Errorf("use-only snapshot crossed views: %v", k)
		}
	}
}

func TestSnapshotHierarchyAllLinks(t *testing.T) {
	db := NewDB()
	root, nl := buildHierarchy(t, db)
	c, err := db.SnapshotHierarchy("snap", root, FollowAllLinks)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.OIDs) != 5 {
		t.Errorf("snapshot OIDs = %v, want 5", c.OIDs)
	}
	if !c.Contains(nl) {
		t.Error("netlist missing from all-links snapshot")
	}
}

func TestSnapshotFollowType(t *testing.T) {
	db := NewDB()
	root, nl := buildHierarchy(t, db)
	c, err := db.SnapshotHierarchy("s1", root, FollowType(TypeEquivalence))
	if err != nil {
		t.Fatal(err)
	}
	if c.Contains(nl) {
		t.Error("derive_from link followed by equivalence-only rule")
	}
	c2, err := db.SnapshotHierarchy("s2", root, FollowType(TypeDeriveFrom))
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Contains(nl) {
		t.Error("derive_from link not followed")
	}
}

func TestSnapshotErrors(t *testing.T) {
	db := NewDB()
	root, _ := buildHierarchy(t, db)
	if _, err := db.SnapshotHierarchy("s", root, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SnapshotHierarchy("s", root, nil); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate snapshot: %v", err)
	}
	if _, err := db.SnapshotHierarchy("s2", Key{Block: "ghost", View: "v", Version: 1}, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing root: %v", err)
	}
	if _, err := db.SnapshotHierarchy("bad name", root, nil); err == nil {
		t.Error("bad name accepted")
	}
}

func TestSnapshotImmutableUnderMutation(t *testing.T) {
	db := NewDB()
	root, _ := buildHierarchy(t, db)
	c, err := db.SnapshotHierarchy("snap", root, FollowUseLinks)
	if err != nil {
		t.Fatal(err)
	}
	nOIDs, nLinks := len(c.OIDs), len(c.Links)
	// Mutate the database afterwards.
	extra := mustNewVersion(t, db, "extra", "SCHEMA")
	if _, err := db.AddLink(UseLink, root, extra, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	c2, err := db.Head().GetConfiguration("snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.OIDs) != nOIDs || len(c2.Links) != nLinks {
		t.Errorf("snapshot changed after mutation: %d/%d -> %d/%d",
			nOIDs, nLinks, len(c2.OIDs), len(c2.Links))
	}
	if c2.Contains(extra) {
		t.Error("snapshot gained a post-snapshot OID")
	}
}

func TestSnapshotQuery(t *testing.T) {
	db := NewDB()
	buildHierarchy(t, db)
	for _, bv := range db.Head().BlockViews() {
		k, _ := db.Head().Latest(bv.Block, bv.View)
		if bv.View == "SCHEMA" {
			if err := db.SetProp(k, "uptodate", "false"); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := db.SnapshotQuery("stale", func(o *OID) bool {
		return o.Props["uptodate"] == "false"
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.OIDs) != 4 {
		t.Errorf("query snapshot = %v, want the 4 stale schematics", c.OIDs)
	}
	// Links internal to the selected set are captured: the 3 use links.
	if len(c.Links) != 3 {
		t.Errorf("query snapshot links = %v, want 3", c.Links)
	}
}

func TestResolveWithMissing(t *testing.T) {
	db := NewDB()
	root, nl := buildHierarchy(t, db)
	c, err := db.SnapshotHierarchy("snap", root, FollowAllLinks)
	if err != nil {
		t.Fatal(err)
	}
	// Delete one captured link.
	if err := db.DeleteLink(c.Links[0]); err != nil {
		t.Fatal(err)
	}
	r, err := db.Head().Resolve("snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MissingLinks) != 1 || r.MissingLinks[0] != c.Links[0] {
		t.Errorf("MissingLinks = %v", r.MissingLinks)
	}
	if len(r.OIDs) != 5 || len(r.MissingOIDs) != 0 {
		t.Errorf("resolved OIDs = %d missing %d", len(r.OIDs), len(r.MissingOIDs))
	}
	_ = nl
}

func TestConfigurationNamesAndDelete(t *testing.T) {
	db := NewDB()
	root, _ := buildHierarchy(t, db)
	for _, n := range []string{"c", "a", "b"} {
		if _, err := db.SnapshotHierarchy(n, root, nil); err != nil {
			t.Fatal(err)
		}
	}
	names := db.Head().ConfigurationNames()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("ConfigurationNames = %v", names)
	}
	if err := db.DeleteConfiguration("b"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteConfiguration("b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if _, err := db.Head().GetConfiguration("b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete: %v", err)
	}
}

func TestSnapshotCyclicGraphTerminates(t *testing.T) {
	db := NewDB()
	a := mustNewVersion(t, db, "a", "v")
	b := mustNewVersion(t, db, "b", "v")
	c := mustNewVersion(t, db, "c", "v")
	for _, pair := range [][2]Key{{a, b}, {b, c}, {c, a}} {
		if _, err := db.AddLink(DeriveLink, pair[0], pair[1], "", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	cfg, err := db.SnapshotHierarchy("cycle", a, FollowAllLinks)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.OIDs) != 3 || len(cfg.Links) != 3 {
		t.Errorf("cycle snapshot = %d OIDs %d links", len(cfg.OIDs), len(cfg.Links))
	}
}

func TestSnapshotAsOf(t *testing.T) {
	db := NewDB()
	h1 := mustNewVersion(t, db, "cpu", "HDL_model")
	s1 := mustNewVersion(t, db, "cpu", "schematic")
	if _, err := db.AddLink(DeriveLink, h1, s1, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	mark := db.Seq()
	// Afterwards: a new model version and a late link.
	h2 := mustNewVersion(t, db, "cpu", "HDL_model")
	if _, err := db.AddLink(DeriveLink, h2, s1, "", nil, nil); err != nil {
		t.Fatal(err)
	}

	c, err := db.SnapshotAsOf("past", mark)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.OIDs) != 2 || !c.Contains(h1) || !c.Contains(s1) {
		t.Errorf("as-of OIDs = %v", c.OIDs)
	}
	if c.Contains(h2) {
		t.Error("future version captured")
	}
	if len(c.Links) != 1 {
		t.Errorf("as-of links = %v, want only the early link", c.Links)
	}

	// A snapshot at the present captures the latest versions.
	now, err := db.SnapshotAsOf("now", db.Seq())
	if err != nil {
		t.Fatal(err)
	}
	if !now.Contains(h2) || now.Contains(h1) {
		t.Errorf("present snapshot = %v", now.OIDs)
	}
	// seq 0: empty design.
	zero, err := db.SnapshotAsOf("origin", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.OIDs) != 0 {
		t.Errorf("origin snapshot = %v", zero.OIDs)
	}
	if _, err := db.SnapshotAsOf("past", mark); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate name: %v", err)
	}
}

func TestConfigurationContains(t *testing.T) {
	c := &Configuration{OIDs: []Key{
		{"a", "v", 1}, {"b", "v", 1}, {"c", "v", 2},
	}}
	if !c.Contains(Key{"b", "v", 1}) {
		t.Error("Contains(b) = false")
	}
	if c.Contains(Key{"b", "v", 2}) {
		t.Error("Contains(b,2) = true")
	}
}
