package meta

import (
	"errors"
	"fmt"
	"testing"
)

func mustNewVersion(t *testing.T, db *DB, block, view string) Key {
	t.Helper()
	k, err := db.NewVersion(block, view)
	if err != nil {
		t.Fatalf("NewVersion(%s,%s): %v", block, view, err)
	}
	return k
}

func TestNewVersionSequence(t *testing.T) {
	db := NewDB()
	for i := 1; i <= 5; i++ {
		k := mustNewVersion(t, db, "cpu", "HDL_model")
		if k.Version != i {
			t.Fatalf("version %d on creation %d", k.Version, i)
		}
	}
	if got := db.Head().Versions("cpu", "HDL_model"); len(got) != 5 {
		t.Fatalf("Versions = %v, want 5 entries", got)
	}
	latest, err := db.Head().Latest("cpu", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != 5 {
		t.Errorf("Latest = %v, want version 5", latest)
	}
}

func TestNewVersionIndependentChains(t *testing.T) {
	db := NewDB()
	a := mustNewVersion(t, db, "cpu", "HDL_model")
	b := mustNewVersion(t, db, "cpu", "schematic")
	c := mustNewVersion(t, db, "reg", "HDL_model")
	for _, k := range []Key{a, b, c} {
		if k.Version != 1 {
			t.Errorf("first version of %v = %d, want 1", k.BV(), k.Version)
		}
	}
}

func TestNewVersionValidation(t *testing.T) {
	db := NewDB()
	if _, err := db.NewVersion("", "v"); err == nil {
		t.Error("empty block accepted")
	}
	if _, err := db.NewVersion("b", "bad view"); err == nil {
		t.Error("bad view name accepted")
	}
}

func TestLatestMissing(t *testing.T) {
	db := NewDB()
	if _, err := db.Head().Latest("nope", "nv"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Latest on missing chain = %v, want ErrNotFound", err)
	}
}

func TestPredecessor(t *testing.T) {
	db := NewDB()
	v1 := mustNewVersion(t, db, "alu", "GDSII")
	v2 := mustNewVersion(t, db, "alu", "GDSII")
	if _, ok := db.Head().Predecessor(v1); ok {
		t.Error("v1 has a predecessor")
	}
	p, ok := db.Head().Predecessor(v2)
	if !ok || p != v1 {
		t.Errorf("Predecessor(v2) = %v,%v, want %v,true", p, ok, v1)
	}
	if _, ok := db.Head().Predecessor(Key{Block: "alu", View: "GDSII", Version: 99}); ok {
		t.Error("phantom version has a predecessor")
	}
}

func TestProps(t *testing.T) {
	db := NewDB()
	k := mustNewVersion(t, db, "alu", "GDSII")
	if err := db.SetProp(k, "DRC", "ok"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Head().GetProp(k, "DRC")
	if err != nil || !ok || v != "ok" {
		t.Fatalf("GetProp = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := db.Head().GetProp(k, "missing"); ok {
		t.Error("missing property reported present")
	}
	if err := db.UpdateOID(k, func(p map[string]string) { delete(p, "DRC") }); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Head().GetProp(k, "DRC"); ok {
		t.Error("deleted property still present")
	}
	// Errors on missing OID.
	bad := Key{Block: "x", View: "y", Version: 1}
	if err := db.SetProp(bad, "p", "v"); !errors.Is(err, ErrNotFound) {
		t.Errorf("SetProp on missing OID: %v", err)
	}
	if _, _, err := db.Head().GetProp(bad, "p"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetProp on missing OID: %v", err)
	}
	if err := db.UpdateOID(bad, func(map[string]string) {}); !errors.Is(err, ErrNotFound) {
		t.Errorf("UpdateOID on missing OID: %v", err)
	}
	if err := db.SetProp(k, "bad name", "v"); err == nil {
		t.Error("bad property name accepted")
	}
}

func TestGetOIDReturnsCopy(t *testing.T) {
	db := NewDB()
	k := mustNewVersion(t, db, "alu", "GDSII")
	if err := db.SetProp(k, "DRC", "ok"); err != nil {
		t.Fatal(err)
	}
	pinned := db.ReadView()
	defer pinned.Close()
	for _, v := range []*View{db.Head(), pinned} {
		o, err := v.GetOID(k)
		if err != nil {
			t.Fatal(err)
		}
		want := *o
		o.Seq, o.Props = -1, Props{}
		if again, err := v.GetOID(k); err != nil || again.Seq != want.Seq || again.Props != want.Props {
			t.Errorf("mutating GetOID result changed database state: %+v, want %+v", again, want)
		}
	}
}

func TestAddLinkAndIndexes(t *testing.T) {
	db := NewDB()
	cpu := mustNewVersion(t, db, "cpu", "SCHEMA")
	reg := mustNewVersion(t, db, "reg", "SCHEMA")
	id, err := db.AddLink(UseLink, cpu, reg, "use:SCHEMA", []string{"outofdate"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := db.Head().GetLink(id)
	if err != nil {
		t.Fatal(err)
	}
	if l.From != cpu || l.To != reg || l.Class != UseLink {
		t.Errorf("link = %+v", l)
	}
	if !l.CanPropagate("outofdate") || l.CanPropagate("ckin") {
		t.Error("PROPAGATE set wrong")
	}
	if got := db.Head().posting(cpu).out; len(got) != 1 || got[0].ID != id {
		t.Errorf("out-posting(cpu) = %v", got)
	}
	if got := db.Head().posting(reg).in; len(got) != 1 || got[0].ID != id {
		t.Errorf("in-posting(reg) = %v", got)
	}
	if got := db.Head().LinksOf(cpu); len(got) != 1 {
		t.Errorf("LinksOf(cpu) = %v", got)
	}
}

func TestAddLinkValidation(t *testing.T) {
	db := NewDB()
	cpu := mustNewVersion(t, db, "cpu", "SCHEMA")
	hdl := mustNewVersion(t, db, "cpu", "HDL_model")
	// Use link crossing view types.
	if _, err := db.AddLink(UseLink, hdl, cpu, "", nil, nil); !errors.Is(err, ErrBadLink) {
		t.Errorf("cross-view use link: %v, want ErrBadLink", err)
	}
	// Self link.
	if _, err := db.AddLink(DeriveLink, cpu, cpu, "", nil, nil); !errors.Is(err, ErrBadLink) {
		t.Errorf("self link: %v, want ErrBadLink", err)
	}
	// Missing endpoint.
	ghost := Key{Block: "ghost", View: "SCHEMA", Version: 1}
	if _, err := db.AddLink(UseLink, cpu, ghost, "", nil, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing endpoint: %v, want ErrNotFound", err)
	}
	// Derive link across views is fine.
	if _, err := db.AddLink(DeriveLink, hdl, cpu, "t", nil, map[string]string{PropType: TypeDeriveFrom}); err != nil {
		t.Errorf("derive link: %v", err)
	}
}

func TestRetargetLink(t *testing.T) {
	// Figure 3: link NetList.8 -> GDSII.5 shifts to NetList.8 -> GDSII.6.
	db := NewDB()
	nl := mustNewVersion(t, db, "alu", "NetList")
	for i := 0; i < 7; i++ {
		mustNewVersion(t, db, "alu", "NetList")
	}
	nl8, _ := db.Head().Latest("alu", "NetList")
	if nl8.Version != 8 {
		t.Fatalf("setup: %v", nl8)
	}
	_ = nl
	var g5 Key
	for i := 0; i < 5; i++ {
		g5 = mustNewVersion(t, db, "alu", "GDSII")
	}
	id, err := db.AddLink(DeriveLink, nl8, g5, "tmpl", []string{"OutOfDate"}, map[string]string{PropType: TypeDeriveFrom})
	if err != nil {
		t.Fatal(err)
	}
	g6 := mustNewVersion(t, db, "alu", "GDSII")
	if err := db.RetargetLink(id, g5, g6); err != nil {
		t.Fatal(err)
	}
	l, _ := db.Head().GetLink(id)
	if l.To != g6 || l.From != nl8 {
		t.Errorf("after retarget: %v -> %v", l.From, l.To)
	}
	if got := db.Head().posting(g5).in; len(got) != 0 {
		t.Errorf("old version still indexed: %v", got)
	}
	if got := db.Head().posting(g6).in; len(got) != 1 {
		t.Errorf("new version not indexed: %v", got)
	}
	// Retarget with a non-endpoint.
	if err := db.RetargetLink(id, g5, g6); !errors.Is(err, ErrBadLink) {
		t.Errorf("retarget from non-endpoint: %v", err)
	}
	// Retarget to an OID that does not exist: refused, link untouched.
	ghost := Key{Block: "alu", View: "GDSII", Version: 99}
	if err := db.RetargetLink(id, g6, ghost); !errors.Is(err, ErrNotFound) {
		t.Errorf("retarget to missing OID: %v, want ErrNotFound", err)
	}
	if l, _ := db.Head().GetLink(id); l.To != g6 {
		t.Errorf("refused retarget moved the link: %v", l.To)
	}
	// Retarget the From side.
	nl9 := mustNewVersion(t, db, "alu", "NetList")
	if err := db.RetargetLink(id, nl8, nl9); err != nil {
		t.Fatal(err)
	}
	l, _ = db.Head().GetLink(id)
	if l.From != nl9 {
		t.Errorf("from not retargeted: %v", l.From)
	}
	if got := db.Head().posting(nl9).out; len(got) != 1 {
		t.Errorf("from index: %v", got)
	}
}

func TestRetargetLinkInvariantViolation(t *testing.T) {
	db := NewDB()
	a := mustNewVersion(t, db, "a", "SCHEMA")
	b := mustNewVersion(t, db, "b", "SCHEMA")
	c := mustNewVersion(t, db, "c", "OTHER")
	id, err := db.AddLink(UseLink, a, b, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Retargeting a use link across view types must fail and leave state
	// unchanged.
	if err := db.RetargetLink(id, b, c); !errors.Is(err, ErrBadLink) {
		t.Fatalf("cross-view retarget: %v", err)
	}
	l, _ := db.Head().GetLink(id)
	if l.To != b {
		t.Errorf("failed retarget mutated link: %v", l.To)
	}
	if got := db.Head().posting(b).in; len(got) != 1 {
		t.Errorf("index damaged: %v", got)
	}
}

func TestLinkProps(t *testing.T) {
	db := NewDB()
	a := mustNewVersion(t, db, "a", "v")
	b := mustNewVersion(t, db, "b", "v")
	id, err := db.AddLink(DeriveLink, a, b, "", []string{"outofdate", "lvs", "outofdate"}, map[string]string{PropType: TypeEquivalence})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := db.Head().GetLink(id)
	if l.Type() != TypeEquivalence {
		t.Errorf("Type = %q", l.Type())
	}
	if got := l.Propagates; len(got) != 2 || got[0] != "lvs" || got[1] != "outofdate" {
		t.Errorf("Propagates = %v, want [lvs outofdate]", got)
	}
}

func TestLinkOther(t *testing.T) {
	l := &Link{From: Key{"a", "v", 1}, To: Key{"b", "v", 1}}
	if o, ok := l.Other(l.From); !ok || o != l.To {
		t.Error("Other(From) wrong")
	}
	if o, ok := l.Other(l.To); !ok || o != l.From {
		t.Error("Other(To) wrong")
	}
	if _, ok := l.Other(Key{"c", "v", 1}); ok {
		t.Error("Other(stranger) ok")
	}
}

func TestEachLinkOfStops(t *testing.T) {
	db := NewDB()
	a := mustNewVersion(t, db, "a", "v")
	for i := 0; i < 4; i++ {
		b := mustNewVersion(t, db, "b", "v")
		if _, err := db.AddLink(DeriveLink, a, b, "", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	db.Head().EachLinkOf(a, func(*Link) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("iteration did not stop: n=%d", n)
	}
}

func TestStats(t *testing.T) {
	db := NewDB()
	a := mustNewVersion(t, db, "a", "v")
	b := mustNewVersion(t, db, "b", "v")
	if _, err := db.AddLink(UseLink, a, b, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.AddWorkspace("ws", "/tmp/ws"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SnapshotHierarchy("snap", a, nil); err != nil {
		t.Fatal(err)
	}
	s := db.Head().Stats()
	want := Stats{OIDs: 2, Links: 1, Chains: 2, Configurations: 1, Workspaces: 1}
	if s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
}

func TestInsertOIDChainOrdering(t *testing.T) {
	db := NewDB()
	// Gaps are legal (pruned-history reload)...
	if err := db.insertOIDSeq(Key{Block: "a", View: "v", Version: 2}, 1); err != nil {
		t.Errorf("gap insert: %v", err)
	}
	// ...but going backwards or duplicating is not.
	if err := db.insertOIDSeq(Key{Block: "a", View: "v", Version: 1}, 2); !errors.Is(err, ErrBadVersion) {
		t.Errorf("backward insert: %v", err)
	}
	if err := db.insertOIDSeq(Key{Block: "a", View: "v", Version: 2}, 2); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate insert: %v", err)
	}
	if err := db.insertOIDSeq(Key{Block: "a", View: "v", Version: 5}, 2); err != nil {
		t.Errorf("forward insert: %v", err)
	}
	// NewVersion continues from the highest version.
	k, err := db.NewVersion("a", "v")
	if err != nil {
		t.Fatal(err)
	}
	if k.Version != 6 {
		t.Errorf("NewVersion after gap = %v", k)
	}
}

func TestEquivalents(t *testing.T) {
	db := NewDB()
	sch := mustNewVersion(t, db, "cpu", "schematic")
	lay := mustNewVersion(t, db, "cpu", "layout")
	vnl := mustNewVersion(t, db, "cpu", "VerilogNetList")
	enl := mustNewVersion(t, db, "cpu", "EdifNetlist")
	hdl := mustNewVersion(t, db, "cpu", "HDL_model")
	eq := map[string]string{PropType: TypeEquivalence}
	if _, err := db.AddLink(DeriveLink, sch, lay, "", nil, eq); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddLink(DeriveLink, vnl, enl, "", nil, eq); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddLink(DeriveLink, enl, sch, "", nil, eq); err != nil {
		t.Fatal(err)
	}
	// A non-equivalence link must not be followed.
	if _, err := db.AddLink(DeriveLink, hdl, sch, "", nil, map[string]string{PropType: TypeDeriveFrom}); err != nil {
		t.Fatal(err)
	}
	got := db.Head().Equivalents(sch)
	if len(got) != 4 {
		t.Fatalf("Equivalents = %v", got)
	}
	for _, k := range got {
		if k == hdl {
			t.Error("derive_from link followed as equivalence")
		}
	}
	// Symmetric: starting anywhere in the plane gives the same set.
	got2 := db.Head().Equivalents(vnl)
	if len(got2) != len(got) {
		t.Errorf("asymmetric equivalence plane: %v vs %v", got, got2)
	}
	if got := db.Head().Equivalents(Key{Block: "ghost", View: "v", Version: 1}); got != nil {
		t.Errorf("Equivalents(ghost) = %v", got)
	}
}

func TestKeysSorted(t *testing.T) {
	db := NewDB()
	mustNewVersion(t, db, "b", "v2")
	mustNewVersion(t, db, "a", "v1")
	mustNewVersion(t, db, "a", "v1")
	keys := db.Head().Keys()
	if len(keys) != 3 {
		t.Fatalf("Keys = %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i].Less(keys[i-1]) {
			t.Errorf("keys out of order: %v", keys)
		}
	}
	bvs := db.Head().BlockViews()
	if len(bvs) != 2 || bvs[0].Block != "a" || bvs[1].Block != "b" {
		t.Errorf("BlockViews = %v", bvs)
	}
}

// TestStatsIsOneCut: an enumeration of a pinned view counts a database that
// existed.  The writer only ever adds two OIDs and then a link between
// them: at every instant 2*Links ≤ OIDs, and a count taken table by
// table, the links after the OIDs — what Stats of the head is — does not
// see it that way.
func TestStatsIsOneCut(t *testing.T) {
	db := NewDB()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4000; i++ {
			a, err := db.NewVersion(fmt.Sprintf("a%d", i%61), "HDL_model")
			if err != nil {
				t.Error(err)
				return
			}
			b, err := db.NewVersion(fmt.Sprintf("b%d", i%59), "HDL_model")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := db.AddLink(DeriveLink, a, b, "", nil, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reads := 0; ; reads++ {
		v := db.ReadView()
		keys, st := v.Keys(), v.Stats()
		v.Close()
		if 2*st.Links > st.OIDs {
			t.Fatalf("Stats counted %d links between %d OIDs", st.Links, st.OIDs)
		}
		if len(keys) != st.OIDs {
			t.Fatalf("one view: %d keys, %d OIDs counted", len(keys), st.OIDs)
		}
		select {
		case <-done:
			if st := db.Head().Stats(); reads == 0 || st.OIDs != 8000 || st.Links != 4000 {
				t.Fatalf("%d reads; at the end %+v", reads, st)
			}
			return
		default:
		}
	}
}
