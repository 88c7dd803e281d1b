package meta

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// sameAttrs reports whether two links hold one copy of their attributes.
func sameAttrs(a, b *Link) bool {
	return reflect.ValueOf(a.Props).UnsafePointer() == reflect.ValueOf(b.Props).UnsafePointer() &&
		unsafe.SliceData(a.Propagates) == unsafe.SliceData(b.Propagates)
}

// storedLink is the link object the head holds, not a copy.
func storedLink(t *testing.T, db *DB, id LinkID) *Link {
	t.Helper()
	l, ok := db.Head().stripe(id).links.at(id, newest)
	if !ok {
		t.Fatalf("link %d: not found", id)
	}
	return l
}

// TestLinkAttributesShared: links stamped with equal attributes hold one
// copy of them, from AddLink, a recovered checkpoint and a loaded document
// alike, and no mutation of one link — SetLinkProp, SetLinkPropagates,
// RetargetLink, the copy of an inherited link, a change to a copy GetLink
// handed out — shows in its siblings or in a view pinned before it.
func TestLinkAttributesShared(t *testing.T) {
	db := NewDB()
	var ids []LinkID
	var sch []Key
	for _, b := range []string{"cpu", "alu", "fpu", "mmu"} {
		s, n := mustNewVersion(t, db, b, "schematic"), mustNewVersion(t, db, b, "netlist")
		id, err := db.AddLink(DeriveLink, s, n, "derive_netlist", []string{"outofdate", "ckin", "outofdate"}, map[string]string{PropType: TypeDeriveFrom})
		if err != nil {
			t.Fatal(err)
		}
		ids, sch = append(ids, id), append(sch, s)
	}
	for _, id := range ids[1:] {
		if !sameAttrs(storedLink(t, db, ids[0]), storedLink(t, db, id)) {
			t.Fatalf("link %d holds attributes of its own", id)
		}
	}
	if got := storedLink(t, db, ids[0]).Propagates; !slices.Equal(got, []string{"ckin", "outofdate"}) {
		t.Fatalf("Propagates = %q, want sorted and distinct", got)
	}

	pinned := db.ReadView()
	defer pinned.Close()
	before := viewSave(t, pinned)
	sibling := storedLink(t, db, ids[0]).clone()

	if err := db.SetLinkProp(ids[0], "note", "one-off"); err != nil {
		t.Fatal(err)
	}
	if err := db.SetLinkPropagates(ids[1], []string{"lvs", "lvs"}); err != nil {
		t.Fatal(err)
	}
	next := mustNewVersion(t, db, "fpu", "schematic")
	if err := db.RetargetLink(ids[2], sch[2], next); err != nil {
		t.Fatal(err)
	}
	// The engine copies an inherited link from a copy of it (inheritLinks).
	inherited := db.Head().LinksOf(sch[3])[0]
	copyID, err := db.AddLink(inherited.Class, mustNewVersion(t, db, "mmu", "schematic"), inherited.To, inherited.Template, inherited.PropagateList(), inherited.Props)
	if err != nil {
		t.Fatal(err)
	}
	inherited.Props["mutated"] = "by a caller"
	inherited.Propagates[0] = "mutated"

	for id, want := range map[LinkID]struct {
		props      map[string]string
		propagates []string
	}{
		ids[0]: {map[string]string{PropType: TypeDeriveFrom, "note": "one-off"}, sibling.Propagates},
		ids[1]: {sibling.Props, []string{"lvs"}},
		ids[2]: {sibling.Props, sibling.Propagates},
		ids[3]: {sibling.Props, sibling.Propagates},
		copyID: {sibling.Props, sibling.Propagates},
	} {
		l := storedLink(t, db, id)
		if !reflect.DeepEqual(l.Props, want.props) || !slices.Equal(l.Propagates, want.propagates) {
			t.Errorf("link %d: props %v propagates %q, want %v %q", id, l.Props, l.Propagates, want.props, want.propagates)
		}
	}
	if l := storedLink(t, db, ids[2]); l.From != next || !sameAttrs(l, storedLink(t, db, ids[3])) {
		t.Errorf("retargeted link: from %v, shares its attributes %v", l.From, sameAttrs(l, storedLink(t, db, ids[3])))
	}
	if !sameAttrs(storedLink(t, db, copyID), storedLink(t, db, ids[3])) {
		t.Error("the copy of an inherited link holds attributes of its own")
	}
	if got := viewSave(t, pinned); !bytes.Equal(got, before) {
		t.Errorf("the view pinned before the mutations changed:\n%s", firstDiff(got, before))
	}
	pinned.EachLink(func(l *Link) bool {
		if !reflect.DeepEqual(l.Props, sibling.Props) || !slices.Equal(l.Propagates, sibling.Propagates) {
			t.Errorf("the pinned view's link %d: props %v propagates %q", l.ID, l.Props, l.Propagates)
		}
		return true
	})

	// The one-off property survives a checkpoint and the document byte for
	// byte, and what the reloaded databases keep is shared again.
	v := db.ReadView()
	want := viewSave(t, v)
	recovered, err := loadPayloads(checkpointOf(t, v), DefaultShards)
	v.Close()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*DB{"checkpoint": recovered, "document": loaded} {
		if b := saveDB(t, got); !bytes.Equal(b, want) {
			t.Errorf("%s: %s", name, firstDiff(b, want))
		}
		if !sameAttrs(storedLink(t, got, ids[2]), storedLink(t, got, copyID)) {
			t.Errorf("%s: links of equal attributes hold a copy each", name)
		}
		if l := storedLink(t, got, ids[0]); l.Props["note"] != "one-off" || sameAttrs(l, storedLink(t, got, ids[3])) {
			t.Errorf("%s: the one-off link came back as %+v", name, l)
		}
	}
}

// TestAttrInternAllocatesNothingOnAHit: a link whose attributes are already
// held costs no allocation for them, in whichever order it names them.
func TestAttrInternAllocatesNothingOnAHit(t *testing.T) {
	var at attrTable
	props := map[string]string{PropType: TypeDeriveFrom, "owner": "cad"}
	at.intern([]string{"outofdate", "ckin"}, nil, props)
	pairs := []string{"owner", "cad", PropType, TypeDeriveFrom}
	if n := testing.AllocsPerRun(100, func() {
		at.intern([]string{"ckin", "outofdate", "ckin"}, pairs, nil)
		at.intern([]string{"outofdate", "ckin"}, nil, props)
	}); n != 0 {
		t.Errorf("an interned attribute set costs %.0f allocations", n)
	}
	// A repeated name: the last one wins, as a property map filled in order.
	_, got := at.intern(nil, []string{"a", "1", "b", "2", "a", "3"}, nil)
	if !reflect.DeepEqual(got, map[string]string{"a": "3", "b": "2"}) {
		t.Errorf("repeated names intern as %v", got)
	}
}
