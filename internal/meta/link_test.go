package meta

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// sameAttrs reports whether two links hold one copy of their attributes.
func sameAttrs(a, b *Link) bool {
	return unsafe.StringData(a.Props.s) == unsafe.StringData(b.Props.s) &&
		unsafe.SliceData(a.Propagates) == unsafe.SliceData(b.Propagates)
}

// storedLink is the link object the head holds, not a copy.
func storedLink(t *testing.T, db *DB, id LinkID) *Link {
	t.Helper()
	l, ok := db.store.Load().links.at(id, newest)
	if !ok {
		t.Fatalf("link %d: not found", id)
	}
	return l
}

// TestLinkAttributesShared: links stamped with equal attributes hold one
// copy of them, from AddLink and a recovered checkpoint alike; a link of attributes of its own shares them with none; and no
// change around one link — RetargetLink, the copy of an inherited link, a
// change to a copy GetLink handed out — shows in its siblings or in a view
// pinned before it.
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
	before := viewText(t, pinned)
	sibling := storedLink(t, db, ids[0]).clone()

	oneOff, err := db.AddLink(DeriveLink, sch[0], mustNewVersion(t, db, "cpu", "layout"), "derive_netlist",
		[]string{"ckin", "outofdate"}, map[string]string{PropType: TypeDeriveFrom, "note": "one-off"})
	if err != nil {
		t.Fatal(err)
	}
	next := mustNewVersion(t, db, "fpu", "schematic")
	if err := db.RetargetLink(ids[2], sch[2], next); err != nil {
		t.Fatal(err)
	}
	// The engine copies an inherited link from a copy of it (inheritLinks).
	inherited := db.Head().LinksOf(sch[3])[0]
	copyID, err := db.AddLink(inherited.Class, mustNewVersion(t, db, "mmu", "schematic"), inherited.To, inherited.Template, inherited.Propagates, inherited.Props.Map())
	if err != nil {
		t.Fatal(err)
	}
	inherited.Propagates[0] = "mutated"

	for id, want := range map[LinkID]struct {
		props      Props
		propagates []string
	}{
		oneOff: {mkProps(PropType, TypeDeriveFrom, "note", "one-off"), sibling.Propagates},
		ids[0]: {sibling.Props, sibling.Propagates},
		ids[1]: {sibling.Props, sibling.Propagates},
		ids[2]: {sibling.Props, sibling.Propagates},
		ids[3]: {sibling.Props, sibling.Propagates},
		copyID: {sibling.Props, sibling.Propagates},
	} {
		l := storedLink(t, db, id)
		if l.Props != want.props || !slices.Equal(l.Propagates, want.propagates) {
			t.Errorf("link %d: props %v propagates %q, want %v %q", id, l.Props, l.Propagates, want.props, want.propagates)
		}
	}
	if l := storedLink(t, db, ids[2]); l.From != next || !sameAttrs(l, storedLink(t, db, ids[3])) {
		t.Errorf("retargeted link: from %v, shares its attributes %v", l.From, sameAttrs(l, storedLink(t, db, ids[3])))
	}
	if !sameAttrs(storedLink(t, db, copyID), storedLink(t, db, ids[3])) {
		t.Error("the copy of an inherited link holds attributes of its own")
	}
	if got := viewText(t, pinned); !bytes.Equal(got, before) {
		t.Errorf("the view pinned before the mutations changed:\n%s", firstDiff(got, before))
	}
	pinned.EachLink(func(l *Link) bool {
		if l.Props != sibling.Props || !slices.Equal(l.Propagates, sibling.Propagates) {
			t.Errorf("the pinned view's link %d: props %v propagates %q", l.ID, l.Props, l.Propagates)
		}
		return true
	})

	// The one-off property survives a checkpoint byte for byte, and what the
	// recovered database keeps is shared again.
	v := db.ReadView()
	want := viewText(t, v)
	recovered, err := loadPayloads(checkpointOf(t, v))
	v.Close()
	if err != nil {
		t.Fatal(err)
	}
	if b := dbText(t, recovered); !bytes.Equal(b, want) {
		t.Errorf("checkpoint: %s", firstDiff(b, want))
	}
	if !sameAttrs(storedLink(t, recovered, ids[2]), storedLink(t, recovered, copyID)) {
		t.Error("checkpoint: links of equal attributes hold a copy each")
	}
	if l := storedLink(t, recovered, oneOff); prop(l.Props, "note") != "one-off" || sameAttrs(l, storedLink(t, recovered, ids[3])) {
		t.Errorf("checkpoint: the one-off link came back as %+v", l)
	}
}

// TestAttrInternAllocatesNothingOnAHit: a link whose attributes are already
// held costs no allocation for them, in whichever order it names them.
func TestAttrInternAllocatesNothingOnAHit(t *testing.T) {
	var at attrTable
	props := map[string]string{PropType: TypeDeriveFrom, "owner": "cad"}
	at.editMap([]string{"outofdate", "ckin"}, props)
	pairs := []string{"owner", "cad", PropType, TypeDeriveFrom}
	if n := testing.AllocsPerRun(100, func() {
		at.edit([]string{"ckin", "outofdate", "ckin"}, Props{}, pairs, nil)
		at.editMap([]string{"outofdate", "ckin"}, props)
	}); n != 0 {
		t.Errorf("an interned attribute set costs %.0f allocations", n)
	}
	// A repeated name: the last one wins, as a property map filled in order.
	_, got := at.edit(nil, Props{}, []string{"a", "1", "b", "2", "a", "3"}, nil)
	if !reflect.DeepEqual(got.Map(), map[string]string{"a": "3", "b": "2"}) {
		t.Errorf("repeated names intern as %v", got)
	}
}

// TestOIDPropertySetsShared: OID versions of equal properties hold one copy
// of them — written by the mutators, recovered from a checkpoint and
// replayed from a journal alike — and no write to one
// OID shows in another that shares its copy, or in a view pinned before it.
func TestOIDPropertySetsShared(t *testing.T) {
	rec := &sliceRecorder{}
	db := NewDB()
	db.SetRecorder(rec)
	addTrees(t, db, 64)
	// A few OIDs with sets of their own, some of them equal.
	for i, k := range []Key{{"t0b0", "netlist", 1}, {"t1b0", "netlist", 1}, {"t2b5", "layout", 1}} {
		if err := db.UpdateOID(k, func(props map[string]string) {
			props["owner"] = "cad"
			if i == 2 {
				props["sim_result"] = "good"
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.NewVersion("t3b1", "schematic"); err != nil { // no properties at all
		t.Fatal(err)
	}

	// shared fails the test unless a database's OIDs hold one backing
	// string per distinct property set.
	shared := func(name string, db *DB) {
		t.Helper()
		oids, ptrs, sets := 0, map[*byte]bool{}, map[string]bool{}
		db.Head().EachOID(func(o *OID) bool {
			oids++
			ptrs[unsafe.StringData(o.Props.s)] = true
			sets[o.Props.s] = true
			return true
		})
		if len(ptrs) != len(sets) {
			t.Errorf("%s: %d OIDs hold %d property strings for %d distinct sets", name, oids, len(ptrs), len(sets))
		}
	}
	shared("mutators", db)

	a, b := Key{"t0b0", "netlist", 1}, Key{"t1b0", "netlist", 1}
	propsOf := func(v *View, k Key) Props {
		t.Helper()
		o, err := v.GetOID(k)
		if err != nil {
			t.Fatal(err)
		}
		return o.Props
	}
	sibling := propsOf(db.Head(), b)
	// Each write starts with a holding b's copy, and ends by setting a back
	// to b's properties, which must share that copy again.
	for _, write := range []struct {
		name string
		do   func() error
		want Props
	}{
		{"UpdateOID", func() error { return db.UpdateOID(a, func(props map[string]string) { props["sim_result"] = "bad" }) },
			mkProps("uptodate", "true", "owner", "cad", "sim_result", "bad")},
		{"SetProp", func() error { return db.SetProp(a, "owner", "layout") },
			mkProps("uptodate", "true", "owner", "layout")},
		{"UpdateOID delete", func() error { return db.UpdateOID(a, func(props map[string]string) { delete(props, "uptodate") }) },
			mkProps("owner", "cad")},
	} {
		if !sameProps(db, a, b) {
			t.Fatalf("before %s: %v and %v hold a property string each", write.name, a, b)
		}
		pinned := db.ReadView()
		if err := write.do(); err != nil {
			t.Fatal(err)
		}
		if got := propsOf(db.Head(), a); got != write.want {
			t.Errorf("after %s: %v holds %v, want %v", write.name, a, got, write.want)
		}
		if got := propsOf(db.Head(), b); got != sibling {
			t.Errorf("after %s on %v: %v holds %v, want %v", write.name, a, b, got, sibling)
		}
		if got := propsOf(pinned, a); got != sibling {
			t.Errorf("after %s: the pinned view reads %v as %v, want %v", write.name, a, got, sibling)
		}
		pinned.Close()
		if err := db.UpdateOID(a, func(props map[string]string) { clear(props); maps.Copy(props, sibling.Map()) }); err != nil {
			t.Fatal(err)
		}
	}
	if !sameProps(db, a, b) {
		t.Errorf("%v, back to %v's properties, holds a string of its own", a, b)
	}
	shared("mutators, after the writes", db)

	want := dbText(t, db)
	v := db.ReadView()
	recovered, err := loadPayloads(checkpointOf(t, v))
	v.Close()
	if err != nil {
		t.Fatal(err)
	}
	replayed := NewDB()
	for _, r := range rec.recs {
		if err := replayed.ApplyRecord(r); err != nil {
			t.Fatalf("apply %s record %d: %v", r.Op, r.LSN, err)
		}
	}
	for name, got := range map[string]*DB{"checkpoint": recovered, "journal": replayed} {
		if b := dbText(t, got); !bytes.Equal(b, want) {
			t.Errorf("%s: %s", name, firstDiff(b, want))
		}
		shared(name, got)
	}
}

// sameProps reports whether two OIDs' newest versions hold one property
// string.
func sameProps(db *DB, a, b Key) bool {
	var p [2]*byte
	for i, k := range []Key{a, b} {
		db.Head().WithOID(k, func(o *OID) { p[i] = unsafe.StringData(o.Props.s) })
	}
	return p[0] != nil && p[0] == p[1]
}
