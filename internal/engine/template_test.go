package engine

import (
	"testing"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// TestFig2PropertyCopy reproduces Figure 2 of the paper: view GDSII has
// "property DRC default bad copy"; creating version 6 of alu copies DRC=ok
// from version 5, while a fresh chain starts at the default.
func TestFig2PropertyCopy(t *testing.T) {
	e := newTestEngine(t, `blueprint fig2
view GDSII
    property DRC default bad copy
endview
endblueprint`)
	v1 := mustCreate(t, e, "alu", "GDSII")
	if got := prop(t, e, v1, "DRC"); got != "bad" {
		t.Errorf("first version DRC = %q, want default bad", got)
	}
	// Versions 2..5.
	var v5 meta.Key
	for i := 2; i <= 5; i++ {
		v5 = mustCreate(t, e, "alu", "GDSII")
	}
	if err := e.DB().SetProp(v5, "DRC", "ok"); err != nil {
		t.Fatal(err)
	}
	v6 := mustCreate(t, e, "alu", "GDSII")
	if v6.Version != 6 {
		t.Fatalf("v6 = %v", v6)
	}
	if got := prop(t, e, v6, "DRC"); got != "ok" {
		t.Errorf("copied DRC = %q, want ok", got)
	}
	// Copy leaves the old version's property intact.
	if got := prop(t, e, v5, "DRC"); got != "ok" {
		t.Errorf("v5 DRC after copy = %q, want ok", got)
	}
}

func TestPropertyMoveSemantics(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view v
    property hist default empty move
endview
endblueprint`)
	v1 := mustCreate(t, e, "blk", "v")
	if err := e.DB().SetProp(v1, "hist", "rev-a"); err != nil {
		t.Fatal(err)
	}
	v2 := mustCreate(t, e, "blk", "v")
	if got := prop(t, e, v2, "hist"); got != "rev-a" {
		t.Errorf("moved hist = %q", got)
	}
	if _, ok, _ := e.DB().Head().GetProp(v1, "hist"); ok {
		t.Error("move left the property on the old version")
	}
}

func TestPropertyNoneAlwaysDefault(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view v
    property fresh default clean
endview
endblueprint`)
	v1 := mustCreate(t, e, "blk", "v")
	if err := e.DB().SetProp(v1, "fresh", "dirty"); err != nil {
		t.Fatal(err)
	}
	v2 := mustCreate(t, e, "blk", "v")
	if got := prop(t, e, v2, "fresh"); got != "clean" {
		t.Errorf("fresh = %q, want default clean", got)
	}
	if got := prop(t, e, v1, "fresh"); got != "dirty" {
		t.Errorf("old version changed: %q", got)
	}
}

// TestFig3LinkMove reproduces Figure 3: a move-tagged derive link from
// NetList to GDSII shifts from GDSII version 5 to version 6 when the new
// version is created.
func TestFig3LinkMove(t *testing.T) {
	e := newTestEngine(t, `blueprint fig3
view NetList
endview
view GDSII
    link_from NetList move propagates OutOfDate type derive_from
endview
endblueprint`)
	db := e.DB()
	var nl8 meta.Key
	for i := 1; i <= 8; i++ {
		nl8 = mustCreate(t, e, "alu", "NetList")
	}
	var g5 meta.Key
	for i := 1; i <= 5; i++ {
		g5 = mustCreate(t, e, "alu", "GDSII")
	}
	id, err := e.CreateLink(meta.DeriveLink, nl8, g5)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := db.Head().GetLink(id)
	if l.Type() != "derive_from" || !l.CanPropagate("OutOfDate") {
		t.Fatalf("template not applied: %+v", l)
	}

	g6 := mustCreate(t, e, "alu", "GDSII")
	l, err = db.Head().GetLink(id)
	if err != nil {
		t.Fatal(err)
	}
	if l.To != g6 {
		t.Errorf("link To = %v, want shifted to %v", l.To, g6)
	}
	if l.From != nl8 {
		t.Errorf("link From = %v, want unchanged %v", l.From, nl8)
	}
	if got := linksAt(db, g5, false); len(got) != 0 {
		t.Errorf("old version keeps %d links after move", len(got))
	}
	if s := e.Stats(); s.LinksShifted != 1 {
		t.Errorf("LinksShifted = %d", s.LinksShifted)
	}
}

// TestLinkMoveOnUpstreamVersion checks the synth_lib scenario: installing a
// new version of the library shifts the depend_on link (the library is the
// From end), so the installation's ckin invalidates dependents.
func TestLinkMoveOnUpstreamVersion(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view default
    property uptodate default true
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false done
endview
view synth_lib
endview
view schematic
    link_from synth_lib move propagates outofdate type depend_on
endview
endblueprint`)
	lib1 := mustCreate(t, e, "stdcells", "synth_lib")
	sch := mustCreate(t, e, "cpu", "schematic")
	if _, err := e.CreateLink(meta.DeriveLink, lib1, sch); err != nil {
		t.Fatal(err)
	}
	// Install a new library version: the depend_on link must shift to it.
	lib2 := mustCreate(t, e, "stdcells", "synth_lib")
	if got := linksAt(e.DB(), lib2, true); len(got) != 1 {
		t.Fatalf("link not shifted to new library: %v", got)
	}
	// Checking in the new library invalidates the schematic.
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: lib2}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, sch, "uptodate"); got != "false" {
		t.Errorf("schematic uptodate = %q after library install", got)
	}
}

func TestLinkCopySemantics(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view src
endview
view dst
    link_from src copy propagates ev type derived
endview
endblueprint`)
	db := e.DB()
	src := mustCreate(t, e, "blk", "src")
	dst1 := mustCreate(t, e, "blk", "dst")
	if _, err := e.CreateLink(meta.DeriveLink, src, dst1); err != nil {
		t.Fatal(err)
	}
	dst2 := mustCreate(t, e, "blk", "dst")
	if got := linksAt(db, dst1, false); len(got) != 1 {
		t.Errorf("copy removed the old link: %v", got)
	}
	links2 := linksAt(db, dst2, false)
	if len(links2) != 1 {
		t.Fatalf("no copied link on new version: %v", links2)
	}
	if links2[0].From != src || links2[0].Type() != "derived" || !links2[0].CanPropagate("ev") {
		t.Errorf("copied link wrong: %+v", links2[0])
	}
}

func TestUseLinkShiftFromPaper(t *testing.T) {
	// "if a new OID <REG.schematic.2> were created, the use link between
	// <CPU.schematic.1> and <REG.schematic.1> would be shifted to link
	// <CPU.schematic.1> to <REG.schematic.2>".
	e := newTestEngine(t, `blueprint b
view schematic
    use_link move propagates outofdate
endview
endblueprint`)
	db := e.DB()
	cpu1 := mustCreate(t, e, "CPU", "schematic")
	reg1 := mustCreate(t, e, "REG", "schematic")
	id, err := e.CreateLink(meta.UseLink, cpu1, reg1)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := mustCreate(t, e, "REG", "schematic")
	l, _ := db.Head().GetLink(id)
	if l.From != cpu1 || l.To != reg2 {
		t.Errorf("use link = %v -> %v, want %v -> %v", l.From, l.To, cpu1, reg2)
	}
}

func TestRawLinksDoNotShift(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view v
endview
endblueprint`)
	db := e.DB()
	a := mustCreate(t, e, "a", "v")
	b1 := mustCreate(t, e, "b", "v")
	// Raw link, created outside any template.
	id, err := db.AddLink(meta.DeriveLink, a, b1, "", []string{"ev"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, e, "b", "v")
	l, _ := db.Head().GetLink(id)
	if l.To != b1 {
		t.Errorf("raw link shifted: %v", l.To)
	}
}

func TestCreateEventPosted(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view v
    property born default no
    when create do born = yes done
endview
endblueprint`)
	k := mustCreate(t, e, "blk", "v")
	if got := prop(t, e, k, "born"); got != "yes" {
		t.Errorf("born = %q, create event not delivered", got)
	}
}

func TestCreateLinkWithoutTemplate(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view v
endview
view w
endview
endblueprint`)
	a := mustCreate(t, e, "a", "v")
	b := mustCreate(t, e, "b", "w")
	id, err := e.CreateLink(meta.DeriveLink, a, b)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := e.DB().Head().GetLink(id)
	if l.Template != "" || len(l.PropagateList()) != 0 {
		t.Errorf("bare link decorated: %+v", l)
	}
}
