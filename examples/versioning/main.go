// versioning demonstrates the version-inheritance semantics of Figures 2
// and 3 of the paper: property copy/move between versions, and the
// automatic "shifting" of move-tagged links when a new version of an OID
// is created.
package main

import (
	"fmt"
	"log"

	repro "repro"
)

const blueprint = `blueprint versioning_demo
view NetList
endview
view GDSII
    # Figure 2: the DRC property is copied from the previous version.
    property DRC default bad copy
    # Audit trail moves: the old version loses it.
    property audit default none move
    # Figure 3: the derive link from NetList shifts on new versions.
    link_from NetList move propagates OutOfDate type derive_from
endview
endblueprint
`

func main() {
	log.SetFlags(0)
	proj, err := repro.NewProject(blueprint)
	if err != nil {
		log.Fatal(err)
	}
	eng, db := proj.Engine, proj.DB

	create := func(block, view string) repro.Key {
		k, err := eng.CreateOID(block, view, "demo")
		if err != nil {
			log.Fatal(err)
		}
		if err := eng.Drain(); err != nil {
			log.Fatal(err)
		}
		return k
	}

	// Figure 3 setup: NetList version 8 linked to GDSII version 5.
	var nl repro.Key
	for i := 0; i < 8; i++ {
		nl = create("alu", "NetList")
	}
	var g5 repro.Key
	for i := 0; i < 5; i++ {
		g5 = create("alu", "GDSII")
	}
	linkID, err := eng.CreateLink(repro.DeriveLink, nl, g5)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.SetProp(g5, "DRC", "ok"); err != nil {
		log.Fatal(err)
	}
	if err := db.SetProp(g5, "audit", "signed-off by marc"); err != nil {
		log.Fatal(err)
	}

	head := db.Head()
	l, _ := head.GetLink(linkID)
	fmt.Printf("before: link %d  %v -> %v  (TYPE=%s PROPAGATE=%v)\n",
		l.ID, l.From, l.To, l.Type(), l.PropagateList())
	drc, _, _ := head.GetProp(g5, "DRC")
	fmt.Printf("before: %v DRC=%q\n\n", g5, drc)

	// "create new OID" — exactly the transition both figures draw.
	g6 := create("alu", "GDSII")

	l, _ = head.GetLink(linkID)
	fmt.Printf("after:  link %d  %v -> %v   (moved, as in Figure 3)\n", l.ID, l.From, l.To)
	drc6, _, _ := head.GetProp(g6, "DRC")
	fmt.Printf("after:  %v DRC=%q          (copied, as in Figure 2)\n", g6, drc6)
	audit6, _, _ := head.GetProp(g6, "audit")
	_, auditOld, _ := head.GetProp(g5, "audit")
	fmt.Printf("after:  %v audit=%q; still on v5: %v (moved)\n", g6, audit6, auditOld)

	fmt.Println("\nversion chains:")
	v := db.ReadView()
	defer v.Close()
	for _, bv := range v.BlockViews() {
		fmt.Printf("  %s.%s: versions %v\n", bv.Block, bv.View, v.Versions(bv.Block, bv.View))
	}
}
