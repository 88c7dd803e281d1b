// policyphases demonstrates per-phase project policies (end of section
// 3.2): "early in the design cycle, when the data has not yet been
// validated and changes occur very often, the BluePrint can be 'loosened'
// thereby limiting change propagation."  The same design and the same
// check-in produce a full invalidation wave under the signoff policy and
// almost none under the exploration policy — swapped at run time by
// re-initializing the BluePrint.
package main

import (
	"fmt"
	"log"

	repro "repro"
	"repro/internal/flow"
)

const loosePolicy = `blueprint exploration_phase
# Exploration: check-ins do not invalidate derived data; designers churn
# freely and re-verify later.
view default
    property uptodate default true
    when outofdate do uptodate = false done
endview
view node
    use_link move propagates outofdate
endview
endblueprint
`

func main() {
	log.SetFlags(0)

	strictBP, err := flow.PropagationBlueprint("signoff_phase", "node", []string{"outofdate"})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := repro.NewEngine(repro.NewDB(), strictBP)
	if err != nil {
		log.Fatal(err)
	}
	root, all, err := flow.BuildTree(eng, flow.TreeSpec{View: "node", Depth: 4, Fanout: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design hierarchy: %d blocks\n\n", len(all))

	countStale := func() int {
		n := 0
		for _, k := range all {
			if v, _, _ := eng.DB().Head().GetProp(k, "uptodate"); v == "false" {
				n++
			}
		}
		return n
	}
	revalidate := func() {
		for _, k := range all {
			if err := eng.DB().SetProp(k, "uptodate", "true"); err != nil {
				log.Fatal(err)
			}
		}
	}
	ckin := repro.Event{Name: repro.EventCheckin, Dir: repro.DirDown, Target: root, User: "demo"}

	// Phase 1: signoff policy — every change propagates.
	before := eng.Stats()
	if err := eng.PostAndDrain(ckin); err != nil {
		log.Fatal(err)
	}
	after := eng.Stats()
	fmt.Println("signoff policy (strict):")
	fmt.Printf("  one root check-in invalidated %d blocks (%d deliveries)\n\n",
		countStale(), after.Deliveries-before.Deliveries)

	// Phase switch: the administrator re-initializes the BluePrint.
	looseBP, err := repro.ParseBlueprint(loosePolicy)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.SetBlueprint(looseBP); err != nil {
		log.Fatal(err)
	}
	revalidate()

	before = eng.Stats()
	if err := eng.PostAndDrain(ckin); err != nil {
		log.Fatal(err)
	}
	after = eng.Stats()
	fmt.Println("exploration policy (loosened):")
	fmt.Printf("  the same check-in invalidated %d blocks (%d deliveries)\n",
		countStale(), after.Deliveries-before.Deliveries)
	fmt.Println("\nsame data, same event, different project policy — the flow definition")
	fmt.Println("lives in the BluePrint file, not in the tools.")
}
