// toolauto demonstrates tool scheduling (section 3.3): wrapper programs
// query the meta-database for permission before running, and exec run-time
// rules invoke tools automatically.  The example shows both faces:
//
//  1. a stale netlist makes the simulator wrapper refuse to run, and
//  2. a schematic check-in re-runs the netlister without designer action,
//     after which the simulation is permitted again.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/flow"
	"repro/internal/wrapper"
)

func main() {
	log.SetFlags(0)
	sess, _, err := flow.NewEDTCSession(42)
	if err != nil {
		log.Fatal(err)
	}

	// Build the front of the flow: verified model, library, synthesis
	// (which auto-netlists via the "when ckin do exec netlister" rule).
	hdl, err := sess.CheckinHDL("CPU", 80, 0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sess.RunHDLSim(hdl); err != nil {
		log.Fatal(err)
	}
	lib, err := sess.InstallLibrary("stdlib")
	if err != nil {
		log.Fatal(err)
	}
	sch, err := sess.Synthesize(hdl, lib)
	if err != nil {
		log.Fatal(err)
	}
	nl, err := sess.Eng.DB().Head().Latest("CPU", "netlist")
	if err != nil {
		log.Fatal("expected the exec rule to have netlisted automatically")
	}
	fmt.Printf("synthesis checked in %v; the exec rule produced %v automatically\n", sch, nl)

	res, err := sess.RunNetlistSim(nl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("netlist simulation permitted and run: %q\n\n", res)

	// Now the model changes: a new version is checked in, the outofdate
	// wave invalidates the schematic and netlist.
	if _, err := sess.CheckinHDL("CPU", 90, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("a new model version was checked in; downstream data is now stale")

	// The wrapper's permission query refuses the stale netlist — the
	// paper's exact example: "prior to running a simulation, the wrapper
	// makes sure that the input netlist is up to date".
	if _, err := sess.RunNetlistSim(nl); errors.Is(err, wrapper.ErrStale) {
		fmt.Printf("simulator wrapper refused: %v\n\n", err)
	} else {
		log.Fatalf("expected refusal, got %v", err)
	}

	// The repair is the flow itself: re-simulate the model, re-synthesize
	// (auto-netlisting again), and the permission returns.
	hdl2, _ := sess.Eng.DB().Head().Latest("CPU", "HDL_model")
	if _, err := sess.RunHDLSim(hdl2); err != nil {
		log.Fatal(err)
	}
	if _, err := sess.Synthesize(hdl2, lib); err != nil {
		log.Fatal(err)
	}
	nl2, err := sess.Eng.DB().Head().Latest("CPU", "netlist")
	if err != nil {
		log.Fatal(err)
	}
	res, err = sess.RunNetlistSim(nl2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after re-synthesis the new netlist %v simulates: %q\n", nl2, res)
}
