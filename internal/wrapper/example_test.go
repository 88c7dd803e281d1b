package wrapper_test

import (
	"errors"
	"fmt"

	"repro/internal/flow"
	"repro/internal/wrapper"
)

// ExampleSession_RunNetlistSim tells the tool scheduling of section 3.3
// from both sides: an exec run-time rule runs the netlister without the
// designer, and the simulator wrapper asks the meta-database for permission
// first, "making sure that the input netlist is up to date".
func ExampleSession_RunNetlistSim() {
	sess, _, err := flow.NewEDTCSession(42)
	if err != nil {
		panic(err)
	}
	// The front of the flow: a verified model, a library and synthesis,
	// whose check-in auto-netlists through "when ckin do exec netlister".
	hdl, err := sess.CheckinHDL("CPU", 80, 0)
	if err != nil {
		panic(err)
	}
	if _, err := sess.RunHDLSim(hdl); err != nil {
		panic(err)
	}
	lib, err := sess.InstallLibrary("stdlib")
	if err != nil {
		panic(err)
	}
	sch, err := sess.Synthesize(hdl, lib)
	if err != nil {
		panic(err)
	}
	nl, err := sess.Eng.DB().Head().Latest("CPU", "netlist")
	if err != nil {
		panic(err)
	}
	fmt.Printf("synthesis checked in %v; the exec rule produced %v automatically\n", sch, nl)
	res, err := sess.RunNetlistSim(nl)
	if err != nil {
		panic(err)
	}
	fmt.Printf("netlist simulation permitted and run: %q\n\n", res)

	// A new model version: the outofdate wave invalidates the schematic and
	// the netlist, and the wrapper refuses the stale input.
	if _, err := sess.CheckinHDL("CPU", 90, 0); err != nil {
		panic(err)
	}
	fmt.Println("a new model version was checked in; downstream data is now stale")
	if _, err = sess.RunNetlistSim(nl); !errors.Is(err, wrapper.ErrStale) {
		panic(fmt.Sprintf("want a refusal, got %v", err))
	}
	fmt.Printf("simulator wrapper refused: %v\n\n", err)

	// The repair is the flow itself: re-simulate the model and re-synthesize
	// (auto-netlisting again), and the permission returns.
	hdl2, _ := sess.Eng.DB().Head().Latest("CPU", "HDL_model")
	if _, err := sess.RunHDLSim(hdl2); err != nil {
		panic(err)
	}
	if _, err := sess.Synthesize(hdl2, lib); err != nil {
		panic(err)
	}
	nl2, err := sess.Eng.DB().Head().Latest("CPU", "netlist")
	if err != nil {
		panic(err)
	}
	if res, err = sess.RunNetlistSim(nl2); err != nil {
		panic(err)
	}
	fmt.Printf("after re-synthesis the new netlist %v simulates: %q\n", nl2, res)
	// Output:
	// synthesis checked in CPU,schematic,1; the exec rule produced CPU,netlist,1 automatically
	// netlist simulation permitted and run: "good"
	//
	// a new model version was checked in; downstream data is now stale
	// simulator wrapper refused: wrapper: input data is not up to date: CPU,netlist,1 (uptodate="false")
	//
	// after re-synthesis the new netlist CPU,netlist,2 simulates: "good"
}
