// Quickstart: stand up a project from the paper's example BluePrint, track
// a design object through simulation, and query the project state.
package main

import (
	"fmt"
	"log"

	repro "repro"
)

func main() {
	log.SetFlags(0)

	// A project is a meta-database plus a policy plus the run-time engine.
	proj, err := repro.NewProject(repro.EDTCExample)
	if err != nil {
		log.Fatal(err)
	}

	// A designer creates the first version of the CPU's HDL model.  The
	// BluePrint's template rules attach the sim_result property with its
	// default value.
	hdl, err := proj.Engine.CreateOID("CPU", "HDL_model", "yves")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("created:", hdl)

	// The simulator wrapper posts the designer's interpretation of the
	// run: postEvent hdl_sim down CPU,HDL_model,1 "4 errors"
	err = proj.Engine.PostAndDrain(repro.Event{
		Name: "hdl_sim", Dir: repro.DirDown, Target: hdl,
		Args: []string{"4 errors"}, User: "yves",
	})
	if err != nil {
		log.Fatal(err)
	}
	v, _, _ := proj.DB.Head().GetProp(hdl, "sim_result")
	fmt.Println("sim_result:", v)

	// Fix the model: a new version.  Properties with default inheritance
	// reset; the version chain grows.
	hdl2, err := proj.Engine.CreateOID("CPU", "HDL_model", "yves")
	if err != nil {
		log.Fatal(err)
	}
	err = proj.Engine.PostAndDrain(repro.Event{
		Name: "hdl_sim", Dir: repro.DirDown, Target: hdl2,
		Args: []string{"good"}, User: "yves",
	})
	if err != nil {
		log.Fatal(err)
	}

	// The project state report answers "what still needs work".
	fmt.Println()
	fmt.Print(repro.FormatReport(repro.Report(proj.DB, proj.Blueprint)))
}
