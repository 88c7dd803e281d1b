package repro_test

// Godoc examples: compilable, asserted usage of the public facade.

import (
	"fmt"

	repro "repro"
)

// ExampleNewProject shows the minimal lifecycle: create a project from the
// paper's policy, track a design object through an event, query its state.
func ExampleNewProject() {
	proj, err := repro.NewProject(repro.EDTCExample)
	if err != nil {
		panic(err)
	}
	hdl, err := proj.Engine.CreateOID("CPU", "HDL_model", "yves")
	if err != nil {
		panic(err)
	}
	err = proj.Engine.PostAndDrain(repro.Event{
		Name: "hdl_sim", Dir: repro.DirDown, Target: hdl, Args: []string{"good"},
	})
	if err != nil {
		panic(err)
	}
	v, _, _ := proj.DB.Head().GetProp(hdl, "sim_result")
	fmt.Println(hdl, "sim_result:", v)
	// Output: CPU,HDL_model,1 sim_result: good
}

// ExampleParseBlueprint demonstrates policy validation and canonical
// printing.
func ExampleParseBlueprint() {
	bp, err := repro.ParseBlueprint(`blueprint demo
view netlist
    property sim_result default bad
    when nl_sim do sim_result = $arg done
endview
endblueprint`)
	if err != nil {
		panic(err)
	}
	fmt.Println(bp.Name, "views:", bp.ViewNames())
	// Output: demo views: [netlist]
}

// ExampleGap shows the designers' query: what still needs modification
// before the planned state.
func ExampleGap() {
	proj, err := repro.NewProject(repro.EDTCExample)
	if err != nil {
		panic(err)
	}
	if _, err := proj.Engine.CreateOID("CPU", "schematic", "marc"); err != nil {
		panic(err)
	}
	if err := proj.Engine.Drain(); err != nil {
		panic(err)
	}
	for _, st := range repro.Gap(proj.DB, proj.Blueprint) {
		fmt.Println(st.Key, "ready:", st.Ready)
	}
	// Output: CPU,schematic,1 ready: false
}

// ExampleParseKey shows the wire syntax for OID keys used throughout the
// protocol and the postEvent command.
func ExampleParseKey() {
	k, err := repro.ParseKey("reg,verilog,4")
	if err != nil {
		panic(err)
	}
	fmt.Println(k.Block, k.View, k.Version)
	// Output: reg verilog 4
}
