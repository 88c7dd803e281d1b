package server_test

import (
	"fmt"
	"strings"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/server"
)

// ExampleServer is the deployment of the paper's Figure 1: the project
// server owns the meta-database and the BluePrint engine, and two designers
// post events to it over the network, each on a connection of their own,
// then query the project state remotely.
func ExampleServer() {
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		panic(err)
	}
	eng, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		panic(err)
	}
	srv := server.New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	dial := func(user string) *server.Client {
		c, err := server.Dial(addr)
		if err != nil {
			panic(err)
		}
		c.User = user
		return c
	}
	check := func(err error) {
		if err != nil {
			panic(err)
		}
	}

	// Designer 1 creates and simulates the HDL model.
	yves := dial("yves")
	defer yves.Close()
	hdl, err := yves.Create("CPU", "HDL_model")
	check(err)
	fmt.Println("yves created", hdl)
	check(yves.PostEvent("hdl_sim", "down", hdl, "good"))

	// Designer 2 builds the schematic, links it and checks it in: the
	// postEvent traffic of section 3.1, over TCP.
	marc := dial("marc")
	defer marc.Close()
	sch, err := marc.Create("CPU", "schematic")
	check(err)
	check(marc.Link("derive", hdl, sch))
	check(marc.PostEvent("ckin", "down", sch))
	fmt.Println("marc created and checked in", sch)

	// Yves changes the model: the server-side outofdate wave invalidates
	// marc's schematic.
	hdl2, err := yves.Create("CPU", "HDL_model")
	check(err)
	check(yves.PostEvent("ckin", "down", hdl2))
	fmt.Println("yves checked in", hdl2)

	st, err := marc.State(sch)
	check(err)
	fmt.Printf("\nremote state query for %v:\n  ready=%v uptodate=%s lvs_res=%q\n",
		sch, st.Ready, st.Props["uptodate"], st.Props["lvs_res"])
	for _, b := range st.Blocking {
		fmt.Println("  blocking:", b)
	}
	stats, err := marc.Stats()
	check(err)
	stats, _, _ = strings.Cut(stats, " gc=") // the heap and GC group differs from run to run
	fmt.Println("\nserver stats:", stats)
	// Output:
	// yves created CPU,HDL_model,1
	// marc created and checked in CPU,schematic,1
	// yves checked in CPU,HDL_model,2
	//
	// remote state query for CPU,schematic,1:
	//   ready=false uptodate=false lvs_res="CPU,schematic,1 changed by marc"
	//   blocking: state: ($nl_sim_res == good) [$nl_sim_res = "bad"]
	//   blocking: state: ($lvs_res == is_equiv) [$lvs_res = "CPU,schematic,1 changed by marc"]
	//   blocking: state: ($uptodate == true) [$uptodate = "false"]
	//
	// server stats: oids=3 links=1 posted=9 deliveries=10 propagations=1 rules=6 execs=1 conns_shed=0 readonly_refused=0 degraded_refused=0 batch_oversize=0 panics=0
}
