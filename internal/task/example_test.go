package task_test

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/task"
)

// ExampleRunner runs the design tasks of the paper's section 5 (its
// announced extension): higher-level descriptions of design activities,
// executed with task-level state requirements and tracked in the
// meta-database like any other design object.
func ExampleRunner() {
	sess, _, err := flow.NewEDTCSession(7)
	if err != nil {
		panic(err)
	}
	// Primary data: a model that can be verified, and a library.
	if _, err := sess.CheckinHDL("CPU", 60, 0); err != nil {
		panic(err)
	}
	if _, err := sess.InstallLibrary("stdlib"); err != nil {
		panic(err)
	}

	runner := task.NewRunner(sess)
	for _, t := range []task.Task{
		task.VerifyModel("CPU"),
		task.ImplementBlock("CPU", "stdlib"),
		task.PhysicalSignoff("CPU"),
	} {
		rec, err := runner.Run(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("task %-18s -> %-6s (%d steps", t.Name, rec.Status, rec.StepsRun)
		if rec.Failure != "" {
			fmt.Printf("; %s", rec.Failure)
		}
		fmt.Println(")")
	}

	// Task runs are OIDs: versioned, propertied, queryable.
	fmt.Println("\ntask history in the meta-database:")
	for _, name := range []string{"verify_CPU", "implement_CPU", "signoff_CPU"} {
		for _, k := range task.History(sess.Eng.DB(), name) {
			status, step, failure, err := task.Status(sess.Eng.DB(), k)
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-24s status=%-7s last_step=%s", k, status, step)
			if failure != "" {
				fmt.Printf(" %s", failure)
			}
			fmt.Println()
		}
	}

	// A stale input makes the next signoff run fail at its requirement:
	// the task level inherits the wrappers' permission discipline.
	if _, err := sess.CheckinHDL("CPU", 61, 0); err != nil {
		panic(err)
	}
	rec, err := runner.Run(task.PhysicalSignoff("CPU"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nafter a new model check-in, signoff_CPU -> %s\n  (%s)\n", rec.Status, rec.Failure)
	// Output:
	// task verify_CPU         -> done   (1 steps)
	// task implement_CPU      -> done   (3 steps)
	// task signoff_CPU        -> done   (3 steps)
	//
	// task history in the meta-database:
	//   verify_CPU,task,1        status=done    last_step=simulate
	//   implement_CPU,task,1     status=done    last_step=simulate_netlist
	//   signoff_CPU,task,1       status=done    last_step=lvs
	//
	// after a new model check-in, signoff_CPU -> failed
	//   (task: requirement not met: CPU,netlist,2 uptodate="false", want "true")
}
