package cli

import (
	"fmt"
	"io"

	"repro/internal/flow"
	"repro/internal/state"
)

// FlowSimConfig parameterizes a flow simulation run.
type FlowSimConfig struct {
	Mode       string // "scenario", "workload" or "dsm"
	Seed       int64
	Blocks     int
	Steps      int
	DefectRate int
}

// FlowSim runs the configured simulation and writes the report to out.
func FlowSim(out io.Writer, cfg FlowSimConfig) error {
	if cfg.Mode == "dsm" {
		res, err := flow.RunDSMScenario()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== DSM signoff scenario ===")
		fmt.Fprintf(out, "gates: %v (slack %q -> %q)\n", res.Gates, res.SlackBefore, res.SlackAfter)
		fmt.Fprintf(out, "SDF check-in re-ran STA automatically: %d run\n", res.AutoSTARuns)
		for _, n := range res.Notifications {
			fmt.Fprintln(out, "  notify:", n)
		}
		return nil
	}

	sess, rec, err := flow.NewEDTCSession(uint64(cfg.Seed))
	if err != nil {
		return err
	}
	switch cfg.Mode {
	case "scenario":
		res, err := flow.RunEDTCScenario(sess)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== section 3.4 scenario ===")
		fmt.Fprintf(out, "HDL model versions:  %v, %v, %v\n", res.HDL1, res.HDL2, res.HDL3)
		fmt.Fprintf(out, "first simulation:    %s\n", res.FirstSim)
		fmt.Fprintf(out, "second simulation:   %s\n", res.SecondSim)
		fmt.Fprintf(out, "schematics:          %v (top), %v (component)\n", res.CPUSchematic, res.REGSchematic)
		fmt.Fprintf(out, "auto-netlisted:      %v\n", res.Netlist)
		fmt.Fprintf(out, "stale after change:  %v\n", res.StaleAfterChange)
	case "workload":
		st, err := flow.Workload{
			Seed: cfg.Seed, Blocks: cfg.Blocks, Steps: cfg.Steps, EditDefectRate: cfg.DefectRate,
		}.Run(sess)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== workload ===")
		fmt.Fprintln(out, st)
	default:
		return fmt.Errorf("unknown mode %q", cfg.Mode)
	}

	v := sess.Eng.DB().ReadView()
	defer v.Close()
	fmt.Fprintln(out, "\n=== project state (latest versions) ===")
	fmt.Fprint(out, state.Format(state.Report(v, sess.Eng.Blueprint())))

	es := sess.Eng.Stats()
	ds := v.Stats()
	fmt.Fprintln(out, "\n=== statistics ===")
	fmt.Fprintf(out, "meta-database: %d OIDs, %d links, %d chains\n", ds.OIDs, ds.Links, ds.Chains)
	fmt.Fprintf(out, "engine: %d events posted, %d deliveries, %d propagations, %d rules fired\n",
		es.Posted, es.Deliveries, es.Propagations, es.RulesFired)
	fmt.Fprintf(out, "tools: %d automatic invocations, %d notifications\n",
		len(rec.Invocations()), len(rec.Notifications()))
	return nil
}
