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
		fmt.Fprintf(out, "RTL: %v\n", res.RTL)
		fmt.Fprintf(out, "gates: %v (slack %q -> %q)\n", res.Gates, res.SlackBefore, res.SlackAfter)
		fmt.Fprintf(out, "floorplan: %v\n", res.Floorplan)
		fmt.Fprintf(out, "SDF: %v\n", res.SDF)
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
		// Each checkpoint the paper narrates: what this run measured, then
		// what the paper says happens.
		fmt.Fprintln(out, "=== section 3.4 scenario ===")
		for _, row := range [][3]string{
			{"HDL model versions:", fmt.Sprintf("%v, %v, %v", res.HDL1, res.HDL2, res.HDL3), "the change is version 3"},
			{"first simulation:", res.FirstSim, "negative"},
			{"second simulation:", res.SecondSim, "good"},
			{"schematics:", fmt.Sprintf("%v (top), %v (component)", res.CPUSchematic, res.REGSchematic), "synthesis creates both"},
			{"auto-netlisted:", res.Netlist.String(), "yes, by the exec rule"},
			{"stale after change:", fmt.Sprintf("%d OIDs %v", len(res.StaleAfterChange), res.StaleAfterChange), "the derived set"},
		} {
			fmt.Fprintf(out, "%-21s%s  (paper: %s)\n", row[0], row[1], row[2])
		}
		fmt.Fprintln(out, "\n=== automatic tool invocations ===")
		for _, inv := range rec.Invocations() {
			fmt.Fprintf(out, "exec %s (event %s at %s)\n", inv, inv.Env("event"), inv.Env("oid"))
		}
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
