package flow

import (
	"fmt"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/meta"
)

// DSMResult records the checkpoints of the deep-submicron signoff
// scenario.
type DSMResult struct {
	RTL, Gates, Floorplan, SDF meta.Key

	// SlackBefore and SlackAfter are the sta_slack values around the
	// timing fix.
	SlackBefore, SlackAfter string

	// AutoSTARuns counts sta_runner invocations triggered by the sdf
	// view's run_sta posting — automation crossing view boundaries.
	AutoSTARuns int

	// Notifications captures the notify traffic (timing reports to
	// designers).
	Notifications []string
}

// RunDSMScenario drives the DSM_signoff policy through a timing-closure
// story: lint RTL, synthesize gates, fail timing, fix, re-run, floorplan,
// extract SDF — whose check-in automatically re-triggers STA on the gates
// through a targeted post.  It demonstrates that the same engine and
// language accommodate a methodology quite different from the EDTC
// example.
func RunDSMScenario() (*DSMResult, error) {
	bp, err := bpl.Parse(bpl.DSMExample)
	if err != nil {
		return nil, err
	}
	rec := &exec.Recorder{}
	reg := exec.NewRegistry()
	eng, err := engine.New(meta.NewDB(), bp, engine.WithExecutor(exec.Tee{reg, rec}))
	if err != nil {
		return nil, err
	}
	res := &DSMResult{}

	// The STA wrapper: invoked automatically via the run_sta exec rule.
	// After extraction the analysis accounts for real wire delays; this
	// simulation reports "met" (the design was fixed before extraction).
	reg.Register("sta_runner", func(inv exec.Invocation) error {
		res.AutoSTARuns++
		k, err := meta.ParseKey(inv.Args[0])
		if err != nil {
			return err
		}
		return eng.Post(engine.Event{
			Name: "sta", Dir: bpl.DirDown, Target: k, Args: []string{"met"}, User: "sta_runner",
		})
	})

	ckin := func(k meta.Key) error {
		return eng.PostAndDrain(engine.Event{
			Name: engine.EventCheckin, Dir: bpl.DirDown, Target: k, User: "dsm",
		})
	}
	post := func(name string, k meta.Key, arg string) error {
		return eng.PostAndDrain(engine.Event{
			Name: name, Dir: bpl.DirDown, Target: k, Args: []string{arg}, User: "dsm",
		})
	}

	// RTL, linted clean.
	if res.RTL, err = eng.CreateOID("core", "RTL", "dsm"); err != nil {
		return nil, err
	}
	if err := ckin(res.RTL); err != nil {
		return nil, err
	}
	if err := post("lint", res.RTL, "clean"); err != nil {
		return nil, err
	}

	// Gates: first STA fails timing.
	if res.Gates, err = eng.CreateOID("core", "gate_netlist", "dsm"); err != nil {
		return nil, err
	}
	if _, err := eng.CreateLink(meta.DeriveLink, res.RTL, res.Gates); err != nil {
		return nil, err
	}
	if err := ckin(res.Gates); err != nil {
		return nil, err
	}
	if err := post("gate_sim", res.Gates, "good"); err != nil {
		return nil, err
	}
	if err := post("sta", res.Gates, "violated -0.42ns"); err != nil {
		return nil, err
	}
	res.SlackBefore, _, _ = eng.DB().Head().GetProp(res.Gates, "sta_slack")

	// Timing fix: a new gates version (the derived link shifts), then STA
	// passes.
	gates2, err := eng.CreateOID("core", "gate_netlist", "dsm")
	if err != nil {
		return nil, err
	}
	res.Gates = gates2
	if err := ckin(gates2); err != nil {
		return nil, err
	}
	if err := post("gate_sim", gates2, "good"); err != nil {
		return nil, err
	}
	if err := post("sta", gates2, "met"); err != nil {
		return nil, err
	}
	res.SlackAfter, _, _ = eng.DB().Head().GetProp(gates2, "sta_slack")

	// Floorplan and extraction.  Checking in the SDF posts run_sta back
	// to the gate netlist, so STA re-runs automatically on annotated
	// delays.
	if res.Floorplan, err = eng.CreateOID("core", "floorplan", "dsm"); err != nil {
		return nil, err
	}
	if _, err := eng.CreateLink(meta.DeriveLink, gates2, res.Floorplan); err != nil {
		return nil, err
	}
	if err := ckin(res.Floorplan); err != nil {
		return nil, err
	}
	if err := post("fp_analysis", res.Floorplan, "ok"); err != nil {
		return nil, err
	}
	if res.SDF, err = eng.CreateOID("core", "sdf", "dsm"); err != nil {
		return nil, err
	}
	if _, err := eng.CreateLink(meta.DeriveLink, res.Floorplan, res.SDF); err != nil {
		return nil, err
	}
	if err := ckin(res.SDF); err != nil {
		return nil, err
	}

	res.Notifications = rec.Notifications()

	// Sanity: the scenario must leave the gates signed off.
	if v, _, _ := eng.DB().Head().GetProp(gates2, "state"); v != "true" {
		o, _ := eng.DB().Head().GetOID(gates2)
		return nil, fmt.Errorf("flow: gates not signed off: %v", o.Props)
	}
	return res, nil
}
