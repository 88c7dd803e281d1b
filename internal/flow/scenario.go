package flow

import (
	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/meta"
	"repro/internal/tools"
	"repro/internal/wrapper"
)

// ScenarioResult records what the section 3.4 scenario produced, for
// examples and benches to assert or display.
type ScenarioResult struct {
	HDL1, HDL2, HDL3 meta.Key
	Lib              meta.Key
	CPUSchematic     meta.Key
	REGSchematic     meta.Key
	Netlist          meta.Key

	// FirstSim and SecondSim are the designer-interpreted simulation
	// results ("4 errors", then "good").
	FirstSim, SecondSim string

	// StaleAfterChange lists the OIDs whose uptodate property is "false"
	// after the version-3 check-in, in key order.
	StaleAfterChange []meta.Key
}

// RunEDTCScenario replays the designer story of section 3.4 against an
// engine loaded with the EDTC_example blueprint: write a defective model,
// simulate, fix, simulate, synthesize a two-block hierarchy, auto-netlist,
// then change the model and watch the outofdate wave invalidate the
// derived data.  If the engine's executor routes "netlister" to the
// session's auto-executor (see NewEDTCSession), the netlist appears
// automatically; otherwise the scenario runs the netlister wrapper
// explicitly.
func RunEDTCScenario(sess *wrapper.Session) (*ScenarioResult, error) {
	eng := sess.Eng
	res := &ScenarioResult{}

	// <CPU.HDL_model.1>: defective, simulates badly.
	hdl1, err := sess.CheckinHDL("CPU", 100, 4)
	if err != nil {
		return nil, err
	}
	res.HDL1 = hdl1
	if res.FirstSim, err = sess.RunHDLSim(hdl1); err != nil {
		return nil, err
	}

	// <CPU.HDL_model.2>: fixed, simulates good.
	hdl2, err := sess.CheckinHDL("CPU", 100, 0)
	if err != nil {
		return nil, err
	}
	res.HDL2 = hdl2
	if res.SecondSim, err = sess.RunHDLSim(hdl2); err != nil {
		return nil, err
	}

	// Library, then synthesis of the CPU and its REG component.
	if res.Lib, err = sess.InstallLibrary("stdlib"); err != nil {
		return nil, err
	}
	if res.CPUSchematic, err = sess.Synthesize(hdl2, res.Lib); err != nil {
		return nil, err
	}
	rhdl, err := sess.CheckinHDL("REG", 20, 0)
	if err != nil {
		return nil, err
	}
	if _, err := sess.RunHDLSim(rhdl); err != nil {
		return nil, err
	}
	if res.REGSchematic, err = sess.Synthesize(rhdl, res.Lib); err != nil {
		return nil, err
	}
	if err := sess.AddComponent(res.CPUSchematic, res.REGSchematic); err != nil {
		return nil, err
	}

	// The netlister ran automatically on the schematic check-in if the
	// engine's executor routes it; otherwise run it explicitly.
	nl, err := eng.DB().Head().Latest("CPU", "netlist")
	if err != nil {
		if nl, err = sess.RunNetlister(res.CPUSchematic); err != nil {
			return nil, err
		}
	}
	res.Netlist = nl

	// <CPU.HDL_model.3>: the change.  Check-in posts the outofdate wave.
	hdl3, err := sess.CheckinHDL("CPU", 110, 0)
	if err != nil {
		return nil, err
	}
	res.HDL3 = hdl3

	v := eng.DB().ReadView()
	defer v.Close()
	for _, k := range v.Keys() {
		if up, _, _ := v.GetProp(k, "uptodate"); up == "false" {
			res.StaleAfterChange = append(res.StaleAfterChange, k)
		}
	}
	return res, nil
}

// NewEDTCSession builds the standard rig for the EDTC scenario: engine on
// the paper's blueprint, simulated tool suite, wrapper session, and the
// auto-netlister wiring.  It returns the session and the recorder that
// captures notify/exec traffic.
func NewEDTCSession(seed uint64, opts ...engine.Option) (*wrapper.Session, *exec.Recorder, error) {
	bp, err := engineBlueprint()
	if err != nil {
		return nil, nil, err
	}
	rec := &exec.Recorder{}
	// Indirect executor: resolved after the session exists.
	var sess *wrapper.Session
	reg := exec.NewRegistry()
	reg.Fallback = func(inv exec.Invocation) error { return nil }
	opts = append(opts, engine.WithExecutor(exec.Tee{reg, rec}))
	eng, err := engine.New(meta.NewDB(), bp, opts...)
	if err != nil {
		return nil, nil, err
	}
	sess = wrapper.NewSession(eng, tools.NewSuite(seed), "designer")
	auto := sess.AutoExecutor()
	reg.Register("netlister", func(inv exec.Invocation) error { return auto.Exec(inv) })
	return sess, rec, nil
}

func engineBlueprint() (*bpl.Blueprint, error) { return bpl.Parse(bpl.EDTCExample) }
