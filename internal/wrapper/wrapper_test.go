package wrapper

import (
	"errors"
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/meta"
	"repro/internal/tools"
)

func newSession(t *testing.T, opts ...engine.Option) *Session {
	t.Helper()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(meta.NewDB(), bp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(eng, tools.NewSuite(99), "tester")
}

func prop(t *testing.T, s *Session, k meta.Key, name string) string {
	t.Helper()
	v, _, err := s.Eng.DB().Head().GetProp(k, name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFullFlowThroughWrappers drives the complete design flow of Figure 4
// through the wrapper programs: HDL → sim → synthesis → netlist → nl_sim →
// layout → DRC → LVS, asserting tracked state along the way.
func TestFullFlowThroughWrappers(t *testing.T) {
	s := newSession(t)
	// Defective first model.
	hdl1, err := s.CheckinHDL("CPU", 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunHDLSim(hdl1)
	if err != nil {
		t.Fatal(err)
	}
	if res != "3 errors" {
		t.Errorf("hdl_sim = %q", res)
	}
	if got := prop(t, s, hdl1, "sim_result"); got != "3 errors" {
		t.Errorf("sim_result = %q", got)
	}

	// Synthesis is refused: the model has not passed simulation.
	lib, err := s.InstallLibrary("stdlib")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Synthesize(hdl1, lib); !errors.Is(err, ErrNotReady) {
		t.Errorf("synthesis of unverified model: %v", err)
	}

	// Fixed model passes and synthesizes.
	hdl2, err := s.CheckinHDL("CPU", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := s.RunHDLSim(hdl2); res != "good" {
		t.Fatalf("hdl_sim = %q", res)
	}
	sch, err := s.Synthesize(hdl2, lib)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := s.RunNetlister(sch)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.RunNetlistSim(nl); err != nil || res != "good" {
		t.Fatalf("nl_sim = %q %v", res, err)
	}
	// The nl_sim result reached the schematic through the derived link.
	if got := prop(t, s, sch, "nl_sim_res"); got != "good" {
		t.Errorf("schematic nl_sim_res = %q", got)
	}
	if got := prop(t, s, nl, "sim_result"); got != "good" {
		t.Errorf("netlist sim_result = %q", got)
	}

	lay, err := s.PlaceRoute(nl)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.RunDRC(lay); err != nil {
		t.Fatal(err)
	} else if res == "bad" {
		if err := s.FixLayout(lay); err != nil {
			t.Fatal(err)
		}
		if res, _ := s.RunDRC(lay); res != "good" {
			t.Fatalf("drc after fix = %q", res)
		}
	}
	if got := prop(t, s, lay, "drc_result"); got != "good" {
		t.Errorf("drc_result = %q", got)
	}

	// LVS against the netlist the layout was placed from is equivalent;
	// the event updated the tracked property.
	if res, err := s.RunLVS(lay, nl); err != nil || res != "is_equiv" {
		t.Fatalf("lvs = %q %v", res, err)
	}
	if got := prop(t, s, lay, "lvs_result"); got != "is_equiv" {
		t.Errorf("lvs_result = %q", got)
	}
	// A layout edit (FixLayout) changes content but keeps lineage, so LVS
	// still matches.
	if err := s.FixLayout(lay); err != nil {
		t.Fatal(err)
	}
	if res, err := s.RunLVS(lay, nl); err != nil || res != "is_equiv" {
		t.Errorf("lvs after fix = %q %v", res, err)
	}
}

func TestNetlistSimPermissionDenied(t *testing.T) {
	// The paper's tool-scheduling example: the wrapper refuses to simulate
	// a stale netlist.
	s := newSession(t)
	hdl, err := s.CheckinHDL("CPU", 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunHDLSim(hdl); err != nil {
		t.Fatal(err)
	}
	lib, err := s.InstallLibrary("stdlib")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := s.Synthesize(hdl, lib)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := s.RunNetlister(sch)
	if err != nil {
		t.Fatal(err)
	}
	// A new model version is checked in: everything downstream goes stale.
	hdl2, err := s.CheckinHDL("CPU", 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = hdl2
	if got := prop(t, s, nl, "uptodate"); got != "false" {
		t.Fatalf("netlist uptodate = %q after model change", got)
	}
	if _, err := s.RunNetlistSim(nl); !errors.Is(err, ErrStale) {
		t.Errorf("stale netlist sim: %v, want ErrStale", err)
	}
	// Placement also refuses.
	if _, err := s.PlaceRoute(nl); !errors.Is(err, ErrStale) {
		t.Errorf("stale placement: %v, want ErrStale", err)
	}
}

func TestAutoNetlister(t *testing.T) {
	// Section 3.3: "the netlister has to be invoked every time a new
	// version of schematic is promoted (checked in) to the project
	// workspace" — via the blueprint's exec rule and the AutoExecutor.
	var s *Session
	// Two-phase construction: the executor needs the session.
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	reg := exec.NewRegistry()
	eng, err := engine.New(meta.NewDB(), bp, engine.WithExecutor(reg))
	if err != nil {
		t.Fatal(err)
	}
	s = NewSession(eng, tools.NewSuite(7), "auto")
	auto := s.AutoExecutor()
	reg.Register("netlister", func(inv exec.Invocation) error { return auto.Exec(inv) })

	hdl, err := s.CheckinHDL("CPU", 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunHDLSim(hdl); err != nil {
		t.Fatal(err)
	}
	lib, err := s.InstallLibrary("stdlib")
	if err != nil {
		t.Fatal(err)
	}
	// Synthesize checks the schematic in, which fires the exec rule, which
	// runs the netlister automatically.
	if _, err := s.Synthesize(hdl, lib); err != nil {
		t.Fatal(err)
	}
	nl, err := eng.DB().Head().Latest("CPU", "netlist")
	if err != nil {
		t.Fatalf("auto netlister did not run: %v", err)
	}
	if _, ok := s.Suite.Store.Get(nl); !ok {
		t.Error("netlist design data missing")
	}
}

func TestHierarchyComponent(t *testing.T) {
	s := newSession(t)
	hdl, _ := s.CheckinHDL("CPU", 40, 0)
	if _, err := s.RunHDLSim(hdl); err != nil {
		t.Fatal(err)
	}
	lib, _ := s.InstallLibrary("stdlib")
	cpu, err := s.Synthesize(hdl, lib)
	if err != nil {
		t.Fatal(err)
	}
	rhdl, _ := s.CheckinHDL("REG", 10, 0)
	if _, err := s.RunHDLSim(rhdl); err != nil {
		t.Fatal(err)
	}
	reg, err := s.Synthesize(rhdl, lib)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddComponent(cpu, reg); err != nil {
		t.Fatal(err)
	}
	// Invalidate the parent; the component goes stale through the
	// hierarchy.
	if err := s.checkin(cpu); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, s, reg, "uptodate"); got != "false" {
		t.Errorf("component uptodate = %q", got)
	}
}

func TestWorkspaceBinding(t *testing.T) {
	s := newSession(t)
	if err := s.UseWorkspace("proj", "/repo/proj"); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-use of an existing workspace.
	if err := s.UseWorkspace("proj", "/repo/proj"); err != nil {
		t.Fatal(err)
	}
	hdl, err := s.CheckinHDL("CPU", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.Eng.DB().Head().GetWorkspace("proj")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := ws.Path(hdl)
	if !ok || p != "CPU/HDL_model/v1" {
		t.Errorf("bound path = %q %v", p, ok)
	}
	// Derived data checked in by wrappers binds too.
	if _, err := s.RunHDLSim(hdl); err != nil {
		t.Fatal(err)
	}
	lib, err := s.InstallLibrary("stdlib")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := s.Synthesize(hdl, lib)
	if err != nil {
		t.Fatal(err)
	}
	ws, _ = s.Eng.DB().Head().GetWorkspace("proj")
	if _, ok := ws.Path(sch); !ok {
		t.Error("schematic not bound to workspace")
	}
	if got := len(ws.Keys()); got < 3 {
		t.Errorf("workspace bindings = %d", got)
	}
}

func TestRequireChecks(t *testing.T) {
	s := newSession(t)
	hdl, err := s.CheckinHDL("CPU", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RequireUpToDate(hdl); err != nil {
		t.Errorf("fresh OID stale: %v", err)
	}
	if err := s.Eng.DB().SetProp(hdl, "uptodate", "false"); err != nil {
		t.Fatal(err)
	}
	if err := s.RequireUpToDate(hdl); !errors.Is(err, ErrStale) {
		t.Errorf("err = %v", err)
	}
	if err := s.RequireProp(hdl, "sim_result", "good"); !errors.Is(err, ErrNotReady) {
		t.Errorf("err = %v", err)
	}
	// Missing OID is a hard error, not a policy error.
	ghost := meta.Key{Block: "g", View: "HDL_model", Version: 1}
	if err := s.RequireUpToDate(ghost); err == nil || errors.Is(err, ErrStale) {
		t.Errorf("missing OID: %v", err)
	}
}
