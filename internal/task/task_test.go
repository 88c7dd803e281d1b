package task

import (
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/meta"
	"repro/internal/wrapper"
)

func session(t *testing.T) *wrapper.Session {
	t.Helper()
	sess, _, err := flow.NewEDTCSession(2024)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestTaskValidate(t *testing.T) {
	ok := Task{Name: "t", Steps: []Step{{Name: "s", Run: func(*wrapper.Session) error { return nil }}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	bad := []Task{
		{Name: "", Steps: ok.Steps},
		{Name: "t"},
		{Name: "t", Steps: []Step{{Name: "", Run: ok.Steps[0].Run}}},
		{Name: "t", Steps: []Step{{Name: "s"}}},
		{Name: "bad name", Steps: ok.Steps},
	}
	for i, tk := range bad {
		if err := tk.Validate(); err == nil {
			t.Errorf("bad task %d accepted", i)
		}
	}
}

func TestRunTracksInMetaDatabase(t *testing.T) {
	sess := session(t)
	r := NewRunner(sess)
	var order []string
	tk := Task{Name: "demo", Steps: []Step{
		{Name: "one", Run: func(*wrapper.Session) error { order = append(order, "one"); return nil }},
		{Name: "two", Run: func(*wrapper.Session) error { order = append(order, "two"); return nil }},
	}}
	rec, err := r.Run(tk)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "done" || rec.StepsRun != 2 {
		t.Errorf("record = %+v", rec)
	}
	if len(order) != 2 || order[0] != "one" {
		t.Errorf("order = %v", order)
	}
	status, step, failure, err := Status(sess.Eng.DB(), rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	if status != "done" || step != "two" || failure != "" {
		t.Errorf("tracked: status=%q step=%q failure=%q", status, step, failure)
	}
	// Task runs are versioned like any design object.
	rec2, err := r.Run(tk)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Key.Version != 2 {
		t.Errorf("second run key = %v", rec2.Key)
	}
	if got := History(sess.Eng.DB(), "demo"); len(got) != 2 {
		t.Errorf("history = %v", got)
	}
}

func TestRequirementGatesStep(t *testing.T) {
	sess := session(t)
	if _, err := sess.CheckinHDL("CPU", 10, 5); err != nil { // defective
		t.Fatal(err)
	}
	r := NewRunner(sess)
	ran := false
	tk := Task{Name: "gated", Steps: []Step{{
		Name:    "synth",
		Require: []Requirement{{Block: "CPU", View: "HDL_model", Prop: "sim_result", Want: "good"}},
		Run:     func(*wrapper.Session) error { ran = true; return nil },
	}}}
	rec, err := r.Run(tk)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "failed" {
		t.Errorf("status = %q", rec.Status)
	}
	if ran {
		t.Error("gated step ran despite failed requirement")
	}
	if !strings.Contains(rec.Failure, "sim_result") {
		t.Errorf("failure = %q", rec.Failure)
	}
	status, _, failure, _ := Status(sess.Eng.DB(), rec.Key)
	if status != "failed" || failure == "" {
		t.Errorf("tracked failure: %q %q", status, failure)
	}
}

func TestTaskEventsVisibleToBlueprint(t *testing.T) {
	// A project policy can hook task events like any design event.  The
	// EDTC blueprint has no task view, so extend the default view check:
	// the task OID still carries uptodate from the default template, and
	// the events fire rules there.
	sess := session(t)
	r := NewRunner(sess)
	rec, err := r.Run(Task{Name: "hooked", Steps: []Step{
		{Name: "s", Run: func(*wrapper.Session) error { return nil }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The default view attached uptodate to the task OID.
	v, ok, err := sess.Eng.DB().Head().GetProp(rec.Key, "uptodate")
	if err != nil || !ok || v != "true" {
		t.Errorf("task OID uptodate = %q %v %v", v, ok, err)
	}
}

func TestLibraryFullPipeline(t *testing.T) {
	sess := session(t)
	// Prepare the primary data.
	if _, err := sess.CheckinHDL("CPU", 60, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.InstallLibrary("stdlib"); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sess)

	rec, err := r.Run(VerifyModel("CPU"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "done" {
		t.Fatalf("verify: %+v", rec)
	}
	rec, err = r.Run(ImplementBlock("CPU", "stdlib"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "done" {
		t.Fatalf("implement: %+v", rec)
	}
	rec, err = r.Run(PhysicalSignoff("CPU"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "done" {
		t.Fatalf("signoff: %+v", rec)
	}
	// The flow produced the full view chain.
	db := sess.Eng.DB()
	for _, view := range []string{"schematic", "netlist", "layout"} {
		if _, err := db.Head().Latest("CPU", view); err != nil {
			t.Errorf("missing %s: %v", view, err)
		}
	}
	// And the layout reached its planned state.
	lay, _ := db.Head().Latest("CPU", "layout")
	if v, _, _ := db.Head().GetProp(lay, "state"); v != "true" {
		o, _ := db.Head().GetOID(lay)
		t.Errorf("layout state = %q, props = %v", v, o.Props)
	}
}

func TestLibraryRefusesStaleInputs(t *testing.T) {
	sess := session(t)
	if _, err := sess.CheckinHDL("CPU", 60, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.InstallLibrary("stdlib"); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sess)
	if rec, err := r.Run(VerifyModel("CPU")); err != nil || rec.Status != "done" {
		t.Fatalf("verify: %+v %v", rec, err)
	}
	if rec, err := r.Run(ImplementBlock("CPU", "stdlib")); err != nil || rec.Status != "done" {
		t.Fatalf("implement: %+v %v", rec, err)
	}
	// New model version: downstream stale; signoff must refuse at its
	// requirement, not run tools on stale data.
	if _, err := sess.CheckinHDL("CPU", 61, 0); err != nil {
		t.Fatal(err)
	}
	rec, err := r.Run(PhysicalSignoff("CPU"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "failed" || !strings.Contains(rec.Failure, "uptodate") {
		t.Errorf("signoff on stale data: %+v", rec)
	}
}

func TestStatusOnMissingKey(t *testing.T) {
	sess := session(t)
	if _, _, _, err := Status(sess.Eng.DB(), meta.Key{Block: "x", View: View, Version: 1}); err == nil {
		t.Error("missing task key accepted")
	}
}
