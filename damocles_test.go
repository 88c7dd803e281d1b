package repro

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewProjectQuickstart(t *testing.T) {
	proj, err := NewProject(EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	k, err := proj.Engine.CreateOID("CPU", "HDL_model", "yves")
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.Engine.PostAndDrain(Event{
		Name: "hdl_sim", Dir: DirDown, Target: k, Args: []string{"good"},
	}); err != nil {
		t.Fatal(err)
	}
	v, _, err := proj.DB.Head().GetProp(k, "sim_result")
	if err != nil || v != "good" {
		t.Fatalf("sim_result = %q, %v", v, err)
	}
	rep := Report(proj.DB, proj.Blueprint)
	if len(rep) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	out := FormatReport(rep)
	if !strings.Contains(out, "CPU,HDL_model,1") {
		t.Errorf("formatted report:\n%s", out)
	}
}

func TestNewProjectBadBlueprint(t *testing.T) {
	if _, err := NewProject("not a blueprint"); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := NewProject(`blueprint b
view v
    property p default a
    property p default b
endview
endblueprint`); err == nil {
		t.Error("analyzer errors accepted")
	}
}

func TestFacadeRoundTrips(t *testing.T) {
	bp, err := ParseBlueprint(EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBlueprint(PrintBlueprint(bp)); err != nil {
		t.Errorf("print/parse: %v", err)
	}
	k, err := ParseKey("reg,verilog,4")
	if err != nil || k.Version != 4 {
		t.Errorf("ParseKey: %v %v", k, err)
	}
	db := NewDB()
	if _, err := db.NewVersion("a", "v"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Head().Stats().OIDs != 1 {
		t.Error("load lost data")
	}
}

func TestGapFacade(t *testing.T) {
	proj, err := NewProject(EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proj.Engine.CreateOID("CPU", "schematic", "x"); err != nil {
		t.Fatal(err)
	}
	if err := proj.Engine.Drain(); err != nil {
		t.Fatal(err)
	}
	gap := Gap(proj.DB, proj.Blueprint)
	if len(gap) != 1 || gap[0].Ready {
		t.Errorf("gap = %+v", gap)
	}
}
