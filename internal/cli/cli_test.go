package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/server"
)

func TestBPCheckSourceValid(t *testing.T) {
	var out, errw bytes.Buffer
	ok := BPCheckSource(&out, &errw, "edtc.bp", bpl.EDTCExample, false, false)
	if !ok {
		t.Fatalf("valid blueprint rejected:\n%s", errw.String())
	}
	if !strings.Contains(out.String(), "blueprint EDTC_example ok") {
		t.Errorf("output = %q", out.String())
	}
	if !strings.Contains(out.String(), "6 views") {
		t.Errorf("view count missing: %q", out.String())
	}
}

func TestBPCheckSourcePrintForm(t *testing.T) {
	var out, errw bytes.Buffer
	if !BPCheckSource(&out, &errw, "x", bpl.EDTCExample, true, true) {
		t.Fatal("rejected")
	}
	// The canonical form is printed and reparses.
	idx := strings.Index(out.String(), "blueprint EDTC_example\n")
	if idx < 0 {
		t.Fatalf("canonical form missing:\n%s", out.String())
	}
	if _, err := bpl.Parse(out.String()[idx:]); err != nil {
		t.Errorf("printed form does not parse: %v", err)
	}
}

func TestBPCheckSourceInvalid(t *testing.T) {
	var out, errw bytes.Buffer
	if BPCheckSource(&out, &errw, "bad", "not a blueprint", false, false) {
		t.Error("garbage accepted")
	}
	if !strings.Contains(errw.String(), "bad:") {
		t.Errorf("error output = %q", errw.String())
	}
	// Analyzer errors also fail.
	errw.Reset()
	src := "blueprint b\nview v\nproperty p default a\nproperty p default b\nendview\nendblueprint"
	if BPCheckSource(&out, &errw, "dup", src, false, false) {
		t.Error("duplicate property accepted")
	}
	if !strings.Contains(errw.String(), "duplicate property") {
		t.Errorf("diagnostics = %q", errw.String())
	}
}

func TestBPCheckFiles(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.bp")
	if err := os.WriteFile(good, []byte(bpl.EDTCExample), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.bp")
	if err := os.WriteFile(bad, []byte("blueprint"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if !BPCheckFiles(&out, &errw, []string{good}, false, false) {
		t.Errorf("good file rejected: %s", errw.String())
	}
	if BPCheckFiles(&out, &errw, []string{good, bad}, false, false) {
		t.Error("bad file accepted")
	}
	if BPCheckFiles(&out, &errw, []string{filepath.Join(dir, "missing.bp")}, false, false) {
		t.Error("missing file accepted")
	}
}

func startServerClient(t *testing.T) *server.Client {
	t.Helper()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.User = "cli"
	return c
}

func TestDQuerySubcommands(t *testing.T) {
	c := startServerClient(t)
	hdl, err := c.Create("CPU", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := c.Create("CPU", "schematic")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Link("derive", hdl, sch); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := DQuery(&out, c, args); err != nil {
			t.Fatalf("dquery %v: %v", args, err)
		}
		return out.String()
	}

	if got := run("state", sch.String()); !strings.Contains(got, "ready=false") ||
		!strings.Contains(got, "uptodate = true") {
		t.Errorf("state output:\n%s", got)
	}
	if got := run("report"); !strings.Contains(got, "CPU,HDL_model,1") {
		t.Errorf("report output:\n%s", got)
	}
	if got := run("gap"); !strings.Contains(got, "CPU,schematic,1") {
		t.Errorf("gap output:\n%s", got)
	}
	if got := run("stats"); !strings.Contains(got, "oids=2") {
		t.Errorf("stats output:\n%s", got)
	}
	if got := run("blueprint"); !strings.Contains(got, "blueprint EDTC_example") {
		t.Errorf("blueprint output:\n%s", got)
	}
	if got := run("snapshot", "s1", "*"); !strings.Contains(got, "2 oids") {
		t.Errorf("snapshot output:\n%s", got)
	}
	if got := run("dot", "state"); !strings.Contains(got, "digraph") {
		t.Errorf("dot output:\n%s", got)
	}
	if got := run("links", sch.String()); !strings.Contains(got, "derive") {
		t.Errorf("links output:\n%s", got)
	}

	// Error paths.
	var out bytes.Buffer
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"state"},
		{"state", "nokey"},
		{"snapshot", "only"},
		{"dot"},
		{"links"},
		{"links", "nokey"},
	} {
		if err := DQuery(&out, c, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestDQueryRefusesUnknownBeforeConnecting: a missing or unknown
// subcommand — upgrade, which this build no longer has, among them — is
// refused by CheckDQuery, which dquery runs before it dials or replays, and
// by DQuery without touching its client (nil here).
func TestDQueryRefusesUnknownBeforeConnecting(t *testing.T) {
	for _, args := range [][]string{{}, {"upgrade", "dir"}, {"nosuch"}, {""}, {"STATE"}} {
		if err := CheckDQuery(args); err == nil {
			t.Errorf("CheckDQuery(%q) accepted", args)
		}
		if err := DQuery(new(bytes.Buffer), nil, args); err == nil {
			t.Errorf("DQuery(%q) accepted", args)
		}
	}
	for _, sub := range []string{"state", "report", "gap", "stats", "blueprint", "snapshot", "dot", "query", "links"} {
		if err := CheckDQuery([]string{sub}); err != nil {
			t.Errorf("CheckDQuery refuses %q: %v", sub, err)
		}
	}
}

func TestFlowSimModes(t *testing.T) {
	for _, mode := range []string{"scenario", "dsm", "workload"} {
		var out bytes.Buffer
		err := FlowSim(&out, FlowSimConfig{
			Mode: mode, Seed: 11, Blocks: 2, Steps: 40, DefectRate: 20,
		})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if out.Len() == 0 {
			t.Errorf("mode %s produced no output", mode)
		}
	}
	var out bytes.Buffer
	if err := FlowSim(&out, FlowSimConfig{Mode: "bogus"}); err == nil {
		t.Error("bogus mode accepted")
	}
}

func TestFlowSimScenarioOutput(t *testing.T) {
	var out bytes.Buffer
	if err := FlowSim(&out, FlowSimConfig{Mode: "scenario", Seed: 1995}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"first simulation:    4 errors",
		"second simulation:   good",
		"CPU,HDL_model,3",
		"project state",
		"statistics",
		"4 errors  (paper: negative)",
		"4 OIDs [",
		"(paper: the derived set)",
		"exec netlister CPU,schematic,1 (event ckin at CPU,schematic,1)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scenario output missing %q:\n%s", want, got)
		}
	}
}
