package wrapper

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/server"
	"repro/internal/tools"
	"repro/internal/wire"
)

func startRemote(t *testing.T) *Remote {
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
	c.User = "remote-designer"
	return NewRemote(c, tools.NewSuite(314))
}

// TestRemoteFullFlow drives the front of the design flow entirely across
// TCP: every permission check, creation, link and event is a protocol
// round trip; only the design data stays local to the wrapper.
func TestRemoteFullFlow(t *testing.T) {
	r := startRemote(t)
	hdl, err := r.CheckinHDL("CPU", 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.RunHDLSim(hdl); err != nil || res != "good" {
		t.Fatalf("hdl_sim = %q %v", res, err)
	}
	lib, err := r.InstallLibrary("stdlib")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := r.Synthesize(hdl, lib)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := r.RunNetlister(sch)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.RunNetlistSim(nl); err != nil || res != "good" {
		t.Fatalf("nl_sim = %q %v", res, err)
	}
	// The nl_sim result reached the schematic server-side.
	v, ok, err := r.Client.Prop(sch, "nl_sim_res")
	if err != nil || !ok || v != "good" {
		t.Errorf("remote nl_sim_res = %q %v %v", v, ok, err)
	}
}

func TestRemotePermissionDenied(t *testing.T) {
	r := startRemote(t)
	hdl, err := r.CheckinHDL("CPU", 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunHDLSim(hdl); err != nil {
		t.Fatal(err)
	}
	lib, err := r.InstallLibrary("stdlib")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := r.Synthesize(hdl, lib)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := r.RunNetlister(sch)
	if err != nil {
		t.Fatal(err)
	}
	// A new model version invalidates downstream data server-side; the
	// remote wrapper's permission query sees it.
	if _, err := r.CheckinHDL("CPU", 81, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunNetlistSim(nl); !errors.Is(err, ErrStale) {
		t.Errorf("stale remote sim: %v", err)
	}
	// Unverified synthesis is refused remotely too.
	hdl3, err := r.CheckinHDL("CPU", 82, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunHDLSim(hdl3); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Synthesize(hdl3, lib); !errors.Is(err, ErrNotReady) {
		t.Errorf("unverified remote synthesis: %v", err)
	}
}

func TestRemoteLatestAndDot(t *testing.T) {
	r := startRemote(t)
	if _, err := r.CheckinHDL("CPU", 10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CheckinHDL("CPU", 11, 0); err != nil {
		t.Fatal(err)
	}
	k, err := r.Client.Latest("CPU", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if k.Version != 2 {
		t.Errorf("Latest = %v", k)
	}
	if _, err := r.Client.Latest("ghost", "HDL_model"); err == nil {
		t.Error("missing chain accepted")
	}
	flowDot, err := r.Client.Dot("flow")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flowDot, "digraph") || !strings.Contains(flowDot, "schematic") {
		t.Errorf("flow dot:\n%s", flowDot)
	}
	stateDot, err := r.Client.Dot("state")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stateDot, "CPU,HDL_model,2") {
		t.Errorf("state dot:\n%s", stateDot)
	}
	if _, err := r.Client.Dot("nonsense"); err == nil {
		t.Error("bad dot kind accepted")
	}
}

func TestRemotePropQuoting(t *testing.T) {
	r := startRemote(t)
	k, err := r.CheckinHDL("CPU", 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunHDLSim(k); err != nil {
		t.Fatal(err)
	}
	// "2 errors" has a space: the PROP response must quote it correctly.
	v, ok, err := r.Client.Prop(k, "sim_result")
	if err != nil || !ok || v != "2 errors" {
		t.Errorf("prop = %q %v %v", v, ok, err)
	}
	// Unset property.
	_, ok, err = r.Client.Prop(k, "never_set")
	if err != nil || ok {
		t.Errorf("unset prop = %v %v", ok, err)
	}
}

// TestRemoteCheckinHierarchy batches a whole hierarchy's check-in events
// into one BATCH round-trip and verifies every OID was promoted and its
// invalidation wave processed.
func TestRemoteCheckinHierarchy(t *testing.T) {
	r := startRemote(t)
	var keys []meta.Key
	for _, blk := range []string{"alu", "reg", "shifter", "decoder"} {
		k, err := r.Client.Create(blk, "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		r.Suite.WriteHDL(k, 40, 0)
		keys = append(keys, k)
	}
	if err := r.CheckinHierarchy(keys); err != nil {
		t.Fatal(err)
	}
	if err := r.Client.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := r.RequireUpToDate(k); err != nil {
			t.Errorf("%v not up to date after batched check-in: %v", k, err)
		}
	}
	// Empty input is a no-op, not a protocol error.
	if err := r.CheckinHierarchy(nil); err != nil {
		t.Errorf("empty hierarchy: %v", err)
	}
}

// frontEnd is the eight wrapper operations Session and Remote share.
type frontEnd interface {
	RequireUpToDate(k meta.Key) error
	RequireProp(k meta.Key, name, want string) error
	CheckinHDL(block string, gates, defects int) (meta.Key, error)
	InstallLibrary(block string) (meta.Key, error)
	RunHDLSim(k meta.Key) (string, error)
	Synthesize(hdl, lib meta.Key) (meta.Key, error)
	RunNetlister(sch meta.Key) (meta.Key, error)
	RunNetlistSim(nl meta.Key) (string, error)
}

// edtcFrontEnd runs the front of the EDTC flow with its refusals: a
// defective model that may not be synthesized, its fix carried down to a
// simulated netlist, a second block, then a new model version that leaves
// the first block's netlist stale.
func edtcFrontEnd(t *testing.T, w frontEnd) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	lib, err := w.InstallLibrary("stdlib")
	must(err)
	bad, err := w.CheckinHDL("CPU", 100, 3)
	must(err)
	if res, err := w.RunHDLSim(bad); err != nil || res != "3 errors" {
		t.Fatalf("hdl_sim of the defective model = %q, %v", res, err)
	}
	if _, err := w.Synthesize(bad, lib); !errors.Is(err, ErrNotReady) {
		t.Fatalf("synthesis of an unverified model: %v", err)
	}
	var nl meta.Key
	for _, block := range []string{"CPU", "ALU"} {
		hdl, err := w.CheckinHDL(block, 80, 0)
		must(err)
		_, err = w.RunHDLSim(hdl)
		must(err)
		must(w.RequireUpToDate(hdl))
		must(w.RequireProp(hdl, "sim_result", "good"))
		sch, err := w.Synthesize(hdl, lib)
		must(err)
		if block == "ALU" {
			continue // synthesized, never netlisted
		}
		nl, err = w.RunNetlister(sch)
		must(err)
		if res, err := w.RunNetlistSim(nl); err != nil || res != "good" {
			t.Fatalf("nl_sim = %q, %v", res, err)
		}
	}
	_, err = w.CheckinHDL("CPU", 81, 0)
	must(err)
	if _, err := w.RunNetlistSim(nl); !errors.Is(err, ErrStale) {
		t.Fatalf("simulation of a stale netlist: %v", err)
	}
}

// TestRemoteAndSessionSameScenario: the shared operations have one body,
// so the same scenario through an in-process Session and through a Remote
// against a server leaves the same project state.
func TestRemoteAndSessionSameScenario(t *testing.T) {
	s := newSession(t)
	edtcFrontEnd(t, s)
	local := server.New(s.Eng).Handle(wire.Request{Verb: wire.VerbReport})
	if !local.OK {
		t.Fatal(local.Detail)
	}

	r := startRemote(t)
	r.Client.User = s.User // the rules write the user into property values
	edtcFrontEnd(t, r)
	remote, err := r.Client.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) == 0 || !slices.Equal(local.Body, remote) {
		t.Errorf("REPORT after the scenario through Session:\n%s\nthrough Remote:\n%s",
			strings.Join(local.Body, "\n"), strings.Join(remote, "\n"))
	}
	ready := 0
	for _, row := range remote {
		if strings.Contains(row, "ready=true") {
			ready++
		}
	}
	if ready == 0 || ready == len(remote) {
		t.Errorf("the scenario should leave ready and blocked rows, got %d of %d ready", ready, len(remote))
	}
}
