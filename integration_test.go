package repro

// Full-stack integration tests: TCP server, remote wrappers, persistence,
// tasks — the subsystems exercised together the way a real deployment
// would compose them.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/server"
	"repro/internal/task"
	"repro/internal/tools"
	"repro/internal/wrapper"
)

// TestIntegrationRemoteTeamFlow runs a two-designer flow entirely over
// TCP, then checks the project state from a third connection and persists
// the database through a save/load cycle.
func TestIntegrationRemoteTeamFlow(t *testing.T) {
	proj, err := NewProject(EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(proj.Engine)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dialRemote := func(user string, seed uint64) *wrapper.Remote {
		t.Helper()
		c, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.User = user
		return wrapper.NewRemote(c, tools.NewSuite(seed))
	}

	// Designer 1 owns the front end.  Both designers share one tool
	// suite's workspace in reality; here each has a local suite and they
	// hand off at the meta-data level, which is all the tracking system
	// sees.
	yves := dialRemote("yves", 1)
	hdl, err := yves.CheckinHDL("CPU", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := yves.RunHDLSim(hdl); err != nil || res != "good" {
		t.Fatalf("sim: %q %v", res, err)
	}
	lib, err := yves.InstallLibrary("stdlib")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := yves.Synthesize(hdl, lib)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := yves.RunNetlister(sch)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := yves.RunNetlistSim(nl); err != nil || res != "good" {
		t.Fatalf("nl sim: %q %v", res, err)
	}

	// Designer 2 changes the model; designer 1's netlist goes stale and
	// the permission system notices on the next attempt.
	marc := dialRemote("marc", 2)
	if _, err := marc.CheckinHDL("CPU", 101, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := yves.RunNetlistSim(nl); err == nil {
		t.Fatal("stale netlist simulated")
	}

	// A third connection audits the project.
	audit, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer audit.Close()
	gap, err := audit.Gap()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(gap, "\n")
	if !strings.Contains(joined, "CPU,schematic,1") {
		t.Errorf("gap missing stale schematic:\n%s", joined)
	}
	// Ownership was attributed per connection user.
	v, ok, err := audit.Prop(sch, "owner")
	if err != nil || !ok || v != "yves" {
		t.Errorf("owner = %q %v %v", v, ok, err)
	}
	hdl2, err := audit.Latest("CPU", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	v, _, _ = audit.Prop(hdl2, "owner")
	if v != "marc" {
		t.Errorf("hdl2 owner = %q", v)
	}

	// Persist and reload the database; state survives byte-for-byte.
	var buf bytes.Buffer
	if err := proj.DB.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Head().Stats() != proj.DB.Head().Stats() {
		t.Errorf("stats differ after reload: %+v vs %+v", db2.Head().Stats(), proj.DB.Head().Stats())
	}
	rep := Report(db2, proj.Blueprint)
	var found bool
	for _, st := range rep {
		if st.Key == sch && !st.Ready {
			found = true
		}
	}
	if !found {
		t.Error("reloaded database lost the stale schematic state")
	}
}

// TestIntegrationTasksOverScenario stacks the design-task layer on the
// scenario rig: the implement task fails while the model is stale and
// succeeds after re-verification.
func TestIntegrationTasksOverScenario(t *testing.T) {
	sess, _, err := flow.NewEDTCSession(555)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.CheckinHDL("CPU", 60, 2); err != nil { // defective
		t.Fatal(err)
	}
	if _, err := sess.InstallLibrary("stdlib"); err != nil {
		t.Fatal(err)
	}
	runner := task.NewRunner(sess)

	rec, err := runner.Run(task.VerifyModel("CPU"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "failed" {
		t.Fatalf("verify on defective model: %+v", rec)
	}
	rec, err = runner.Run(task.ImplementBlock("CPU", "stdlib"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "failed" || !strings.Contains(rec.Failure, "sim_result") {
		t.Fatalf("implement gated: %+v", rec)
	}

	// Fix, verify, implement.
	if _, err := sess.CheckinHDL("CPU", 60, 0); err != nil {
		t.Fatal(err)
	}
	if rec, err = runner.Run(task.VerifyModel("CPU")); err != nil || rec.Status != "done" {
		t.Fatalf("verify: %+v %v", rec, err)
	}
	if rec, err = runner.Run(task.ImplementBlock("CPU", "stdlib")); err != nil || rec.Status != "done" {
		t.Fatalf("implement: %+v %v", rec, err)
	}
	// The failed and successful runs are both in the task history.
	if got := task.History(sess.Eng.DB(), "implement_CPU"); len(got) != 2 {
		t.Errorf("history = %v", got)
	}
}

// TestIntegrationEngineSurvivesExecutorFailures injects executor failures
// and checks the tracking system stays non-obstructive: event processing
// completes, state is updated, failures are counted and traced.
func TestIntegrationEngineSurvivesExecutorFailures(t *testing.T) {
	tr := &engine.BufferTracer{}
	proj, err := NewProject(EDTCExample,
		WithExecutor(failingExecutor{}), engine.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := proj.Engine.CreateOID("CPU", "schematic", "x")
	if err != nil {
		t.Fatal(err)
	}
	// ckin fires the netlister exec rule, which fails.
	if err := proj.Engine.PostAndDrain(Event{Name: EventCheckin, Dir: DirDown, Target: sch}); err != nil {
		t.Fatal(err)
	}
	// State was still maintained.
	v, _, err := proj.DB.Head().GetProp(sch, "uptodate")
	if err != nil || v != "true" {
		t.Errorf("uptodate = %q %v", v, err)
	}
	s := proj.Engine.Stats()
	if s.ExecErrors == 0 {
		t.Error("executor failure not counted")
	}
	var traced bool
	for _, e := range tr.OfKind(engine.TraceError) {
		if strings.Contains(e.Detail, "boom") {
			traced = true
		}
	}
	if !traced {
		t.Error("executor failure not traced")
	}
}

type failingExecutor struct{}

func (failingExecutor) Exec(Invocation) error { return errBoom }
func (failingExecutor) Notify(string) error   { return errBoom }

var errBoom = &toolBoom{}

type toolBoom struct{}

func (*toolBoom) Error() string { return "boom: simulated tool crash" }
