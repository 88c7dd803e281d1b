package engine

import (
	"strings"
	"testing"

	"repro/internal/bpl"
	"repro/internal/exec"
	"repro/internal/meta"
)

// TestRulePhaseOrdering pins down the paper's processing order within one
// event: assign rules first, then continuous-assignment re-evaluation,
// then exec/notify, then posts — across *all* matching rules, grouped by
// phase, not rule by rule.
func TestRulePhaseOrdering(t *testing.T) {
	tr := &BufferTracer{}
	rec := &exec.Recorder{}
	e := newTestEngine(t, `blueprint order
view v
    property a default x
    property b default x
    let ready = ($a == set) and ($b == set)
    when go do exec tool_one; a = set done
    when go do b = set; exec tool_two done
endview
endblueprint`, WithTracer(tr), WithExecutor(rec))
	k := mustCreate(t, e, "blk", "v")
	if err := e.PostAndDrain(Event{Name: "go", Dir: bpl.DirDown, Target: k}); err != nil {
		t.Fatal(err)
	}
	// Both assigns ran before the lets were re-evaluated: ready is true
	// even though rule 1's exec textually precedes its assign and rule 2's
	// assign follows rule 1 entirely.
	if got := prop(t, e, k, "ready"); got != "true" {
		t.Errorf("ready = %q: assigns did not all precede let re-evaluation", got)
	}
	// Both execs ran, in rule order.
	scripts := rec.Scripts()
	if len(scripts) != 2 || scripts[0] != "tool_one" || scripts[1] != "tool_two" {
		t.Errorf("scripts = %v", scripts)
	}
	// The trace shows the phase grouping: all assigns before all execs.
	var seq []string
	for _, en := range tr.Entries() {
		switch en.Kind {
		case TraceAssign:
			seq = append(seq, "assign")
		case TraceExec:
			seq = append(seq, "exec")
		}
	}
	joined := strings.Join(seq, ",")
	if joined != "assign,assign,exec,exec" {
		t.Errorf("phase sequence = %s", joined)
	}
}

// TestExecSeesPhase1Assignments: the exec environment snapshot includes
// property values already updated by the assign phase of the same event.
func TestExecSeesPhase1Assignments(t *testing.T) {
	rec := &exec.Recorder{}
	e := newTestEngine(t, `blueprint b
view v
    property result default old
    when go do result = new; exec tool "$result" done
endview
endblueprint`, WithExecutor(rec))
	k := mustCreate(t, e, "blk", "v")
	if err := e.PostAndDrain(Event{Name: "go", Dir: bpl.DirDown, Target: k}); err != nil {
		t.Fatal(err)
	}
	invs := rec.Invocations()
	if len(invs) != 1 || invs[0].Args[0] != "new" {
		t.Errorf("exec saw %v, want the phase-1 value", invs)
	}
	if invs[0].Env["result"] != "new" {
		t.Errorf("env = %v", invs[0].Env)
	}
}

// TestDeferredExecOrdering: exec invocations fire after the triggering
// wave has fully propagated, so data the tool derives is not invalidated
// by the wave that requested it (the auto-netlister property).
func TestDeferredExecOrdering(t *testing.T) {
	var duringExec string
	reg := exec.NewRegistry()
	// The probe executor observes dst's state at the moment the exec rule
	// actually runs.
	e2 := newTestEngine(t, `blueprint b
view default
    property uptodate default true
    when ckin do uptodate = true; post outofdate down; exec probe done
    when outofdate do uptodate = false done
endview
view src
endview
view dst
    link_from src move propagates outofdate type derived
endview
endblueprint`, WithExecutor(reg))
	src2 := mustCreate(t, e2, "cpu", "src")
	dst2 := mustCreate(t, e2, "cpu", "dst")
	if _, err := e2.CreateLink(meta.DeriveLink, src2, dst2); err != nil {
		t.Fatal(err)
	}
	reg.Register("probe", func(exec.Invocation) error {
		duringExec, _, _ = e2.DB().Head().GetProp(dst2, "uptodate")
		return nil
	})
	if err := e2.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: src2}); err != nil {
		t.Fatal(err)
	}
	// By the time the probe ran, the wave had already invalidated dst:
	// exec is deferred past propagation.
	if duringExec != "false" {
		t.Errorf("probe saw uptodate=%q; exec ran before the wave settled", duringExec)
	}
}

// TestMaxHopsBackstop: with dedup ablated, the hop limit terminates
// propagation on cycles.
func TestMaxHopsBackstop(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view default
    property uptodate default true
    when outofdate do uptodate = false done
endview
view v
endview
endblueprint`, WithWaveDedup(false), WithMaxHops(10), WithMaxSteps(10_000))
	a := mustCreate(t, e, "a", "v")
	b := mustCreate(t, e, "b", "v")
	for _, pair := range [][2]meta.Key{{a, b}, {b, a}} {
		if _, err := e.DB().AddLink(meta.DeriveLink, pair[0], pair[1], "", []string{"outofdate"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.PostAndDrain(Event{Name: EventOutOfDate, Dir: bpl.DirDown, Target: a}); err != nil {
		t.Fatalf("hop limit did not terminate the cycle: %v", err)
	}
	if got := prop(t, e, b, "uptodate"); got != "false" {
		t.Errorf("b uptodate = %q", got)
	}
}

func TestQueueLen(t *testing.T) {
	e := newTestEngine(t, tinyBP)
	k := mustCreate(t, e, "cpu", "src")
	if got := e.QueueLen(); got != 0 {
		t.Errorf("idle QueueLen = %d", got)
	}
	for i := 0; i < 3; i++ {
		if err := e.Post(Event{Name: "poke", Dir: bpl.DirDown, Target: k}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.QueueLen(); got != 3 {
		t.Errorf("QueueLen = %d, want 3", got)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := e.QueueLen(); got != 0 {
		t.Errorf("post-drain QueueLen = %d", got)
	}
}

// TestOwnerFallsBackToEventUser: $owner resolves to the owner property
// when set and to the posting user otherwise.
func TestOwnerFallsBackToEventUser(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view v
    property who default nobody
    when go do who = $owner done
endview
endblueprint`)
	k := mustCreate(t, e, "blk", "v") // owner = default engine user "yves"
	if err := e.PostAndDrain(Event{Name: "go", Dir: bpl.DirDown, Target: k, User: "poster"}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, k, "who"); got != "yves" {
		t.Errorf("who = %q, want the owner property", got)
	}
	if err := e.DB().DelProp(k, meta.PropOwner); err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(Event{Name: "go", Dir: bpl.DirDown, Target: k, User: "poster"}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, k, "who"); got != "poster" {
		t.Errorf("who = %q, want the posting user", got)
	}
}
