package engine

import (
	"strings"
	"testing"
	"time"

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
	// The CREATE traces the let's first value, then the creation; the let
	// is evaluated twice — at creation, and on the create event's delivery,
	// which changes and traces nothing.
	var created []string
	for _, en := range tr.Entries() {
		switch en.Kind {
		case TraceLet, TraceCreateOID:
			created = append(created, en.Kind.String()+" "+en.OID+" "+en.Detail)
		}
	}
	want := []string{TraceLet.String() + " blk,v,1 ready = false", TraceCreateOID.String() + " blk,v,1 owner yves"}
	if strings.Join(created, "; ") != strings.Join(want, "; ") {
		t.Errorf("CREATE traced %q, want %q", created, want)
	}
	if n := e.Stats().LetEvals; n != 2 {
		t.Errorf("%d let evaluations after CREATE, want 2", n)
	}
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
	if got := invs[0].Env("result"); got != "new" {
		t.Errorf("env result = %q", got)
	}
}

// TestExecEnvIsFiringTime: an exec's environment reads what its target
// held when the rule fired, whatever later deliveries write, and resolves
// names as the rule's own templates do.
func TestExecEnvIsFiringTime(t *testing.T) {
	rec := &exec.Recorder{}
	now := time.Date(1995, time.March, 6, 9, 0, 0, 0, time.UTC)
	e := newTestEngine(t, bpl.EDTCExample, WithExecutor(rec),
		WithClock(func() time.Time { return now }))
	sch, err := e.CreateOID("CPU", "schematic", "marc")
	if err != nil {
		t.Fatal(err)
	}
	// A property named like a built-in, and one named like an argument
	// past the event's last.
	for name, v := range map[string]string{"user": "shadow", "arg2": "shadow"} {
		if err := e.DB().SetProp(sch, name, v); err != nil {
			t.Fatal(err)
		}
	}
	ckin := func(user string, args ...string) {
		t.Helper()
		if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: sch, User: user, Args: args}); err != nil {
			t.Fatal(err)
		}
	}
	ckin("marc", "rev1")
	first := now
	now = now.Add(time.Hour)
	if err := e.DB().SetProp(sch, meta.PropOwner, "salma"); err != nil {
		t.Fatal(err)
	}
	ckin("salma")

	invs := rec.Invocations()
	if len(invs) != 2 || invs[0].Script != "netlister" {
		t.Fatalf("invocations = %+v", invs)
	}
	env := invs[0].Env
	for name, want := range map[string]string{
		"lvs_res": "CPU,schematic,1 changed by marc",
		"user":    "marc", // the built-in, not the property
		"owner":   "marc",
		"date":    first.Format(time.RFC3339),
		"oid":     "CPU,schematic,1",
		"arg1":    "rev1",
		"arg2":    "", // past the last argument: not the property
		"nl_sim":  "",
	} {
		if got := env(name); got != want {
			t.Errorf("first Env(%q) = %q, want %q", name, got, want)
		}
	}
	if got := prop(t, e, sch, "lvs_res"); got != "CPU,schematic,1 changed by salma" {
		t.Errorf("lvs_res after the second ckin = %q", got)
	}
	if got, want := invs[1].Env("date"), now.Format(time.RFC3339); got != want {
		t.Errorf("second Env(date) = %q, want %q", got, want)
	}
	if got := invs[1].Env("owner"); got != "salma" {
		t.Errorf("second Env(owner) = %q, want salma", got)
	}

	// The argv of an exec resolves $argN as its Env does.
	rec.Reset()
	e = newTestEngine(t, `blueprint b
view v
    property arg2 default shadow
    when go do exec tool "$arg1" "$arg2" done
endview
endblueprint`, WithExecutor(rec))
	k := mustCreate(t, e, "blk", "v")
	if err := e.PostAndDrain(Event{Name: "go", Dir: bpl.DirDown, Target: k, Args: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	invs = rec.Invocations()
	if len(invs) != 1 {
		t.Fatalf("invocations = %+v", invs)
	}
	if got := invs[0].Args; len(got) != 2 || got[0] != "x" || got[1] != "" {
		t.Errorf("argv = %q, want [x \"\"]", got)
	}
	if got := invs[0].Env("arg2"); got != invs[0].Args[1] {
		t.Errorf("Env(arg2) = %q, argv has %q", got, invs[0].Args[1])
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
	if err := e.DB().UpdateOID(k, func(p map[string]string) { delete(p, meta.PropOwner) }); err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(Event{Name: "go", Dir: bpl.DirDown, Target: k, User: "poster"}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, k, "who"); got != "poster" {
		t.Errorf("who = %q, want the posting user", got)
	}
}
