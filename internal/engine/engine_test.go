package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/exec"
	"repro/internal/meta"
)

func fixedClock() time.Time {
	return time.Date(1995, time.March, 6, 9, 0, 0, 0, time.UTC)
}

func newTestEngine(t *testing.T, src string, opts ...Option) *Engine {
	t.Helper()
	bp, err := bpl.Parse(src)
	if err != nil {
		t.Fatalf("parse blueprint: %v", err)
	}
	opts = append([]Option{WithClock(fixedClock), WithUser("yves")}, opts...)
	e, err := New(meta.NewDB(), bp, opts...)
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	return e
}

func mustCreate(t *testing.T, e *Engine, block, view string) meta.Key {
	t.Helper()
	k, err := e.CreateOID(block, view, "")
	if err != nil {
		t.Fatalf("CreateOID(%s,%s): %v", block, view, err)
	}
	if err := e.Drain(); err != nil {
		t.Fatalf("drain after create: %v", err)
	}
	return k
}

// linksAt returns k's links with k as their From end (from) or To end.
func linksAt(db *meta.DB, k meta.Key, from bool) []*meta.Link {
	var out []*meta.Link
	for _, l := range db.Head().LinksOf(k) {
		if (l.From == k) == from {
			out = append(out, l)
		}
	}
	return out
}

func prop(t *testing.T, e *Engine, k meta.Key, name string) string {
	t.Helper()
	v, _, err := e.DB().Head().GetProp(k, name)
	if err != nil {
		t.Fatalf("GetProp(%v,%s): %v", k, name, err)
	}
	return v
}

const tinyBP = `blueprint tiny
view default
    property uptodate default true
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false done
endview
view src
endview
view dst
    link_from src move propagates outofdate type derived
endview
endblueprint`

func TestCreateOIDAppliesDefaults(t *testing.T) {
	e := newTestEngine(t, tinyBP)
	k := mustCreate(t, e, "cpu", "src")
	if got := prop(t, e, k, "uptodate"); got != "true" {
		t.Errorf("uptodate = %q", got)
	}
	if got := prop(t, e, k, meta.PropOwner); got != "yves" {
		t.Errorf("owner = %q", got)
	}
}

func TestEventAssignAndArg(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view HDL_model
    property sim_result default bad
    when hdl_sim do sim_result = $arg done
endview
endblueprint`)
	k := mustCreate(t, e, "CPU", "HDL_model")
	if got := prop(t, e, k, "sim_result"); got != "bad" {
		t.Errorf("default sim_result = %q", got)
	}
	if err := e.PostAndDrain(Event{Name: "hdl_sim", Dir: bpl.DirDown, Target: k, Args: []string{"4 errors"}}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, k, "sim_result"); got != "4 errors" {
		t.Errorf("sim_result = %q", got)
	}
	if err := e.PostAndDrain(Event{Name: "hdl_sim", Dir: bpl.DirDown, Target: k, Args: []string{"good"}}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, k, "sim_result"); got != "good" {
		t.Errorf("sim_result = %q", got)
	}
}

func TestOutOfDatePropagation(t *testing.T) {
	e := newTestEngine(t, tinyBP)
	src := mustCreate(t, e, "cpu", "src")
	dst := mustCreate(t, e, "cpu", "dst")
	if _, err := e.CreateLink(meta.DeriveLink, src, dst); err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: src}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, src, "uptodate"); got != "true" {
		t.Errorf("source uptodate = %q (ckin must not invalidate the source)", got)
	}
	if got := prop(t, e, dst, "uptodate"); got != "false" {
		t.Errorf("derived uptodate = %q, want false", got)
	}
}

func TestPropagationRespectsDirection(t *testing.T) {
	e := newTestEngine(t, tinyBP)
	src := mustCreate(t, e, "cpu", "src")
	dst := mustCreate(t, e, "cpu", "dst")
	if _, err := e.CreateLink(meta.DeriveLink, src, dst); err != nil {
		t.Fatal(err)
	}
	// outofdate posted UP from dst: travels To->From, reaching src.
	if err := e.PostAndDrain(Event{Name: EventOutOfDate, Dir: bpl.DirUp, Target: dst}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, src, "uptodate"); got != "false" {
		t.Errorf("src uptodate = %q after up event", got)
	}
	// Reset, then post outofdate UP from src: no link has src as To, so
	// nothing else changes.
	if err := e.DB().SetProp(src, "uptodate", "true"); err != nil {
		t.Fatal(err)
	}
	if err := e.DB().SetProp(dst, "uptodate", "true"); err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(Event{Name: EventOutOfDate, Dir: bpl.DirUp, Target: src}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, dst, "uptodate"); got != "true" {
		t.Errorf("dst uptodate = %q, up event leaked downward", got)
	}
}

func TestPropagationRespectsPropagateSet(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view default
    property uptodate default true
    when outofdate do uptodate = false done
endview
view src
endview
view dst
    link_from src propagates lvs type derived
endview
endblueprint`)
	src := mustCreate(t, e, "cpu", "src")
	dst := mustCreate(t, e, "cpu", "dst")
	if _, err := e.CreateLink(meta.DeriveLink, src, dst); err != nil {
		t.Fatal(err)
	}
	// The link only propagates lvs, not outofdate.
	if err := e.PostAndDrain(Event{Name: EventOutOfDate, Dir: bpl.DirDown, Target: src}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, dst, "uptodate"); got != "true" {
		t.Errorf("dst uptodate = %q, event crossed a non-propagating link", got)
	}
	if s := e.Stats(); s.Blocked == 0 {
		t.Error("no blocked traversals counted")
	}
}

func TestPostOnlyPropagatesNotLocalRules(t *testing.T) {
	// "post outofdate down" from a ckin rule must not set the posting
	// OID itself out of date (the paper's scenario depends on this).
	e := newTestEngine(t, tinyBP)
	src := mustCreate(t, e, "cpu", "src")
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: src}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, src, "uptodate"); got != "true" {
		t.Errorf("posting OID invalidated itself: uptodate = %q", got)
	}
}

func TestPostToViewTargetsLatest(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view a
    when go do post ping down to b done
endview
view b
    property got default no
    when ping do got = yes done
endview
endblueprint`)
	a := mustCreate(t, e, "blk", "a")
	b1 := mustCreate(t, e, "blk", "b")
	b2 := mustCreate(t, e, "blk", "b")
	if err := e.PostAndDrain(Event{Name: "go", Dir: bpl.DirDown, Target: a}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, b2, "got"); got != "yes" {
		t.Errorf("latest b got = %q", got)
	}
	if got := prop(t, e, b1, "got"); got != "no" {
		t.Errorf("old b got = %q, targeted post hit the wrong version", got)
	}
}

func TestPostToMissingViewTraced(t *testing.T) {
	tr := &BufferTracer{}
	e := newTestEngine(t, `blueprint b
view a
    when go do post ping down to nowhere done
endview
endblueprint`, WithTracer(tr))
	a := mustCreate(t, e, "blk", "a")
	if err := e.PostAndDrain(Event{Name: "go", Dir: bpl.DirDown, Target: a}); err != nil {
		t.Fatal(err)
	}
	errs := tr.OfKind(TraceError)
	if len(errs) != 1 || !strings.Contains(errs[0].Detail, "nowhere") {
		t.Errorf("trace errors = %v", errs)
	}
}

func TestContinuousAssignment(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view v
    property a default bad
    property b default bad
    let state = ($a == good) and ($b == good)
    when fixa do a = good done
    when fixb do b = good done
endview
endblueprint`)
	k := mustCreate(t, e, "x", "v")
	if got := prop(t, e, k, "state"); got != "false" {
		t.Errorf("initial state = %q", got)
	}
	if err := e.PostAndDrain(Event{Name: "fixa", Dir: bpl.DirDown, Target: k}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, k, "state"); got != "false" {
		t.Errorf("state after fixa = %q", got)
	}
	if err := e.PostAndDrain(Event{Name: "fixb", Dir: bpl.DirDown, Target: k}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, k, "state"); got != "true" {
		t.Errorf("state after fixb = %q", got)
	}
}

func TestExecActionEnvironment(t *testing.T) {
	rec := &exec.Recorder{}
	e := newTestEngine(t, `blueprint b
view schematic
    when ckin do exec netlister "$oid" done
endview
endblueprint`, WithExecutor(rec))
	k := mustCreate(t, e, "cpu", "schematic")
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: k, User: "marc"}); err != nil {
		t.Fatal(err)
	}
	invs := rec.Invocations()
	if len(invs) != 1 {
		t.Fatalf("invocations = %+v", invs)
	}
	inv := invs[0]
	if inv.Script != "netlister" {
		t.Errorf("script = %q", inv.Script)
	}
	if len(inv.Args) != 1 || inv.Args[0] != "cpu,schematic,1" {
		t.Errorf("args = %v", inv.Args)
	}
	if inv.Env["user"] != "marc" || inv.Env["event"] != "ckin" || inv.Env["view"] != "schematic" {
		t.Errorf("env = %v", inv.Env)
	}
}

func TestNotifyAction(t *testing.T) {
	rec := &exec.Recorder{}
	e := newTestEngine(t, `blueprint b
view v
    when ckin do notify "$owner: Your oid $OID has been modified" done
endview
endblueprint`, WithExecutor(rec))
	k := mustCreate(t, e, "cpu", "v")
	if err := e.DB().SetProp(k, meta.PropOwner, "salma"); err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: k, User: "marc"}); err != nil {
		t.Fatal(err)
	}
	msgs := rec.Notifications()
	if len(msgs) != 1 || msgs[0] != "salma: Your oid cpu,v,1 has been modified" {
		t.Errorf("notifications = %v", msgs)
	}
}

func TestDateVariableUsesClock(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view v
    property last default never
    when ckin do last = $date done
endview
endblueprint`)
	k := mustCreate(t, e, "cpu", "v")
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: k}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, k, "last"); got != "1995-03-06T09:00:00Z" {
		t.Errorf("last = %q", got)
	}
}

func TestArgNVariables(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view v
    property first default x
    property second default x
    property all default x
    when ev do first = $arg1; second = $arg2; all = $arg done
endview
endblueprint`)
	k := mustCreate(t, e, "cpu", "v")
	if err := e.PostAndDrain(Event{Name: "ev", Dir: bpl.DirDown, Target: k, Args: []string{"one", "two"}}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, k, "first"); got != "one" {
		t.Errorf("first = %q", got)
	}
	if got := prop(t, e, k, "second"); got != "two" {
		t.Errorf("second = %q", got)
	}
	if got := prop(t, e, k, "all"); got != "one two" {
		t.Errorf("all = %q", got)
	}
	// Out-of-range argN expands empty.
	e2 := newTestEngine(t, `blueprint b
view v
    property third default keep
    when ev do third = $arg3 done
endview
endblueprint`)
	k2 := mustCreate(t, e2, "cpu", "v")
	if err := e2.PostAndDrain(Event{Name: "ev", Dir: bpl.DirDown, Target: k2, Args: []string{"one"}}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e2, k2, "third"); got != "" {
		t.Errorf("third = %q, want empty", got)
	}
}

func TestCycleTerminationManualLinks(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view default
    property uptodate default true
    when outofdate do uptodate = false done
endview
view v
endview
endblueprint`)
	a := mustCreate(t, e, "a", "v")
	b := mustCreate(t, e, "b", "v")
	c := mustCreate(t, e, "c", "v")
	db := e.DB()
	for _, pair := range [][2]meta.Key{{a, b}, {b, c}, {c, a}} {
		if _, err := db.AddLink(meta.DeriveLink, pair[0], pair[1], "", []string{"outofdate"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.PostAndDrain(Event{Name: EventOutOfDate, Dir: bpl.DirDown, Target: a}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []meta.Key{a, b, c} {
		if got := prop(t, e, k, "uptodate"); got != "false" {
			t.Errorf("%v uptodate = %q", k, got)
		}
	}
	s := e.Stats()
	if s.Drops == 0 {
		t.Error("cycle produced no visited-drop")
	}
}

func TestStepLimit(t *testing.T) {
	// Feedback loop: two views posting ping to each other forever via
	// targeted posts.
	e := newTestEngine(t, `blueprint b
view a
    when ping do post ping down to b done
endview
view b
    when ping do post ping down to a done
endview
endblueprint`, WithMaxSteps(100))
	a := mustCreate(t, e, "blk", "a")
	mustCreate(t, e, "blk", "b")
	err := e.PostAndDrain(Event{Name: "ping", Dir: bpl.DirDown, Target: a})
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}

	// What the limit leaves behind: the delivery dequeued at the limit is
	// dropped, the rest of its wave stays queued, and the next Drain
	// resumes that tail under the policy current by then.
	const hitsBP = `blueprint %s
view node
    property hits default ""
    use_link move propagates ping
    when ping do hits = "$hits%s" done
endview
endblueprint`
	e = newTestEngine(t, fmt.Sprintf(hitsBP, "first", "."), WithMaxSteps(2))
	root := mustCreate(t, e, "root", "node")
	var kids []meta.Key
	for _, name := range []string{"k1", "k2", "k3", "k4"} {
		k := mustCreate(t, e, name, "node")
		if _, err := e.CreateLink(meta.UseLink, root, k); err != nil {
			t.Fatal(err)
		}
		kids = append(kids, k)
	}
	err = e.PostAndDrain(Event{Name: "ping", Dir: bpl.DirDown, Target: root})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	if got := e.QueueLen(); got != 2 {
		t.Fatalf("QueueLen after the limit = %d, want 2 (k3, k4)", got)
	}
	second, err := bpl.Parse(fmt.Sprintf(hitsBP, "second", "!"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetBlueprint(second); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatalf("resuming drain: %v", err)
	}
	if got := e.QueueLen(); got != 0 {
		t.Errorf("QueueLen after the resumed drain = %d", got)
	}
	want := map[meta.Key]string{root: ".", kids[0]: ".", kids[1]: "", kids[2]: "!", kids[3]: "!"}
	for k, w := range want {
		if got := prop(t, e, k, "hits"); got != w {
			t.Errorf("%v: hits = %q, want %q", k, got, w)
		}
	}
}

func TestPostValidation(t *testing.T) {
	e := newTestEngine(t, tinyBP)
	if err := e.Post(Event{Name: "", Target: meta.Key{Block: "a", View: "v", Version: 1}}); err == nil {
		t.Error("empty event name accepted")
	}
	if err := e.Post(Event{Name: "ok", Target: meta.Key{}}); err == nil {
		t.Error("zero target accepted")
	}
	if err := e.Post(Event{Name: "ok", Target: meta.Key{Block: "ghost", View: "v", Version: 1}}); !errors.Is(err, meta.ErrNotFound) {
		t.Errorf("missing target: %v", err)
	}
	if err := e.Post(Event{Name: "bad name", Target: meta.Key{Block: "a", View: "v", Version: 1}}); err == nil {
		t.Error("bad event name accepted")
	}
}

func TestNewRejectsBadBlueprint(t *testing.T) {
	bp, err := bpl.Parse(`blueprint b
view v
    property p default a
    property p default b
endview
endblueprint`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(meta.NewDB(), bp); err == nil {
		t.Error("engine accepted blueprint with analyzer errors")
	}
}

func TestSetBlueprintSwapsPolicy(t *testing.T) {
	e := newTestEngine(t, tinyBP)
	src := mustCreate(t, e, "cpu", "src")
	dst := mustCreate(t, e, "cpu", "dst")
	if _, err := e.CreateLink(meta.DeriveLink, src, dst); err != nil {
		t.Fatal(err)
	}
	// Loosened policy: ckin no longer posts outofdate.
	loose, err := bpl.Parse(`blueprint loose
view default
    property uptodate default true
    when outofdate do uptodate = false done
endview
view src
endview
view dst
    link_from src move propagates outofdate type derived
endview
endblueprint`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetBlueprint(loose); err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: src}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, dst, "uptodate"); got != "true" {
		t.Errorf("loosened policy still propagated: dst uptodate = %q", got)
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Name: "ckin", Dir: bpl.DirUp, Target: meta.Key{Block: "reg", View: "verilog", Version: 4},
		Args: []string{"logic sim passed"}}
	if got := ev.String(); got != `ckin up reg,verilog,4 "logic sim passed"` {
		t.Errorf("String = %q", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newTestEngine(t, tinyBP)
	src := mustCreate(t, e, "cpu", "src")
	dst := mustCreate(t, e, "cpu", "dst")
	if _, err := e.CreateLink(meta.DeriveLink, src, dst); err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: src}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.OIDsCreated != 2 || s.LinksCreated != 1 {
		t.Errorf("creation stats = %+v", s)
	}
	if s.Posted == 0 || s.Deliveries == 0 || s.RulesFired == 0 || s.Assigns == 0 || s.Posts == 0 || s.Propagations == 0 {
		t.Errorf("activity stats not counted: %+v", s)
	}
}
