package exec

import (
	"errors"
	"testing"
)

func TestRecorder(t *testing.T) {
	r := &Recorder{}
	if err := r.Exec(Invocation{Script: "netlister", Args: []string{"a,v,1"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Notify("hello"); err != nil {
		t.Fatal(err)
	}
	invs := r.Invocations()
	if len(invs) != 1 || invs[0].Script != "netlister" {
		t.Fatalf("Invocations = %+v", invs)
	}
	if got := r.Notifications(); len(got) != 1 || got[0] != "hello" {
		t.Errorf("Notifications = %v", got)
	}
	if got := r.Scripts(); len(got) != 1 || got[0] != "netlister" {
		t.Errorf("Scripts = %v", got)
	}
	r.Reset()
	if len(r.Invocations())+len(r.Notifications()) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestInvocationString(t *testing.T) {
	inv := Invocation{Script: "drc.sh", Args: []string{"a", "b"}}
	if got := inv.String(); got != "drc.sh a b" {
		t.Errorf("String = %q", got)
	}
	if got := (Invocation{Script: "x"}).String(); got != "x" {
		t.Errorf("String = %q", got)
	}
}

func TestRegistryDispatch(t *testing.T) {
	g := NewRegistry()
	var ran []string
	g.Register("netlister", func(inv Invocation) error {
		ran = append(ran, "netlister:"+inv.Args[0])
		return nil
	})
	g.Register("drc", func(Invocation) error { return errors.New("drc blew up") })
	if err := g.Exec(Invocation{Script: "netlister", Args: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != "netlister:x" {
		t.Errorf("ran = %v", ran)
	}
	if err := g.Exec(Invocation{Script: "drc"}); err == nil {
		t.Error("handler error swallowed")
	}
	if err := g.Exec(Invocation{Script: "ghost"}); err == nil {
		t.Error("unknown script accepted")
	}
	g.Fallback = func(Invocation) error { return nil }
	if err := g.Exec(Invocation{Script: "ghost"}); err != nil {
		t.Errorf("fallback not used: %v", err)
	}
	if got := g.Scripts(); len(got) != 2 || got[0] != "drc" {
		t.Errorf("Scripts = %v", got)
	}
}

func TestRegistryNotify(t *testing.T) {
	g := NewRegistry()
	if err := g.Notify("no sink is fine"); err != nil {
		t.Fatal(err)
	}
	var got string
	g.OnNotify(func(m string) error { got = m; return nil })
	if err := g.Notify("ping"); err != nil {
		t.Fatal(err)
	}
	if got != "ping" {
		t.Errorf("notify sink got %q", got)
	}
}

func TestTee(t *testing.T) {
	r1, r2 := &Recorder{}, &Recorder{}
	bad := NewRegistry() // no handlers: always errors
	tee := Tee{r1, bad, r2}
	err := tee.Exec(Invocation{Script: "s"})
	if err == nil {
		t.Error("tee swallowed error")
	}
	if len(r1.Invocations()) != 1 || len(r2.Invocations()) != 1 {
		t.Error("tee did not fan out despite error")
	}
	if err := tee.Notify("m"); err != nil {
		t.Fatal(err)
	}
	if len(r1.Notifications()) != 1 || len(r2.Notifications()) != 1 {
		t.Error("notify did not fan out")
	}
}

func TestNop(t *testing.T) {
	var n Nop
	if err := n.Exec(Invocation{Script: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Notify("y"); err != nil {
		t.Fatal(err)
	}
}
