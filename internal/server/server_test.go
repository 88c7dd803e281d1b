package server

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/wire"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPingAndStats(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "oids=0") {
		t.Errorf("stats = %q", stats)
	}
}

func TestCreatePostStateOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.User = "yves"

	hdl, err := c.Create("CPU", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if hdl != (meta.Key{Block: "CPU", View: "HDL_model", Version: 1}) {
		t.Fatalf("created %v", hdl)
	}
	if err := c.PostEvent("hdl_sim", "down", hdl, "4 errors"); err != nil {
		t.Fatal(err)
	}
	st, err := c.State(hdl)
	if err != nil {
		t.Fatal(err)
	}
	if st.Props["sim_result"] != "4 errors" {
		t.Errorf("sim_result = %q", st.Props["sim_result"])
	}
	if st.Props["owner"] != "yves" {
		t.Errorf("owner = %q", st.Props["owner"])
	}
}

func TestLinkAndPropagationOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.User = "marc"

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
	if err := c.PostEvent(engine.EventCheckin, "down", hdl); err != nil {
		t.Fatal(err)
	}
	st, err := c.State(sch)
	if err != nil {
		t.Fatal(err)
	}
	if st.Props["uptodate"] != "false" {
		t.Errorf("schematic uptodate = %q", st.Props["uptodate"])
	}
	if st.Ready {
		t.Error("stale schematic reported ready")
	}
	if len(st.Blocking) == 0 {
		t.Error("no blocking conditions reported")
	}

	gap, err := c.Gap()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range gap {
		if strings.HasPrefix(line, "CPU,schematic,1") {
			found = true
		}
	}
	if !found {
		t.Errorf("gap lines = %v", gap)
	}
}

func TestSnapshotAndBlueprintOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Create("CPU", "schematic"); err != nil {
		t.Fatal(err)
	}
	detail, err := c.Snapshot("snap1", "*")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(detail, "1 oids") {
		t.Errorf("snapshot detail = %q", detail)
	}
	src, err := c.Blueprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bpl.Parse(src); err != nil {
		t.Errorf("served blueprint does not parse: %v", err)
	}
}

func TestServerErrors(t *testing.T) {
	s, _ := startServer(t)
	cases := []wire.Request{
		{Verb: "WAT"},
		{Verb: wire.VerbPost, Args: []string{"ev"}},
		{Verb: wire.VerbPost, Args: []string{"ev", "sideways", "a,v,1"}},
		{Verb: wire.VerbPost, Args: []string{"ev", "down", "nokey"}},
		{Verb: wire.VerbPost, Args: []string{"ev", "down", "ghost,v,1"}},
		{Verb: wire.VerbCreate, Args: []string{"onlyblock"}},
		{Verb: wire.VerbLink, Args: []string{"use", "a,v,1"}},
		{Verb: wire.VerbLink, Args: []string{"weird", "a,v,1", "b,v,1"}},
		{Verb: wire.VerbState, Args: []string{"ghost,v,1"}},
		{Verb: wire.VerbSnapshot, Args: []string{"s"}},
	}
	for _, req := range cases {
		if resp := s.Handle(req); resp.OK {
			t.Errorf("request %+v accepted: %+v", req, resp)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	s, addr := startServer(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			block := string(rune('a' + i))
			k, err := c.Create(block, "schematic")
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 10; j++ {
				if err := c.PostEvent("nl_sim", "down", k, "good"); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Engine().DB().Head().Stats().OIDs; got != n {
		t.Errorf("OIDs = %d, want %d", got, n)
	}
}

// TestSyncSettlesAndAnswersIdle: after a burst of posts, SYNC answers
// "idle" with the propagation settled and the engine's queue empty.
func TestSyncSettlesAndAnswersIdle(t *testing.T) {
	s, addr := startServer(t)
	c := dial(t, addr)
	c.User = "x"
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
	for i := 0; i < 20; i++ {
		if err := c.PostEvent("ckin", "down", hdl); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if resp := s.Handle(wire.Request{Verb: wire.VerbSync}); !resp.OK || resp.Detail != "idle" {
		t.Errorf("SYNC = %+v, want OK idle", resp)
	}
	st, err := c.State(sch)
	if err != nil {
		t.Fatal(err)
	}
	if st.Props["uptodate"] != "false" {
		t.Errorf("after sync, schematic uptodate = %q", st.Props["uptodate"])
	}
	if n := s.Engine().QueueLen(); n != 0 {
		t.Errorf("queue length after sync = %d", n)
	}
}

func TestQuitClosesConnection(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, _ := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
