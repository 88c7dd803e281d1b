package server

// The acknowledgement path: the engine records and the server commits.
// Every write settles through one journal Commit, which covers its
// caller — a write already carried by an earlier flush costs no second
// fsync, writers queued behind one fsync share it, and a failed fsync
// acknowledges none of the writes it carried.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/wire"
)

// journaledServer serves a fresh engine over a journal opened in a
// temporary directory with opt (no snapshot loop, so the journal's I/O is
// only what the requests cause).
func journaledServer(t *testing.T, opt journal.Options) (*Server, *journal.Writer) {
	return blueprintServer(t, bpl.EDTCExample, opt)
}

// blueprintServer is journaledServer under the blueprint src, its engine
// built with opts.
func blueprintServer(t *testing.T, src string, opt journal.Options, opts ...engine.Option) (*Server, *journal.Writer) {
	t.Helper()
	opt.SnapshotEvery = -1
	w, db, err := journal.Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Abort)
	bp, err := bpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(db, bp, append(opts, engine.WithJournal(w))...)
	if err != nil {
		t.Fatal(err)
	}
	return New(eng, WithJournal(w)), w
}

func handleOK(t testing.TB, s *Server, verb string, args ...string) wire.Response {
	t.Helper()
	resp := s.Handle(wire.Request{Verb: verb, Args: args})
	if !resp.OK {
		t.Errorf("%s %v: %s", verb, args, resp.Detail)
	}
	return resp
}

// TestFsyncsPerVerb: under -fsync every mutating verb costs exactly one
// fsync, and SYNC on a journal with nothing new costs none.
func TestFsyncsPerVerb(t *testing.T) {
	inj := faultfs.New(faultfs.OS, faultfs.Plan{})
	s, _ := journaledServer(t, journal.Options{Fsync: true, FS: inj})
	steps := []struct {
		verb string
		args []string
		want int64
	}{
		{wire.VerbCreate, []string{"CPU", "HDL_model"}, 1},
		{wire.VerbCreate, []string{"CPU", "schematic"}, 1},
		{wire.VerbLink, []string{"derive", "CPU,HDL_model,1", "CPU,schematic,1"}, 1},
		{wire.VerbPost, []string{"hdl_sim", "down", "CPU,HDL_model,1", "good"}, 1},
		{wire.VerbBatch, []string{wire.BatchItem{Event: "ckin", Dir: "down", OID: "CPU,HDL_model,1"}.Encode()}, 1},
		{wire.VerbSnapshot, []string{"cfg", "*"}, 1},
		{wire.VerbSync, nil, 0},
	}
	for _, st := range steps {
		before := inj.Count(faultfs.OpSync)
		handleOK(t, s, st.verb, st.args...)
		if got := inj.Count(faultfs.OpSync) - before; got != st.want {
			t.Errorf("%s %v: %d fsyncs, want %d", st.verb, st.args, got, st.want)
		}
	}
}

// fsyncsPerAck runs writers concurrent writers of posts POSTs each, every
// writer on an OID of its own, and returns the fsyncs per acknowledged
// POST.
func fsyncsPerAck(t *testing.T, writers, posts int, plan faultfs.Plan) float64 {
	t.Helper()
	inj := faultfs.New(faultfs.OS, plan)
	s, _ := journaledServer(t, journal.Options{Fsync: true, FS: inj})
	keys := make([]string, writers)
	for i := range keys {
		keys[i] = handleOK(t, s, wire.VerbCreate, fmt.Sprintf("w%d", i), "HDL_model").Detail
	}
	before := inj.Count(faultfs.OpSync)
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range posts {
				handleOK(t, s, wire.VerbPost, "hdl_sim", "down", k, fmt.Sprintf("run%d", j))
			}
		}()
	}
	wg.Wait()
	return float64(inj.Count(faultfs.OpSync)-before) / float64(writers*posts)
}

// TestFsyncPerAckOneWriter: a lone writer pays one fsync per
// acknowledgement, no more — the POST's drain records and the settle after
// it commits.
func TestFsyncPerAckOneWriter(t *testing.T) {
	if got := fsyncsPerAck(t, 1, 25, faultfs.Plan{}); got != 1 {
		t.Fatalf("%.2f fsyncs per ack, want 1.00", got)
	}
}

// TestFsyncGroupCommit: writers that queue behind another's fsync are
// served by it.  With a 5 ms sync, four writers share most of them.
func TestFsyncGroupCommit(t *testing.T) {
	slow := faultfs.Plan{Faults: []faultfs.Fault{{Op: faultfs.OpSync, LatencyOnly: true, Latency: 5 * time.Millisecond}}}
	got := fsyncsPerAck(t, 4, 25, slow)
	t.Logf("%.2f fsyncs per ack", got)
	if got > 0.75 {
		t.Fatalf("%.2f fsyncs per ack with four writers, want ≤ 0.75", got)
	}
}

// TestFsyncGateQueuedWaiters: the fsyncgate with writers queued behind the
// failing sync.  Writer 0's sync is slow; writers 1–3 post during it and
// queue behind it, so the next sync — the one that fails — carries their
// records.  None of them is acknowledged: each is refused with the
// journal-io prefix, the journal is degraded, the watermark stays where
// writer 0's acknowledged sync left it, and no sync runs after the failure.
func TestFsyncGateQueuedWaiters(t *testing.T) {
	const waiters = 3
	keys := []string{"w0,HDL_model,1", "w1,HDL_model,1", "w2,HDL_model,1", "w3,HDL_model,1"}
	// setup creates the writers' OIDs and posts once on each, then once
	// more on w0 and returns how many records one such POST adds.
	setup := func(fs faultfs.FS) (*Server, *journal.Writer, int64) {
		s, w := journaledServer(t, journal.Options{Fsync: true, FS: fs})
		for i, k := range keys {
			handleOK(t, s, wire.VerbCreate, fmt.Sprintf("w%d", i), "HDL_model")
			handleOK(t, s, wire.VerbPost, "hdl_sim", "down", k, "setup")
		}
		before := w.LastLSN()
		handleOK(t, s, wire.VerbPost, "hdl_sim", "down", keys[0], "warm")
		return s, w, w.LastLSN() - before
	}
	counter := faultfs.New(faultfs.OS, faultfs.Plan{})
	setup(counter)
	n := counter.Count(faultfs.OpSync) + 1 // writer 0's sync

	inj := faultfs.New(faultfs.OS, faultfs.Plan{Faults: []faultfs.Fault{
		{Op: faultfs.OpSync, Nth: n, LatencyOnly: true, Latency: 300 * time.Millisecond},
		{Op: faultfs.OpSync, Nth: n + 1},
	}})
	s, w, perPost := setup(inj)
	if perPost == 0 {
		t.Fatal("a POST recorded nothing")
	}

	answers := make([]wire.Response, len(keys))
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i] = s.Handle(wire.Request{Verb: wire.VerbPost, Args: []string{"hdl_sim", "down", keys[i], "gate"}})
		}()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	post(0)
	waitFor("writer 0's sync", func() bool { return inj.Count(faultfs.OpSync) == n })
	lead := w.LastLSN()
	for i := 1; i <= waiters; i++ {
		post(i)
	}
	waitFor("the waiters' records", func() bool { return w.LastLSN() >= lead+waiters*perPost })
	if got := inj.Count(faultfs.OpSync); got != n {
		t.Fatalf("sync %d started before every waiter had recorded; the latency does not hold them", got)
	}
	wg.Wait()

	if !answers[0].OK {
		t.Errorf("writer 0, whose sync succeeded, answered %q", answers[0].Detail)
	}
	for i := 1; i <= waiters; i++ {
		if a := answers[i]; a.OK || !strings.HasPrefix(a.Detail, "journal-io: ") || strings.Contains(a.Detail, "node degraded") {
			t.Errorf("waiter %d answered %+v, want a journal-io: refusal of its own commit", i, a)
		}
	}
	if healthy, _ := w.Health(); healthy {
		t.Error("journal healthy after a failed fsync")
	}
	if wm := w.CommittedLSN(); wm != lead {
		t.Errorf("watermark %d, want %d (writer 0's)", wm, lead)
	}
	if got := inj.Count(faultfs.OpSync); got != n+1 {
		t.Errorf("%d syncs, want %d: a sync ran after the failure", got, n+1)
	}
}

// TestDrainLeavesTheCommitToSettle: the engine records and never commits.
// A drain run past the server leaves its records above the watermark, at
// no fsync, and the next SYNC's settle is the one that puts them on disk.
func TestDrainLeavesTheCommitToSettle(t *testing.T) {
	inj := faultfs.New(faultfs.OS, faultfs.Plan{})
	s, w := journaledServer(t, journal.Options{Fsync: true, FS: inj})
	k, err := meta.ParseKey(handleOK(t, s, wire.VerbCreate, "CPU", "HDL_model").Detail)
	if err != nil {
		t.Fatal(err)
	}
	before := inj.Count(faultfs.OpSync)
	if err := s.Engine().PostAndDrain(engine.Event{Name: "hdl_sim", Dir: bpl.DirDown, Target: k, Args: []string{"good"}}); err != nil {
		t.Fatal(err)
	}
	if got := inj.Count(faultfs.OpSync) - before; got != 0 {
		t.Errorf("PostAndDrain: %d fsyncs, want 0", got)
	}
	if wm, last := w.CommittedLSN(), w.LastLSN(); wm >= last {
		t.Errorf("after PostAndDrain: watermark %d, last lsn %d; want the drain's records uncommitted", wm, last)
	}
	before = inj.Count(faultfs.OpSync)
	handleOK(t, s, wire.VerbSync)
	if got := inj.Count(faultfs.OpSync) - before; got != 1 {
		t.Errorf("SYNC: %d fsyncs, want 1", got)
	}
	if wm, last := w.CommittedLSN(), w.LastLSN(); wm != last {
		t.Errorf("after SYNC: watermark %d, want the last lsn %d", wm, last)
	}
}

// TestDrainErrorSettles: a POST whose drain fails in the engine — a
// feedback loop past the step limit — answers the engine's error once what
// the drain recorded is committed, and the journal-io contract when that
// commit fails.
func TestDrainErrorSettles(t *testing.T) {
	const feedback = `blueprint b
view a
    when ping do post ping down to b done
endview
view b
    when ping do post ping down to a done
endview
endblueprint`
	ping := wire.Request{Verb: wire.VerbPost, Args: []string{"ping", "down", "blk,a,1"}}
	setup := func(fs faultfs.FS) (*Server, *journal.Writer) {
		s, w := blueprintServer(t, feedback, journal.Options{FS: fs}, engine.WithMaxSteps(100))
		handleOK(t, s, wire.VerbCreate, "blk", "a")
		handleOK(t, s, wire.VerbCreate, "blk", "b")
		return s, w
	}

	counter := faultfs.New(faultfs.OS, faultfs.Plan{})
	s, w := setup(counter)
	n := counter.Count(faultfs.OpWrite) + 1 // the POST's commit
	before := w.LastLSN()
	if resp := s.Handle(ping); resp.OK || !strings.Contains(resp.Detail, engine.ErrStepLimit.Error()) {
		t.Errorf("POST into a feedback loop answered %+v, want the step limit", resp)
	}
	if wm, last := w.CommittedLSN(), w.LastLSN(); last == before || wm != last {
		t.Errorf("after the step limit: watermark %d, last lsn %d (%d before); want the drain's records committed", wm, last, before)
	}
	if got := counter.Count(faultfs.OpWrite); got != n {
		t.Fatalf("the POST made %d writes, want 1", got-n+1)
	}

	inj := faultfs.New(faultfs.OS, faultfs.SingleFault(faultfs.OpWrite, n, nil))
	s, _ = setup(inj)
	if resp := s.Handle(ping); resp.OK || !strings.HasPrefix(resp.Detail, "journal-io: ") {
		t.Errorf("POST into a feedback loop over a failed commit answered %+v, want the journal-io: prefix", resp)
	}
}
