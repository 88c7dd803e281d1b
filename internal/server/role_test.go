package server

// The role is one value and a response is one frame: PROMOTE swaps the
// whole replication role at once under concurrent readers, and no request
// can make the server answer more lines than its response has.

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/wire"
)

// TestResponseSplittingOverTCP: an argument carrying a line break comes
// back inside an error message; it must not end the response line there,
// or the client reads the rest as the answer to its next request.
func TestResponseSplittingOverTCP(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "LATEST \"x\\nOK pong\" v\nPING\n")
	first, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first, "ERR ") || !strings.Contains(first, `x\nOK pong`) {
		t.Errorf("LATEST answered %q, want one ERR line quoting the argument", first)
	}
	second, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if second != "OK pong\n" {
		t.Errorf("the line after LATEST's answer is %q, want PING's own \"OK pong\"", second)
	}

	// The same through the client: the request after the hostile one gets
	// its own answer.
	c := dial(t, addr)
	if _, err := c.Latest("x\nOK pong", "v"); err == nil || strings.Contains(err.Error(), "\n") {
		t.Errorf("Latest error = %v, want one line", err)
	}
	if _, err := c.Create("after", "HDL_model"); err != nil {
		t.Errorf("request after the hostile one: %v", err)
	}
}

// FuzzHandleResponseFraming: whatever request parses, its response encodes
// to exactly one line, or to a header, len(Body) body lines and the
// terminator — never a raw CR or LF inside a line.
func FuzzHandleResponseFraming(f *testing.F) {
	f.Add(`LATEST "x\nOK pong" v`)
	f.Add(`BATCH "ckin side\nways a,v,1" "ckin down \"a\rb,v,1\""`)
	f.Add(`CREATE "a\rb" v`)
	f.Add(`QUERY 0 resolve "x\ny"`)
	f.Add(`"user=eve\n" POST "e\nv" down "a,v,1"`)
	f.Add(`REPORT "1\n2"`)
	f.Add("STATE CPU,HDL_model,1")
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, line string) {
		req, err := wire.ParseRequest(line)
		if err != nil {
			t.Skip()
		}
		eng, err := engine.New(meta.NewDB(), bp)
		if err != nil {
			t.Fatal(err)
		}
		s := New(eng)
		if resp := s.Handle(wire.Request{Verb: wire.VerbCreate, Args: []string{"CPU", "HDL_model"}}); !resp.OK {
			t.Fatal(resp.Detail)
		}
		resp := s.Handle(req)
		enc := resp.Encode()
		want := 1
		if len(resp.Body) > 0 {
			want = len(resp.Body) + 2
		}
		if got := strings.Count(enc, "\n") + 1; got != want || strings.Contains(enc, "\r") {
			t.Fatalf("%q answered %d lines (CR: %v), want %d:\n%s", line, got, strings.Contains(enc, "\r"), want, enc)
		}
	})
}

// steadyFollower is a ReadFollower frozen at one position in term 1.
type steadyFollower struct{ lsn int64 }

func (f steadyFollower) AppliedLSN() int64 { return f.lsn }
func (f steadyFollower) Watermark() int64  { return f.lsn }
func (f steadyFollower) Term() int64       { return 1 }
func (f steadyFollower) Err() error        { return nil }

func (f steadyFollower) WaitApplied(int64, time.Duration) (int64, error) { return f.lsn, nil }
func (f steadyFollower) UpstreamHealth() (bool, string)                  { return true, "" }
func (f steadyFollower) Staleness() (time.Duration, bool)                { return 0, false }
func (f steadyFollower) Writer() *journal.Writer                         { return nil }

// TestPromoteRoleIsOneValue hammers ROLE, LSN and REPORT <lsn> while
// PROMOTE swaps the role.  Every answer must describe one role in full —
// the follower at its position in term 1, or the primary in term 2 at or
// past the bump — and, once a connection has seen the primary, it must
// never see the follower again.
func TestPromoteRoleIsOneValue(t *testing.T) {
	// A follower's journal, as far as a primary's first twelve records.
	w, db, err := journal.OpenFollower(t.TempDir(), journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Abort)
	const blocks = 12
	for i := int64(1); i <= blocks; i++ {
		key := meta.Key{Block: fmt.Sprintf("B%d", i), View: "HDL_model", Version: 1}
		if _, err := w.ApplyAppend(journal.AppendFrame(nil, fmt.Appendf(nil, "%d %d %s %s %d", i, i, meta.OpOID, key, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	at := w.LastLSN()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(db, bp)
	if err != nil {
		t.Fatal(err)
	}

	s := New(eng, WithReadOnly(steadyFollower{at}), WithPromote(func() (Promotion, error) {
		term, lsn, err := w.Promote()
		if err != nil {
			return Promotion{}, err
		}
		eng.AttachJournal(w)
		return Promotion{Journal: w, Term: term, LSN: lsn}, nil
	}))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answers atomic.Int64
	more := func(n int64) { // wait for n more answers, all readers together
		t.Helper()
		target := answers.Load() + n
		for deadline := time.Now().Add(20 * time.Second); answers.Load() < target; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) || t.Failed() {
				t.Fatal("readers stopped answering")
			}
		}
	}
	for g := 0; g < 4; g++ {
		c := dial(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			primary := false
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var now bool
				switch i % 3 {
				case 0:
					info, err := c.Role()
					if err != nil {
						t.Error(err)
						return
					}
					follower := info.Role == "follower" && info.Term == 1 && info.Applied == at && info.Watermark == at
					now = info.Role == "primary" && info.Term == 2 && info.Applied > at
					if !follower && !now {
						t.Errorf("ROLE answered a mixed role: %+v", info)
					}
				case 1:
					lsn, err := c.LSN()
					if err != nil {
						t.Error(err)
						return
					}
					if lsn < at {
						t.Errorf("LSN %d below the follower's position %d", lsn, at)
					}
					now = lsn > at
				case 2:
					rows, err := c.ReportAt(at)
					if err != nil || len(rows) != blocks {
						t.Errorf("REPORT %d: %d rows, %v", at, len(rows), err)
					}
					now = primary
				}
				if primary && !now {
					t.Error("saw the follower after the primary")
				}
				primary = now
				answers.Add(1)
			}
		}()
	}

	c := dial(t, addr)
	more(60) // the follower first
	term, bump, err := c.Promote()
	if err != nil || term != 2 || bump != at+1 {
		t.Errorf("PROMOTE = term %d lsn %d, %v; want term 2 lsn %d", term, bump, err, at+1)
	}
	if _, _, err := c.Promote(); err == nil {
		t.Error("second PROMOTE accepted")
	}
	more(60) // then the primary
	close(stop)
	wg.Wait()
	if _, err := c.Create("after", "HDL_model"); err != nil {
		t.Errorf("write after PROMOTE: %v", err)
	}
}
