package server

// The REPORT/GAP scan path: the append-style row formatter against the
// Sprintf/Join/Quote one it replaced, which lives on here as the oracle —
// byte for byte and in order, over TCP and through Handle, on the view tier
// and the locked tier — and the guards on what a scan costs: allocations
// that do not grow with the row count, a write per buffer instead of per
// row, and a reader that stops reading ending its own scan only.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/state"
	"repro/internal/wire"
)

// reportRow formats one REPORT/GAP body line the way the server did before
// appendReportRow.
func reportRow(st *state.OIDState) string {
	line := fmt.Sprintf("%s ready=%v", st.Key, st.Ready)
	if len(st.Reasons) > 0 {
		line += " " + wire.Quote(strings.Join(st.Reasons, "; "))
	}
	return line
}

// oracleRows is what REPORT (or GAP) must answer for db: the latest version
// of every chain, in key order, each read through the live point reads (not a scan) and
// evaluated on its own through the one-shot state.Evaluate and rendered by
// reportRow.  The database must be quiescent.
func oracleRows(t *testing.T, db *meta.DB, bp *bpl.Blueprint, gap bool) []string {
	rows := []string{}
	for _, bv := range db.Head().BlockViews() { // sorted, and one chain's latest each: key order
		k, err := db.Head().Latest(bv.Block, bv.View)
		if err != nil {
			t.Fatal(err)
		}
		o, err := db.Head().GetOID(k)
		if err != nil {
			t.Fatal(err)
		}
		st := state.Evaluate(bp, o)
		if gap && st.Ready {
			continue
		}
		rows = append(rows, reportRow(&st))
	}
	return rows
}

// hostileValues are property values and literals that exercise both
// escapers (the blueprint literal inside a reason, the wire field around
// all reasons) and the row syntax.
var hostileValues = []string{
	"good", "bad", "true", "false", "", " ", "two words", `q"uote`, `back\slash`, `\`,
	"new\nline", "tab\tstop", "cr\rret", "semi;colon", "semi; space", "pipe|bar", "|", ".",
	"\xff\xfe invalid", "caf\u00e9", "$dollar", `"`, `\"`, "]", "[x = \"y\"]",
}

// randomPolicy builds a blueprint whose views differ in how many continuous
// assignments they carry: two, one, none, and (sometimes) a default view
// whose assignment every view inherits, undeclared views included.
func randomPolicy(rng *rand.Rand) *bpl.Blueprint {
	vars := []string{"p", "q", "r", "oid", "block", "view", "version"}
	operand := func() bpl.Operand {
		if rng.Intn(3) > 0 {
			return bpl.Operand{Var: vars[rng.Intn(len(vars))]}
		}
		return bpl.Operand{Lit: hostileValues[rng.Intn(len(hostileValues))]}
	}
	var gen func(depth int) bpl.Expr
	gen = func(depth int) bpl.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(3) == 0 {
				return &bpl.BoolExpr{X: operand()}
			}
			return &bpl.CmpExpr{Neq: rng.Intn(2) == 0, L: operand(), R: operand()}
		}
		switch rng.Intn(3) {
		case 0:
			return &bpl.AndExpr{L: gen(depth - 1), R: gen(depth - 1)}
		case 1:
			return &bpl.OrExpr{L: gen(depth - 1), R: gen(depth - 1)}
		default:
			return &bpl.NotExpr{X: gen(depth - 1)}
		}
	}
	bp := &bpl.Blueprint{Name: "q", Views: []*bpl.View{
		{Name: "va", Lets: []*bpl.LetDecl{{Name: "s1", Expr: gen(3)}, {Name: "s2", Expr: gen(3)}}},
		{Name: "vb", Lets: []*bpl.LetDecl{{Name: "state", Expr: gen(2)}}},
		{Name: "vc"},
	}}
	if rng.Intn(2) == 0 {
		bp.Views = append(bp.Views, &bpl.View{Name: bpl.DefaultViewName,
			Lets: []*bpl.LetDecl{{Name: "dflt", Expr: gen(2)}}})
	}
	return bp
}

// populate fills db with version chains of one to three versions over the
// policy's views and an undeclared one, hostile property values on every
// version, and a second write to some latest versions so that, with MVCC
// on, their histories are chains too.
func populate(t *testing.T, db *meta.DB, rng *rand.Rand) {
	t.Helper()
	views := []string{"va", "vb", "vc", "vz"}
	value := func() string { return hostileValues[rng.Intn(len(hostileValues))] }
	var latest []meta.Key
	for b := 0; b < 1+rng.Intn(8); b++ {
		for _, view := range views {
			if rng.Intn(4) == 0 {
				continue
			}
			var k meta.Key
			for ver := 0; ver < 1+rng.Intn(3); ver++ {
				var err error
				if k, err = db.NewVersion("b"+strconv.Itoa(b), view); err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"p", "q", "r"} {
					if rng.Intn(3) > 0 {
						if err := db.SetProp(k, name, value()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			latest = append(latest, k)
		}
	}
	for _, k := range latest {
		if rng.Intn(2) == 0 {
			if err := db.SetProp(k, "p", value()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestQuickReportRowsEqualOracle: for random policies and databases, REPORT
// and GAP answer exactly the oracle's rows — over
// TCP and through Handle, from an unjournaled server and a journaled one,
// where the forms pinned at an LSN answer the same.
func TestQuickReportRowsEqualOracle(t *testing.T) {
	check := func(seed int64) bool {
		bp := randomPolicy(rand.New(rand.NewSource(seed)))
		for _, tier := range []string{"plain", "journaled"} {
			var db *meta.DB
			var opts []Option
			var engOpts []engine.Option
			var jw *journal.Writer
			switch tier {
			case "plain":
				db = meta.NewDB()
			case "journaled":
				var err error
				jw, db, err = journal.Open(t.TempDir(), journal.Options{SnapshotEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer jw.Abort()
				opts = append(opts, WithJournal(jw))
				engOpts = append(engOpts, engine.WithJournal(jw))
			}
			populate(t, db, rand.New(rand.NewSource(seed+1)))
			if jw != nil {
				if err := jw.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			eng, err := engine.New(db, bp, engOpts...)
			if err != nil {
				t.Fatal(err)
			}
			s := New(eng, opts...)
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			ok := true
			same := func(what string, got []string, err error, want []string) {
				if err != nil {
					t.Errorf("seed %d %s %s: %v", seed, tier, what, err)
					ok = false
				} else if !slices.Equal(got, want) {
					t.Errorf("seed %d %s %s:\n got %q\nwant %q", seed, tier, what, got, want)
					ok = false
				}
			}
			handle := func(verb string, args ...string) ([]string, error) {
				resp := s.Handle(wire.Request{Verb: verb, Args: args})
				if !resp.OK {
					return nil, fmt.Errorf("%s", resp.Detail)
				}
				if want := fmt.Sprintf("%d rows", len(resp.Body)); resp.Detail != want {
					return nil, fmt.Errorf("detail %q, want %q", resp.Detail, want)
				}
				return resp.Body, nil
			}
			report, gap := oracleRows(t, db, bp, false), oracleRows(t, db, bp, true)
			rows, err := c.Report()
			same("REPORT over TCP", rows, err, report)
			rows, err = c.Gap()
			same("GAP over TCP", rows, err, gap)
			rows, err = handle(wire.VerbReport)
			same("REPORT through Handle", rows, err, report)
			rows, err = handle(wire.VerbGap)
			same("GAP through Handle", rows, err, gap)
			if jw != nil {
				lsn := jw.LastLSN()
				rows, err = c.ReportAt(lsn)
				same("REPORT <lsn> over TCP", rows, err, report)
				rows, err = c.GapAt(lsn)
				same("GAP <lsn> over TCP", rows, err, gap)
				rows, err = handle(wire.VerbGap, strconv.FormatInt(lsn, 10))
				same("GAP <lsn> through Handle", rows, err, gap)
			}
			c.Close()
			s.Close()
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzReportRow: for any valid key, readiness and reasons, the appended row
// is the oracle's, and a client tokenizing it gets back the key, the ready
// field and the reasons.
func FuzzReportRow(f *testing.F) {
	f.Add("CPU", "HDL_model", 1, true, []byte(nil))
	f.Add("t12b3", "schematic", 7, false, []byte(`state: ($nl_sim_res == good) [$nl_sim_res = "bad"]; state: ($lvs_res == is_equiv) [$lvs_res = "not_equiv"]`))
	f.Add(`b\k`, "v|w", 1<<40, false, []byte("a\tb\nc\rd\\e\"f"))
	f.Add("b", "v", 3, false, []byte("bare"))
	f.Add("b", "v", 3, true, []byte(" "))
	f.Add("\xff", "caf\u00e9", 2, false, []byte("\xff\x00\x7f"))
	f.Fuzz(func(t *testing.T, block, view string, version int, ready bool, reasons []byte) {
		key := meta.Key{Block: block, View: view, Version: version}
		if key.Validate() != nil {
			t.Skip()
		}
		st := state.OIDState{Key: key, Ready: ready}
		if len(reasons) > 0 {
			st.Reasons = []string{string(reasons)}
		}
		prefix := []byte("kept|")
		got := appendReportRow(prefix, key, ready, reasons)
		if want := "kept|" + reportRow(&st); string(got) != want {
			t.Fatalf("appendReportRow = %q, oracle %q", got, want)
		}
		if n, limit := len(got)-len(prefix), reportRowMax(key, reasons); n > limit {
			t.Fatalf("row %q is %d bytes, reportRowMax says at most %d", got[len(prefix):], n, limit)
		}
		fields, err := wire.Tokenize(string(got[len(prefix):]))
		if err != nil {
			t.Fatalf("row %q does not tokenize: %v", got, err)
		}
		want := []string{key.String(), "ready=" + strconv.FormatBool(ready)}
		if len(reasons) > 0 {
			want = append(want, string(reasons))
		}
		if !slices.Equal(fields, want) {
			t.Fatalf("row %q tokenizes to %q, want %q", got, fields, want)
		}
	})
}

// treeServer serves the benchmark's project — per tree 13 blocks of a
// schematic, a netlist and a layout under the EDTC blueprint, 39 rows of
// which 26 are not ready.
func treeServer(t testing.TB, trees int, opts ...Option) *Server {
	t.Helper()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < trees; tr++ {
		for b := 0; b < 13; b++ {
			for _, view := range []string{"schematic", "netlist", "layout"} {
				if _, err := eng.CreateOID(fmt.Sprintf("t%db%d", tr, b), view, "test"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	s := New(eng, opts...)
	t.Cleanup(func() { s.Close() })
	return s
}

// countingConn is the server's end of a scripted connection: Read hands out
// the request lines sent on req, Write keeps what the server sends and
// counts the calls, and done is signalled when a "." terminator went out.
type countingConn struct {
	net.Conn // nil: only the methods below are reached
	req      chan string
	done     chan struct{}
	mu       sync.Mutex
	writes   int
	out      bytes.Buffer
}

func newCountingConn() *countingConn {
	return &countingConn{req: make(chan string), done: make(chan struct{}, 1)}
}

func (c *countingConn) Read(p []byte) (int, error) {
	line, ok := <-c.req
	if !ok {
		return 0, io.EOF
	}
	return copy(p, line), nil
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	c.out.Write(p)
	if bytes.HasSuffix(c.out.Bytes(), []byte("\n.\n")) {
		c.done <- struct{}{}
	}
	return len(p), nil
}

func (c *countingConn) Close() error { return nil }

// SetReadDeadline is reached when a FOLLOW lifts the idle deadline.
func (c *countingConn) SetReadDeadline(time.Time) error { return nil }

// TestReportCostsOneWritePerBuffer: a 2,496-row REPORT reaches the
// connection in as many writes as it fills write buffers (plus the header's
// and the terminator's share), not one per row, and is on the wire exactly
// what the oracle says.
func TestReportCostsOneWritePerBuffer(t *testing.T) {
	s := treeServer(t, 64)
	conn := newCountingConn()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.serveConn(conn)
	}()
	conn.req <- "REPORT\n"
	<-conn.done
	close(conn.req)
	<-served

	rows := oracleRows(t, s.eng.DB(), s.eng.Blueprint(), false)
	if len(rows) != 2496 {
		t.Fatalf("%d rows, want 2496", len(rows))
	}
	want := "OK+ streaming\n|" + strings.Join(rows, "\n|") + "\n.\n"
	if got := conn.out.String(); got != want {
		t.Fatalf("response differs from the oracle's (%d bytes, want %d)", len(got), len(want))
	}
	if limit := (len(want)+connWriteBuffer-1)/connWriteBuffer + 2; conn.writes > limit {
		t.Fatalf("%d writes for %d bytes, want at most %d", conn.writes, len(want), limit)
	}
}

// BenchmarkReportStream is one REPORT as a connection handler serves it —
// request line in, pinned view, sorted scan, row format, write buffer — on
// the 16-tree project of the benchmark's checkin workload and the 64-tree
// one of report, into a connection that only counts.  writes/op is what
// reaches the connection: each is a write(2) and a SetWriteDeadline on a
// socket.
func BenchmarkReportStream(b *testing.B) {
	for _, trees := range []int{16, 64} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			s := treeServer(b, trees)
			conn := newCountingConn()
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.serveConn(conn)
			}()
			scan := func() int {
				conn.req <- "REPORT\n"
				<-conn.done
				defer conn.out.Reset() // the handler is back in Read: nobody else writes
				return conn.out.Len()
			}
			b.SetBytes(int64(scan()))
			conn.writes = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan()
			}
			b.StopTimer()
			b.ReportMetric(float64(conn.writes)/float64(b.N), "writes/op")
			close(conn.req)
			<-served
		})
	}
}

// minMallocs is the fewest heap allocations one call of f made in runs
// calls: the floor is what f needs, whatever other goroutines allocate
// meanwhile and however often the race detector makes sync.Pool forget.
func minMallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.Mallocs-before)
	}
	return best
}

// TestWarmScanAllocatesNothingPerRow: what a warm scan allocates — the
// pinned view, the iteration's OID — does not depend on the number of rows.
func TestWarmScanAllocatesNothingPerRow(t *testing.T) {
	scanAllocs := func(trees int) uint64 {
		s := treeServer(t, trees)
		ss := &session{w: bufio.NewWriter(io.Discard)}
		req := wire.Request{Verb: wire.VerbReport}
		scan := func() {
			if !ss.flush(s.respond(ss, ss.w.AvailableBuffer(), req)) {
				t.Fatal("scan failed")
			}
		}
		scan() // warm: the pool's scratch grows to this project's size
		return minMallocs(20, scan)
	}
	small, large := scanAllocs(16), scanAllocs(64)
	t.Logf("allocations per warm scan: %d at 16 trees, %d at 64 trees", small, large)
	if large > small+4 || large > 8 {
		t.Fatalf("a warm scan of 64 trees allocates %d times (16 trees: %d): want at most 4 more and at most 8", large, small)
	}
}

// TestStalledReaderEndsOnlyItsScan: a client that stops reading after the
// header trips WriteTimeout on its own connection; the scan ends, the
// handler returns, and the view it had pinned is closed — the MVCC horizon
// can move past it.
func TestStalledReaderEndsOnlyItsScan(t *testing.T) {
	s := treeServer(t, 16, WithLimits(Limits{WriteTimeout: 100 * time.Millisecond}))
	db := s.eng.DB()
	pinned := db.ReadView()
	at := pinned.LSN()
	pinned.Close()

	cli, srv := net.Pipe()
	defer cli.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.serveConn(srv)
	}()
	if _, err := cli.Write([]byte("REPORT\n")); err != nil {
		t.Fatal(err)
	}
	header := make([]byte, len("OK+ streaming\n"))
	if _, err := io.ReadFull(cli, header); err != nil || string(header) != "OK+ streaming\n" {
		t.Fatalf("header %q, %v", header, err)
	}
	// Never another byte: the rest of the first buffer is stuck in the pipe.
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still parked on a reader that stopped reading")
	}

	k, err := db.Head().Latest("t0b0", "schematic")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetProp(k, "note", "after the scan"); err != nil {
		t.Fatal(err)
	}
	db.ReclaimVersions()
	if h := db.VersionHorizon(); h <= at {
		t.Fatalf("horizon %d did not move past the scan's view at %d: the view is still pinned", h, at)
	}

	// The server is none the worse: a reader that reads gets its report.
	resp := s.Handle(wire.Request{Verb: wire.VerbReport})
	if !resp.OK || len(resp.Body) != 16*39 {
		t.Fatalf("REPORT after the stalled one: %+v", resp.Detail)
	}
}
