package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

func sequence(seed uint64, n int) (string, string) {
	wl := workloadByName("mixed")
	g := NewGenerator(seed, wl.Trees, wl.Mix)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		for _, req := range g.Next().Requests(lsnArg) {
			sb.WriteString(req.Encode())
			sb.WriteByte('\n')
		}
	}
	return sb.String(), g.Hash()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, ha := sequence(1, 5000)
	b, hb := sequence(1, 5000)
	if a != b || ha != hb {
		t.Fatalf("seed 1 generated two different sequences (%s, %s)", ha, hb)
	}
	c, hc := sequence(2, 5000)
	if a == c || ha == hc {
		t.Fatalf("seeds 1 and 2 generated the same sequence (%s)", ha)
	}
	for _, verb := range []string{"POST ckin", "BATCH", "POST nl_sim", "POST drc", "CREATE", "LINK derive", "STATE", "QUERY " + lsnArg + " reach", "QUERY " + lsnArg + " deps", "REPORT\n", "GAP\n", "REPORT " + lsnArg, "GAP " + lsnArg} {
		if !strings.Contains(a, verb) {
			t.Errorf("5000 ops of the mixed workload contain no %q", verb)
		}
	}
}

func TestWorkloadMixes(t *testing.T) {
	for _, wl := range workloads {
		total := 0
		for _, share := range wl.Mix {
			total += share
		}
		if total != 100 {
			t.Errorf("%s: mix sums to %d", wl.Name, total)
		}
	}
	if workloadByName("durable").Mix != workloadByName("checkin").Mix {
		t.Error("durable must replay checkin's op sequence")
	}
	// The probes continue the sequence with one type's classes only.
	g := NewGenerator(1, 4, workloadByName("mixed").Mix)
	for _, typ := range []Type{Write, Point, ScanT} {
		g.SetMix(workloadByName("mixed").Mix.only(typ))
		for i := 0; i < 200; i++ {
			if op := g.Next(); op.Class.Type() != typ {
				t.Fatalf("%s-only mix generated a %s", typ, op.Class)
			}
		}
	}
}

// TestDecksKeepTheMix: any stretch of the sequence holds every class, and
// every check-in level, in its exact share, whatever the seed.
func TestDecksKeepTheMix(t *testing.T) {
	wl := workloadByName("mixed")
	for seed := uint64(1); seed <= 3; seed++ {
		g := NewGenerator(seed, wl.Trees, wl.Mix)
		var classes [numClasses]int
		var levels [3]int
		for i := 0; i < 4000; i++ {
			op := g.Next()
			classes[op.Class]++
			if op.Class == Post {
				levels[op.Sub]++
			}
		}
		for c, n := range classes {
			if n != 40*wl.Mix[c] {
				t.Errorf("seed %d: %d %s ops in 4000, want %d", seed, n, Class(c), 40*wl.Mix[c])
			}
		}
		if levels != [3]int{840, 300, 60} {
			t.Errorf("seed %d: check-in levels %v of 1200 posts, want [840 300 60]", seed, levels)
		}
	}
}

func newTestFeeder(g *Generator, workers, limit int) *feeder {
	f := &feeder{gen: g, bufs: make([][]fed, workers), limit: limit}
	f.moved.L = &f.mu
	return f
}

// TestFeederKeepsTreesInOrder: every op on a tree goes to the worker that
// owns the tree, in generated order, whoever asks first.
func TestFeederKeepsTreesInOrder(t *testing.T) {
	wl := workloadByName("mixed")
	f := newTestFeeder(NewGenerator(3, wl.Trees, wl.Mix), 2, 4000)
	last := [2]int{-1, -1}
	for n := 0; ; n++ {
		w := (n / 7) % 2 // uneven turns
		it, ok := f.take(w)
		if !ok {
			if _, ok := f.take(1 - w); !ok {
				break
			}
			continue
		}
		if it.op.Tree >= 0 && it.op.Tree%2 != w {
			t.Fatalf("op %d on tree %d went to worker %d", it.idx, it.op.Tree, w)
		}
		if it.idx <= last[w] {
			t.Fatalf("worker %d got op %d after op %d", w, it.idx, last[w])
		}
		last[w] = it.idx
	}
	if f.next != 4000 {
		t.Fatalf("feeder generated %d ops, want 4000", f.next)
	}

	// With a follower, writes stay on one connection and reads on the rest.
	f = newTestFeeder(NewGenerator(3, wl.Trees, wl.Mix), 3, 2000)
	f.oneWriter = true
	for w := 0; w < 3; w++ {
		for it, ok := f.take(w); ok; it, ok = f.take(w) {
			if write := it.op.Class.Type() == Write; write != (w == 0) {
				t.Fatalf("%s op %d went to worker %d", it.op.Class, it.idx, w)
			}
		}
	}
}

func TestQuantileIsExact(t *testing.T) {
	s := make([]time.Duration, 1000)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %d", got)
	}
	// Three samples: p50 is the middle one, p99 the largest.
	three := []time.Duration{1, 2, 30}
	if quantile(three, 0.5) != 2 || quantile(three, 0.99) != 30 {
		t.Errorf("quantiles of %v: %d, %d", three, quantile(three, 0.5), quantile(three, 0.99))
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	const bound = 0.10
	for _, c := range []struct {
		name         string
		base, change []float64
		lower        bool
		want         Verdict
	}{
		{"at the bound", []float64{100}, []float64{110}, true, Same},
		{"inside", []float64{100}, []float64{104}, true, Same},
		{"outside, worse", []float64{100}, []float64{110.5}, true, Worse},
		{"outside, better", []float64{100}, []float64{89}, true, Better},
		{"throughput down", []float64{1000}, []float64{880}, false, Worse},
		{"throughput up", []float64{1000}, []float64{1200}, false, Better},
		{"throughput inside", []float64{1000}, []float64{950}, false, Same},
		{"medians decide", []float64{100, 101, 99}, []float64{102, 100, 140}, true, Unresolved},
		{"base too wide to tell", []float64{70, 100, 100, 130}, []float64{100, 100, 100, 100}, true, Unresolved},
		{"tight runs, worse", []float64{100, 101, 99, 100}, []float64{115, 116, 114, 115}, true, Worse},
	} {
		if got, _ := judge(c.base, c.change, c.lower, bound); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}

	spec := &Spec{
		Workloads: []SpecLoad{{Name: "checkin"}},
		EndToEnd:  []SpecMetric{{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	run := func(v float64, failed int64) *Report {
		return &Report{Runs: []*RunResult{{Workload: "checkin", Correct: true, Attempted: 1000, Failed: failed,
			EndToEnd: map[string]Metric{"write_p50_ms": {v, "ms"}}}}}
	}
	var sb strings.Builder
	if !compare(spec, run(1.0, 0), run(1.05, 0), &sb) {
		t.Errorf("A/A-like comparison failed:\n%s", sb.String())
	}
	if compare(spec, run(1.0, 0), run(1.2, 0), &sb) {
		t.Error("a 20 % slower p50 passed")
	}
	if !compare(spec, run(1.0, 0), run(1.0, 3), &sb) {
		t.Error("0.3 points more failed operations, inside the slack, failed")
	}
	if compare(spec, run(1.0, 0), run(1.0, 10), &sb) {
		t.Error("1 point more failed operations passed")
	}
	incorrect := run(1.0, 0)
	incorrect.Runs[0].Correct = false
	if compare(spec, run(1.0, 0), incorrect, &sb) {
		t.Error("a change with an incorrect run passed")
	}
	repeated := run(1.0, 0)
	repeated.Runs[0].Retries = 1
	if compare(spec, run(1.0, 0), repeated, &sb) {
		t.Error("one repeated attempt per run, beyond the slack, passed")
	}
	if !compare(spec, repeated, repeated, &sb) {
		t.Error("as many retries as the base failed")
	}
}

// TestPercentileFloors: a percentile is 0 where the workload cannot be
// expected to give it twice its floor, invalidates the run and is left out
// where it could have and did not, and is the exact quantile otherwise.
func TestPercentileFloors(t *testing.T) {
	r := &run{res: &RunResult{Correct: true, PerLayer: map[string]Metric{}}}
	sample := make([]time.Duration, 30)
	for i := range sample {
		sample[i] = time.Duration(i+1) * time.Millisecond
	}
	r.percentile("absent", nil, 0, 0.5, 20)
	r.percentile("thin", sample, 39, 0.5, 20)
	r.percentile("fine", sample, 60, 0.5, 20)
	if !r.res.Correct {
		t.Fatalf("run invalid: %v", r.res.Errors)
	}
	for name, want := range map[string]float64{"absent": 0, "thin": 0, "fine": 15} {
		if got, ok := r.res.PerLayer[name]; !ok || got.Value != want {
			t.Errorf("%s: %v %v, want %v", name, got, ok, want)
		}
	}
	r.percentile("short", sample[:19], 60, 0.5, 20)
	if _, ok := r.res.PerLayer["short"]; ok || r.res.Correct {
		t.Errorf("19 samples where 60 were expected: reported %v, run still valid %v", ok, r.res.Correct)
	}
}

// fakeServer speaks just enough of the wire protocol to answer every op
// class, records the request lines it saw, and stalls each request by
// stall before answering.
type fakeServer struct {
	ln     net.Listener
	stall  time.Duration
	refuse int // when positive, every request from this one on is refused as by a degraded node
	mu     sync.Mutex
	lines  []string
	wg     sync.WaitGroup
}

func newFakeServer(t *testing.T, stall time.Duration) *fakeServer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, stall: stall}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fs.wg.Add(1)
			go func() {
				defer fs.wg.Done()
				defer conn.Close()
				fs.serve(conn)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); fs.wg.Wait() })
	return fs
}

func (fs *fakeServer) serve(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	versions := map[string]int{}
	for sc.Scan() {
		line := sc.Text()
		fs.mu.Lock()
		fs.lines = append(fs.lines, line)
		fs.mu.Unlock()
		time.Sleep(fs.stall)
		req, err := wire.ParseRequest(line)
		if err != nil {
			return
		}
		resp := wire.Response{OK: true, Detail: "ok"}
		fs.mu.Lock()
		refused := fs.refuse > 0 && len(fs.lines) >= fs.refuse
		fs.mu.Unlock()
		if refused {
			resp = wire.Response{Detail: degradedMark + " journal is degraded"}
			req.Verb = ""
		}
		switch req.Verb {
		case wire.VerbBatch:
			for i := range req.Args {
				resp.Body = append(resp.Body, fmt.Sprintf("%d ok ckin", i))
			}
		case wire.VerbCreate:
			versions[req.Args[0]]++
			resp.Detail = fmt.Sprintf("%s,%s,%d", req.Args[0], req.Args[1], versions[req.Args[0]]+1)
		case wire.VerbLink:
			resp.Detail = "7"
		case wire.VerbState:
			resp.Detail = req.Args[0]
			resp.Body = []string{"ready false", "prop uptodate true"}
		case wire.VerbQuery:
			for i := 0; i < oidsPerTree; i++ {
				resp.Body = append(resp.Body, fmt.Sprintf("k%d,v,1", i))
			}
		case wire.VerbReport, wire.VerbGap:
			for i := 0; i < oidsPerTree; i++ {
				resp.Body = append(resp.Body, fmt.Sprintf("k%d,v,1 ready=false", i))
			}
		case wire.VerbQuit:
			return
		}
		if _, err := fmt.Fprintf(conn, "%s\n", resp.Encode()); err != nil {
			return
		}
	}
}

func (fs *fakeServer) worker(t *testing.T) *worker {
	var sent, recv atomic.Int64
	cl, err := dial(fs.ln.Addr().String(), &sent, &recv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Hangup() })
	return &worker{write: cl, read: cl, trees: 1, pin: new(atomic.Int64), abort: new(atomic.Bool), limit: time.Second}
}

// TestClientSendsTheGeneratedLines: what server.Client puts on the wire for
// an op is byte for byte the request line the generator hashed, so the
// in-process replays run the same requests the spawned servers received.
func TestClientSendsTheGeneratedLines(t *testing.T) {
	fs := newFakeServer(t, 0)
	w := fs.worker(t)
	w.pin.Store(42)
	g := NewGenerator(5, 1, uniformMix)
	var want []string
	seen := map[Class]bool{}
	for i := 0; i < 200; i++ {
		op := g.Next()
		seen[op.Class] = true
		if err := w.do(op); err != nil {
			t.Fatalf("%s: %v", op.Class, err)
		}
		for _, req := range op.Requests("42") {
			want = append(want, req.Encode())
		}
	}
	if len(seen) != int(numClasses) {
		t.Fatalf("200 ops of the uniform mix covered %d of %d classes", len(seen), numClasses)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.lines) != len(want) {
		t.Fatalf("server saw %d lines, generator made %d", len(fs.lines), len(want))
	}
	for i := range want {
		if fs.lines[i] != want[i] {
			t.Fatalf("line %d: client sent %q, generator hashed %q", i, fs.lines[i], want[i])
		}
	}
}

// TestOpenLoopMeasuresFromIntendedTime: against a server that stalls every
// request, the recorded latencies include the time requests spent waiting
// behind the stalled ones, and the schedule itself does not stretch — the
// last op's latency is the whole overrun of the run over its schedule.
func TestOpenLoopMeasuresFromIntendedTime(t *testing.T) {
	const (
		stall = 5 * time.Millisecond
		rate  = 1000.0 // one op per ms: five times what the server can take
		n     = 40
	)
	fs := newFakeServer(t, stall)
	w := fs.worker(t)
	f := newTestFeeder(NewGenerator(1, 1, Mix{100, 0, 0, 0, 0, 0, 0}), 1, n)
	start := time.Now()
	w.openLoop(f, 0, start, rate)
	elapsed := time.Since(start)
	if w.failed != 0 || w.ok != n {
		t.Fatalf("%d ok, %d failed: %v", w.ok, w.failed, w.errs)
	}
	lat := append([]time.Duration(nil), w.lat[Post]...)
	lastLat := lat[len(lat)-1]
	slices.Sort(lat)
	p50 := quantile(lat, 0.5)
	// Op i is due at i ms and done at about (i+1)*stall: the median op
	// waited for some twenty stalls.  A closed-loop clock would say 5 ms.
	if p50 < 10*stall {
		t.Errorf("p50 %v: latency was not measured from the intended send time (stall %v)", p50, stall)
	}
	if elapsed < n*stall {
		t.Fatalf("run took %v, the server alone needs %v", elapsed, n*stall)
	}
	schedule := time.Duration(float64(n-1) / rate * float64(time.Second))
	if d := math.Abs(float64(lastLat - (elapsed - schedule))); d > float64(2*time.Millisecond) {
		t.Errorf("last op: latency %v, but the run overran its %v schedule by %v: the schedule moved", lastLat, schedule, elapsed-schedule)
	}
}

// TestDegradedNodeEndsTheAttempt: the first write a degraded node refuses
// stops the loop and empties the feeder; nothing else is sent.
func TestDegradedNodeEndsTheAttempt(t *testing.T) {
	fs := newFakeServer(t, 0)
	fs.refuse = 10
	w := fs.worker(t)
	f := newTestFeeder(NewGenerator(1, 1, Mix{100, 0, 0, 0, 0, 0, 0}), 1, 100)
	w.closedLoop(f, time.Now().Add(10*time.Second))
	if !w.abort.Load() || w.ok != 9 || w.failed != 1 {
		t.Fatalf("abort %v after %d ok and %d failed ops, want true after 9 and 1: %v", w.abort.Load(), w.ok, w.failed, w.errs)
	}
	if _, more := f.take(0); more {
		t.Error("the feeder still hands out ops")
	}
	if fs.mu.Lock(); len(fs.lines) != 10 {
		t.Errorf("the server saw %d requests, want 10", len(fs.lines))
	}
	fs.mu.Unlock()
}

// TestIsDegraded: both answers a degrading node gives are recognised — the
// refusal of a node already degraded, and the journal's own error, which the
// write that was in the server when the journal flipped gets instead.
func TestIsDegraded(t *testing.T) {
	for msg, want := range map[string]bool{
		"client: POST: journal-io: journal: snapshot: x (node degraded: writes refused, reads still served)":              true,
		"client: CREATE: journal: snapshot: meta: view lsn below the retained version horizon: lsn 15708 < horizon 15754": true,
		"client: POST: unknown oid t1b2,schematic,1":                                                                      false,
	} {
		if got := isDegraded(errors.New(msg)); got != want {
			t.Errorf("isDegraded(%q) = %v, want %v", msg, got, want)
		}
	}
	if isDegraded(nil) {
		t.Error("isDegraded(nil)")
	}
}

func TestSleepUntilIsPrecise(t *testing.T) {
	var worst time.Duration
	var k waker
	for i := 0; i < 20; i++ {
		due := time.Now().Add(700 * time.Microsecond)
		k.sleepUntil(due)
		if late := time.Since(due); late > worst {
			worst = late
		} else if late < 0 {
			t.Fatalf("woke %v early", -late)
		}
	}
	if worst > 20*time.Millisecond {
		t.Errorf("worst wake-up %v late", worst)
	}
}
