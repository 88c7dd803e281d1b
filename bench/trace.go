package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/state"
	"repro/internal/wire"
)

// The traced run replays the head of a workload's op sequence in-process,
// from one goroutine, against the same assembly the daemon serves, with a
// span around every public call the harness makes into a layer.  It then
// replays the same ops layer by layer — engine on a plain database, engine
// on a journaled one with the commit split out — and times the read calls
// on a pinned view, so that each layer has a measured cost of its own and
// the rows that can only be had by difference are marked as such.
const (
	traceOps      = 1000 // ops of the workload's own sequence through the full stack
	supplementOps = 350  // ops of a uniform mix after them, so every verb has samples
	layerOps      = 5000 // ops whose writes are replayed layer by layer (no scans: cheap)
	microIters    = 20000
	fsyncIters    = 500 // commits behind journal.commit_fsync_us
	tcpSamples    = 2000
	budgetSlack   = 15 // percent by which a write's layers may miss its Server.Handle
)

var uniformMix = Mix{15, 15, 14, 14, 14, 14, 14}

// Span is one timed call: its name, the op it belongs to, the span that
// caused it (-1 for the op's root span), and its start and end in
// nanoseconds since the trace began.
type Span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []Span
}

func (l *spanLog) open(name string, op, parent int) int {
	l.spans = append(l.spans, Span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) close(i int) time.Duration {
	l.spans[i].End = int64(time.Since(l.t0))
	return time.Duration(l.spans[i].End - l.spans[i].Start)
}

// kind names the verb variants the per-layer metrics are keyed by.
func kind(op *Op, req wire.Request) string {
	switch req.Verb {
	case wire.VerbPost:
		if op.Class == Tool {
			return "tool"
		}
		return "post"
	case wire.VerbBatch:
		return "batch"
	case wire.VerbCreate:
		return "create"
	case wire.VerbLink:
		return "link"
	case wire.VerbState:
		return "state"
	case wire.VerbQuery:
		return "query"
	case wire.VerbGap:
		return "gap"
	}
	return "report"
}

// samples collects durations by name.
type samples map[string][]time.Duration

func (s samples) add(name string, d time.Duration) { s[name] = append(s[name], d) }

func (s samples) p50(name string) time.Duration {
	v := s[name]
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	return quantile(v, 0.50)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// traceOpsFor generates n ops of the workload's own sequence, then a
// uniform mix over the same project.
func traceOpsFor(wl *Workload, seed uint64, n int) []*Op {
	g := NewGenerator(seed, wl.Trees, wl.Mix)
	ops := make([]*Op, 0, n+supplementOps)
	for i := 0; i < n; i++ {
		ops = append(ops, g.Next())
	}
	g.SetMix(uniformMix)
	for i := 0; i < supplementOps; i++ {
		ops = append(ops, g.Next())
	}
	return ops
}

// replay is one pass of ops through ParseRequest, Server.Handle and
// Response.Encode on a fresh journaled stack.  With a span log it records
// four spans per request and the per-kind durations; without, it only
// takes the wall time, which is what the tracing overhead is measured
// against.
type replay struct {
	wall    time.Duration
	parse   samples
	handle  samples
	encode  samples
	rows    int           // REPORT/GAP rows encoded
	rowTime time.Duration // time encoding them
}

func runReplay(st *stack, ops []*Op, log *spanLog) (*replay, error) {
	rp := &replay{parse: samples{}, handle: samples{}, encode: samples{}}
	start := time.Now()
	for i, op := range ops {
		for _, req := range op.Requests(strconv.FormatInt(st.jw.LastLSN(), 10)) {
			line := req.Encode()
			if log == nil {
				parsed, err := wire.ParseRequest(line)
				if err != nil {
					return nil, err
				}
				resp := st.srv.Handle(parsed)
				if !resp.OK {
					return nil, fmt.Errorf("%s: %s", line, resp.Detail)
				}
				sink = resp.Encode()
				continue
			}
			k := kind(op, req)
			root := log.open("op."+k, i, -1)
			s := log.open("wire.ParseRequest", i, root)
			parsed, err := wire.ParseRequest(line)
			rp.parse.add(k, log.close(s))
			if err != nil {
				return nil, err
			}
			s = log.open("server.Handle", i, root)
			resp := st.srv.Handle(parsed)
			d := log.close(s)
			rp.handle.add(k, d)
			if op.Class == Post {
				rp.handle.add("post."+drainKind(op), d)
			}
			if !resp.OK {
				return nil, fmt.Errorf("%s: %s", line, resp.Detail)
			}
			s = log.open("wire.Response.Encode", i, root)
			sink = resp.Encode()
			d = log.close(s)
			rp.encode.add(k, d)
			log.close(root)
			if k == "report" || k == "gap" {
				rp.rows += len(resp.Body)
				rp.rowTime += d
			}
		}
	}
	rp.wall = time.Since(start)
	return rp, nil
}

// sink keeps results alive so the compiler cannot drop the calls.
var sink any

// events turns a write op into the engine events it posts.
func events(op *Op) []engine.Event {
	evs := make([]engine.Event, 0, len(op.Keys))
	switch op.Class {
	case Post, Batch:
		for _, k := range op.Keys {
			evs = append(evs, engine.Event{Name: "ckin", Dir: bpl.DirDown, Target: k})
		}
	case Tool:
		evs = append(evs, engine.Event{Name: op.toolEvent(), Dir: bpl.DirDown, Target: op.Keys[0], Args: []string{op.Arg}})
	}
	return evs
}

// drainKind names an engine-level sample: the hierarchy level of a single
// check-in, batch8, or tool.
func drainKind(op *Op) string {
	switch op.Class {
	case Post:
		return [3]string{"leaf", "mid", "root"}[op.Sub]
	case Batch:
		return "batch8"
	}
	return "tool"
}

// layered is what the layer-by-layer replay of the write ops measured on
// one stack.
type layered struct {
	drain      samples // Engine.Post + Drain per op, by drainKind
	records    samples // journal records per op (a count, not a time), by drainKind
	createLink samples // CREATE + LINK through Server.Handle ("churn")
	events     int
}

func newLayered() *layered {
	return &layered{drain: samples{}, records: samples{}, createLink: samples{}}
}

// step replays one write op against st without the server: Engine.Post +
// Engine.Drain.  On a plain stack that is the engine and the bare meta
// mutations; on a journaled one the drain also records, publishes MVCC
// versions and commits, as it does under the daemon.
func (ly *layered) step(st *stack, i int, op *Op, log *spanLog) error {
	suffix := ".plain"
	var lsn0 int64
	if st.jw != nil {
		suffix = ".journaled"
		lsn0 = st.jw.LastLSN()
	}
	root := log.open("op."+op.Class.String()+suffix, i, -1)
	defer log.close(root)
	if op.Class == Churn {
		s := log.open("server.Handle.create+link"+suffix, i, root)
		for _, req := range op.Requests("0") {
			if _, err := st.handle(req); err != nil {
				return err
			}
		}
		ly.createLink.add("churn", log.close(s))
		return nil
	}
	evs := events(op)
	s := log.open("engine.Post+Drain"+suffix, i, root)
	for _, ev := range evs {
		if err := st.eng.Post(ev); err != nil {
			return err
		}
	}
	if err := st.eng.Drain(); err != nil {
		return err
	}
	ly.drain.add(drainKind(op), log.close(s))
	ly.events += len(evs)
	if st.jw != nil {
		ly.records.add(drainKind(op), time.Duration(st.jw.LastLSN()-lsn0))
	}
	return nil
}

// handleStep replays one write op through Server.Handle alone: the whole
// whose parts step measures.
func handleStep(st *stack, op *Op, whole samples) error {
	for _, req := range op.Requests("0") {
		t0 := time.Now()
		resp := st.srv.Handle(req)
		if op.Class != Churn {
			whole.add(drainKind(op), time.Since(t0))
		}
		if !resp.OK {
			return fmt.Errorf("%s: %s", req.Encode(), resp.Detail)
		}
	}
	return nil
}

// perIter times n calls of fn and returns the mean.
func perIter(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

// setPropLoop is the meta mutation micro-benchmark: microIters SetProp
// calls spread over the project's schematics, in chunks that alternate
// between the stacks so that a slow stretch of the machine falls on all of
// them alike.  On a journaled database the buffered records are committed
// between timed chunks.  It returns the mean per call on each stack.
func setPropLoop(trees int, stacks ...*stack) ([]time.Duration, error) {
	total := make([]time.Duration, len(stacks))
	var err error
	const chunk = 1000
	vals := [2]string{"a", "b"}
	for done := 0; done < microIters; done += chunk {
		for si, st := range stacks {
			total[si] += perIter(chunk, func(i int) {
				n := done + i
				k := schematic(n%trees, (n/trees)%blocksPerTree)
				if e := st.db.SetProp(k, "bench_probe", vals[(n/(trees*blocksPerTree))&1]); e != nil {
					err = e
				}
			}) * chunk
			if st.jw != nil {
				if e := st.jw.Commit(); e != nil {
					err = e
				}
			}
		}
	}
	for si := range total {
		total[si] /= microIters
	}
	return total, err
}

// commitLoop times Writer.Record and Writer.Commit on a scratch journal:
// iters commits of a buffer holding perCommit records, the shape one write
// leaves behind.  It returns the mean Record and the median Commit.
func commitLoop(dir string, fsync bool, perCommit, iters int, log *spanLog) (record, commit time.Duration, err error) {
	w, _, err := journal.Open(dir, journal.Options{Fsync: fsync, SnapshotEvery: -1})
	if err != nil {
		return 0, 0, err
	}
	defer w.Abort()
	rec := meta.Record{Op: meta.OpEvent, Args: []string{"ckin", "down", "t0b4,schematic,1", "nobody"}}
	commits := samples{}
	var recording time.Duration
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		for r := 0; r < perCommit; r++ {
			w.Record(rec)
		}
		recording += time.Since(t0)
		s := log.open("journal.Commit", -1, -1)
		if err := w.Commit(); err != nil {
			return 0, 0, err
		}
		commits.add("commit", log.close(s))
	}
	return recording / time.Duration(iters*perCommit), commits.p50("commit"), nil
}

// budgetRow is one line of the printed budget table.
type budgetRow struct {
	Layer  string
	NS     float64
	Allocs float64 // -1: not measured
	How    string  // "measured" or "difference"
}

// onStack builds a preloaded stack, runs fn on it, and releases it, so
// that each measurement starts from a heap that holds only its own stack.
func onStack(build func() (*stack, error), trees int, fn func(*stack) error) error {
	runtime.GC()
	st, err := build()
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.preload(trees); err != nil {
		return err
	}
	return fn(st)
}

// traceWorkload performs the traced run of wl and adds the traced
// per-layer metrics to res.
func traceWorkload(sb *sandbox, wl *Workload, seed uint64, tcp tcpCost, res *RunResult, out io.Writer) error {
	layer := func(name string, v float64, unit string) { res.PerLayer[name] = Metric{v, unit} }
	ops := traceOpsFor(wl, seed, traceOps)
	writes := traceOpsFor(wl, seed, layerOps)
	log := &spanLog{t0: time.Now()}
	journaledStack := func(name string, opts journal.Options) func() (*stack, error) {
		return func() (*stack, error) { return newJournalStack(sb.newDir(name), opts) }
	}

	// The full stack in the workload's own mix, traced; then the reads it
	// serves, timed on a pinned view of the database the replay left.
	var traced *replay
	var pin, stream, sorted, pingNS time.Duration
	var streamAllocs float64
	rows := 0
	err := onStack(journaledStack("trace-a", journal.Options{}), wl.Trees, func(a *stack) (err error) {
		if traced, err = runReplay(a, ops, log); err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		// Server floor: the dispatch cost of Handle with nothing below it.
		ping := wire.Request{Verb: wire.VerbPing}
		pingNS = perIter(microIters, func(int) { sink = a.srv.Handle(ping) })
		pin = perIter(microIters, func(int) { a.db.ReadView().Close() })
		v := a.db.ReadView()
		defer v.Close()
		reach := perIter(2000, func(i int) { sink = v.Reachable(schematic(i%wl.Trees, 0), meta.FollowAllLinks) })
		layer("meta.reach_us", us(reach), "us")
		bp := a.eng.Blueprint()
		state.StreamView(v, bp, func(*state.OIDState) bool { rows++; return true })
		const scans = 20
		before := mallocs()
		stream = perIter(scans, func(int) { state.StreamView(v, bp, func(*state.OIDState) bool { return true }) })
		streamAllocs = float64(mallocs()-before) / scans
		sorted = perIter(scans, func(int) { state.StreamSortedView(v, bp, func(*state.OIDState) bool { return true }) })
		return nil
	})
	if err != nil {
		return err
	}
	layer("meta.view_pin_ns", float64(pin), "ns")
	layer("state.stream_us_per_row", per(us(stream), float64(rows)), "us")
	layer("state.allocs_per_row", per(streamAllocs, float64(rows)), "count")
	layer("state.rows_per_scan", float64(rows), "count")
	for _, k := range []string{"post", "batch", "state", "report"} {
		layer("wire.parse_ns."+k, float64(traced.parse.p50(k)), "ns")
	}
	for _, k := range []string{"post", "batch"} {
		layer("wire.encode_ns."+k, float64(traced.encode.p50(k)), "ns")
	}
	encodeRow := per(float64(traced.rowTime), float64(traced.rows))
	layer("wire.encode_ns_per_row", encodeRow, "ns")
	for _, k := range []string{"post", "batch", "tool", "create", "link", "state", "query", "report", "gap"} {
		layer("server.handle_us."+k, us(traced.handle.p50(k)), "us")
	}

	// The same replay untraced: the difference is what tracing costs.
	var untraced *replay
	err = onStack(journaledStack("trace-a2", journal.Options{}), wl.Trees, func(a *stack) (err error) {
		untraced, err = runReplay(a, ops, nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	layer("client.trace_overhead_pct", 100*float64(traced.wall-untraced.wall)/float64(untraced.wall), "%")

	// Parse and encode allocations, over the non-scan requests.
	var lines []string
	for _, op := range ops {
		if op.Class != Scan {
			for _, req := range op.Requests("0") {
				lines = append(lines, req.Encode())
			}
		}
	}
	okResp := wire.Response{OK: true, Detail: "posted ckin"}
	before := mallocs()
	for _, line := range lines {
		req, _ := wire.ParseRequest(line)
		sink = req
		sink = okResp.Encode()
	}
	wireAllocs := per(float64(mallocs()-before), float64(len(lines)))
	layer("wire.allocs_per_op", wireAllocs, "count")

	// The writes alone, layer by layer, on three stacks side by side: the
	// engine on a plain database; the engine on a journaled one, where the
	// same drains also record, publish MVCC versions and commit (snapshots
	// off, so that the directory replays record by record afterwards); and
	// Server.Handle on an identical journaled stack — the whole the parts
	// must add up to.  Each op runs on the three in turn, so a slow stretch
	// of the machine falls on parts and whole alike.
	noSnapshots := journal.Options{SnapshotEvery: -1}
	bdir := sb.newDir("trace-b")
	plain, journaled, whole := newLayered(), newLayered(), samples{}
	var mutate, mutateJ time.Duration
	err = onStack(newPlainStack, wl.Trees, func(c *stack) error {
		return onStack(func() (*stack, error) { return newJournalStack(bdir, noSnapshots) }, wl.Trees, func(b *stack) error {
			return onStack(journaledStack("trace-h", noSnapshots), wl.Trees, func(h *stack) error {
				for i, op := range writes {
					if op.Class.Type() != Write {
						continue
					}
					if err := plain.step(c, i, op, log); err != nil {
						return fmt.Errorf("plain replay: %w", err)
					}
					if err := journaled.step(b, i, op, log); err != nil {
						return fmt.Errorf("journaled replay: %w", err)
					}
					if err := handleStep(h, op, whole); err != nil {
						return fmt.Errorf("Server.Handle replay: %w", err)
					}
				}
				means, err := setPropLoop(wl.Trees, c, b)
				if err != nil {
					return err
				}
				mutate, mutateJ = means[0], means[1]
				records := b.jw.LastLSN()
				if err := b.jw.Close(); err != nil {
					return err
				}
				t0 := time.Now()
				if _, lsn, err := journal.Replay(bdir, 0); err != nil || lsn != records {
					return fmt.Errorf("journal.Replay of %d records: lsn %d, %v", records, lsn, err)
				}
				layer("journal.replay_krec_s", float64(records)/1000/time.Since(t0).Seconds(), "krec/s")
				return nil
			})
		})
	})
	if err != nil {
		return err
	}
	for _, k := range []string{"leaf", "mid", "root", "batch8"} {
		layer("engine.post_drain_us."+k, us(plain.drain.p50(k)), "us")
	}
	layer("meta.create_link_us", us(plain.createLink.p50("churn")), "us")
	layer("meta.mutate_ns", float64(mutate), "ns")
	layer("meta.publish_ns", float64(max(0, mutateJ-mutate)), "ns")

	// Engine allocations: the same writes once more on a plain stack of
	// their own, untimed, between two readings of the allocation counter
	// (ReadMemStats stops the world, so it stays out of the timed replays).
	var engineAllocs float64
	err = onStack(newPlainStack, wl.Trees, func(c *stack) error {
		counted, unkept := newLayered(), &spanLog{t0: time.Now()}
		before := mallocs()
		for i, op := range writes {
			if op.Class.Type() == Write && op.Class != Churn {
				if err := counted.step(c, i, op, unkept); err != nil {
					return err
				}
			}
		}
		engineAllocs = per(float64(mallocs()-before), float64(counted.events))
		return nil
	})
	if err != nil {
		return err
	}
	layer("engine.allocs_per_event", engineAllocs, "count")

	// Journal: Record and Commit on their own, for a buffer the size one
	// leaf check-in leaves, without and with fsync.
	leafRecords := max(1, int(journaled.records.p50("leaf")))
	record, commit, err := commitLoop(sb.newDir("trace-commit"), false, leafRecords, microIters/4, log)
	if err != nil {
		return err
	}
	_, commitFsync, err := commitLoop(sb.newDir("trace-fsync"), true, leafRecords, fsyncIters, log)
	if err != nil {
		return err
	}
	layer("journal.record_ns", float64(record), "ns")
	layer("journal.commit_us", us(commit), "us")
	layer("journal.commit_fsync_us", us(commitFsync), "us")

	// Spawned differentials over TCP, the same for every workload.
	layer("server.ping_rtt_us", us(tcp.ping), "us")
	layer("journal.fsync_cost_us", us(tcp.fsync-tcp.plain), "us")
	layer("replica.quorum_cost_us", us(tcp.quorum-tcp.fsync), "us")
	layer("server.net_us.post", us(tcp.plain-whole.p50("leaf")-traced.parse.p50("post")-traced.encode.p50("post")), "us")

	// Budget table: what one leaf check-in, one batch and one scan cost in
	// each layer.  A row marked measured was timed on its own, away from
	// the Server.Handle it is a part of; a row marked difference is what
	// two measured numbers leave between them.  For the two writes the
	// parts come from other stacks than the whole, so their sum against
	// the whole checks that the layers account for it: the traced run is
	// invalid when they miss it by more than budgetSlack.  The scan's last
	// row can only be had by difference, so there is nothing to check.
	batchItem := wire.BatchItem{Event: "ckin", Dir: "down", OID: "t0b4,schematic,1"}.Encode()
	itemParse := perIter(microIters, func(int) { sink, _ = wire.ParseBatchItem(batchItem) })
	writeRows := func(wireKind, level string, items int) []budgetRow {
		rows := []budgetRow{
			{"wire: ParseRequest + Response.Encode (outside Handle)", float64(traced.parse.p50(wireKind) + traced.encode.p50(wireKind)), wireAllocs, "measured"},
			{"server: Handle dispatch (a PING)", float64(pingNS), -1, "measured"},
		}
		if items > 1 {
			rows = append(rows, budgetRow{"server: wire.ParseBatchItem x items", float64(itemParse) * float64(items), -1, "measured"})
		}
		onPlain, onJournal := float64(plain.drain.p50(level)), float64(journaled.drain.p50(level))
		return append(rows,
			budgetRow{"engine + meta mutate: Post+Drain on a plain DB", onPlain, engineAllocs * float64(items), "measured"},
			budgetRow{"meta publish + journal Record: journaled drain - plain - Commit", max(0, onJournal-onPlain-float64(commit)), -1, "difference"},
			budgetRow{"journal: Writer.Commit", float64(commit), -1, "measured"})
	}
	scanHandle := float64(traced.handle.p50("report"))
	budgets := []struct {
		name    string
		handle  float64
		checked bool
		rows    []budgetRow
	}{
		{"post", float64(whole.p50("leaf")), true, writeRows("post", "leaf", 1)},
		{"batch", float64(whole.p50("batch8")), true, writeRows("batch", "batch8", batchSize)},
		{"scan", scanHandle, false, []budgetRow{
			{"wire: ParseRequest + Response.Encode (outside Handle)", float64(traced.parse.p50("report")) + encodeRow*float64(rows), -1, "measured"},
			{"meta: ReadView + Close", float64(pin), -1, "measured"},
			{"state + meta walk: StreamView, no-op sink", float64(stream), streamAllocs, "measured"},
			{"state: sorting the rows: StreamSortedView - StreamView", max(0, float64(sorted-stream)), -1, "difference"},
			{"server: row format, body: Handle - ReadView - StreamSortedView", max(0, scanHandle-float64(pin+sorted)), -1, "difference"},
		}},
	}
	for _, b := range budgets {
		fmt.Fprintf(out, "budget of one %s, in-process (%s):\n", b.name, wl.Name)
		sum := 0.0
		for i, row := range b.rows {
			allocs := "-"
			if row.Allocs >= 0 {
				allocs = strconv.FormatFloat(row.Allocs, 'f', 1, 64)
			}
			fmt.Fprintf(out, "  %-64s %11.0f ns %8s allocs  %s\n", row.Layer, row.NS, allocs, row.How)
			if i > 0 { // the wire row is outside Handle
				sum += row.NS
			}
		}
		fmt.Fprintf(out, "  %-64s %11.0f ns\n", "Server.Handle, whole", b.handle)
		if !b.checked {
			continue
		}
		closure := 100 * per(sum, b.handle)
		fmt.Fprintf(out, "  %-64s %11.0f ns  = %.0f %% of it\n", "rows inside Handle, summed", sum, closure)
		layer("client.budget_closure_pct."+b.name, closure, "%")
		if closure < 100-budgetSlack || closure > 100+budgetSlack {
			res.fail("the budget of one %s does not close: its layers sum to %.0f %% of Server.Handle, outside %d %%", b.name, closure, budgetSlack)
		}
	}
	fmt.Fprintf(out, "  in the workload's own mix a leaf check-in's Handle takes %.0f ns, a batch's %.0f ns\n",
		float64(traced.handle.p50("post.leaf")), float64(traced.handle.p50("batch")))
	fmt.Fprintf(out, "  beyond the process: fsync %+.0f us, follower quorum %+.0f us, loopback %+.0f us per check-in\n",
		us(tcp.fsync-tcp.plain), us(tcp.quorum-tcp.fsync), res.PerLayer["server.net_us.post"].Value)

	// Spans go to bench/out/trace-<workload>.json.
	dir := filepath.Join(sb.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(log.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+wl.Name+".json"), data, 0o644)
}

// tcpCost is what the spawned differential probes measured: the p50 of a
// PING and of a leaf check-in on one connection, against a primary with a
// plain journal, with -fsync, and with -fsync -ack 1 plus a follower.
type tcpCost struct {
	ping, plain, fsync, quorum time.Duration
}

// tcpCosts spawns the three configurations one after another on a one-tree
// project and times tcpSamples back-to-back leaf check-ins on each.
func tcpCosts(sb *sandbox) (tcpCost, error) {
	var cost tcpCost
	probe := func(wl Workload, pings bool) (ckin, ping time.Duration, err error) {
		wl.Trees = 1
		c, _, err := load(sb, &wl, Preload(1))
		if err != nil {
			return 0, 0, err
		}
		defer c.kill()
		if wl.Fsync {
			// Reopen with the measured flags on, then attach the follower.
			if _, _, err := c.restart(); err != nil {
				return 0, 0, err
			}
		}
		if wl.Follower {
			if _, err := c.attachFollower(); err != nil {
				return 0, 0, err
			}
		}
		cl, err := admin(c.primary.addr)
		if err != nil {
			return 0, 0, err
		}
		defer cl.Hangup()
		lat := make([]time.Duration, tcpSamples)
		for i := range lat {
			leaf := schematic(0, firstLeaf+i%(blocksPerTree-firstLeaf))
			t0 := time.Now()
			if err := cl.PostEvent("ckin", "down", leaf); err != nil {
				return 0, 0, err
			}
			lat[i] = time.Since(t0)
		}
		slices.Sort(lat)
		ckin = quantile(lat, 0.50)
		if pings {
			for i := range lat {
				t0 := time.Now()
				if err := cl.Ping(); err != nil {
					return 0, 0, err
				}
				lat[i] = time.Since(t0)
			}
			slices.Sort(lat)
			ping = quantile(lat, 0.50)
		}
		return ckin, ping, nil
	}
	var err error
	if cost.plain, cost.ping, err = probe(Workload{}, true); err != nil {
		return cost, err
	}
	if cost.fsync, _, err = probe(Workload{Fsync: true}, false); err != nil {
		return cost, err
	}
	cost.quorum, _, err = probe(Workload{Fsync: true, Ack: 1, Follower: true}, false)
	return cost, err
}
