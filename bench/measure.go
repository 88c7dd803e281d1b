package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

const (
	restartReps = 9
	warmup      = time.Second
	// --seconds is split between the open-loop cruise phase, the closed-loop
	// saturation phase and the quiet-node probes.  Cruise gets half: its op
	// count is fixed by the frozen rate, and the gating metrics come from it.
	cruiseShare = 0.50
	satShare    = 0.25
	// giveUp ends an open-loop phase whose backlog is this far behind: the
	// ops not yet sent are counted as dropped.
	giveUp = 5 * time.Second
	// A percentile stands on ten samples beyond it: 20 for a median, 100 for
	// a p90 (run.percentile has the rule).  A p99 would need 1,000, which
	// only checkin reaches in the run length the driver's time cap allows.
	minP50Samples = 20
	minP90Samples = 100
	// satLead is how far one worker may run ahead of another in the
	// closed-loop phase, in ops.
	satLead = 256
	// The quiet-node probes come in rounds spread over their share of the
	// run, so that a slow second of the machine colours a part of every
	// sample, not the whole of one: in each round an eighth of the time goes
	// to back-to-back writes, an eighth to point reads, the rest to scans,
	// which are the slowest and need the time to reach minP50Samples.
	probeRounds = 16
	// maxLate is the p90 of the generator's lateness above which the cruise
	// latencies of a run are flagged: one wake-up in ten that late is a
	// harness, or a machine, that cannot keep its schedule, and the client.*
	// latencies then say more about it than about the server.  A tenth of the
	// workload's latency limit makes the run invalid: from there on the
	// lateness could move within_slo_pct.  The p99 is reported but not
	// judged: over a few hundred wake-ups it is the machine's three worst
	// hiccups.
	maxLate = 2 * time.Millisecond
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// RunResult is the outcome of one workload run.
type RunResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	OpHash    string            `json:"op_hash"`
	CruiseOps int               `json:"cruise_ops"`
	Correct   bool              `json:"correct"`
	Retries   int               `json:"retries"` // loads and attempts repeated because the node degraded; an abandoned attempt's ops are in Attempted and Failed
	Errors    []string          `json:"errors,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]Metric `json:"end_to_end"`
	PerLayer  map[string]Metric `json:"per_layer"`
	Samples   map[string]int    `json:"samples"`
	// CruiseP99 is the cruise p99 per type in ms whatever the sample count:
	// what the frozen latency limits were calibrated from.
	CruiseP99 map[string]float64 `json:"cruise_p99_ms"`
}

func (r *RunResult) fail(format string, a ...any) {
	r.Correct = false
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, a...))
	}
}

// checkAnswer validates what an op's requests returned.
func checkAnswer(op *Op, trees int, got []int) error {
	switch op.Class {
	case Batch:
		if got[0] != len(op.Keys) {
			return fmt.Errorf("batch accepted %d of %d items", got[0], len(op.Keys))
		}
	case Churn:
		if got[0] != op.Keys[0].Version {
			return fmt.Errorf("churn of %s created version %d, generator expected %d", op.Keys[0].Block, got[0], op.Keys[0].Version)
		}
	case State:
		if got[0] == 0 {
			return fmt.Errorf("state of %s has no properties", op.Keys[0])
		}
	case Query:
		if op.Sub == 0 && got[0] < oidsPerTree {
			return fmt.Errorf("reach from %s returned %d keys, want at least %d", op.Keys[0], got[0], oidsPerTree)
		}
		if op.Sub == 1 && got[0] < 2 {
			return fmt.Errorf("deps of %s returned %d keys, want at least 2", op.Keys[0], got[0])
		}
	case Scan:
		if rows := trees * oidsPerTree; (op.Sub&1 == 0 && got[0] != rows) || got[0] > rows {
			return fmt.Errorf("scan variant %d returned %d rows of %d", op.Sub, got[0], rows)
		}
	}
	return nil
}

// feeder hands the one global op sequence out to the workers.  An op
// belongs to the worker that owns its tree (scans go round-robin), so all
// ops on a tree run in generated order on one connection: the version a
// churn creates is the one the generator predicted, and the final state of
// the project is a function of how far each worker got, whatever the
// interleaving between workers.  Workloads with a follower keep all writes
// on one connection instead (see Workload.OneWriter).
type feeder struct {
	mu    sync.Mutex
	gen   *Generator
	bufs  [][]fed
	next  int // global index of the next op to generate
	limit int // ops at or beyond this index are not handed out
	scans int
	// oneWriter sends every write to worker 0 and spreads the reads over
	// the others, instead of splitting all ops by tree.
	oneWriter bool
	// lead, when positive, bounds how many ops may wait in another
	// worker's buffer before a worker stops generating and waits for it: in
	// a closed loop the workers then advance through the sequence together
	// and what they execute keeps the workload's mix.  An open loop leaves
	// it at 0: there a slow worker must not hold up the others' schedule.
	lead  int
	moved sync.Cond
}

// owner picks the worker an op belongs to.
func (f *feeder) owner(op *Op) int {
	n, first := len(f.bufs), 0
	if f.oneWriter && n > 1 {
		if op.Class.Type() == Write {
			return 0
		}
		n, first = n-1, 1
	}
	if op.Tree >= 0 {
		return first + op.Tree%n
	}
	f.scans++
	return first + (f.scans-1)%n
}

type fed struct {
	idx int
	op  *Op
}

func (f *feeder) take(w int) (fed, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.bufs[w]) == 0 {
		if f.next >= f.limit {
			return fed{}, false
		}
		if f.lead > 0 && f.ahead(w) {
			f.moved.Wait()
			continue
		}
		op := f.gen.Next()
		owner := f.owner(op)
		f.bufs[owner] = append(f.bufs[owner], fed{f.next, op})
		f.next++
	}
	it := f.bufs[w][0]
	f.bufs[w] = f.bufs[w][1:]
	f.moved.Broadcast()
	return it, true
}

// ahead reports whether worker w has run lead ops ahead of another worker.
func (f *feeder) ahead(w int) bool {
	for i, buf := range f.bufs {
		if i != w && len(buf) >= f.lead {
			return true
		}
	}
	return false
}

// stop ends a closed-loop phase: no more ops are handed out, and workers
// waiting for a slower one are released.
func (f *feeder) stop() {
	f.mu.Lock()
	f.limit = f.next
	f.mu.Unlock()
	f.moved.Broadcast()
}

// halt ends an attempt: nothing more is handed out, buffered or not.
func (f *feeder) halt() {
	f.mu.Lock()
	f.limit = f.next
	for i := range f.bufs {
		f.bufs[i] = nil
	}
	f.mu.Unlock()
	f.moved.Broadcast()
}

// worker is one load connection (two on a workload that reads from the
// follower) and what it measured in the current phase.
type worker struct {
	id    int
	write *server.Client
	read  *server.Client
	trees int
	pin   *atomic.Int64
	abort *atomic.Bool // set when the node degraded: the attempt is over
	limit time.Duration
	waker waker
	done  []*Op // write ops acknowledged, in order, for the audit replay

	lat     [numClasses][]time.Duration
	late    []time.Duration
	ok      int64
	within  int64
	failed  int64
	dropped int64
	errs    []string
}

func (w *worker) reset() {
	for c := range w.lat {
		w.lat[c] = nil
	}
	w.late = nil
	w.ok, w.within, w.failed, w.dropped = 0, 0, 0, 0
}

// do performs one op and validates the answer.
func (w *worker) do(op *Op) error {
	c := w.write
	if op.Class.Type() != Write {
		c = w.read
	}
	reqs := op.Requests(strconv.FormatInt(w.pin.Load(), 10))
	var got [2]int
	for i, req := range reqs {
		n, err := sendReq(c, req)
		if err != nil {
			return err
		}
		got[i] = n
	}
	if err := checkAnswer(op, w.trees, got[:len(reqs)]); err != nil {
		return err
	}
	if op.Class.Type() == Write {
		w.done = append(w.done, op)
	}
	return nil
}

func (w *worker) record(op *Op, lat time.Duration, err error) {
	if err != nil {
		w.failed++
		if len(w.errs) < 5 {
			w.errs = append(w.errs, fmt.Sprintf("%s: %v", op.Class, err))
		}
		return
	}
	w.ok++
	w.lat[op.Class] = append(w.lat[op.Class], lat)
	if lat <= w.limit {
		w.within++
	}
}

// openLoop runs this worker's ops with global index in [base, f.limit) at
// rate ops/s: op i is due at start + (i-base)/rate whatever happened to the
// ops before it, and its latency runs from that due time.  Lateness is
// sampled whenever the worker was free at the due time, as the distance
// between the due time and the send.
func (w *worker) openLoop(f *feeder, base int, start time.Time, rate float64) {
	for {
		it, ok := f.take(w.id)
		if !ok {
			return
		}
		due := start.Add(time.Duration(float64(it.idx-base) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			w.waker.sleepUntil(due)
			w.late = append(w.late, time.Since(due))
		} else if -wait > giveUp {
			w.dropped++
			continue
		}
		err := w.do(it.op)
		w.record(it.op, time.Since(due), err)
		if isDegraded(err) {
			w.abort.Store(true)
			f.halt()
		}
	}
}

// waker brings a worker to a due time precisely without burning a core.
// time.Sleep alone overshoots by up to a millisecond (the runtime's poller
// waits in whole milliseconds), which would bury a 50 us request under the
// harness's own lateness; a blocking nanosleep wakes a fairly constant
// ~85 us late on this kind of machine.  So the waker asks to be woken
// early by its running estimate of that overshoot plus a margin, and spins
// the few microseconds that remain: lateness p99 under 100 us for about
// 6 % of a core at 1,800 wake-ups a second.
type waker struct {
	overshoot time.Duration
}

const (
	wakeMargin   = 30 * time.Microsecond
	maxOvershoot = 500 * time.Microsecond
)

func (k *waker) sleepUntil(due time.Time) {
	if wait := time.Until(due) - k.overshoot - wakeMargin; wait > 0 {
		target := time.Now().Add(wait)
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
		k.overshoot += (time.Since(target) - k.overshoot) / 8
		k.overshoot = min(max(k.overshoot, 0), maxOvershoot)
	}
	for time.Now().Before(due) {
	}
}

// closedLoop runs this worker's ops back to back until deadline.
func (w *worker) closedLoop(f *feeder, deadline time.Time) {
	for time.Now().Before(deadline) {
		it, ok := f.take(w.id)
		if !ok {
			return
		}
		t0 := time.Now()
		err := w.do(it.op)
		w.record(it.op, time.Since(t0), err)
		if isDegraded(err) {
			w.abort.Store(true)
			f.halt()
		}
	}
}

// sampler polls the primary's LSN (the position reads are pinned at) and,
// every tenth tick, the follower's lag and the journal directory.
type sampler struct {
	prim, foll *server.Client
	pdir       string
	pin        *atomic.Int64
	stop       chan struct{}
	done       chan struct{}

	mu        sync.Mutex
	recording bool
	lag       []time.Duration // LSNs behind, kept as Duration to share the quantile code
	snapshots map[string]bool
	err       error
}

func (s *sampler) run() {
	defer close(s.done)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		lsn, err := s.prim.LSN()
		if err == nil {
			s.pin.Store(lsn)
		}
		var applied int64
		if err == nil && n%10 == 0 && s.foll != nil {
			applied, err = s.foll.LSN()
		}
		if err != nil {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
			return
		}
		if n%10 != 0 {
			continue
		}
		entries, _ := os.ReadDir(s.pdir)
		s.mu.Lock()
		if s.recording && s.foll != nil {
			s.lag = append(s.lag, time.Duration(max(0, lsn-applied)))
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "snapshot-") && strings.HasSuffix(e.Name(), ".json") {
				s.snapshots[e.Name()] = true
			}
		}
		s.mu.Unlock()
	}
}

func (s *sampler) record(on bool) {
	s.mu.Lock()
	s.recording = on
	s.mu.Unlock()
}

// counters is a reading, at a quiescent point, of everything measured
// from outside the processes.
type counters struct {
	stats       map[string]int64
	lsn         int64
	diskBytes   int64
	primaryCPU  time.Duration
	followerCPU time.Duration
	sent, recv  int64
	writes      int
}

// errDegraded ends an attempt at a run: the seed's journal can flip a
// healthy node to its degraded, write-refusing state when a snapshot pins
// its view a moment after the MVCC reclaimer moved the horizon
// (README.md, defect 3).  The attempt stops at the first refused write, and
// what it attempted and failed is carried into the one repetition.
var errDegraded = errors.New("the node degraded (journal-io)")

func isDegraded(err error) bool {
	return err != nil && (strings.Contains(err.Error(), degradedMark) || strings.Contains(err.Error(), flipMark))
}

// run is the state of one workload run between its phases.
type run struct {
	wl      *Workload
	c       *cluster
	res     *RunResult
	logf    func(string, ...any)
	gen     *Generator
	workers []*worker
	feed    *feeder
	admin   *server.Client
	sent    atomic.Int64
	recv    atomic.Int64
	pin     atomic.Int64
	abort   atomic.Bool
}

func (r *run) read() (counters, error) {
	var c counters
	var err error
	if c.stats, err = r.admin.StatsKV(); err != nil {
		return c, err
	}
	if c.lsn, err = r.admin.LSN(); err != nil {
		return c, err
	}
	if c.diskBytes, err = r.c.primary.diskBytes(); err != nil {
		return c, err
	}
	if c.primaryCPU, err = r.c.primary.cpuTime(); err != nil {
		return c, err
	}
	if r.c.follower != nil {
		if c.followerCPU, err = r.c.follower.cpuTime(); err != nil {
			return c, err
		}
	}
	c.sent, c.recv = r.sent.Load(), r.recv.Load()
	for _, w := range r.workers {
		c.writes += len(w.done)
	}
	return c, nil
}

// phase runs fn on every worker, waits for all of them and adds what they
// did to the run's attempted and failed counts; due is the number of ops an
// open-loop phase scheduled (0 for a closed loop, which attempts what it
// completes).  It returns errDegraded if the node degraded under them.
func (r *run) phase(due int, fn func(*worker)) error {
	var wg sync.WaitGroup
	for _, w := range r.workers {
		w.reset()
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
	failed := r.sum(func(w *worker) int64 { return w.failed + w.dropped })
	if due == 0 || r.abort.Load() {
		due = int(r.sum(func(w *worker) int64 { return w.ok }) + failed)
	}
	r.res.Attempted += int64(due)
	r.res.Failed += failed
	if r.abort.Load() {
		return errDegraded
	}
	return nil
}

// open runs an open-loop phase of d at the workload's cruise rate and
// returns the number of ops that were due in it.
func (r *run) open(d time.Duration) (int, error) {
	base := r.feed.next
	n := int(r.wl.CruiseRate * d.Seconds())
	r.feed.limit = base + n
	start := time.Now()
	return n, r.phase(n, func(w *worker) { w.openLoop(r.feed, base, start, r.wl.CruiseRate) })
}

// merged collects and sorts the workers' latency samples of the classes
// that pass keep.
func (r *run) merged(keep func(Class) bool) []time.Duration {
	var all []time.Duration
	for _, w := range r.workers {
		for c := Class(0); c < numClasses; c++ {
			if keep(c) {
				all = append(all, w.lat[c]...)
			}
		}
	}
	slices.Sort(all)
	return all
}

func (r *run) sum(field func(*worker) int64) int64 {
	var n int64
	for _, w := range r.workers {
		n += field(w)
	}
	return n
}

func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

func (r *run) e2e(name string, v float64, unit string)   { r.res.EndToEnd[name] = Metric{v, unit} }
func (r *run) layer(name string, v float64, unit string) { r.res.PerLayer[name] = Metric{v, unit} }

// percentile reports the q-quantile of sorted, in ms, as a client metric.
// expected is the sample count the phase's length and the workload's mix
// lead one to expect.  Under twice the floor the metric is 0 by
// construction, on every run of that workload; from there on a sample
// under the floor makes the run invalid and the metric is left out.
func (r *run) percentile(name string, sorted []time.Duration, expected float64, q float64, floor int) {
	switch {
	case expected < 2*float64(floor):
		r.layer(name, 0, "ms")
	case len(sorted) < floor:
		r.res.fail("%s: %d samples, need %d", name, len(sorted), floor)
	default:
		r.layer(name, ms(quantile(sorted, q)), "ms")
	}
}

// runWorkload performs one full measured run of wl: set-up and restart
// samples, warm-up, open-loop cruise, closed-loop saturation, quiet-node
// probes, audit.  With errDegraded the result holds only what the attempt
// attempted and failed.
func runWorkload(sb *sandbox, wl *Workload, seed uint64, seconds, nworkers int, logf func(string, ...any)) (*RunResult, error) {
	res := &RunResult{Workload: wl.Name, Seed: seed, Seconds: seconds, Correct: true,
		EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{}, Samples: map[string]int{}, CruiseP99: map[string]float64{}}
	su, err := setUp(sb, wl, res)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	c := su.cluster
	defer c.kill()
	res.Retries = su.retries
	r := &run{wl: wl, c: c, res: res, logf: logf}
	r.layer("client.restart_ms", median(su.restarts), "ms")
	logf("%s: restart %.1fms (median of %d)", wl.Name, median(su.restarts), restartReps)

	// Connections: one per worker (two where reads go to the follower), one
	// for the counters, one or two for the sampler.
	var conns []*server.Client
	defer func() {
		for _, cl := range conns {
			cl.Hangup()
		}
	}()
	track := func(cl *server.Client, err error) (*server.Client, error) {
		if err == nil {
			conns = append(conns, cl)
		}
		return cl, err
	}
	if r.admin, err = track(admin(c.primary.addr)); err != nil {
		return nil, err
	}
	r.gen = NewGenerator(seed, wl.Trees, wl.Mix)
	r.feed = &feeder{gen: r.gen, bufs: make([][]fed, nworkers), oneWriter: wl.Follower}
	r.feed.moved.L = &r.feed.mu
	for i := 0; i < nworkers; i++ {
		w := &worker{id: i, trees: wl.Trees, pin: &r.pin, abort: &r.abort, limit: wl.Limit}
		if w.write, err = track(dial(c.primary.addr, &r.sent, &r.recv)); err != nil {
			return nil, err
		}
		w.read = w.write
		if wl.ReadsOnFollower {
			if w.read, err = track(dial(c.follower.addr, &r.sent, &r.recv)); err != nil {
				return nil, err
			}
		}
		r.workers = append(r.workers, w)
	}
	sm := &sampler{pdir: c.pdir, pin: &r.pin, stop: make(chan struct{}), done: make(chan struct{}), snapshots: map[string]bool{}}
	if sm.prim, err = track(admin(c.primary.addr)); err != nil {
		return nil, err
	}
	if wl.Follower {
		if sm.foll, err = track(admin(c.follower.addr)); err != nil {
			return nil, err
		}
	}
	if lsn, err := r.admin.LSN(); err == nil {
		r.pin.Store(lsn)
	}
	go sm.run()
	stopSampler := sync.OnceFunc(func() { close(sm.stop); <-sm.done })
	defer stopSampler()

	total := time.Duration(seconds) * time.Second
	cruiseD := time.Duration(float64(total) * cruiseShare)
	satD := time.Duration(float64(total) * satShare)

	if _, err := r.open(warmup); err != nil { // discarded
		return res, err
	}
	if res.Failed > 0 {
		res.fail("%d ops failed or were dropped during warm-up: %v", res.Failed, r.workers[0].errs)
	}
	// The other set-up samples come after the cruise and the sat phase,
	// while the measured cluster is idle.
	if err := r.cruise(cruiseD, sm); err != nil {
		return res, err
	}
	if err := su.idle(sb, wl); err != nil {
		return nil, err
	}
	if err := r.sat(satD); err != nil {
		return res, err
	}
	if err := su.idle(sb, wl); err != nil {
		return nil, err
	}
	if err := r.probe((total - cruiseD - satD) / probeRounds); err != nil {
		return res, err
	}
	res.Retries = su.retries
	r.e2e("setup_s", median(su.setupS), "s")
	catchup := 0.0
	if wl.Follower {
		catchup = median(su.catchup)
	}
	r.layer("replica.catchup_ms", catchup, "ms")
	logf("%s: set up in %.3fs (median of %d)", wl.Name, median(su.setupS), len(su.setupS))
	r.e2e("fail_pct", 100*per(float64(res.Failed), float64(res.Attempted)), "%")
	end, err := r.read()
	if err != nil {
		return nil, err
	}
	stopSampler()
	if sm.err != nil {
		res.fail("sampler: %v", sm.err)
	}
	r.layer("journal.snapshots", float64(len(sm.snapshots)), "count")
	for _, w := range r.workers {
		for _, e := range w.errs {
			res.fail("worker %d: %s", w.id, e)
		}
	}
	if err := r.audit(end); err != nil {
		return nil, fmt.Errorf("audit: %w\n%s", err, c.logs())
	}
	return res, nil
}

// cruise is the open-loop phase at the frozen rate: latencies from the
// intended send time, the share of the ops due that met their limit, the
// primary's peak memory, and the per-write counts taken from outside the
// processes before and after.
func (r *run) cruise(d time.Duration, sm *sampler) error {
	res, wl := r.res, r.wl
	before, err := r.read()
	if err != nil {
		return err
	}
	sm.record(true)
	due, err := r.open(d)
	sm.record(false)
	if err != nil {
		return err
	}
	// A snapshot the last writes armed is written in the background: it
	// belongs to the phase's bytes, so wait for it.
	if err := r.c.settle(); err != nil {
		return err
	}
	after, err := r.read()
	if err != nil {
		return err
	}
	res.CruiseOps = due
	res.OpHash = r.gen.Hash()
	// The primary has been up since the last restart and has replayed the
	// project, warmed up and served a fixed number of ops at a fixed rate:
	// its peak memory here does not depend on how many ops the timed phases
	// that follow get through.
	rss, err := r.c.primary.peakRSSMB()
	if err != nil {
		return err
	}
	r.e2e("primary_rss_mb", rss, "MB")

	for t := Type(0); t < numTypes; t++ {
		s := r.merged(func(c Class) bool { return c.Type() == t })
		res.Samples["cruise_"+t.String()] = len(s)
		if len(s) > 0 {
			res.CruiseP99[t.String()] = ms(quantile(s, 0.99))
		}
		expected := float64(due) * float64(wl.Mix.only(t).total()) / float64(wl.Mix.total())
		r.percentile("client."+t.String()+"_p50_ms", s, expected, 0.50, minP50Samples)
		r.percentile("client."+t.String()+"_p90_ms", s, expected, 0.90, minP90Samples)
	}
	for cl := Class(0); cl < numClasses; cl++ {
		s := r.merged(func(c Class) bool { return c == cl })
		res.Samples["cruise_"+cl.String()] = len(s)
		expected := float64(due) * float64(wl.Mix[cl]) / float64(wl.Mix.total())
		r.percentile("client."+cl.String()+"_p50_ms", s, expected, 0.50, minP50Samples)
	}
	within := r.sum(func(w *worker) int64 { return w.within })
	r.e2e("within_slo_pct", 100*per(float64(within), float64(due)), "%")

	var late []time.Duration
	for _, w := range r.workers {
		late = append(late, w.late...)
	}
	slices.Sort(late)
	var lateP90, lateP99 time.Duration
	if len(late) > 0 {
		lateP90, lateP99 = quantile(late, 0.90), quantile(late, 0.99)
	}
	dropped := r.sum(func(w *worker) int64 { return w.dropped })
	r.layer("client.late_p90_ms", ms(lateP90), "ms")
	r.layer("client.late_p99_ms", ms(lateP99), "ms")
	r.layer("client.dropped", float64(dropped), "count")
	if lateP90 > wl.Limit/10 {
		res.fail("generator lateness p90 %.3fms exceeds a tenth of the %v latency limit: the harness, not the server, set within_slo_pct", ms(lateP90), wl.Limit)
	} else if lateP90 > maxLate {
		r.logf("%s: generator lateness p90 %.3fms exceeds %v: this run's cruise latencies are the machine's, not the server's", wl.Name, ms(lateP90), maxLate)
	}
	if dropped > 0 {
		res.fail("%d cruise ops dropped: backlog passed %v", dropped, giveUp)
	}

	writes := float64(after.writes - before.writes)
	delta := func(key string) float64 { return float64(after.stats[key] - before.stats[key]) }
	r.layer("engine.deliveries_per_write", per(delta("deliveries"), writes), "count")
	r.layer("engine.propagations_per_write", per(delta("propagations"), writes), "count")
	r.layer("engine.rules_per_write", per(delta("rules"), writes), "count")
	r.layer("journal.records_per_write", per(float64(after.lsn-before.lsn), writes), "count")
	r.layer("journal.disk_b_per_write", per(float64(after.diskBytes-before.diskBytes), writes), "B")
	r.layer("wire.req_bytes_per_op", per(float64(after.sent-before.sent), float64(due)), "B")
	r.layer("wire.resp_bytes_per_op", per(float64(after.recv-before.recv), float64(due)), "B")
	r.layer("replica.follower_cpu_us_per_write", per(us(after.followerCPU-before.followerCPU), writes), "us")
	if delta("propagations") <= 0 {
		res.fail("no propagation during cruise: the change-propagation mechanism was not exercised")
	}
	sm.mu.Lock()
	lag := slices.Clone(sm.lag)
	sm.mu.Unlock()
	slices.Sort(lag)
	lag50, lag99 := 0.0, 0.0
	if len(lag) > 0 {
		lag50, lag99 = float64(quantile(lag, 0.50)), float64(quantile(lag, 0.99))
	}
	r.layer("replica.lag_lsn_p50", lag50, "count")
	r.layer("replica.lag_lsn_p99", lag99, "count")
	r.logf("%s: cruise %d ops at %.0f/s: write p50 %.3fms, late p99 %.3fms, %d failed or dropped",
		wl.Name, due, wl.CruiseRate, res.PerLayer["client.write_p50_ms"].Value, ms(lateP99), res.Failed)
	return nil
}

// sat is the closed-loop phase: every worker back to back for d.
func (r *run) sat(d time.Duration) error {
	before, err := r.read()
	if err != nil {
		return err
	}
	r.feed.limit, r.feed.lead = math.MaxInt, satLead
	start := time.Now()
	deadline := start.Add(d)
	err = r.phase(0, func(w *worker) {
		w.closedLoop(r.feed, deadline)
		r.feed.stop()
	})
	if err != nil {
		return err
	}
	took := time.Since(start)
	ok := r.sum(func(w *worker) int64 { return w.ok })
	end, err := r.read()
	if err != nil {
		return err
	}
	r.layer("client.sat_ops_s", float64(ok)/took.Seconds(), "1/s")
	r.layer("server.cpu_us_per_op", per(us(end.primaryCPU-before.primaryCPU), float64(ok)), "us")
	r.logf("%s: sat %.0f ops/s over %.1fs", r.wl.Name, float64(ok)/took.Seconds(), took.Seconds())

	// Let every worker finish what the phase had already handed it, so that
	// the generator's idea of the project matches the server's again.
	return r.phase(0, func(w *worker) { w.closedLoop(r.feed, time.Now().Add(time.Minute)) })
}

// probe measures what one wrapper, and one designer polling REPORT, see
// when nobody else is talking to the node: probeRounds rounds of
// back-to-back writes, point reads and scans on one connection, continuing
// the op sequence.  Each metric is the median of all its samples.
func (r *run) probe(round time.Duration) error {
	// The probe's writes follow everything the workers wrote, on every tree:
	// they get a worker of their own, last in line for the audit's replay.
	w := &worker{id: len(r.workers), write: r.workers[0].write, read: r.workers[0].read,
		trees: r.wl.Trees, pin: &r.pin, abort: &r.abort, limit: r.wl.Limit}
	r.workers = append(r.workers, w)
	var lat [numTypes][]time.Duration
	for i := 0; i < probeRounds; i++ {
		for _, p := range []struct {
			t Type
			d time.Duration
		}{{Write, round / 8}, {Point, round / 8}, {ScanT, round - round/4}} {
			mix := r.wl.Mix.only(p.t)
			if p.t == ScanT {
				mix = Mix{Scan: 1} // every workload is probed for scans, mix or no
			}
			r.gen.SetMix(mix)
			for deadline := time.Now().Add(p.d); time.Now().Before(deadline); {
				op := r.gen.Next()
				t0 := time.Now()
				err := w.do(op)
				r.res.Attempted++
				if err != nil {
					r.res.Failed++
					if isDegraded(err) {
						return errDegraded
					}
					return fmt.Errorf("%s probe: %s: %w", p.t, op.Class, err)
				}
				lat[p.t] = append(lat[p.t], time.Since(t0))
			}
		}
	}
	for t := Type(0); t < numTypes; t++ {
		slices.Sort(lat[t])
		r.res.Samples["quiet_"+t.String()] = len(lat[t])
		r.percentile("client.quiet_"+t.String()+"_p50_ms", lat[t], math.Inf(1), 0.50, minP50Samples)
	}
	return nil
}

// shedKeys are the STATS counters that must stay zero: the benchmark never
// offers load the server is configured to refuse.
var shedKeys = []string{"conns_shed", "inflight_shed", "readonly_refused", "degraded_refused", "batch_oversize", "panics"}

// audit checks the end state of the run against an in-process replay of
// exactly the writes the server acknowledged: the final REPORT must match
// byte for byte, the engine counters must reconcile exactly, nothing may
// have been shed, and a follower must serve the same bytes at the final
// LSN as its primary.
func (r *run) audit(end counters) error {
	res := r.res
	var shed int64
	for _, k := range shedKeys {
		shed += end.stats[k]
	}
	res.PerLayer["server.shed"] = Metric{float64(shed), "count"}
	if shed > 0 {
		res.fail("server shed or refused %d requests: %v", shed, end.stats)
	}

	oracle, err := newPlainStack()
	if err != nil {
		return err
	}
	if err := oracle.preload(r.wl.Trees); err != nil {
		return err
	}
	base := oracle.eng.Stats()
	churns := 0
	newest := map[string]int{}
	for _, w := range r.workers {
		for _, op := range w.done {
			for _, req := range op.Requests("0") {
				if _, err := oracle.handle(req); err != nil {
					return fmt.Errorf("replaying acknowledged write: %w", err)
				}
			}
			if op.Class == Churn {
				churns++
				newest[op.Keys[0].Block] = op.Keys[0].Version
			}
		}
	}
	want, err := oracle.handle(wire.Request{Verb: wire.VerbReport})
	if err != nil {
		return err
	}
	got, err := r.admin.Report()
	if err != nil {
		return err
	}
	if dg, dw := digest(got), digest(want.Body); dg != dw {
		res.fail("final REPORT (%d rows, %.12s) differs from the replay of the %d acknowledged writes (%d rows, %.12s)",
			len(got), dg, end.writes, len(want.Body), dw)
		for i := 0; i < len(got) && i < len(want.Body); i++ {
			if got[i] != want.Body[i] {
				res.fail("row %d: server %q, replay %q", i, got[i], want.Body[i])
			}
		}
	}
	present := make(map[string]bool, len(got))
	for _, row := range got {
		key, _, _ := strings.Cut(row, " ")
		present[key] = true
	}
	for block, v := range newest {
		if key := block + "," + views[1] + "," + strconv.Itoa(v); !present[key] {
			res.fail("acknowledged churn %s is missing from the final REPORT", key)
		}
	}
	if wantOIDs := int64(r.wl.Trees*oidsPerTree + churns); end.stats["oids"] != wantOIDs {
		res.fail("STATS oids=%d, want %d preloaded + %d acknowledged churns", end.stats["oids"], r.wl.Trees*oidsPerTree, churns)
	}
	if wantLinks := int64(r.wl.Trees*linksPerTree + churns); end.stats["links"] != wantLinks {
		res.fail("STATS links=%d, want %d", end.stats["links"], wantLinks)
	}
	// The measured primary started with zeroed engine counters after the
	// last restart, so its totals cover exactly the acknowledged ops.
	st := oracle.eng.Stats()
	for _, kv := range []struct {
		key  string
		want int64
	}{
		{"posted", st.Posted - base.Posted},
		{"deliveries", st.Deliveries - base.Deliveries},
		{"propagations", st.Propagations - base.Propagations},
		{"rules", st.RulesFired - base.RulesFired},
		{"execs", st.Execs - base.Execs},
	} {
		if end.stats[kv.key] != kv.want {
			res.fail("STATS %s=%d, replay of the acknowledged writes gives %d", kv.key, end.stats[kv.key], kv.want)
		}
	}

	if r.c.follower != nil {
		fc, err := admin(r.c.follower.addr)
		if err != nil {
			return err
		}
		defer fc.Hangup()
		onPrimary, err := r.admin.ReportAt(end.lsn)
		if err != nil {
			return err
		}
		onFollower, err := fc.ReportAt(end.lsn)
		if err != nil {
			return err
		}
		if digest(onPrimary) != digest(onFollower) {
			res.fail("REPORT %d differs between primary and follower", end.lsn)
		}
	}
	return nil
}
