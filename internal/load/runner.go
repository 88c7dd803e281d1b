package load

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/meta"
	"repro/internal/server"
	"repro/internal/wire"
)

const (
	dialTimeout  = 3 * time.Second
	opTimeout    = 5 * time.Second
	lagInterval  = 200 * time.Millisecond
	probeEvery   = 50 * time.Millisecond
	catchupLimit = 30 * time.Second
)

// PartitionPlan arms the partition drill: at StartAfter into the run the
// harness blackholes one follower's replication link (both directions
// silent, nothing closed — the half-open partition), keeps it dark for
// Dark, then heals it.  The audit checks the liveness contract end to end:
// staleness reported the whole time, ack-gated writes recovering their SLO
// after the heal, and convergence.  The cluster must have been started with
// ProxyFollowers.
type PartitionPlan struct {
	Cluster    *Cluster
	Follower   int           // index of the follower whose link goes dark
	StartAfter time.Duration // blackhole offset into the run
	Dark       time.Duration // how long the link stays dark
}

// Runner executes one Scenario against a damocles primary (and optional
// follower fleet) and produces a Result.
type Runner struct {
	Spec      Scenario
	Primary   string
	Followers []string

	// Logf receives progress lines (nil: silent).
	Logf func(format string, args ...any)

	// Partition, when set, arms the mid-run replication blackhole
	// (requires a cluster started with ProxyFollowers).
	Partition *PartitionPlan

	mix      mixTable
	pool     []meta.Key
	bpSrc    string
	pickRand *rand.Rand   // dispatcher goroutine only
	lastLSN  atomic.Int64 // recently observed primary applied LSN

	sampMu       sync.Mutex
	writeSamples []writeSample // partition mode only
}

// writeSample is one write-class op outcome retained for the post-hoc
// SLO-recovery computation: intended offset, measured latency, success.
type writeSample struct {
	due time.Duration
	lat time.Duration
	ok  bool
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// readAddr picks the node worker id's reads go to: round-robin across
// the follower fleet when FollowerReads is set, the primary otherwise.
func (r *Runner) readAddr(id int) string {
	if r.Spec.FollowerReads && len(r.Followers) > 0 {
		return r.Followers[id%len(r.Followers)]
	}
	return r.Primary
}

// errKind classifies an op error for the error-kind ledger.  The
// transport kinds ("timeout", "transport", "dial") are connection-fatal:
// the worker drops its connection and redials.
func errKind(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	switch {
	case strings.Contains(s, "operation timed out"):
		return "timeout"
	case strings.Contains(s, "overloaded"):
		return "overloaded"
	case strings.Contains(s, "quorum"):
		return "quorum"
	case strings.Contains(s, "read-only"), strings.Contains(s, "degraded"):
		return "refused"
	case strings.Contains(s, "dial"):
		return "dial"
	case strings.Contains(s, "send:"), strings.Contains(s, "recv:"),
		strings.Contains(s, "connection closed"), strings.Contains(s, "EOF"),
		strings.Contains(s, "broken pipe"), strings.Contains(s, "reset"):
		return "transport"
	default:
		return "op"
	}
}

func connFatal(kind string) bool {
	return kind == "timeout" || kind == "transport" || kind == "dial"
}

// workerResult is one virtual user's accounting, merged after the run.
type workerResult struct {
	hists    map[string]*Histogram
	errs     map[string]int64
	errKinds map[string]int64
}

// worker is one virtual user: a pair of cached connections (write →
// primary, read → its follower) executing tickets from the open-loop
// queue.  Workers never pace arrivals — a slow op here shows up as
// queueing delay on later tickets, which is exactly what the
// intended-arrival latency measurement charges.
type worker struct {
	r        *Runner
	id       int
	rng      *rand.Rand
	churnSeq int

	wcl, rcl *server.Client

	res workerResult
}

// client returns the worker's write (primary) or read connection, dialing
// it when there is none.
func (w *worker) client(write bool) (*server.Client, error) {
	cl, addr := &w.rcl, w.r.readAddr(w.id)
	if write {
		cl, addr = &w.wcl, w.r.Primary
	}
	if *cl == nil {
		c, err := server.DialTimeout(addr, dialTimeout, opTimeout)
		if err != nil {
			return nil, err
		}
		*cl = c
	}
	return *cl, nil
}

func (w *worker) dropConn(write bool) {
	if write {
		if w.wcl != nil {
			w.wcl.Hangup()
		}
		w.wcl = nil
	} else {
		if w.rcl != nil {
			w.rcl.Hangup()
		}
		w.rcl = nil
	}
}

func (w *worker) poolKey() meta.Key {
	return w.r.pool[w.rng.Intn(len(w.r.pool))]
}

// execute runs one ticket and returns the op error (nil on success).
func (w *worker) execute(t opTicket) error {
	write := t.class == OpCheckin || t.class == OpChurn || t.class == OpSwap
	cl, err := w.client(write)
	if err != nil {
		return err
	}
	switch t.class {
	case OpCheckin:
		items := make([]wire.BatchItem, w.r.Spec.Batch)
		for i := range items {
			items[i] = wire.BatchItem{Event: "ckin", Dir: "down", OID: w.poolKey().String()}
		}
		_, err = cl.PostBatch(items)
	case OpChurn:
		name := fmt.Sprintf("ld-w%02d-%06d", w.id, w.churnSeq)
		var k meta.Key
		k, err = cl.Create(name, "HDL_model")
		if err == nil {
			w.churnSeq++
			err = cl.Link("derive", k, w.poolKey())
		}
	case OpSwap:
		err = cl.SwapBlueprint(w.r.bpSrc)
	case OpReport:
		_, err = cl.Report()
	case OpStorm:
		lsn := w.r.lastLSN.Load()
		switch {
		case lsn <= 0:
			_, err = cl.Report()
		case w.rng.Intn(2) == 0:
			_, err = cl.ReportAt(lsn)
		default:
			_, err = cl.GapAt(lsn)
		}
	case OpState:
		_, err = cl.State(w.poolKey())
	case OpQuery:
		// A graph query pinned at the last observed primary LSN (0 before
		// the first write acks — the server serves its current state), on
		// the read connection: a follower waits until it has applied the
		// position, same as the storm reads.
		lsn := w.r.lastLSN.Load()
		if lsn < 0 {
			lsn = 0
		}
		if w.rng.Intn(2) == 0 {
			_, err = cl.QueryAt(lsn, "reach", w.poolKey().String(), "all")
		} else {
			_, err = cl.QueryAt(lsn, "deps", w.poolKey().String())
		}
	}
	return err
}

// run drains tickets until the queue closes.
func (w *worker) run(epoch time.Time, queue <-chan opTicket) {
	for t := range queue {
		start := epoch.Add(t.due)
		err := w.execute(t)
		lat := time.Since(start)
		if err == nil {
			h := w.res.hists[t.class]
			if h == nil {
				h = &Histogram{}
				w.res.hists[t.class] = h
			}
			h.Record(lat)
		} else {
			w.res.errs[t.class]++
			kind := errKind(err)
			w.res.errKinds[kind]++
			if connFatal(kind) {
				w.dropConn(t.class == OpCheckin || t.class == OpChurn || t.class == OpSwap)
				// Back off a beat so a dead node doesn't turn the worker
				// into a dial hot-loop; queued tickets still keep their
				// intended times, so the outage stays measured.
				time.Sleep(10 * time.Millisecond)
			}
		}
		if isWriteClass(t.class) && w.r.Partition != nil {
			w.r.recordWrite(writeSample{due: t.due, lat: lat, ok: err == nil})
		}
	}
	if w.wcl != nil {
		w.wcl.Hangup()
	}
	if w.rcl != nil {
		w.rcl.Hangup()
	}
}

func (r *Runner) recordWrite(s writeSample) {
	r.sampMu.Lock()
	r.writeSamples = append(r.writeSamples, s)
	r.sampMu.Unlock()
}

// lagCollector accumulates replication-lag samples (LSN units) taken
// while traffic runs.
type lagCollector struct {
	mu       sync.Mutex
	follower Histogram
	journal  Histogram
	samples  int
}

func (l *lagCollector) record(journalLag, followerLag int64, haveFollower bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples++
	if journalLag >= 0 {
		l.journal.Record(time.Duration(journalLag))
	}
	if haveFollower && followerLag >= 0 {
		l.follower.Record(time.Duration(followerLag))
	}
}

func (l *lagCollector) stats() *ReplicationStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.samples == 0 {
		return nil
	}
	return &ReplicationStats{
		Samples:        l.samples,
		FollowerLagP50: int64(l.follower.Quantile(0.50)),
		FollowerLagP99: int64(l.follower.Quantile(0.99)),
		FollowerLagMax: int64(l.follower.Max()),
		JournalLagP99:  int64(l.journal.Quantile(0.99)),
		JournalLagMax:  int64(l.journal.Max()),
	}
}

// sample polls the primary's LSN/ROLE (feeding the storm pin) and each
// follower's applied position until done closes.  A poll that errors
// leaves no sample — lag is measured, not interpolated.
func (r *Runner) sample(done <-chan struct{}, lag *lagCollector) {
	tick := time.NewTicker(lagInterval)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		cl, err := server.DialTimeout(r.Primary, time.Second, 2*time.Second)
		if err != nil {
			continue
		}
		ri, err := cl.Role()
		cl.Hangup()
		if err != nil {
			continue
		}
		r.lastLSN.Store(ri.Applied)
		journalLag := int64(-1)
		if ri.Watermark >= 0 && ri.Applied >= ri.Watermark {
			journalLag = ri.Applied - ri.Watermark
		}
		worst := int64(-1)
		have := false
		for _, addr := range r.Followers {
			if applied := appliedOf(addr); applied >= 0 && ri.Applied >= applied {
				have = true
				if lagv := ri.Applied - applied; lagv > worst {
					worst = lagv
				}
			}
		}
		lag.record(journalLag, worst, have)
	}
}

// runPartition executes the armed PartitionPlan: blackhole the chosen
// follower's replication link at StartAfter, poll its ROLE while dark
// (its serving socket is not proxied — only the upstream is, so reads
// keep answering and must admit their growing staleness), heal at
// StartAfter+Dark, then measure how long the follower takes to catch
// the primary's applied LSN.  The SLO-recovery and convergence halves
// are filled in by audit() after traffic ends.
func (r *Runner) runPartition(epoch time.Time) *PartitionResult {
	p := r.Partition
	res := &PartitionResult{Enabled: true}
	fols := p.Cluster.FollowerAddrs()
	if p.Follower < 0 || p.Follower >= len(fols) {
		r.logf("partition: follower index %d out of range", p.Follower)
		return res
	}
	res.Follower = fols[p.Follower]
	time.Sleep(time.Until(epoch.Add(p.StartAfter)))
	if err := p.Cluster.PartitionFollower(p.Follower); err != nil {
		r.logf("partition: %v", err)
		return res
	}
	start := time.Now()
	res.StartAtMs = ms(start.Sub(epoch))
	r.logf("partition: follower %s link dark for %v", res.Follower, p.Dark)

	// Staleness watch: every successful ROLE poll of the dark follower
	// must carry the staleness field, and the admitted age should grow
	// toward the dark span.
	res.StalenessSeen = true
	polls := 0
	tick := time.NewTicker(probeEvery)
	for time.Since(start) < p.Dark {
		<-tick.C
		ri, err := roleOf(res.Follower)
		if err != nil {
			continue
		}
		polls++
		if !ri.HasStaleness {
			res.StalenessSeen = false
		}
		if s := ms(ri.Staleness); s > res.MaxStalenessMs {
			res.MaxStalenessMs = s
		}
	}
	tick.Stop()
	if polls == 0 {
		res.StalenessSeen = false
	}
	res.DarkMs = ms(time.Since(start))
	if err := p.Cluster.HealFollower(p.Follower); err != nil {
		r.logf("partition: %v", err)
		return res
	}
	healT := time.Now()
	r.logf("partition: healed after %.0fms dark (max admitted staleness %.0fms), waiting for catch-up",
		res.DarkMs, res.MaxStalenessMs)

	deadline := healT.Add(catchupLimit)
	for time.Now().Before(deadline) {
		prim := appliedOf(r.Primary)
		if prim >= 0 {
			if fol := appliedOf(res.Follower); fol >= prim {
				res.CatchupMs = ms(time.Since(healT))
				res.Recovered = true
				r.logf("partition: follower caught the primary %.0fms after the heal", res.CatchupMs)
				return res
			}
		}
		time.Sleep(probeEvery)
	}
	res.CatchupMs = ms(catchupLimit)
	r.logf("partition: follower never caught the primary within %v of the heal", catchupLimit)
	return res
}

// roleOf fetches one node's ROLE with short timeouts.
func roleOf(addr string) (server.RoleInfo, error) {
	cl, err := server.DialTimeout(addr, time.Second, 2*time.Second)
	if err != nil {
		return server.RoleInfo{}, err
	}
	defer cl.Hangup()
	return cl.Role()
}

// writeSLOCeiling is the p99 ceiling applied to write ops for the
// recovery computation: the strictest declared write-class ceiling, or
// 500ms when the scenario declares none.
func (s Scenario) writeSLOCeiling() float64 {
	ceiling := 0.0
	if s.SLO != nil {
		for class, v := range s.SLO.P99Ms {
			if isWriteClass(class) && (ceiling == 0 || v < ceiling) {
				ceiling = v
			}
		}
	}
	if ceiling == 0 {
		ceiling = 500
	}
	return ceiling
}

// computeRecovery derives the SLO recovery span from the retained write
// samples: the completion offset of the last write violating the ceiling
// (errors count as violations), measured from the fault's offset off.
// recovered is false when violations persist into the final second of the
// window — there is no post-violation evidence of health.
func computeRecovery(samples []writeSample, off, wall time.Duration, ceilingMs float64) (recMs float64, recovered bool) {
	lastViol := off
	for _, s := range samples {
		done := s.due + s.lat
		if done < off {
			continue
		}
		if !s.ok || ms(s.lat) > ceilingMs {
			if done > lastViol {
				lastViol = done
			}
		}
	}
	return ms(lastViol - off), lastViol < wall-time.Second
}

// Run executes the scenario and returns the measured Result.  The
// cluster (local spawn or remote address) must already be serving.
func (r *Runner) Run() (*Result, error) {
	spec := r.Spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	r.Spec = spec
	sched := FixedRate{Rate: spec.Rate, D: spec.Duration.D}
	r.mix = newMixTable(spec.Mix)

	if err := r.setup(); err != nil {
		return nil, err
	}

	backlog := spec.backlog()
	queue := make(chan opTicket, backlog)
	resCh := make(chan *workerResult, spec.Workers)
	var wg sync.WaitGroup
	// A short lead keeps arrival 0 from starting life already late.
	epoch := time.Now().Add(50 * time.Millisecond)
	for i := 0; i < spec.Workers; i++ {
		wg.Add(1)
		w := &worker{
			r:   r,
			id:  i,
			rng: rand.New(rand.NewSource(spec.Seed + int64(i)*7919)),
			res: workerResult{
				hists:    map[string]*Histogram{},
				errs:     map[string]int64{},
				errKinds: map[string]int64{},
			},
		}
		go func() {
			defer wg.Done()
			w.run(epoch, queue)
			resCh <- &w.res
		}()
	}

	var lag lagCollector
	samplerDone := make(chan struct{})
	go r.sample(samplerDone, &lag)

	var part *PartitionResult
	partDone := make(chan struct{})
	if r.Partition != nil {
		go func() {
			part = r.runPartition(epoch)
			close(partDone)
		}()
	} else {
		close(partDone)
	}

	r.logf("run %q: %d arrivals over %v (%d workers, backlog %d)",
		spec.Name, sched.Arrivals(), sched.Span(), spec.Workers, backlog)
	st := openLoop(epoch, sched, func(int) string {
		return r.mix.pick(r.pickRand.Intn(r.mix.total))
	}, queue, nil)
	close(queue)
	wg.Wait()
	wall := time.Since(epoch)
	close(samplerDone)
	<-partDone
	close(resCh)

	res := &Result{
		Name:       spec.Name,
		Spec:       spec,
		WallS:      wall.Seconds(),
		Arrivals:   int64(sched.Arrivals()),
		Dispatched: st.Dispatched,
		Dropped:    st.Dropped,
		Ops:        map[string]*OpResult{},
		ErrorKinds: map[string]int64{},
	}
	merged := map[string]*Histogram{}
	errs := map[string]int64{}
	for wr := range resCh {
		for class, h := range wr.hists {
			if merged[class] == nil {
				merged[class] = &Histogram{}
			}
			merged[class].Merge(h)
		}
		for class, n := range wr.errs {
			errs[class] += n
		}
		for kind, n := range wr.errKinds {
			res.ErrorKinds[kind] += n
		}
	}
	classes := map[string]bool{}
	for c := range merged {
		classes[c] = true
	}
	for c := range errs {
		classes[c] = true
	}
	for class := range classes {
		h := merged[class]
		if h == nil {
			h = &Histogram{}
		}
		op := opResultFrom(h, errs[class], wall)
		res.Ops[class] = op
		res.Completed += op.Count + op.Errors
		res.ErrorsAll += op.Errors
	}
	res.Replication = lag.stats()
	res.Partition = part

	r.audit(res, wall)
	return res, nil
}

// setup dials the primary, creates the OID pool, captures the blueprint
// source for swap ops, and seeds the dispatcher RNG.
func (r *Runner) setup() error {
	cl, err := server.DialTimeout(r.Primary, dialTimeout, 10*time.Second)
	if err != nil {
		return fmt.Errorf("load: setup dial %s: %w", r.Primary, err)
	}
	defer cl.Hangup()
	r.pool = r.pool[:0]
	for i := 0; i < r.Spec.Blocks; i++ {
		k, err := cl.Create(fmt.Sprintf("ldblk%02d", i), "HDL_model")
		if err != nil {
			return fmt.Errorf("load: setup pool create: %w", err)
		}
		r.pool = append(r.pool, k)
	}
	if r.Spec.Mix[OpSwap] > 0 {
		src, err := cl.Blueprint()
		if err != nil {
			return fmt.Errorf("load: setup blueprint fetch: %w", err)
		}
		r.bpSrc = src
	}
	r.pickRand = rand.New(rand.NewSource(r.Spec.Seed))
	return nil
}

// audit runs the end-of-run verifications against the primary: server
// counter snapshot, the partition audit with its follower convergence
// check, and the SLO verdicts.
func (r *Runner) audit(res *Result, wall time.Duration) {
	fc, err := server.DialTimeout(r.Primary, dialTimeout, 30*time.Second)
	if err != nil {
		r.logf("audit: dial %s: %v", r.Primary, err)
		return
	}
	defer fc.Hangup()
	fc.Sync()
	if kv, err := fc.StatsKV(); err == nil {
		res.Server = kv
	} else {
		r.logf("audit: STATS: %v", err)
	}

	if part := res.Partition; part != nil && part.Enabled {
		// SLO recovery measured from the heal: -ack gated writes degrade
		// while the link is dark, so violations before the heal are
		// expected — the contract is that they stop after it.
		ceiling := r.Spec.writeSLOCeiling()
		r.sampMu.Lock()
		samples := append([]writeSample{}, r.writeSamples...)
		r.sampMu.Unlock()
		healOff := time.Duration((part.StartAtMs + part.DarkMs) * float64(time.Millisecond))
		part.SLORecoveryMs, part.SLORecovered = computeRecovery(samples, healOff, wall, ceiling)
		part.Converged = r.checkConverged(fc)
		if !part.StalenessSeen {
			res.SLOViolations = append(res.SLOViolations,
				"partition: dark follower served reads without admitting staleness")
		}
		if !part.Recovered {
			res.SLOViolations = append(res.SLOViolations,
				"partition: follower never caught the primary after the heal")
		}
		if !part.Converged {
			res.SLOViolations = append(res.SLOViolations,
				"partition: fleet did not converge after the heal")
		}
	}

	if r.Spec.SLO != nil {
		for class, ceiling := range r.Spec.SLO.P99Ms {
			op := res.Ops[class]
			if op == nil || op.Count < 20 {
				continue
			}
			if op.P99Ms > ceiling {
				res.SLOViolations = append(res.SLOViolations,
					fmt.Sprintf("%s: p99 %.1fms > ceiling %.1fms", class, op.P99Ms, ceiling))
			}
		}
	}
	sort.Strings(res.SLOViolations)
}

// checkConverged compares the first follower's REPORT at the final LSN
// to the primary's — byte-identical rows mean the fleet converged.
func (r *Runner) checkConverged(fc *server.Client) bool {
	fols := r.Followers
	if len(fols) == 0 {
		return true
	}
	finalLSN, err := fc.LSN()
	if err != nil {
		return false
	}
	want, err := fc.ReportAt(finalLSN)
	if err != nil {
		return false
	}
	cl, err := server.DialTimeout(fols[0], dialTimeout, 30*time.Second)
	if err != nil {
		return false
	}
	defer cl.Hangup()
	got, err := cl.ReportAt(finalLSN)
	if err != nil {
		return false
	}
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i] != got[i] {
			return false
		}
	}
	return true
}
