package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bpl"
	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/meta"
)

// ErrStepLimit reports that Drain stopped because rule-posted events kept
// generating work beyond the configured bound — almost always a feedback
// loop in the blueprint (an event whose rules post the same event back).
var ErrStepLimit = errors.New("engine: step limit exceeded (event feedback loop in blueprint?)")

// policy pairs a loaded blueprint with its compiled index.  The two are
// immutable and always swapped together, so a single atomic pointer load
// gives a delivery a consistent view of the project rules.
type policy struct {
	bp  *bpl.Blueprint
	idx *bpl.Index
}

// Engine is the BluePrint run-time engine bound to one meta-database and
// one loaded blueprint.  It is safe for concurrent use.  Event processing
// is organized in waves (one posted event and its propagation closure):
// deliveries within a wave are FIFO, and waves run one after another in
// enqueue order on the goroutine that owns the drain, as in the paper.
type Engine struct {
	db   *meta.DB
	head *meta.View // db.Head(): the drain's reads see its own writes

	// pol is the current policy.  Drain captures it once per delivery at
	// dequeue time: an event processed after SetBlueprint runs under the
	// new rules even if it was posted under the old ones (the paper's
	// policy loosening applies to queued work), while a delivery already
	// in flight finishes under the policy it started with.
	pol atomic.Pointer[policy]

	mu   sync.Mutex
	cond *sync.Cond // signaled when a drain retires

	// waves[whead:] holds the incomplete waves in enqueue order; the drain
	// delivers and retires the head.
	waves []*wave
	whead int

	pending  []func() // deferred exec-rule invocations (external tools)
	draining bool
	drainGen int64 // bumps when a drain retires; a yielding Drain waits on it

	// queued counts the pending deliveries of every wave.  The drain moves
	// it without mu, so QueueLen reads it lock-free.
	queued atomic.Int64

	stats counters

	executor exec.Executor
	// journal is an atomic pointer because a follower promotion attaches
	// it to an already-serving engine: Drain and enqueueLocked read it
	// without coordination with AttachJournal.
	journal  atomic.Pointer[journal.Writer]
	tracer   Tracer
	tracing  bool // false iff tracer is a NopTracer; gates all entry construction
	clock    func() time.Time
	user     string
	maxSteps int64
	dedup    bool
	maxHops  int
}

// Option configures an Engine.
type Option func(*Engine)

// WithExecutor sets the executor for exec and notify actions.  The default
// discards them.
func WithExecutor(x exec.Executor) Option { return func(e *Engine) { e.executor = x } }

// WithTracer sets the audit tracer.  The default discards trace entries.
func WithTracer(t Tracer) Option { return func(e *Engine) { e.tracer = t } }

// WithJournal attaches an append-only journal.  The journal's database
// recorder captures the mutations themselves (the engine's deliveries
// reach it through the meta.DB methods they call); the engine adds the
// posted-event audit stream — every event entering the queue, the same
// stream a Tracer sees as TraceEnqueue — and, crucially, the durability
// point: Drain commits the journal after the queue settles, so every
// mutation a drain performed is on disk before PostAndDrain returns.
// The journal must be the one whose Open recovered e's database.
func WithJournal(j *journal.Writer) Option { return func(e *Engine) { e.journal.Store(j) } }

// AttachJournal attaches a journal to a live engine — the promotion path,
// where a read-only follower's engine (journal-less by construction: the
// replication loop owned the writer) becomes a primary's.  Safe against
// concurrent Drain and Post; events enqueued after the attach are
// journaled, earlier ones arrived via replication and already are.
func (e *Engine) AttachJournal(j *journal.Writer) { e.journal.Store(j) }

// WithClock sets the time source used for $date; tests inject a fixed
// clock for determinism.
func WithClock(c func() time.Time) Option { return func(e *Engine) { e.clock = c } }

// WithUser sets the default user for events that carry none.
func WithUser(u string) Option { return func(e *Engine) { e.user = u } }

// WithMaxSteps bounds the number of deliveries one Drain may process.
func WithMaxSteps(n int64) Option { return func(e *Engine) { e.maxSteps = n } }

// WithWaveDedup toggles the per-wave visited set that makes each event
// instance visit every OID at most once.  It exists for ablation
// measurements only: with dedup off, propagation on graphs with shared
// substructure (diamonds) re-delivers along every path, bounded only by
// the hop limit.  Production engines must keep it on.
func WithWaveDedup(on bool) Option { return func(e *Engine) { e.dedup = on } }

// WithMaxHops bounds propagation depth per wave; it is the termination
// backstop when wave dedup is ablated away.
func WithMaxHops(n int) Option { return func(e *Engine) { e.maxHops = n } }

// New creates an engine over db with the given blueprint.  The blueprint
// must be free of analyzer errors.
func New(db *meta.DB, bp *bpl.Blueprint, opts ...Option) (*Engine, error) {
	if err := checkBlueprint(bp); err != nil {
		return nil, err
	}
	e := &Engine{
		db:       db,
		head:     db.Head(),
		executor: exec.Nop{},
		tracer:   NopTracer{},
		clock:    time.Now,
		user:     "nobody",
		maxSteps: 1_000_000,
		dedup:    true,
		maxHops:  64,
	}
	e.pol.Store(&policy{bp: bp, idx: bp.Index()})
	e.cond = sync.NewCond(&e.mu)
	for _, o := range opts {
		o(e)
	}
	if e.tracer == nil {
		e.tracer = NopTracer{}
	}
	_, nop := e.tracer.(NopTracer)
	e.tracing = !nop
	return e, nil
}

// checkBlueprint refuses a blueprint the analyzer finds errors in, naming
// the first one.
func checkBlueprint(bp *bpl.Blueprint) error {
	for _, d := range bpl.Analyze(bp) {
		if d.Sev == bpl.SevError {
			return fmt.Errorf("engine: blueprint %s: %s", bp.Name, d)
		}
	}
	return nil
}

// WaitIdle blocks until the engine has no queued deliveries, no deferred
// exec invocations, and no Drain in progress.  A caller that did not run
// the drain itself (the server's SYNC, while other connections post) uses
// it to observe quiescence.
func (e *Engine) WaitIdle() {
	e.mu.Lock()
	for e.whead < len(e.waves) || len(e.pending) > 0 || e.draining {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// DB returns the engine's meta-database.
func (e *Engine) DB() *meta.DB { return e.db }

// Blueprint returns the currently loaded blueprint.
func (e *Engine) Blueprint() *bpl.Blueprint { return e.pol.Load().bp }

// SetBlueprint replaces the project policy — the paper's re-initialization
// of the BluePrint mechanism for a new project phase ("loosening").  Queued
// events are preserved and will be processed under the new rules: Drain
// resolves the policy per delivery at dequeue time, so loosening takes
// effect for all not-yet-delivered events, including mid-drain.
func (e *Engine) SetBlueprint(bp *bpl.Blueprint) error {
	if err := checkBlueprint(bp); err != nil {
		return err
	}
	e.pol.Store(&policy{bp: bp, idx: bp.Index()})
	// A policy reload is rare and already a project-wide event: the point
	// at which the graph index is audited against the link table.
	e.db.AuditGraphIndex()
	return nil
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return e.stats.snapshot()
}

// QueueLen reports the number of pending deliveries.
func (e *Engine) QueueLen() int { return int(e.queued.Load()) }

// ---------------------------------------------------------------------------
// Posting and draining

// Post validates an event and enqueues it for processing.  The target OID
// must exist.  Post does not process the queue; call Drain (or use
// PostAndDrain) to run the engine.
func (e *Engine) Post(ev Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	if !e.head.HasOID(ev.Target) {
		return fmt.Errorf("engine: event %s: target %v: %w", ev.Name, ev.Target, meta.ErrNotFound)
	}
	if ev.User == "" {
		ev.User = e.user
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.enqueueLocked(ev, false)
	return nil
}

// PostAndDrain posts one event and processes the queue to exhaustion.
func (e *Engine) PostAndDrain(ev Event) error {
	if err := e.Post(ev); err != nil {
		return err
	}
	return e.Drain()
}

// wavePool recycles wave descriptors (with their item arrays) once the
// wave's last delivery retires.  visitedPool recycles the per-wave visited
// sets, which are allocated lazily at the wave's first propagation — most
// events never cross a link and then need no set at all.  Sets that grew
// beyond maxPooledVisited are dropped instead of recycled: clearing a
// large-capacity map costs O(capacity) on every later small wave that
// draws it.
var (
	wavePool = sync.Pool{
		New: func() any { return new(wave) },
	}
	visitedPool = sync.Pool{
		New: func() any { return make(map[meta.Key]bool, 8) },
	}
)

const (
	maxPooledVisited = 64
	// maxRetainedQueue bounds the item capacity a recycled wave keeps; a
	// larger backing array (one huge wave) is dropped on completion instead
	// of holding burst-sized memory for the engine's lifetime.
	maxRetainedQueue = 4096
)

// enqueueLocked starts a fresh wave holding one delivery.  Callers hold
// e.mu.
func (e *Engine) enqueueLocked(ev Event, skipRules bool) {
	wv := wavePool.Get().(*wave)
	wv.items = append(wv.items, queueItem{ev: ev, skipRules: skipRules})
	e.waves = append(e.waves, wv)
	e.queued.Add(1)
	e.stats.posted.Add(1)
	if e.tracing {
		e.tracer.Trace(TraceEntry{Kind: TraceEnqueue, OID: ev.Target.String(), Event: ev.Name})
	}
	if j := e.journal.Load(); j != nil {
		j.Record(meta.Record{Seq: e.db.Seq(), Op: meta.OpEvent,
			Args: append([]string{ev.Name, ev.Dir.String(), ev.Target.String(), ev.User}, ev.Args...)})
	}
}

// recycleWave returns a fully delivered wave to the pool.
func recycleWave(w *wave) {
	if m := w.visited; m != nil && len(m) <= maxPooledVisited {
		clear(m)
		visitedPool.Put(m)
	}
	w.visited = nil
	if cap(w.items) > maxRetainedQueue {
		w.items = nil
	} else {
		w.items = w.items[:0]
	}
	w.head = 0
	wavePool.Put(w)
}

// Drain processes queued events until the queue is empty, on the calling
// goroutine: it takes the oldest wave (a posted event and its propagation
// closure), delivers it first-in first-out to exhaustion, retires it and
// takes the next, as in the paper.  Rule-posted events start new waves at
// the queue tail; deferred exec invocations run when the queue is empty.
// Only one Drain runs at a time, and nothing runs beside it: one wave's
// length is the delay it imposes on every wave posted behind it, from
// whatever connection.
//
// A call that yields to an already-running drain waits for that drain to
// retire and then retries, so it returns only once a drain pass of its own
// has covered the caller's events — with or without a journal: a caller
// that returned at once would acknowledge an event another goroutine's
// drain is still delivering, or one posted just as that drain exits.  With
// a journal attached, Drain then commits it — the durability point for
// everything the drain changed, before any "posted" response.
// The wait is for one drain generation at a time, not global idleness, so
// sustained traffic on other connections cannot starve the caller beyond
// what running the drain itself would cost.  Exec handlers must not call
// Drain from inside a delivery — post follow-up events instead, as the
// deferred-invocation design intends.
func (e *Engine) Drain() error {
	for {
		ran, err := e.drainQueue()
		if ran || err != nil {
			if j := e.journal.Load(); j != nil {
				if jerr := j.Commit(); err == nil {
					err = jerr
				}
			}
			return err
		}
		// Yielded to an in-flight drain: wait for that drain to retire,
		// then retry.  If the queue is empty by then, the retry is a
		// trivial pass; if another goroutine grabs the baton first, we
		// wait out its generation too.
		e.mu.Lock()
		gen := e.drainGen
		for e.draining && e.drainGen == gen {
			e.cond.Wait()
		}
		e.mu.Unlock()
	}
}

// drainQueue runs the drain loop; ran reports whether this call owned the
// drain (false when it yielded to one already in flight).
func (e *Engine) drainQueue() (ran bool, _ error) {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return false, nil
	}
	e.draining = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.draining = false
		e.drainGen++
		e.cond.Broadcast()
		e.mu.Unlock()
	}()

	var steps int64 // deliveries and exec invocations of this Drain
	for {
		var w *wave
		var run func()
		e.mu.Lock()
		if e.whead < len(e.waves) {
			w = e.waves[e.whead]
		} else if len(e.pending) > 0 {
			// Deferred exec-rule invocations.  In the paper these are
			// external wrapper processes: the events they post arrive after
			// every queued wave has fully propagated, never inside one.
			run = e.pending[0]
			e.pending = e.pending[1:]
		}
		e.mu.Unlock()
		switch {
		case w != nil:
			if e.runWave(w, &steps) {
				e.retireWave(w)
				continue
			}
		case run != nil:
			if steps++; steps <= e.maxSteps {
				run()
				continue
			}
		default:
			return true, nil
		}
		// The rest of the wave, and every wave behind it, stays queued for
		// the next Drain.
		return true, fmt.Errorf("%w: after %d deliveries", ErrStepLimit, steps-1)
	}
}

// runWave delivers the head wave's items FIFO and reports whether the wave
// was exhausted (false: the step limit stopped it).  Only the drain touches
// a queued wave's items, head, visited set and hops scratch.
func (e *Engine) runWave(w *wave, steps *int64) bool {
	for w.head < len(w.items) {
		// The consumed slot is zeroed to release its references.
		item := w.items[w.head]
		w.items[w.head] = queueItem{}
		w.head++
		e.queued.Add(-1)
		if *steps++; *steps > e.maxSteps {
			// The dequeued item is dropped, not delivered.
			return false
		}
		// The policy is resolved at dequeue time, not post time: see the
		// field comment on pol for the SetBlueprint semantics.
		e.deliver(e.pol.Load(), item, w)
	}
	return true
}

// retireWave removes the exhausted head wave from the queue and recycles it.
func (e *Engine) retireWave(w *wave) {
	e.mu.Lock()
	e.waves[e.whead] = nil
	e.whead++
	if e.whead == len(e.waves) {
		// Reuse the backing array for the next burst, unless it grew
		// beyond the retention bound.
		if cap(e.waves) > maxRetainedQueue {
			e.waves = nil
		} else {
			e.waves = e.waves[:0]
		}
		e.whead = 0
	}
	e.mu.Unlock()
	recycleWave(w)
}

// deliver processes one queued delivery: run the matching run-time rules on
// the target OID (unless propagate-only), then propagate the event across
// the target's links within the owning wave.
func (e *Engine) deliver(pol *policy, item queueItem, w *wave) {
	ev := item.ev
	e.stats.deliveries.Add(1)
	if !e.head.HasOID(ev.Target) {
		e.stats.drops.Add(1)
		if e.tracing {
			e.tracer.Trace(TraceEntry{Kind: TraceDrop, OID: ev.Target.String(), Event: ev.Name, Detail: "target missing"})
		}
		return
	}
	if e.tracing {
		e.tracer.Trace(TraceEntry{Kind: TraceDeliver, OID: ev.Target.String(), Event: ev.Name})
	}

	if !item.skipRules {
		e.runRules(pol, ev)
	}
	e.propagate(item, w)
}

// runRules executes the run-time rules matching the event on its target,
// in the paper's phase order: assigns, continuous assignments, execs and
// notifies, posts.  The compiled program has the actions pre-partitioned
// by phase, so no per-delivery scan of the rule set is needed.
func (e *Engine) runRules(pol *policy, ev Event) {
	prog := pol.idx.Program(ev.Target.View, ev.Name)
	lets := pol.idx.Lets(ev.Target.View)
	if prog != nil {
		e.stats.rulesFired.Add(int64(len(prog.Rules)))
	}

	// Phases 1 and 2: property assignments, then re-evaluation of the
	// continuous assignments — batched into one locked database
	// round-trip (UpdateOID) instead of a GetProp/SetProp pair per value.
	if (prog != nil && len(prog.Assigns) > 0) || len(lets) > 0 {
		e.applyAssignsAndLets(ev, prog, lets)
	}
	if prog == nil {
		return
	}

	var lookup bpl.LookupFunc
	if len(prog.Execs) > 0 || len(prog.Posts) > 0 {
		lookup = e.lookupFor(ev)
	}

	// Phase 3: exec and notify actions.  Exec invocations are launched
	// like the paper's wrapper shell scripts: the environment is captured
	// now, but the external tool effectively runs after the current event
	// wave has settled (the engine defers the call until the queue is
	// empty), so a tool triggered by a check-in is not caught by that
	// check-in's own invalidation wave.
	for _, a := range prog.Execs {
		switch act := a.(type) {
		case *bpl.ExecAction:
			inv := exec.Invocation{
				Script: act.Argv[0].Expand(lookup),
				Env:    e.envSnapshot(ev),
			}
			for _, t := range act.Argv[1:] {
				inv.Args = append(inv.Args, t.Expand(lookup))
			}
			e.stats.execs.Add(1)
			if e.tracing {
				e.tracer.Trace(TraceEntry{Kind: TraceExec, OID: ev.Target.String(), Event: ev.Name,
					Detail: inv.String()})
			}
			e.mu.Lock()
			e.pending = append(e.pending, func() {
				if err := e.executor.Exec(inv); err != nil {
					e.stats.execErrors.Add(1)
					if e.tracing {
						e.traceError(ev, fmt.Sprintf("exec %s: %v", inv.Script, err))
					}
				}
			})
			e.mu.Unlock()
		case *bpl.NotifyAction:
			msg := act.Message.Expand(lookup)
			e.stats.notifies.Add(1)
			if e.tracing {
				e.tracer.Trace(TraceEntry{Kind: TraceNotify, OID: ev.Target.String(), Event: ev.Name,
					Detail: msg})
			}
			if err := e.executor.Notify(msg); err != nil {
				e.stats.execErrors.Add(1)
				if e.tracing {
					e.traceError(ev, fmt.Sprintf("notify: %v", err))
				}
			}
		}
	}

	// Phase 4: post actions.
	for _, pa := range prog.Posts {
		e.execPost(ev, pa, lookup)
	}
}

// applyAssignsAndLets runs delivery phases 1 and 2 on the target OID in a
// single write-locked round-trip.  Phase-1 assignments are visible to the
// phase-2 continuous assignments (and to later phases) because both read
// and write the live property map.  Trace entries are recorded inside the
// critical section (only when tracing) and emitted after it, in execution
// order, so a slow tracer never extends the database lock hold time.
func (e *Engine) applyAssignsAndLets(ev Event, prog *bpl.Program, lets []*bpl.LetDecl) {
	type rec struct {
		kind   TraceKind
		detail string
	}
	var recs []rec
	err := e.db.UpdateOID(ev.Target, func(o *meta.OID) {
		lookup := e.lookupOver(ev, o.Props)
		if prog != nil {
			for _, aa := range prog.Assigns {
				val := aa.Value.Expand(lookup)
				if verr := meta.ValidateName(aa.Prop); verr != nil {
					if e.tracing {
						recs = append(recs, rec{TraceError,
							fmt.Sprintf("assign %s: property: %v", aa.Prop, verr)})
					}
					continue
				}
				o.Props[aa.Prop] = val
				e.stats.assigns.Add(1)
				if e.tracing {
					recs = append(recs, rec{TraceAssign, aa.Prop + " = " + val})
				}
			}
		}
		for _, l := range lets {
			val := "false"
			if l.Expr.Eval(lookup) {
				val = "true"
			}
			e.stats.letEvals.Add(1)
			if old, had := o.Props[l.Name]; had && old == val {
				continue
			}
			if meta.ValidateName(l.Name) != nil {
				continue
			}
			o.Props[l.Name] = val
			if e.tracing {
				recs = append(recs, rec{TraceLet, l.Name + " = " + val})
			}
		}
	})
	if err != nil {
		// The target vanished between the delivery check and the update
		// (concurrent prune); drop the phases silently like the unbatched
		// path did.
		return
	}
	if e.tracing {
		oid := ev.Target.String()
		for _, r := range recs {
			switch r.kind {
			case TraceLet:
				e.tracer.Trace(TraceEntry{Kind: TraceLet, OID: oid, Detail: r.detail})
			default:
				e.tracer.Trace(TraceEntry{Kind: r.kind, OID: oid, Event: ev.Name, Detail: r.detail})
			}
		}
	}
}

// execPost runs one post action in the context of event ev.
func (e *Engine) execPost(ev Event, pa *bpl.PostAction, lookup bpl.LookupFunc) {
	var args []string
	if len(pa.Args) > 0 {
		args = make([]string, 0, len(pa.Args))
		for _, t := range pa.Args {
			args = append(args, t.Expand(lookup))
		}
	}
	nev := Event{Name: pa.Event, Dir: pa.Dir, Args: args, User: ev.User}
	skipRules := false
	if pa.ToView != "" {
		// Targeted post: address the latest version of the named view of
		// the same block; rules run there.
		target, err := e.head.Latest(ev.Target.Block, pa.ToView)
		if err != nil {
			if e.tracing {
				e.traceError(ev, fmt.Sprintf("post %s to %s: no such OID", pa.Event, pa.ToView))
			}
			return
		}
		nev.Target = target
	} else {
		// Direct propagation from the current OID: local rules do not run
		// again here; the event only travels outward.
		nev.Target = ev.Target
		skipRules = true
	}
	e.mu.Lock()
	e.enqueueLocked(nev, skipRules)
	e.mu.Unlock()
	e.stats.posts.Add(1)
	if e.tracing {
		e.tracer.Trace(TraceEntry{Kind: TracePost, OID: nev.Target.String(), Event: pa.Event,
			Detail: "dir " + pa.Dir.String()})
	}
}

// reevalLets re-evaluates every continuous assignment of the OID's view and
// stores the boolean results as properties.  ev supplies the variable
// context; CreateOID passes a synthetic create event.
func (e *Engine) reevalLets(idx *bpl.Index, ev Event) {
	lets := idx.Lets(ev.Target.View)
	if len(lets) == 0 {
		return
	}
	e.applyAssignsAndLets(ev, nil, lets)
}

// propagate crosses the target's links with the delivered event, enqueuing
// continuation deliveries within the same wave.  Only the drain touches a
// queued wave, so the visited set and item queue need no locking.
func (e *Engine) propagate(item queueItem, w *wave) {
	ev := item.ev
	hops := w.hops[:0]
	var blocked int64
	e.head.EachLinkOf(ev.Target, func(l *meta.Link) bool {
		if !l.CanPropagate(ev.Name) {
			blocked++
			return true
		}
		var next meta.Key
		switch {
		case ev.Dir == bpl.DirDown && l.From == ev.Target:
			next = l.To
		case ev.Dir == bpl.DirUp && l.To == ev.Target:
			next = l.From
		default:
			blocked++
			return true
		}
		hops = append(hops, next)
		return true
	})
	w.hops = hops
	if blocked > 0 {
		e.stats.blocked.Add(blocked)
	}
	if len(hops) == 0 {
		return
	}

	var drops, propagations int64
	if e.dedup && w.visited == nil {
		// First propagation of the wave.  FIFO order guarantees it happens
		// at the wave's origin, so marking the current target seeds the
		// set exactly as marking at enqueue time would.
		w.visited = visitedPool.Get().(map[meta.Key]bool)
		w.visited[ev.Target] = true
	}
	for _, to := range hops {
		if e.dedup {
			if w.visited[to] {
				drops++
				if e.tracing {
					e.tracer.Trace(TraceEntry{Kind: TraceDrop, OID: to.String(), Event: ev.Name,
						Detail: "already visited in wave"})
				}
				continue
			}
			w.visited[to] = true
		} else if item.hops >= e.maxHops {
			drops++
			if e.tracing {
				e.tracer.Trace(TraceEntry{Kind: TraceDrop, OID: to.String(), Event: ev.Name,
					Detail: "hop limit (dedup ablated)"})
			}
			continue
		}
		nev := ev
		nev.Target = to
		w.items = append(w.items, queueItem{ev: nev, hops: item.hops + 1})
		propagations++
		if e.tracing {
			e.tracer.Trace(TraceEntry{Kind: TracePropagate, OID: to.String(), Event: ev.Name,
				Detail: "from " + ev.Target.String()})
		}
	}
	if drops > 0 {
		e.stats.drops.Add(drops)
	}
	e.queued.Add(propagations)
	e.stats.propagations.Add(propagations)
}

func (e *Engine) traceError(ev Event, detail string) {
	e.tracer.Trace(TraceEntry{Kind: TraceError, OID: ev.Target.String(), Event: ev.Name, Detail: detail})
}
