package engine

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bpl"
	"repro/internal/exec"
	"repro/internal/meta"
)

// ErrStepLimit reports that Drain stopped because rule-posted events kept
// generating work beyond the configured bound — almost always a feedback
// loop in the blueprint (an event whose rules post the same event back).
var ErrStepLimit = errors.New("engine: step limit exceeded (event feedback loop in blueprint?)")

// Engine is the BluePrint run-time engine bound to one meta-database and
// one loaded blueprint.  It is safe for concurrent use.  Event processing
// is organized in waves (one posted event and its propagation closure):
// deliveries within a wave are FIFO, and waves run one after another in
// enqueue order on the goroutine that owns the drain, as in the paper.
type Engine struct {
	db   *meta.DB
	head *meta.View // db.Head(): the drain's reads see its own writes

	// pol is the current policy, the loaded blueprint's compiled index
	// (which names its blueprint).  Drain captures it once per delivery at
	// dequeue time: an event processed after SetBlueprint runs under the
	// new rules even if it was posted under the old ones (the paper's
	// policy loosening applies to queued work), while a delivery already
	// in flight finishes under the policy it started with.
	pol atomic.Pointer[bpl.Index]

	mu   sync.Mutex
	cond *sync.Cond // signaled when a drain retires

	// waves[whead:] holds the incomplete waves in enqueue order; the drain
	// delivers and retires the head.
	waves []*wave
	whead int

	// pending[phead:] are the deferred exec-rule invocations (external
	// tools), run oldest first.
	pending  []pendingExec
	phead    int
	draining bool
	drainGen int64 // bumps when a drain retires; a yielding Drain waits on it

	// queued counts the pending deliveries of every wave.  The drain moves
	// it without mu, so QueueLen reads it lock-free.
	queued atomic.Int64

	stats counters

	executor exec.Executor
	tracer   Tracer
	tracing  bool // false iff tracer is a NopTracer; gates all entry construction
	clock    func() time.Time
	user     string
	maxSteps int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithExecutor sets the executor for exec and notify actions.  The default
// discards them.
func WithExecutor(x exec.Executor) Option { return func(e *Engine) { e.executor = x } }

// WithTracer sets the audit tracer.  The default discards trace entries.
func WithTracer(t Tracer) Option { return func(e *Engine) { e.tracer = t } }

// WithJournal does nothing.  The engine journals through its database:
// whatever recorder the database has attached (journal.Open attaches its
// writer, a promotion the promoted follower's) receives the mutations the
// deliveries make and the posted-event audit stream (meta.DB.RecordEvent).
// It stays for the benchmark harness, which still passes it.
func WithJournal(meta.Recorder) Option { return func(*Engine) {} }

// WithClock sets the time source used for $date; tests inject a fixed
// clock for determinism.
func WithClock(c func() time.Time) Option { return func(e *Engine) { e.clock = c } }

// WithUser sets the default user for events that carry none.
func WithUser(u string) Option { return func(e *Engine) { e.user = u } }

// WithMaxSteps bounds the number of deliveries one Drain may process.
func WithMaxSteps(n int64) Option { return func(e *Engine) { e.maxSteps = n } }

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
	}
	e.pol.Store(bp.Index())
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
	for e.whead < len(e.waves) || e.phead < len(e.pending) || e.draining {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// DB returns the engine's meta-database.
func (e *Engine) DB() *meta.DB { return e.db }

// Blueprint returns the currently loaded blueprint.
func (e *Engine) Blueprint() *bpl.Blueprint { return e.pol.Load().Blueprint() }

// SetBlueprint replaces the project policy — the paper's re-initialization
// of the BluePrint mechanism for a new project phase ("loosening").  Queued
// events are preserved and will be processed under the new rules: Drain
// resolves the policy per delivery at dequeue time, so loosening takes
// effect for all not-yet-delivered events, including mid-drain.
func (e *Engine) SetBlueprint(bp *bpl.Blueprint) error {
	if err := checkBlueprint(bp); err != nil {
		return err
	}
	e.pol.Store(bp.Index())
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
	e.db.RecordEvent(func() []string {
		return append([]string{ev.Name, ev.Dir.String(), ev.Target.String(), ev.User}, ev.Args...)
	})
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
// has covered the caller's events: a caller that returned at once would
// acknowledge an event another goroutine's drain is still delivering, or
// one posted just as that drain exits.  What the drain changed is
// recorded in the database's journal, if one is attached, and left for
// the caller to commit.  The wait is for one drain generation at a time,
// not global idleness, so sustained traffic on other connections cannot
// starve the caller beyond what running the drain itself would cost.  Exec handlers
// must not call Drain from inside a delivery — post follow-up events
// instead, as the deferred-invocation design intends.
func (e *Engine) Drain() error {
	for {
		ran, err := e.drainQueue()
		if ran || err != nil {
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
		var run pendingExec
		e.mu.Lock()
		if e.whead < len(e.waves) {
			w = e.waves[e.whead]
		} else if e.phead < len(e.pending) {
			// Deferred exec-rule invocations.  In the paper these are
			// external wrapper processes: the events they post arrive after
			// every queued wave has fully propagated, never inside one.
			run, e.pending[e.phead] = e.pending[e.phead], pendingExec{}
			if e.phead++; e.phead == len(e.pending) {
				e.pending, e.phead = e.pending[:0], 0
			}
		}
		e.mu.Unlock()
		switch {
		case w != nil:
			if e.runWave(w, &steps) {
				e.retireWave(w)
				continue
			}
		case run.inv.Env != nil:
			if steps++; steps <= e.maxSteps {
				e.runExec(run)
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
// a queued wave's items, head and visited set.
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
func (e *Engine) deliver(pol *bpl.Index, item queueItem, w *wave) {
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
	e.propagate(ev, w)
}

// runRules executes the run-time rules matching the event on its target,
// in the paper's phase order: assigns, continuous assignments, execs and
// notifies, posts.  The compiled program has the actions pre-partitioned
// by phase, so no per-delivery scan of the rule set is needed.
func (e *Engine) runRules(pol *bpl.Index, ev Event) {
	prog := pol.Program(ev.Target.View, ev.Name)
	lets := pol.Lets(ev.Target.View)
	if prog != nil {
		e.stats.rulesFired.Add(int64(len(prog.Rules)))
	}

	// Phases 1 and 2: property assignments, then re-evaluation of the
	// continuous assignments — batched into one locked database
	// round-trip (UpdateOID) instead of a GetProp/SetProp pair per value.
	live := vars{ev: ev, head: e.head, now: e.clock}
	if (prog != nil && len(prog.Assigns) > 0) || len(lets) > 0 {
		// Its one error, a missing target, the delivery check has ruled out.
		_ = e.applyAssignsAndLets(&live, nil, prog, lets)
	}
	if prog == nil {
		return
	}
	lookup := live.get

	// Phase 3: exec and notify actions.  Exec invocations are launched
	// like the paper's wrapper shell scripts: the environment is captured
	// now, but the external tool effectively runs after the current event
	// wave has settled (the engine defers the call until the queue is
	// empty), so a tool triggered by a check-in is not caught by that
	// check-in's own invalidation wave.  The environment keeps the
	// target's published property set, which no later write changes.
	for _, a := range prog.Execs {
		switch act := a.(type) {
		case *bpl.ExecAction:
			inv := exec.Invocation{Script: act.Argv[0].Expand(lookup)}
			for _, t := range act.Argv[1:] {
				inv.Args = append(inv.Args, t.Expand(lookup))
			}
			fired := &vars{ev: ev, at: e.clock(), oid: live.oid}
			_ = e.head.WithOID(ev.Target, func(o *meta.OID) { fired.fired = o.Props })
			inv.Env = fired.get
			e.stats.execs.Add(1)
			if e.tracing {
				e.tracer.Trace(TraceEntry{Kind: TraceExec, OID: ev.Target.String(), Event: ev.Name,
					Detail: inv.String()})
			}
			e.mu.Lock()
			e.pending = append(e.pending, pendingExec{inv, ev})
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

// pendingExec is an exec rule's invocation, deferred until the waves have
// settled, and the event that fired it.
type pendingExec struct {
	inv exec.Invocation
	ev  Event
}

// runExec runs a deferred exec rule.
func (e *Engine) runExec(p pendingExec) {
	if err := e.executor.Exec(p.inv); err != nil {
		e.stats.execErrors.Add(1)
		if e.tracing {
			e.traceError(p.ev, fmt.Sprintf("exec %s: %v", p.inv.Script, err))
		}
	}
}

// applyAssignsAndLets runs delivery phases 1 and 2 on the target OID in a
// single write-locked round-trip.  Phase-1 assignments are visible to the
// phase-2 continuous assignments (and to later phases) because both read
// and write the live property map.  Trace entries are recorded inside the
// critical section (only when tracing) and emitted after it, in execution
// order, so a slow tracer never extends the database lock hold time.
// seed, CreateOID's template values, is written into the map first.  The
// variables resolve as r's would, over the in-flight map, and a $oid they
// format is left in r for the phases after.
func (e *Engine) applyAssignsAndLets(r *vars, seed map[string]string, prog *bpl.Program, lets []*bpl.LetDecl) error {
	ev := r.ev
	type rec struct {
		kind   TraceKind
		detail string
	}
	var recs []rec
	err := e.db.UpdateOID(ev.Target, func(props map[string]string) {
		maps.Copy(props, seed)
		inFlight := vars{ev: ev, props: props, now: r.now, oid: r.oid}
		lookup := inFlight.get
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
				props[aa.Prop] = val
				e.stats.assigns.Add(1)
				if e.tracing {
					recs = append(recs, rec{TraceAssign, aa.Prop + " = " + val})
				}
			}
		}
		for _, l := range lets {
			val := "false"
			if bpl.Eval(l.Expr, lookup) {
				val = "true"
			}
			e.stats.letEvals.Add(1)
			if old, had := props[l.Name]; had && old == val {
				continue
			}
			if meta.ValidateName(l.Name) != nil {
				continue
			}
			props[l.Name] = val
			if e.tracing {
				recs = append(recs, rec{TraceLet, l.Name + " = " + val})
			}
		}
		r.oid = inFlight.oid
	})
	if err != nil {
		return err
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
	return nil
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

// propagate crosses the target's links with the delivered event, enqueuing
// continuation deliveries within the same wave.  Only the drain touches a
// queued wave, so the visited set and item queue need no locking.
func (e *Engine) propagate(ev Event, w *wave) {
	var blocked, drops, propagations int64
	e.head.EachLinkOf(ev.Target, func(l *meta.Link) bool {
		var to meta.Key
		switch {
		case !l.CanPropagate(ev.Name):
			blocked++
			return true
		case ev.Dir == bpl.DirDown && l.From == ev.Target:
			to = l.To
		case ev.Dir == bpl.DirUp && l.To == ev.Target:
			to = l.From
		default:
			blocked++
			return true
		}
		if w.visited == nil {
			// First propagation of the wave.  FIFO order guarantees it
			// happens at the wave's origin, so marking the current target
			// seeds the set exactly as marking at enqueue time would.
			w.visited = visitedPool.Get().(map[meta.Key]bool)
			w.visited[ev.Target] = true
		}
		if w.visited[to] {
			drops++
			if e.tracing {
				e.tracer.Trace(TraceEntry{Kind: TraceDrop, OID: to.String(), Event: ev.Name,
					Detail: "already visited in wave"})
			}
			return true
		}
		w.visited[to] = true
		nev := ev
		nev.Target = to
		w.items = append(w.items, queueItem{ev: nev})
		propagations++
		if e.tracing {
			e.tracer.Trace(TraceEntry{Kind: TracePropagate, OID: to.String(), Event: ev.Name,
				Detail: "from " + ev.Target.String()})
		}
		return true
	})
	if blocked > 0 {
		e.stats.blocked.Add(blocked)
	}
	if drops > 0 {
		e.stats.drops.Add(drops)
	}
	if propagations > 0 {
		e.queued.Add(propagations)
		e.stats.propagations.Add(propagations)
	}
}

func (e *Engine) traceError(ev Event, detail string) {
	e.tracer.Trace(TraceEntry{Kind: TraceError, OID: ev.Target.String(), Event: ev.Name, Detail: detail})
}
