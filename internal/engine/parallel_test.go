package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// Parallel wave drains: waves with disjoint footprints run concurrently on
// the worker pool; overlapping waves serialize in enqueue order.  These
// tests pin the contract that the outcome is independent of the worker
// bound and that SetBlueprint-mid-drain semantics survive parallelism.
// Run with -race.

const invalidateSrc = `blueprint par
view default
    property uptodate default true
    property hits default ""
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false; hits = "$hits." done
endview
view node
    use_link move propagates outofdate
endview
endblueprint`

// buildForest creates trees disjoint trees (depth levels, fanout children)
// plus extra sibling links inside each tree, and returns the roots.
func buildForest(t *testing.T, e *Engine, trees, depth, fanout int) []meta.Key {
	t.Helper()
	var roots []meta.Key
	for tr := 0; tr < trees; tr++ {
		var level []meta.Key
		root, err := e.CreateOID(fmt.Sprintf("t%02d-root", tr), "node", "tess")
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, root)
		level = []meta.Key{root}
		n := 0
		for d := 1; d < depth; d++ {
			var next []meta.Key
			for _, parent := range level {
				for f := 0; f < fanout; f++ {
					k, err := e.CreateOID(fmt.Sprintf("t%02d-n%03d", tr, n), "node", "tess")
					if err != nil {
						t.Fatal(err)
					}
					n++
					if _, err := e.CreateLink(meta.UseLink, parent, k); err != nil {
						t.Fatal(err)
					}
					next = append(next, k)
				}
			}
			level = next
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	return roots
}

// snapshotProps flattens every OID's property map for comparison.
func snapshotProps(e *Engine) map[string]string {
	state := map[string]string{}
	e.DB().EachOID(func(o *meta.OID) bool {
		for p, v := range o.Props {
			state[o.Key.String()+"/"+p] = v
		}
		return true
	})
	return state
}

// TestParallelDrainMatchesSequential runs the same multi-wave batch under
// worker bounds 1, 2 and 8 and demands identical final state: overlapping
// waves are ordered by enqueue sequence, disjoint waves commute.
func TestParallelDrainMatchesSequential(t *testing.T) {
	run := func(workers int) map[string]string {
		bp, err := bpl.Parse(invalidateSrc)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(meta.NewDB(), bp, WithDrainWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		roots := buildForest(t, e, 6, 3, 2)
		// Three rounds over every root: repeated waves in the same
		// component must serialize, waves on different trees may not.
		for round := 0; round < 3; round++ {
			for _, r := range roots {
				if err := e.Post(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: r}); err != nil {
					t.Fatal(err)
				}
				if err := e.Post(Event{Name: EventOutOfDate, Dir: bpl.DirDown, Target: r}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return snapshotProps(e)
	}
	seq := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, seq) {
			t.Errorf("workers=%d: final state differs from sequential", workers)
		}
	}
}

// TestParallelSetBlueprintMidDrain extends the mid-drain loosening contract
// to a multi-wave queue: waves dequeued after the swap (including the rest
// of the wave that triggered it) run under the loosened policy, while
// everything dequeued before keeps the strict one.  The waves share one
// component, so their order — and therefore the assertion — is exact even
// with a full worker pool.
func TestParallelSetBlueprintMidDrain(t *testing.T) {
	strictCount, err := bpl.Parse(`blueprint strict
view node
    use_link move propagates ping
    when ping do hits = "$hits." done
endview
endblueprint`)
	if err != nil {
		t.Fatal(err)
	}
	loosened, err := bpl.Parse(loosenedChainSrc)
	if err != nil {
		t.Fatal(err)
	}

	tr := &swapTracer{}
	e, err := New(meta.NewDB(), strictCount, WithTracer(tr), WithDrainWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	var keys []meta.Key
	for _, name := range []string{"a", "b", "c"} {
		k, err := e.CreateOID(name, "node", "tess")
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	for i := 0; i+1 < len(keys); i++ {
		if _, err := e.CreateLink(meta.UseLink, keys[i], keys[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	// Swap to the loosened policy when b's first delivery begins: wave 1
	// has already delivered a (strict) and delivers b under the policy it
	// was dequeued with; c of wave 1 and all of waves 2 and 3 dequeue
	// after the swap and run loosened.
	tr.trigger = keys[1].String()
	tr.swap = func() {
		if err := e.SetBlueprint(loosened); err != nil {
			t.Errorf("SetBlueprint mid-drain: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := e.Post(Event{Name: "ping", Dir: bpl.DirDown, Target: keys[0]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	want := map[string]string{"a": ".", "b": ".", "c": ""}
	for i, name := range []string{"a", "b", "c"} {
		if got := prop(t, e, keys[i], "hits"); got != want[name] {
			t.Errorf("%s: hits = %q, want %q", name, got, want[name])
		}
	}
}

// TestParallelDrainHammer floods an engine whose waves split across many
// disjoint components from concurrent posters, with policy swaps and
// queries in flight.  Run with -race; asserts settlement and conservation
// of deliveries.
func TestParallelDrainHammer(t *testing.T) {
	bp, err := bpl.Parse(invalidateSrc)
	if err != nil {
		t.Fatal(err)
	}
	bp2, err := bpl.Parse(`blueprint par2
view default
    property uptodate default true
endview
view node
    use_link move propagates outofdate
endview
endblueprint`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	roots := buildForest(t, e, 8, 3, 2)
	base := e.Stats()

	const posters, rounds = 8, 40
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ev := Event{Name: EventCheckin, Dir: bpl.DirDown, Target: roots[(p+i)%len(roots)]}
				if err := e.PostAndDrain(ev); err != nil {
					t.Errorf("post: %v", err)
					return
				}
				switch i % 4 {
				case 0:
					_ = e.Stats()
					_ = e.QueueLen()
				case 1:
					pol := bp
					if i%2 == 1 {
						pol = bp2
					}
					if err := e.SetBlueprint(pol); err != nil {
						t.Errorf("set blueprint: %v", err)
						return
					}
				case 2:
					if _, err := e.CreateOID(fmt.Sprintf("x%d-%d", p, i), "node", "tess"); err != nil {
						t.Errorf("create: %v", err)
						return
					}
				case 3:
					e.DB().EachOID(func(o *meta.OID) bool { return o.Props["uptodate"] != "false" })
				}
			}
		}(p)
	}
	wg.Wait()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	e.WaitIdle()

	s := e.Stats()
	if s.Posted <= base.Posted || s.Deliveries <= base.Deliveries {
		t.Fatalf("no activity recorded: %+v", s)
	}
	if e.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", e.QueueLen())
	}
	if s.Deliveries < s.Posted {
		t.Fatalf("deliveries %d < posted %d", s.Deliveries, s.Posted)
	}
}

// TestDrainWorkersOptionIndependence pins that footprint conflicts are
// honored: two waves in the same component never interleave even at high
// worker counts.  The rule appends a marker per delivery; with wave
// serialization each of the three waves contributes exactly one marker to
// every node in order.
func TestDrainWorkersOptionIndependence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := newTestEngine(t, `blueprint b
view default
    property seen default ""
    when mark do seen = "$seen$arg1" done
endview
view node
    use_link move propagates mark
endview
endblueprint`, WithDrainWorkers(workers))
		a := mustCreate(t, e, "a", "node")
		b := mustCreate(t, e, "b", "node")
		if _, err := e.CreateLink(meta.UseLink, a, b); err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"1", "2", "3"} {
			if err := e.Post(Event{Name: "mark", Dir: bpl.DirDown, Target: a, Args: []string{m}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		for _, k := range []meta.Key{a, b} {
			if got := prop(t, e, k, "seen"); got != "123" {
				t.Errorf("workers=%d %v seen=%q, want ordered 123", workers, k, got)
			}
		}
	}
}

// TestScheduleRefreshesRunningWaveRoots pins the regression where a
// running wave's cached footprint root survived a mid-drain component
// merge: a link created while wave 1 runs merges its component with
// another block's, and a later wave seeded there must conflict — not run
// concurrently.  White-box: the scheduler state is staged by hand under
// the engine mutex, exactly as a worker owning wave 1 would leave it.
func TestScheduleRefreshesRunningWaveRoots(t *testing.T) {
	e := newTestEngine(t, `blueprint b
view v
endview
endblueprint`, WithDrainWorkers(4))
	a := mustCreate(t, e, "blk-a", "v")
	b := mustCreate(t, e, "blk-b", "v")

	if err := e.Post(Event{Name: "ping", Dir: bpl.DirDown, Target: a}); err != nil {
		t.Fatal(err)
	}
	if err := e.Post(Event{Name: "ping", Dir: bpl.DirDown, Target: b}); err != nil {
		t.Fatal(err)
	}

	// Stage: wave 1 (seed blk-a) is claimed by a worker, its root cached
	// under the current generation.
	e.mu.Lock()
	w1 := e.waves[e.whead]
	w1.root = e.db.Component("blk-a")
	w1.rootSet = true
	w1.running = true
	e.active = 1
	e.compGen = e.db.ComponentGen()
	e.mu.Unlock()

	// Mid-drain, a propagating link merges blk-a and blk-b.
	if _, err := e.DB().AddLink(meta.DeriveLink, a, b, "", []string{"ping"}, nil); err != nil {
		t.Fatal(err)
	}

	// The scheduler must now see both waves in one component and refuse
	// to run wave 2 while wave 1 is in flight.
	e.mu.Lock()
	got := e.scheduleLocked(4, &e.drain)
	w2 := e.waves[e.whead+1]
	if got != nil {
		t.Errorf("scheduled wave seeded on %q concurrently with running wave on %q after merge", got.seed, w1.seed)
	}
	if w2.running {
		t.Error("wave 2 marked running despite merged component")
	}
	if w1.root != w2.root {
		t.Errorf("roots not refreshed after merge: running=%q pending=%q", w1.root, w2.root)
	}
	// Unstage so the engine can settle normally.
	w1.running = false
	e.active = 0
	e.mu.Unlock()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// parkTracer blocks the goroutine that delivers to one OID until released.
type parkTracer struct {
	oid     string
	parked  chan struct{}
	release chan struct{}
}

func (p *parkTracer) Trace(e TraceEntry) {
	if e.Kind == TraceDeliver && e.OID == p.oid {
		close(p.parked)
		<-p.release
	}
}

// TestDrainWaitsForInFlightDrainUnjournaled: a Drain that finds another
// goroutine's drain in flight must not return before its own event has been
// delivered, journal or no journal — a server answers "posted" on that
// return.  The first drain is parked in the middle of a wave; the second
// goroutine posts to another block and drains.
func TestDrainWaitsForInFlightDrainUnjournaled(t *testing.T) {
	tr := &parkTracer{parked: make(chan struct{}), release: make(chan struct{})}
	e := newTestEngine(t, `blueprint b
view v
    property r default none
    when set do r = $arg done
endview
endblueprint`, WithTracer(tr))
	a := mustCreate(t, e, "A", "v")
	b := mustCreate(t, e, "B", "v")
	tr.oid = a.String()

	first := make(chan error, 1)
	go func() {
		first <- e.PostAndDrain(Event{Name: "set", Dir: bpl.DirDown, Target: a, Args: []string{"x"}})
	}()
	<-tr.parked

	type outcome struct {
		r   string
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		err := e.PostAndDrain(Event{Name: "set", Dir: bpl.DirDown, Target: b, Args: []string{"y"}})
		r, _, _ := e.DB().GetProp(b, "r")
		second <- outcome{r, err}
	}()
	// A correct Drain is now blocked and shows nothing; one that yields and
	// returns shows up at once, with B's delivery still queued behind the
	// parked drain.
	var got outcome
	select {
	case got = <-second:
		close(tr.release)
	case <-time.After(100 * time.Millisecond):
		close(tr.release)
		got = <-second
	}
	if got.err != nil || got.r != "y" {
		t.Errorf("second PostAndDrain returned with r = %q, err = %v: its event was not delivered yet", got.r, got.err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}
