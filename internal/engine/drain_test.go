package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// The drain under concurrent posters: waves run one at a time, in enqueue
// order, on whichever caller owns the drain; a caller that finds a drain in
// flight waits for a pass of its own; SetBlueprint mid-drain governs what is
// dequeued after it.  Run with -race.

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

// TestParallelSetBlueprintMidDrain extends the mid-drain loosening contract
// to a multi-wave queue: waves dequeued after the swap (including the rest
// of the wave that triggered it) run under the loosened policy, while
// everything dequeued before keeps the strict one.
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
	e, err := New(meta.NewDB(), strictCount, WithTracer(tr))
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

// TestParallelDrainHammer floods an engine with waves on eight disjoint
// trees from concurrent posters, with policy swaps and queries in flight.
// Run with -race; asserts settlement and conservation of deliveries.
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
					e.DB().Head().EachOID(func(o *meta.OID) bool { v, _ := o.Props.Get("uptodate"); return v != "false" })
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
		r, _, _ := e.DB().Head().GetProp(b, "r")
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

// TestWavesRunContiguousInEnqueueOrder is the serial contract: whatever
// goroutines post and drain, the engine delivers one wave at a time, oldest
// first.  Eight posters check in the roots of eight disjoint 15-node trees;
// each check-in is a one-delivery wave that posts a 15-delivery outofdate
// wave.  In the trace, the deliveries of one wave must form one unbroken
// run, and the runs must come in the order the waves were enqueued.
func TestWavesRunContiguousInEnqueueOrder(t *testing.T) {
	bp, err := bpl.Parse(invalidateSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr := &BufferTracer{}
	e, err := New(meta.NewDB(), bp, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	roots := buildForest(t, e, 8, 4, 2)
	tr.Reset()

	const rounds = 10
	var wg sync.WaitGroup
	for _, r := range roots {
		wg.Add(1)
		go func(r meta.Key) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: r}); err != nil {
					t.Errorf("post: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// A wave is named by its tree and event: a tree's poster waits for its
	// check-in to drain before the next, so one tree never has two waves of
	// one name queued, nor two of one name in a row.
	name := func(en TraceEntry) string {
		tree, _, _ := strings.Cut(en.OID, "-")
		return tree + " " + en.Event
	}
	var enqueued, ran []string
	for _, en := range tr.Entries() {
		switch en.Kind {
		case TraceEnqueue:
			enqueued = append(enqueued, name(en))
		case TraceDeliver:
			if n := name(en); len(ran) == 0 || ran[len(ran)-1] != n {
				ran = append(ran, n)
			}
		}
	}
	if want := 2 * rounds * len(roots); len(enqueued) != want {
		t.Fatalf("%d waves enqueued, want %d", len(enqueued), want)
	}
	if !slices.Equal(ran, enqueued) {
		i := 0
		for i < len(ran) && i < len(enqueued) && ran[i] == enqueued[i] {
			i++
		}
		t.Fatalf("%d delivery runs for %d waves; from wave %d on: enqueued %q, delivered %q",
			len(ran), len(enqueued), i, enqueued[i:min(i+3, len(enqueued))], ran[i:min(i+3, len(ran))])
	}
}
