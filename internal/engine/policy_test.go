package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// Policy-snapshot semantics: Drain resolves the blueprint (and its compiled
// index) once per delivery at dequeue time.  A SetBlueprint mid-drain — the
// paper's policy loosening — must govern every event dequeued afterwards,
// while a delivery already started keeps the policy it was dequeued under.

const strictChainSrc = `blueprint strict
view node
    use_link move propagates ping
    when ping do hit = yes done
endview
endblueprint`

const loosenedChainSrc = `blueprint loosened
view node
    use_link move propagates ping
endview
endblueprint`

// swapTracer calls swap exactly once, on the first delivery at trigger.
type swapTracer struct {
	trigger string
	swap    func()
	mu      sync.Mutex
	done    bool
}

func (t *swapTracer) Trace(e TraceEntry) {
	if e.Kind != TraceDeliver || e.OID != t.trigger {
		return
	}
	t.mu.Lock()
	fired := t.done
	t.done = true
	t.mu.Unlock()
	if !fired {
		t.swap()
	}
}

func TestSetBlueprintMidDrain(t *testing.T) {
	strict, err := bpl.Parse(strictChainSrc)
	if err != nil {
		t.Fatal(err)
	}
	loosened, err := bpl.Parse(loosenedChainSrc)
	if err != nil {
		t.Fatal(err)
	}

	tr := &swapTracer{}
	e, err := New(meta.NewDB(), strict, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	tr.swap = func() {
		if err := e.SetBlueprint(loosened); err != nil {
			t.Errorf("SetBlueprint mid-drain: %v", err)
		}
	}

	// A use-link chain a -> b -> c; ping propagates down it.
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

	// Swap to the loosened policy when b's delivery begins.  b was dequeued
	// under the strict policy, so its rule still fires; c is dequeued after
	// the swap and must run under the loosened policy (no rule).
	tr.trigger = keys[1].String()
	if err := e.PostAndDrain(Event{Name: "ping", Dir: bpl.DirDown, Target: keys[0]}); err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{"a": true, "b": true, "c": false}
	for i, name := range []string{"a", "b", "c"} {
		_, hit, err := e.DB().Head().GetProp(keys[i], "hit")
		if err != nil {
			t.Fatal(err)
		}
		if hit != want[name] {
			t.Errorf("%s: hit=%v, want %v", name, hit, want[name])
		}
	}
	if got := e.Blueprint(); got != loosened {
		t.Errorf("Blueprint() = %v, want the loosened blueprint", got.Name)
	}
}

// TestConcurrentEngineAccess hammers the engine's public surface from many
// goroutines; run with -race.  It asserts no deadlock, no panic, and a
// consistent final state: after everything settles, every posted event was
// delivered.
func TestConcurrentEngineAccess(t *testing.T) {
	strict, err := bpl.Parse(strictChainSrc)
	if err != nil {
		t.Fatal(err)
	}
	loosened, err := bpl.Parse(loosenedChainSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(meta.NewDB(), strict)
	if err != nil {
		t.Fatal(err)
	}
	var keys []meta.Key
	for i := 0; i < 4; i++ {
		k, err := e.CreateOID(fmt.Sprintf("blk%d", i), "node", "tess")
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
	base := e.Stats()

	const posters, rounds = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ev := Event{Name: "ping", Dir: bpl.DirDown, Target: keys[(p+i)%len(keys)]}
				if err := e.PostAndDrain(ev); err != nil {
					t.Errorf("post: %v", err)
					return
				}
				switch i % 3 {
				case 0:
					_ = e.Stats()
					_ = e.QueueLen()
				case 1:
					bp := strict
					if i%2 == 1 {
						bp = loosened
					}
					if err := e.SetBlueprint(bp); err != nil {
						t.Errorf("set blueprint: %v", err)
						return
					}
				case 2:
					_ = e.Blueprint()
					if _, err := e.CreateOID(fmt.Sprintf("extra%d-%d", p, i), "node", "tess"); err != nil {
						t.Errorf("create: %v", err)
						return
					}
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
	// Every posted delivery was either delivered in place or dropped as a
	// duplicate within its wave; nothing may be lost.
	if s.Deliveries < s.Posted {
		t.Fatalf("deliveries %d < posted %d", s.Deliveries, s.Posted)
	}
}
