//go:build !race

package engine

import (
	"testing"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// Allocation budgets for the compiled-policy fast path.  These are
// regression guards, not targets: the budgets have headroom over the
// current numbers (measured well below each budget), but fail loudly if a
// change reintroduces per-delivery policy resolution, closure-based stat
// bumps, or unconditional trace-entry construction.  Excluded under -race:
// the race runtime changes allocation behavior.

// allocEngine builds a three-node use-link chain under a policy whose rule
// assigns on every delivery, the shape of one real invalidation hop.
func allocEngine(t *testing.T) (*Engine, meta.Key) {
	t.Helper()
	bp, err := bpl.Parse(strictChainSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(meta.NewDB(), bp)
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
	return e, keys[0]
}

func TestAllocsPerDelivery(t *testing.T) {
	e, root := allocEngine(t)
	ev := Event{Name: "ping", Dir: bpl.DirDown, Target: root}

	// One wave: three deliveries (rules on each node), two propagations.
	const budget = 24
	got := testing.AllocsPerRun(200, func() {
		if err := e.PostAndDrain(ev); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("PostAndDrain wave: %.1f allocs, budget %d", got, budget)
	}
}

func TestAllocsNonPropagatingEvent(t *testing.T) {
	e, root := allocEngine(t)
	// No rule matches and no link propagates this event: the delivery must
	// cost almost nothing — no policy resolution, no visited set, no trace.
	ev := Event{Name: "noop_event", Dir: bpl.DirDown, Target: root}

	const budget = 6
	got := testing.AllocsPerRun(200, func() {
		if err := e.PostAndDrain(ev); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("non-propagating PostAndDrain: %.1f allocs, budget %d", got, budget)
	}
}

// TestAllocsPerCheckin guards a leaf check-in under the paper's EDTC
// blueprint with the default executor: the schematic's assignments, its
// continuous assignment, the exec netlister firing and the posts that
// invalidate the derived netlist and layout.  An exec environment that
// copies the target's properties, a lookup that escapes to the heap, a
// one-part template copied through a builder, a $oid formatted on every
// read or a deferred exec made a closure breaks the budget: the six left
// are the exec's environment and method value, its argument slice, the
// assigned "$oid changed by $user" and its $oid, and the post's arguments.
func TestAllocsPerCheckin(t *testing.T) {
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := e.CreateOID("alu", "schematic", "tess")
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []string{"netlist", "layout"} {
		k, err := e.CreateOID("alu", view, "tess")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CreateLink(meta.DeriveLink, sch, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	ev := Event{Name: EventCheckin, Dir: bpl.DirDown, Target: sch, User: "tess"}

	const budget = 6
	got := testing.AllocsPerRun(200, func() {
		if err := e.PostAndDrain(ev); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("leaf check-in: %.1f allocs", got)
	if got > budget {
		t.Errorf("leaf check-in: %.1f allocs, budget %d", got, budget)
	}
}

func TestAllocsStatsSnapshot(t *testing.T) {
	e, _ := allocEngine(t)
	if got := testing.AllocsPerRun(100, func() { _ = e.Stats() }); got > 1 {
		t.Errorf("Stats snapshot: %.1f allocs, want <= 1", got)
	}
}
