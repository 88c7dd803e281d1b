package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// per-wave visited set in the propagation engine, and the zero-copy link
// iteration the engine uses against the naive cloning alternative.

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/meta"
)

// buildDiamondLattice creates k chained diamonds:
//
//	a0 -> {b0, c0} -> a1 -> {b1, c1} -> a2 ...
//
// There are 2^k distinct paths from a0 to ak, so propagation without wave
// dedup re-delivers exponentially while dedup visits each OID once.
func buildDiamondLattice(b *testing.B, eng *Engine, k int) Key {
	b.Helper()
	mk := func(name string) Key {
		key, err := eng.CreateOID(name, "node", "bench")
		if err != nil {
			b.Fatal(err)
		}
		return key
	}
	link := func(from, to Key) {
		if _, err := eng.DB().AddLink(meta.DeriveLink, from, to, "", []string{"outofdate"}, nil); err != nil {
			b.Fatal(err)
		}
	}
	a := mk("a0")
	root := a
	for i := 0; i < k; i++ {
		bn := mk(fmt.Sprintf("b%d", i))
		cn := mk(fmt.Sprintf("c%d", i))
		next := mk(fmt.Sprintf("a%d", i+1))
		link(a, bn)
		link(a, cn)
		link(bn, next)
		link(cn, next)
		a = next
	}
	if err := eng.Drain(); err != nil {
		b.Fatal(err)
	}
	return root
}

// BenchmarkAblationWaveDedup contrasts propagation with the per-wave
// visited set on (production) and off (ablated, hop-capped) over diamond
// lattices.  The deliveries/op metric shows the exponential blowup the
// visited set prevents.
func BenchmarkAblationWaveDedup(b *testing.B) {
	const blueprint = `blueprint ab
view default
    property uptodate default true
    when outofdate do uptodate = false done
endview
view node
endview
endblueprint`
	for _, k := range []int{4, 8, 12} {
		for _, dedup := range []bool{true, false} {
			name := fmt.Sprintf("diamonds=%d/dedup=%v", k, dedup)
			b.Run(name, func(b *testing.B) {
				bp, err := ParseBlueprint(blueprint)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := NewEngine(NewDB(), bp,
					engine.WithWaveDedup(dedup), engine.WithMaxSteps(1<<40))
				if err != nil {
					b.Fatal(err)
				}
				root := buildDiamondLattice(b, eng, k)
				ev := Event{Name: EventOutOfDate, Dir: DirDown, Target: root}
				before := eng.Stats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := eng.PostAndDrain(ev); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				after := eng.Stats()
				b.ReportMetric(float64(after.Deliveries-before.Deliveries)/float64(b.N), "deliveries/op")
			})
		}
	}
}

// BenchmarkAblationLinkIteration contrasts the engine's zero-copy
// EachLinkOf traversal with the naive LinksOf (deep clone) alternative, at
// several link counts per OID.
func BenchmarkAblationLinkIteration(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		db := NewDB()
		hub, err := db.NewVersion("hub", "v")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k, err := db.NewVersion(fmt.Sprintf("n%03d", i), "v")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.AddLink(meta.DeriveLink, hub, k, "t", []string{"outofdate"}, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("each/links=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				count := 0
				db.Head().EachLinkOf(hub, func(l *meta.Link) bool {
					if l.CanPropagate("outofdate") {
						count++
					}
					return true
				})
				if count != n {
					b.Fatal(count)
				}
			}
		})
		b.Run(fmt.Sprintf("clone/links=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				count := 0
				for _, l := range db.Head().LinksOf(hub) {
					if l.CanPropagate("outofdate") {
						count++
					}
				}
				if count != n {
					b.Fatal(count)
				}
			}
		})
	}
}

// BenchmarkAblationDefaultViewMerge measures rule resolution with and
// without a default view, quantifying the cost of the paper's "special
// default view which applies to all the views" merge on the hot path.
func BenchmarkAblationDefaultViewMerge(b *testing.B) {
	withDefault := `blueprint w
view default
    property uptodate default true
    when ckin do uptodate = true done
endview
view node
    property x default a
    when ckin do x = b done
endview
endblueprint`
	withoutDefault := `blueprint wo
view node
    property uptodate default true
    property x default a
    when ckin do uptodate = true; x = b done
endview
endblueprint`
	for name, src := range map[string]string{"merged": withDefault, "flat": withoutDefault} {
		b.Run(name, func(b *testing.B) {
			proj := mustProject(b, src)
			k := mustKey(b, proj.Engine, "blk", "node")
			ev := Event{Name: EventCheckin, Dir: DirDown, Target: k}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := proj.Engine.PostAndDrain(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAblationWaveDedupEquivalence checks the ablated engine still reaches
// the same final state on DAGs (it must — it only does redundant work).
func TestAblationWaveDedupEquivalence(t *testing.T) {
	const blueprint = `blueprint ab
view default
    property uptodate default true
    when outofdate do uptodate = false done
endview
view node
endview
endblueprint`
	run := func(dedup bool) map[string]string {
		bp, err := ParseBlueprint(blueprint)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(NewDB(), bp, engine.WithWaveDedup(dedup))
		if err != nil {
			t.Fatal(err)
		}
		// Small diamond chain.
		mk := func(name string) Key {
			k, err := eng.CreateOID(name, "node", "t")
			if err != nil {
				t.Fatal(err)
			}
			return k
		}
		link := func(a, c Key) {
			if _, err := eng.DB().AddLink(meta.DeriveLink, a, c, "", []string{"outofdate"}, nil); err != nil {
				t.Fatal(err)
			}
		}
		a := mk("a")
		b1, c1, d := mk("b"), mk("c"), mk("d")
		link(a, b1)
		link(a, c1)
		link(b1, d)
		link(c1, d)
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := eng.PostAndDrain(Event{Name: EventOutOfDate, Dir: DirDown, Target: a}); err != nil {
			t.Fatal(err)
		}
		state := map[string]string{}
		eng.DB().Head().EachOID(func(o *OID) bool {
			state[o.Key.String()] = o.Props["uptodate"]
			return true
		})
		return state
	}
	on, off := run(true), run(false)
	for k, v := range on {
		if off[k] != v {
			t.Errorf("state differs at %s: dedup=%q ablated=%q", k, v, off[k])
		}
	}
}
