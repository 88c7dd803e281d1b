package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// randomEngine builds an engine over a random link graph with the tiny
// invalidation blueprint and returns the keys.
func randomEngine(t *testing.T, rng *rand.Rand, n, m int) (*Engine, []meta.Key) {
	t.Helper()
	e := newTestEngine(t, `blueprint q
view default
    property uptodate default true
    property hits default "0"
    when outofdate do uptodate = false done
endview
view v
endview
endblueprint`)
	keys := make([]meta.Key, n)
	for i := range keys {
		keys[i] = mustCreate(t, e, fmt.Sprintf("b%02d", i), "v")
	}
	for i := 0; i < m; i++ {
		a, b := keys[rng.Intn(n)], keys[rng.Intn(n)]
		if a == b {
			continue
		}
		if _, err := e.DB().AddLink(meta.DeriveLink, a, b, "", []string{"outofdate"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return e, keys
}

// TestQuickPropagationTerminatesAndMatchesReachability: on arbitrary cyclic
// graphs, an outofdate wave terminates and invalidates exactly the
// downstream closure of the origin.
func TestQuickPropagationTerminatesAndMatchesReachability(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%15 + 2
		m := int(mRaw) % 50
		e, keys := randomEngine(t, rng, n, m)
		origin := keys[rng.Intn(len(keys))]
		if err := e.PostAndDrain(Event{Name: EventOutOfDate, Dir: bpl.DirDown, Target: origin}); err != nil {
			t.Log(err)
			return false
		}
		expect := map[meta.Key]bool{origin: true}
		for _, k := range e.DB().Head().Dependents(origin, meta.FollowAllLinks) {
			expect[k] = true
		}
		for _, k := range keys {
			got, _, _ := e.DB().Head().GetProp(k, "uptodate")
			want := "true"
			if expect[k] {
				want = "false"
			}
			if got != want {
				t.Logf("seed %d: %v uptodate=%q want %q", seed, k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFIFODeterminism: processing a random batch of events yields the
// same final state as replaying the same batch on a fresh identical system
// — event processing is deterministic and strictly FIFO.
func TestQuickFIFODeterminism(t *testing.T) {
	f := func(seed int64) bool {
		build := func() (*Engine, []meta.Key) {
			rng := rand.New(rand.NewSource(seed))
			return randomEngine(t, rng, 8, 20)
		}
		run := func(e *Engine, keys []meta.Key) map[string]string {
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i := 0; i < 30; i++ {
				ev := Event{
					Name:   []string{"outofdate", "touch", "poke"}[rng.Intn(3)],
					Dir:    bpl.Direction(rng.Intn(2)),
					Target: keys[rng.Intn(len(keys))],
					Args:   []string{fmt.Sprintf("a%d", rng.Intn(5))},
				}
				if err := e.Post(ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			state := map[string]string{}
			e.DB().Head().EachOID(func(o *meta.OID) bool {
				o.Props.Each(func(p, v string) bool {
					state[o.Key.String()+"/"+p] = v
					return true
				})
				return true
			})
			return state
		}
		e1, k1 := build()
		e2, k2 := build()
		return reflect.DeepEqual(run(e1, k1), run(e2, k2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickMoveLinkUniqueInstance: under random version creations, a
// move-tagged template keeps exactly one live link instance per logical
// relationship, always attached to the latest versions.
func TestQuickMoveLinkUniqueInstance(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		e := newTestEngine(t, `blueprint q
view src
endview
view dst
    link_from src move propagates ev type derived
endview
endblueprint`)
		db := e.DB()
		src, err := e.CreateOID("s", "src", "")
		if err != nil {
			t.Fatal(err)
		}
		dst, err := e.CreateOID("d", "dst", "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CreateLink(meta.DeriveLink, src, dst); err != nil {
			t.Fatal(err)
		}
		for _, op := range opsRaw {
			if len(opsRaw) > 12 {
				opsRaw = opsRaw[:12]
			}
			var err error
			if op%2 == 0 {
				_, err = e.CreateOID("s", "src", "")
			} else {
				_, err = e.CreateOID("d", "dst", "")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		// Exactly one link instance exists, and it connects the two latest
		// versions.
		var all []*meta.Link
		for _, id := range db.Head().LinkIDs() {
			l, err := db.Head().GetLink(id)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, l)
		}
		if len(all) != 1 {
			t.Logf("seed %d: %d link instances", seed, len(all))
			return false
		}
		ls, _ := db.Head().Latest("s", "src")
		ld, _ := db.Head().Latest("d", "dst")
		if all[0].From != ls || all[0].To != ld {
			t.Logf("seed %d: link %v->%v, latest %v %v", seed, all[0].From, all[0].To, ls, ld)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBufferTracerBounding(t *testing.T) {
	b := &BufferTracer{Max: 4}
	for i := 0; i < 10; i++ {
		b.Trace(TraceEntry{Kind: TraceDeliver, Detail: fmt.Sprintf("%d", i)})
	}
	if got := len(b.Entries()); got > 4 {
		t.Errorf("retained %d entries, max 4", got)
	}
	if b.Dropped() == 0 {
		t.Error("no drops recorded")
	}
	last := b.Entries()[len(b.Entries())-1]
	if last.Detail != "9" {
		t.Errorf("newest entry lost: %v", last)
	}
	b.Reset()
	if len(b.Entries()) != 0 || b.Dropped() != 0 {
		t.Error("reset incomplete")
	}
}

func TestTraceEntryString(t *testing.T) {
	e := TraceEntry{Kind: TraceAssign, OID: "a,v,1", Event: "ckin", Detail: "x = y"}
	if got := e.String(); got != "assign ckin @a,v,1: x = y" {
		t.Errorf("String = %q", got)
	}
}
