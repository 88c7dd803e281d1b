package meta

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// modelVer is one version of the model table's histories.
type modelVer struct {
	lsn int64
	val string
	del bool
}

// modelTable is table's specification over a built-in map: each key's
// versions, oldest first; trim cuts below the newest at or below the floor
// and forgets a key deleted at every retained stamp.
type modelTable map[Key][]modelVer

func (m modelTable) at(k Key, lsn int64) (string, bool) {
	h := m[k]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].lsn <= lsn {
			return h[i].val, !h[i].del
		}
	}
	return "", false
}

func (m modelTable) trim(floor int64) {
	for k, h := range m {
		base := -1
		for i, v := range h {
			if v.lsn <= floor {
				base = i
			}
		}
		if base >= 0 {
			h = h[base:]
		}
		if base >= 0 && len(h) == 1 && h[0].del {
			delete(m, k)
		} else {
			m[k] = h
		}
	}
}

// TestQuickTableEqualsMap drives a table and its model through the same
// random pushes (tombstones among them), trims and reads — few enough keys
// that a key dropped by a trim is pushed again, enough that the array grows
// in the middle of a run and compacts when trims drop many — and checks
// every read against the model at every retained position, that the table
// holds an entry for exactly the keys the model remembers, and that the
// array is never more than ¾ full.
func TestQuickTableEqualsMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tb table[Key, string]
		model := modelTable{}
		keys := 4 + rng.Intn(200)
		key := func() Key {
			i := rng.Intn(keys)
			return Key{Block: fmt.Sprintf("b%d", i%17), View: fmt.Sprintf("v%d", i/17), Version: 1 + i%3}
		}
		var s, floor int64
		check := func(step int) {
			t.Helper()
			for lsn := floor; lsn <= s; lsn++ {
				for i := 0; i < keys; i++ {
					k := Key{Block: fmt.Sprintf("b%d", i%17), View: fmt.Sprintf("v%d", i/17), Version: 1 + i%3}
					got, gok := tb.at(k, lsn)
					want, wok := model.at(k, lsn)
					if got != want || gok != wok {
						t.Fatalf("seed %d step %d: at(%v, %d) = %q %v, model %q %v", seed, step, k, lsn, got, gok, want, wok)
					}
				}
				seen := map[Key]string{}
				tb.each(lsn, func(k Key, v string) bool {
					if _, twice := seen[k]; twice {
						t.Fatalf("seed %d step %d: each(%d) visits %v twice", seed, step, lsn, k)
					}
					seen[k] = v
					return true
				})
				for k := range model {
					want, ok := model.at(k, lsn)
					if got, in := seen[k]; in != ok || got != want {
						t.Fatalf("seed %d step %d: each(%d) gives %v = %q (%v), model %q (%v)", seed, step, lsn, k, got, in, want, ok)
					}
				}
				if len(seen) > len(model) {
					t.Fatalf("seed %d step %d: each(%d) visits %d keys, the model has %d", seed, step, lsn, len(seen), len(model))
				}
			}
			entries := 0
			for i := range tb.array() {
				if e := tb.array()[i].Load(); e != nil {
					entries++
					if _, ok := model[e.key]; !ok {
						t.Fatalf("seed %d step %d: an entry for %v, which the model forgot", seed, step, e.key)
					}
				}
			}
			if entries != len(model) || entries != tb.n {
				t.Fatalf("seed %d step %d: %d entries (n %d), the model has %d keys", seed, step, entries, tb.n, len(model))
			}
			if 4*tb.n > 3*len(tb.array()) {
				t.Fatalf("seed %d step %d: %d entries in %d slots", seed, step, tb.n, len(tb.array()))
			}
		}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(10); {
			case r < 7: // a mutation: one to three pushes under one stamp
				s++
				for n := 1 + rng.Intn(3); n > 0; n-- {
					k, del := key(), rng.Intn(3) == 0
					val := fmt.Sprintf("%v@%d", k, s)
					if del {
						val = ""
					}
					tb.push(k, s, val, del)
					model[k] = append(model[k], modelVer{lsn: s, val: val, del: del})
				}
			case r < 9: // a trim at a floor no later than the newest stamp
				floor += rng.Int63n(s - floor + 1)
				tb.trim(floor)
				model.trim(floor)
			default:
				check(step)
			}
		}
		check(-1)
	}
}

// TestTableTrimCompacts: a trim that drops entries publishes an array at
// most half full, and the keys it kept are found in it.
func TestTableTrimCompacts(t *testing.T) {
	var tb table[string, int]
	for i := 0; i < 1000; i++ {
		tb.push(fmt.Sprint(i), 1, i, false)
	}
	for i := 0; i < 990; i++ {
		tb.push(fmt.Sprint(i), 2, 0, true)
	}
	grown := len(tb.array())
	tb.trim(2)
	if tb.n != 10 || len(tb.array()) > 32 || len(tb.array()) >= grown {
		t.Fatalf("after dropping 990 of 1000: %d entries in %d slots (%d before)", tb.n, len(tb.array()), grown)
	}
	for i := 990; i < 1000; i++ {
		if v, ok := tb.at(fmt.Sprint(i), 2); !ok || v != i {
			t.Errorf("key %d after the compaction: %d %v", i, v, ok)
		}
	}
}

// TestTableReadersDuringGrowthAndCompaction is the -race hammer of the
// table: one writer pushes new keys (the array grows), updates, deletes and
// trims (the array compacts) while readers call at and each with no lock.
// Keys pushed before the readers start and never deleted must be found by
// every at and visited by every each, with the value of some version of
// theirs; nothing a reader is handed may be another key's.
func TestTableReadersDuringGrowthAndCompaction(t *testing.T) {
	var tb table[Key, string]
	const stable = 64
	stableKey := func(i int) Key { return Key{Block: fmt.Sprintf("s%d", i), View: "v", Version: 1} }
	var s int64
	for i := 0; i < stable; i++ {
		s++
		tb.push(stableKey(i), s, stableKey(i).String(), false)
	}
	var stop atomic.Bool
	var passes atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ; !stop.Load(); passes.Add(1) {
				for i := 0; i < stable; i++ {
					k := stableKey(i)
					if v, ok := tb.at(k, newest); !ok || !strings.HasPrefix(v, k.String()) {
						t.Errorf("at(%v) = %q %v during a writer's growth", k, v, ok)
						stop.Store(true)
						return
					}
				}
				n := 0
				tb.each(newest, func(k Key, v string) bool {
					if !strings.HasPrefix(v, k.String()) {
						t.Errorf("each hands %v the value %q", k, v)
					}
					if k.View == "v" {
						n++
					}
					return true
				})
				if n != stable {
					t.Errorf("each visited %d of the %d stable keys", n, stable)
					stop.Store(true)
					return
				}
			}
		}()
	}
	// The writer goes on until the readers have read through many of its
	// growths and compactions.
	for round := 0; round < 40 || passes.Load() < 300 && !stop.Load(); round++ {
		churn := func(i int) Key { return Key{Block: fmt.Sprintf("c%d", i), View: "w", Version: round%3 + 1} }
		for i := 0; i < 200; i++ {
			s++
			tb.push(churn(i), s, churn(i).String(), false)
			tb.push(stableKey(i%stable), s, fmt.Sprintf("%v@%d", stableKey(i%stable), s), false)
		}
		for i := 0; i < 200; i++ {
			s++
			tb.push(churn(i), s, "", true)
		}
		tb.trim(s)
	}
	stop.Store(true)
	wg.Wait()
	if tb.n != stable {
		t.Errorf("%d entries after every churned key was dropped, want %d", tb.n, stable)
	}
}
