package meta

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHeadReadsAreLinearizable: a point read of the head takes no lock,
// and still answers as of one instant between its call and its return.
// Four writers run mutation programs; readers bracket one head read
// between two pinned views A and B, and the answer must be the one
// ReadViewAt(L) gives for some L in [A.LSN(), B.LSN()].
func TestHeadReadsAreLinearizable(t *testing.T) {
	db := NewDB()
	var stop atomic.Bool
	var writers sync.WaitGroup
	for w := range 4 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for seed := int64(w); !stop.Load(); seed += 4 {
				for _, step := range mutationProgram(seed) {
					step(db)
					runtime.Gosched() // at -cpu 1, a step or so per reader yield
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		writers.Wait()
	}()

	// Operands are mostly what the view pinned before the read holds, the
	// rest drawn from the names the programs use, so some do not exist.
	blocks := []string{"cpu", "alu", "reg", "mmu"}
	views := []string{"HDL_model", "schematic"}
	key := func(rng *rand.Rand, a *View) Key {
		if keys := a.Keys(); len(keys) > 0 && rng.Intn(4) > 0 {
			return keys[rng.Intn(len(keys))]
		}
		return Key{Block: blocks[rng.Intn(4)], View: views[rng.Intn(2)], Version: rng.Intn(12) + 1}
	}
	name := func(rng *rand.Rand, names []string) string {
		if len(names) > 0 && rng.Intn(4) > 0 {
			return names[rng.Intn(len(names))]
		}
		return fmt.Sprintf("n%d", rng.Intn(50))
	}
	reads := []func(rng *rand.Rand, a *View) (string, func(*View) string){
		func(rng *rand.Rand, a *View) (string, func(*View) string) {
			k := key(rng, a)
			return fmt.Sprint("GetOID ", k), func(v *View) string {
				o, err := v.GetOID(k)
				if err != nil {
					return err.Error()
				}
				return fmt.Sprint(o.Seq, o.Props)
			}
		},
		func(rng *rand.Rand, a *View) (string, func(*View) string) {
			k := key(rng, a)
			b, w := k.Block, k.View
			return "Latest " + b + "." + w, func(v *View) string {
				k, err := v.Latest(b, w)
				return fmt.Sprint(k, err)
			}
		},
		func(rng *rand.Rand, a *View) (string, func(*View) string) {
			k := key(rng, a)
			b, w := k.Block, k.View
			return "Versions " + b + "." + w, func(v *View) string { return fmt.Sprint(v.Versions(b, w)) }
		},
		func(rng *rand.Rand, a *View) (string, func(*View) string) {
			k := key(rng, a)
			return fmt.Sprint("Predecessor ", k), func(v *View) string {
				p, ok := v.Predecessor(k)
				return fmt.Sprint(p, ok)
			}
		},
		func(rng *rand.Rand, a *View) (string, func(*View) string) {
			k := key(rng, a)
			return fmt.Sprint("LinksOf ", k), func(v *View) string {
				var out [][]string
				for _, l := range v.LinksOf(k) {
					out = append(out, linkArgs(l))
				}
				return fmt.Sprint(out)
			}
		},
		func(rng *rand.Rand, a *View) (string, func(*View) string) {
			id := LinkID(rng.Intn(64) + 1)
			if ids := a.LinkIDs(); len(ids) > 0 && rng.Intn(4) > 0 {
				id = ids[rng.Intn(len(ids))]
			}
			return fmt.Sprint("GetLink ", id), func(v *View) string {
				l, err := v.GetLink(id)
				if err != nil {
					return err.Error()
				}
				return fmt.Sprint(linkArgs(l))
			}
		},
		func(rng *rand.Rand, a *View) (string, func(*View) string) {
			name := name(rng, a.ConfigurationNames())
			return "GetConfiguration " + name, func(v *View) string {
				c, err := v.GetConfiguration(name)
				if err != nil {
					return err.Error()
				}
				return fmt.Sprint(configArgs(c))
			}
		},
		func(rng *rand.Rand, a *View) (string, func(*View) string) {
			name := name(rng, a.WorkspaceNames())
			return "GetWorkspace " + name, func(v *View) string {
				w, err := v.GetWorkspace(name)
				if err != nil {
					return err.Error()
				}
				keys := w.Keys()
				paths := make([]string, len(keys))
				for i, k := range keys {
					paths[i], _ = w.Path(k)
				}
				return fmt.Sprint(w.Root, keys, paths)
			}
		},
	}

	var readers sync.WaitGroup
	for r := range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for range 500 {
				// The yields let writers land on both sides of the read.
				a := db.ReadView()
				what, read := reads[rng.Intn(len(reads))](rng, a)
				runtime.Gosched()
				got := read(db.Head())
				runtime.Gosched()
				b := db.ReadView()
				b.Close()
				var seen []string
				for l := a.LSN(); l <= b.LSN(); l++ {
					at, err := db.ReadViewAt(l) // a's pin keeps [a, b] from reclamation
					if err != nil {
						t.Error(err)
						break
					}
					want := read(at)
					at.Close()
					if want == got {
						seen = nil
						break
					}
					seen = append(seen, want)
				}
				a.Close()
				if seen != nil {
					t.Errorf("%s on the head: %s; at every LSN in [%d, %d]: %v",
						what, got, a.LSN(), b.LSN(), slices.Compact(seen))
					return
				}
			}
		}()
	}
	readers.Wait()
}
