package meta

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// latestSorted is the sorted walk, rows copied out.
func latestSorted(v *View) []OID {
	var rows []OID
	v.EachLatestOIDSorted(func(o *OID) bool {
		rows = append(rows, *o)
		return true
	})
	return rows
}

// latestOracle is the unordered walk, rows copied out, then sorted.
func latestOracle(v *View) []OID {
	var rows []OID
	v.EachLatestOID(func(o *OID) bool {
		rows = append(rows, *o)
		return true
	})
	slices.SortFunc(rows, func(a, b OID) int { return a.Key.Compare(b.Key) })
	return rows
}

// checkSortedWalk: the sorted walk of v is the unordered walk sorted, and
// every chain appears once, in strictly ascending key order.
func checkSortedWalk(v *View) error {
	got, want := latestSorted(v), latestOracle(v)
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("lsn %d: the sorted walk has %d rows, the unordered one sorted %d; they part at row %d", v.LSN(), len(got), len(want), i)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key.BV() == got[i].Key.BV() || got[i-1].Key.Compare(got[i].Key) >= 0 {
			return fmt.Errorf("lsn %d: row %d %v after %v", v.LSN(), i, got[i].Key, got[i-1].Key)
		}
	}
	return nil
}

// TestQuickSortedWalk: random sequences of new chains, new versions,
// reclaim passes and whole-database restores pin views at random stamps
// along the way; at the end, each pinned view's
// key-ordered walk equals its unordered walk sorted, though the store's
// order was rebuilt and its tables trimmed after the pin.  The -race arm
// creates chains while scans run.  The 120 random programs run in three
// batches of 40, a subtest each.
func TestQuickSortedWalk(t *testing.T) {
	for batch := 1; batch <= 3; batch++ {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			f := func(seed int64) bool {
				if err := sortedWalkProgram(t, rand.New(rand.NewSource(seed))); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
	t.Run("creates under scans", func(t *testing.T) {
		db := NewDB()
		stop := make(chan struct{})
		var writers, scanners sync.WaitGroup
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for i := 0; i < 400; i++ {
					block := fmt.Sprintf("w%db%03d", w, i/2)
					if _, err := db.NewVersion(block, []string{"schematic", "netlist"}[i%2]); err != nil {
						t.Error(err)
						return
					}
					if i%64 == 0 {
						db.ReclaimVersions()
					}
				}
			}(w)
		}
		for r := 0; r < 3; r++ {
			scanners.Add(1)
			go func() {
				defer scanners.Done()
				for scans := 0; ; scans++ {
					select {
					case <-stop:
						if scans > 0 {
							return
						}
					default:
					}
					v := db.ReadView()
					err := checkSortedWalk(v)
					v.Close()
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		writers.Wait()
		close(stop)
		scanners.Wait()
		if err := checkSortedWalk(db.Head()); err != nil {
			t.Error(err)
		}
	})
}

// sortedWalkProgram runs one random program on a fresh database and checks
// every view it pinned.
func sortedWalkProgram(t testing.TB, rng *rand.Rand) error {
	db := NewDB()
	blocks := []string{"cpu", "alu", "reg", "bus", "fpu", "io"}
	views := []string{"schematic", "netlist", "layout"}
	var pinned []*View
	defer func() {
		for _, v := range pinned {
			v.Close()
		}
	}()
	var saved [][]byte // a checkpoint of an earlier moment, for a restore to go back to
	for op := 0; op < 60; op++ {
		block, view := blocks[rng.Intn(len(blocks))], views[rng.Intn(len(views))]
		switch r := rng.Intn(20); {
		case r < 10: // a new chain, or the next version of one
			if _, err := db.NewVersion(block, view); err != nil {
				return err
			}
		case r < 14:
			db.ReclaimVersions()
		case r < 15:
			if saved != nil {
				src, err := loadPayloads(saved)
				if err != nil {
					return err
				}
				if err := db.RestoreFrom(src, db.mvcc.epoch.Load()); err != nil {
					return err
				}
			}
		case r < 17:
			v := db.ReadView()
			saved = checkpointOf(t, v)
			v.Close()
		default:
			pinned = append(pinned, db.ReadView())
		}
		// A scan between the ops rebuilds the order whenever the chains
		// changed, so the pinned views meet orders built after them.
		if rng.Intn(3) == 0 {
			if err := checkSortedWalk(db.Head()); err != nil {
				return err
			}
		}
	}
	for _, v := range append(pinned, db.Head()) {
		if err := checkSortedWalk(v); err != nil {
			return err
		}
	}
	return nil
}
