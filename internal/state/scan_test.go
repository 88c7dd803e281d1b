package state

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// scanRowOf is one row as a scan hands it to its sink, copied out.
type scanRowOf struct {
	key     meta.Key
	ready   bool
	reasons string
}

func scanRows(v *meta.View, bp *bpl.Blueprint) []scanRowOf {
	var rows []scanRowOf
	ScanSortedView(v, bp, func(key meta.Key, ready bool, reasons []byte) bool {
		rows = append(rows, scanRowOf{key, ready, string(reasons)})
		return true
	})
	return rows
}

// oracleScanRows is the same pass through the OIDState path: the unsorted
// StreamView, rows copied out, reasons joined, then sorted.
func oracleScanRows(v *meta.View, bp *bpl.Blueprint) []scanRowOf {
	var rows []scanRowOf
	StreamView(v, bp, func(st *OIDState) bool {
		rows = append(rows, scanRowOf{st.Key, st.Ready, strings.Join(st.Reasons, "; ")})
		return true
	})
	slices.SortFunc(rows, func(a, b scanRowOf) int { return a.key.Compare(b.key) })
	return rows
}

// scanFixture is an MVCC database of blocks × the EDTC views that carry
// continuous assignments, some rows ready, some not.
func scanFixture(t *testing.T, blocks int) (*meta.DB, *bpl.Blueprint, []meta.Key) {
	t.Helper()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	db := meta.NewDBWithShards(4)
	var keys []meta.Key
	for b := 0; b < blocks; b++ {
		for i, view := range []string{"schematic", "netlist", "layout"} {
			k, err := db.NewVersion(fmt.Sprintf("blk%02d", b), view)
			if err != nil {
				t.Fatal(err)
			}
			if (b+i)%2 == 0 {
				for _, p := range [][2]string{{"nl_sim_res", "good"}, {"lvs_res", "is_equiv"}, {"uptodate", "true"}} {
					if err := db.SetProp(k, p[0], p[1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			keys = append(keys, k)
		}
	}
	return db, bp, keys
}

// TestScanSortedViewMatchesStreamViewUnderWriters: four scanners against
// two writers and a reclaim loop (run with -race).  Every scan equals, row
// for row, the OIDState path evaluated on a second view pinned at the scan's
// LSN: the pooled scratch is never shared between scans in flight, and what
// a scan hands out is the view's state, whatever the writers do meanwhile.
func TestScanSortedViewMatchesStreamViewUnderWriters(t *testing.T) {
	db, bp, keys := scanFixture(t, 12)
	stop := make(chan struct{})
	var writers, background sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 600; i++ {
				k := keys[(w*17+i*5)%len(keys)]
				var err error
				switch i % 4 {
				case 0:
					err = db.SetProp(k, "nl_sim_res", []string{"good", "bad", `q"uo\te`}[i%3])
				case 1:
					err = db.SetProp(k, "uptodate", []string{"true", "false"}[i%2])
				case 2:
					err = db.SetProp(k, "lvs_res", "is_equiv")
				case 3:
					_, err = db.NewVersion(fmt.Sprintf("new%d-%d", w, i), "schematic")
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	background.Add(1)
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.ReclaimVersions()
			}
		}
	}()
	for r := 0; r < 4; r++ {
		background.Add(1)
		go func() {
			defer background.Done()
			for scans := 0; ; scans++ {
				select {
				case <-stop:
					if scans > 0 {
						return
					}
				default:
				}
				v := db.ReadView()
				got := scanRows(v, bp)
				at, err := db.ReadViewAt(v.LSN()) // v pins the LSN: it cannot have been reclaimed
				if err != nil {
					t.Error(err)
					v.Close()
					return
				}
				want := oracleScanRows(at, bp)
				at.Close()
				v.Close()
				if !slices.Equal(got, want) {
					t.Errorf("scan at lsn %d differs from the OIDState path:\n got %v\nwant %v", v.LSN(), got, want)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	background.Wait()
}

// TestScanScratchPinsNothing: the scratch a scan parks in the pool — after
// a full pass or after a sink that stopped it — holds no key and no
// property map, so it cannot keep reclaimed MVCC versions alive.
func TestScanScratchPinsNothing(t *testing.T) {
	db, bp, _ := scanFixture(t, 8)
	for _, stopAfter := range []int{-1, 5} {
		// The pool may hand back a fresh scratch (it forgets at every GC
		// cycle, and at random under the race detector): scan until one
		// that has been used comes out.
		var sc *scanScratch
		for try := 0; try < 50 && (sc == nil || cap(sc.rows) == 0); try++ {
			v := db.ReadView()
			n := 0
			ScanSortedView(v, bp, func(meta.Key, bool, []byte) bool {
				n++
				return n != stopAfter
			})
			v.Close()
			sc = scanPool.Get().(*scanScratch)
		}
		if cap(sc.rows) == 0 {
			t.Skip("the pool never returned a used scratch")
		}
		if len(sc.rows) != 0 || sc.cur.props != nil {
			t.Fatalf("stop after %d: parked scratch has %d rows and current row %+v", stopAfter, len(sc.rows), sc.cur)
		}
		for i, r := range sc.rows[:cap(sc.rows)] {
			if r.props != nil || r.key != (meta.Key{}) {
				t.Fatalf("stop after %d: parked scratch still holds row %d: %v", stopAfter, i, r.key)
			}
		}
	}
}
