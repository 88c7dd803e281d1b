package journal_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"testing/quick"

	"repro/internal/journal"
	"repro/internal/meta"
)

// TestQuickReadViewEqualsReplayUpTo is the MVCC-by-LSN consistency
// property: for a randomized op sequence on a journaled database, a view
// pinned at any recorded LSN must checkpoint byte-identically to replaying the
// journal up to exactly that LSN — the live version histories and the
// on-disk record stream describe the same timeline.  It runs 45 random
// programs in three subtests of 15; nothing but the name differs between
// them, and the names are those test lists carry.
func TestQuickReadViewEqualsReplayUpTo(t *testing.T) {
	for _, arm := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("shards=%d", arm), func(t *testing.T) {
			f := func(ops []byte) bool { return checkViewReplayProperty(t, ops) }
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Error(err)
			}
		})
	}
}

func checkViewReplayProperty(t *testing.T, ops []byte) bool {
	t.Helper()
	dir, err := os.MkdirTemp("", "djl-mvcc-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// No auto-snapshots: ReplayUpTo needs the full record history from
	// LSN 1, and the writer stays open (read-only replay is safe on a
	// live directory once the tail is committed).
	w, db, err := journal.Open(dir, journal.Options{
		SegmentBytes:  512,
		SnapshotEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	blocks := []string{"cpu", "alu", "reg"}
	views := []string{"HDL_model", "netlist"}
	var keys []meta.Key
	var links []meta.LinkID
	var checkpoints []int64
	names := 0

	pick := func(b byte, n int) int { return int(b) % n }
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		switch op % 8 {
		case 0, 1:
			k, err := db.NewVersion(blocks[pick(a, len(blocks))], views[pick(b, len(views))])
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		case 2:
			if len(keys) > 0 {
				if err := db.SetProp(keys[pick(a, len(keys))], "p"+fmt.Sprint(b%3), fmt.Sprint(b)); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			if len(keys) > 0 {
				err := db.UpdateOID(keys[pick(a, len(keys))], func(props map[string]string) {
					props["batch"] = fmt.Sprint(a)
					delete(props, "p"+fmt.Sprint(b%3))
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if len(keys) > 1 {
				from, to := keys[pick(a, len(keys))], keys[pick(b, len(keys))]
				if id, err := db.AddLink(meta.DeriveLink, from, to, "", []string{"ckin"}, nil); err == nil {
					links = append(links, id)
				}
			}
		case 5:
			if len(links) > 0 {
				// A retarget empties the posting it leaves; a refused one
				// changes nothing.
				id := links[pick(a, len(links))]
				if l, err := db.Head().GetLink(id); err == nil {
					_ = db.RetargetLink(id, l.From, keys[pick(b, len(keys))])
				}
			}
		case 6:
			names++
			if _, err := db.SnapshotQuery(fmt.Sprintf("cfg%d", names), func(o *meta.OID) bool {
				return o.Key.Version%2 == int(a)%2
			}); err != nil {
				t.Fatal(err)
			}
		case 7:
			names++
			ws := fmt.Sprintf("ws%d", names)
			if err := db.AddWorkspace(ws, "/data"); err != nil {
				t.Fatal(err)
			}
			if len(keys) > 0 {
				if err := db.BindPath(ws, keys[pick(a, len(keys))], "some/path"); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkpoints = append(checkpoints, w.LastLSN())
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	// Spread a handful of probes across the recorded timeline (every
	// checkpoint would make the quadratic replay cost dominate).
	probes := checkpoints
	if len(probes) > 6 {
		step := len(probes) / 6
		sampled := make([]int64, 0, 8)
		for i := 0; i < len(probes); i += step {
			sampled = append(sampled, probes[i])
		}
		probes = append(sampled, checkpoints[len(checkpoints)-1])
	}
	for _, lsn := range probes {
		v, err := db.ReadViewAt(lsn)
		if err != nil {
			t.Errorf("ReadViewAt(%d): %v", lsn, err)
			return false
		}
		viewDoc := journal.ViewText(t, v)
		v.Close()

		replayed, _, err := journal.ReplayUpTo(dir, lsn)
		if err != nil {
			t.Errorf("ReplayUpTo(%d): %v", lsn, err)
			return false
		}
		replayDoc := journal.DBText(t, replayed)
		if !bytes.Equal(viewDoc, replayDoc) {
			t.Errorf("view at lsn %d differs from replay-to-%d:\n--- view\n%s\n--- replay\n%s",
				lsn, lsn, viewDoc, replayDoc)
			return false
		}
	}
	return true
}
