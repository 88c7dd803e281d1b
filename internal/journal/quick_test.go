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

// TestQuickJournalReplayEqualsSaveLoad is the persistence equivalence
// property: for a randomized op sequence, recovery from the journal
// (snapshot + record-tail replay, through rotation, mid-sequence
// snapshots and commits) must round-trip exactly like a whole-database
// Save/Load — byte-identical canonical documents — and both must equal
// the live database.  Shard count is a pure performance knob, so the
// property is checked at 1, 4 and 64 shards.
func TestQuickJournalReplayEqualsSaveLoad(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := func(ops []byte) bool { return checkJournalProperty(t, shards, ops) }
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkJournalProperty interprets ops as a random mutation program, runs
// it against a journaled database, and verifies the three-way equality.
func checkJournalProperty(t *testing.T, shards int, ops []byte) bool {
	t.Helper()
	dir, err := os.MkdirTemp("", "djl-quick-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// Tiny segments and a low record threshold so even short programs
	// exercise rotation and auto-snapshots; the timer stays off for
	// determinism.
	w, db, err := journal.Open(dir, journal.Options{
		Shards:       shards,
		SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	blocks := []string{"cpu", "alu", "reg", "\u2028io"} // a name ParseKey must not trim
	views := []string{"HDL_model", "SCHEMA", "netlist"}
	events := [][]string{nil, {"ckin"}, {"ckin", "outofdate"}}
	var keys []meta.Key
	var links []meta.LinkID
	names := 0

	pick := func(b byte, n int) int { return int(b) % n }
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		switch op % 12 {
		case 0, 1: // create a version (common)
			k, err := db.NewVersion(blocks[pick(a, len(blocks))], views[pick(b, len(views))])
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		case 2:
			if len(keys) > 0 {
				k := keys[pick(a, len(keys))]
				if err := db.SetProp(k, "p"+fmt.Sprint(b%4), fmt.Sprint(b)); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			if len(keys) > 0 {
				k := keys[pick(a, len(keys))]
				err := db.UpdateOID(k, func(o *meta.OID) {
					o.Props["batch"] = fmt.Sprint(a)
					delete(o.Props, "p"+fmt.Sprint(b%4))
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if len(keys) > 1 {
				from, to := keys[pick(a, len(keys))], keys[pick(b, len(keys))]
				// Random pairs may be invalid (self-links, use links across
				// views); those must emit nothing.
				if id, err := db.AddLink(meta.DeriveLink, from, to, "", events[pick(a^b, len(events))], nil); err == nil {
					links = append(links, id)
				}
			}
		case 5:
			if len(links) > 0 {
				if err := db.SetLinkProp(links[pick(a, len(links))], "TYPE", "equivalence"); err != nil {
					t.Fatal(err)
				}
			}
		case 6:
			if len(links) > 0 {
				j := pick(a, len(links))
				if err := db.DeleteLink(links[j]); err != nil {
					t.Fatal(err)
				}
				links = append(links[:j], links[j+1:]...)
			}
		case 7:
			if len(links) > 0 && len(keys) > 0 {
				// Retargeting a random link to a random key usually fails
				// validation; success and failure must both round-trip.
				id := links[pick(a, len(links))]
				if l, err := db.Head().GetLink(id); err == nil {
					_ = db.RetargetLink(id, l.From, keys[pick(b, len(keys))])
				}
			}
		case 8:
			names++
			if _, err := db.SnapshotQuery(fmt.Sprintf("cfg%d", names), func(o *meta.OID) bool {
				return o.Key.Version%2 == int(a)%2
			}); err != nil {
				t.Fatal(err)
			}
		case 9:
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
		case 10:
			if len(keys) > 0 {
				k := keys[pick(a, len(keys))]
				if _, err := db.PruneVersions(k.Block, k.View, 1+int(b)%2); err != nil {
					t.Fatal(err)
				}
				// Pruning may have removed keys/links; drop stale handles.
				keys = liveKeys(db, keys)
				links = liveLinks(db, links)
			}
		case 11:
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if a%3 == 0 {
				if err := w.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	live := saveBytes(t, db)

	// Save/Load round-trip.
	reloaded, err := meta.LoadShards(bytes.NewReader(live), shards)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, saveBytes(t, reloaded)) {
		t.Error("Save/Load round-trip not identity")
		return false
	}

	// Journal recovery (crash-style: the writer stays unclosed).
	recovered, _, err := journal.Replay(dir, shards)
	if err != nil {
		t.Error(err)
		return false
	}
	if !bytes.Equal(live, saveBytes(t, recovered)) {
		t.Errorf("journal recovery differs from live state:\n--- live\n%s\n--- recovered\n%s",
			live, saveBytes(t, recovered))
		return false
	}
	return true
}

func liveKeys(db *meta.DB, keys []meta.Key) []meta.Key {
	out := keys[:0]
	for _, k := range keys {
		if db.Head().HasOID(k) {
			out = append(out, k)
		}
	}
	return out
}

func liveLinks(db *meta.DB, links []meta.LinkID) []meta.LinkID {
	out := links[:0]
	for _, id := range links {
		if _, err := db.Head().GetLink(id); err == nil {
			out = append(out, id)
		}
	}
	return out
}
