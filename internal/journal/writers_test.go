package journal_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/meta"
)

// keepHistory is the real filesystem without compaction: it removes only
// temporary files, so every segment and snapshot stays for ReplayUpTo.
type keepHistory struct{ faultfs.FS }

func (keepHistory) Remove(name string) error {
	if strings.HasSuffix(name, ".tmp") {
		return os.Remove(name)
	}
	return nil
}

// errorOnly reports a helper's Fatal as an Error, for helpers called off the
// test's goroutine.
type errorOnly struct{ testing.TB }

func (e errorOnly) Fatal(args ...any) { e.Error(args...) }

// TestJournalSharedBlockWriters runs four writers over eight shared blocks
// — new versions, property updates, links across blocks and retargets, so
// different goroutines' mutations meet on one OID, one chain and one
// posting — while snapshots run beside them.  The journal must describe
// the live database's timeline: replaying it ends at the live checkpoint,
// and a view pinned at each position a writer observed after an op, read
// while the other writers go on, equals the journal replayed up to that
// position.  The subtest seed=N runs the programs of seed N.
func TestJournalSharedBlockWriters(t *testing.T) {
	for _, seed := range []uint64{1, 4, 64} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { sharedBlockWriters(t, seed) })
	}
}

func sharedBlockWriters(t *testing.T, seed uint64) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{
		SegmentBytes:  1 << 12,
		SnapshotEvery: -1,
		FS:            keepHistory{faultfs.OS},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Few enough mutations that no reclaim pass runs: every observed
	// position is still pinnable when its writer pins it.
	const writers, rounds, blocks = 4, 80, 8
	block := func(i int) string { return fmt.Sprintf("b%d", i) }
	for i := range blocks {
		if _, err := db.NewVersion(block(i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	latest := func(b int) meta.Key {
		k, err := db.Head().Latest(block(b), "HDL_model")
		if err != nil {
			t.Error(err)
		}
		return k
	}

	// seen is what each writer read of a view pinned after each op.
	type cut struct {
		lsn  int64
		text []byte
	}
	seen := make([][]cut, writers)
	var wg sync.WaitGroup
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), seed))
			type own struct {
				id   meta.LinkID
				from meta.Key
				to   int // the block of the end that stays
			}
			var links []own
			for i := range rounds {
				b := rng.IntN(blocks)
				other := (b + 1 + rng.IntN(blocks-1)) % blocks
				var err error
				switch i % 4 {
				case 0:
					_, err = db.NewVersion(block(b), "HDL_model")
				case 1:
					err = db.UpdateOID(latest(b), func(props map[string]string) {
						props[fmt.Sprintf("w%d", g)] = fmt.Sprint(i)
						delete(props, fmt.Sprintf("w%d", (g+1)%writers))
					})
				case 2:
					from := latest(b)
					var id meta.LinkID
					id, err = db.AddLink(meta.DeriveLink, from, latest(other), "", []string{"ckin"}, nil)
					links = append(links, own{id: id, from: from, to: other})
				case 3:
					// Only this writer moves its links, so their From is as
					// it left it; the new From is never on the staying end's
					// block, so the link never points at itself.
					l := &links[rng.IntN(len(links))]
					nb := (l.to + 1 + rng.IntN(blocks-1)) % blocks
					next := latest(nb)
					err = db.RetargetLink(l.id, l.from, next)
					l.from = next
				}
				if err != nil {
					t.Error(err)
					return
				}
				v, err := db.ReadViewAt(w.LastLSN())
				if err != nil {
					t.Error(err)
					return
				}
				seen[g] = append(seen[g], cut{v.LSN(), journal.ViewText(errorOnly{t}, v)})
				v.Close()
			}
		}()
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if err := w.Snapshot(); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	got, _, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want, have := journal.DBText(t, db), journal.DBText(t, got); !bytes.Equal(want, have) {
		t.Errorf("replay differs from the live database:\n--- live\n%s\n--- replay\n%s", want, have)
	}

	replays := make(map[int64][]byte)
	for _, cuts := range seen {
		for _, c := range cuts {
			want, ok := replays[c.lsn]
			if !ok {
				replayed, _, err := journal.ReplayUpTo(dir, c.lsn)
				if err != nil {
					t.Fatalf("ReplayUpTo(%d): %v", c.lsn, err)
				}
				want = journal.DBText(t, replayed)
				replays[c.lsn] = want
			}
			if !bytes.Equal(c.text, want) {
				t.Errorf("view at lsn %d differs from replay to it:\n--- view\n%s\n--- replay\n%s", c.lsn, c.text, want)
			}
		}
	}
}
