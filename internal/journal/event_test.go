package journal_test

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/wire"
)

// TestEngineJournalsEventsThroughItsDatabase: an engine journals through
// the database it runs on.  Over journal.Open's database, an engine built
// without WithJournal writes the log an engine built with it writes, byte
// for byte, and that log holds one event record per event the engine
// enqueued — the built-in create, each posted event and each rule-posted
// one — each at the logical clock of its enqueue, with the name,
// direction, target, user and arguments of the event.
func TestEngineJournalsEventsThroughItsDatabase(t *testing.T) {
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	clock := func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	run := func(withJournal bool) (log []string, events, want [][]string) {
		w, db, err := journal.Open(t.TempDir(), journal.Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		opts := []engine.Option{engine.WithClock(clock), engine.WithUser("yves")}
		if withJournal {
			opts = append(opts, engine.WithJournal(w))
		}
		eng, err := engine.New(db, bp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		expect := func(name, dir string, k meta.Key, seq int64, user string, args ...string) {
			want = append(want, append([]string{strconv.FormatInt(seq, 10), meta.OpEvent, name, dir, k.String(), user}, args...))
		}
		create := func(block, view, user string) meta.Key {
			k, err := eng.CreateOID(block, view, user)
			if err != nil {
				t.Fatal(err)
			}
			expect(engine.EventCreate, "down", k, db.Seq(), cmp.Or(user, "yves"))
			return k
		}
		post := func(ev engine.Event) {
			seq := db.Seq()
			if err := eng.PostAndDrain(ev); err != nil {
				t.Fatal(err)
			}
			expect(ev.Name, ev.Dir.String(), ev.Target, seq, cmp.Or(ev.User, "yves"), ev.Args...)
		}
		hdl := create("cpu", "HDL_model", "")
		sch := create("cpu", "schematic", "marc")
		if _, err := eng.CreateLink(meta.DeriveLink, hdl, sch); err != nil {
			t.Fatal(err)
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		post(engine.Event{Name: "hdl_sim", Dir: bpl.DirDown, Target: hdl, Args: []string{"good"}})
		post(engine.Event{Name: "ckin", Dir: bpl.DirDown, Target: hdl, User: "marc", Args: []string{"a note with spaces"}})
		post(engine.Event{Name: "nl_sim", Dir: bpl.DirUp, Target: sch, Args: []string{"4 errors", `"quoted"`}})
		create("cpu", "schematic", "")
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}

		tl := w.NewTailer(0)
		defer tl.Close()
		for {
			ev, err := tl.Next(nil)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind != journal.FollowRecord {
				break
			}
			log = append(log, string(ev.Payload()))
			f, err := wire.Tokenize(string(ev.Payload()))
			if err != nil || len(f) < 3 {
				t.Fatalf("record %q: %v", ev.Payload(), err)
			}
			if f[2] == meta.OpEvent {
				events = append(events, f[1:])
			}
		}
		if n := eng.Stats().Posted; int64(len(events)) != n {
			t.Errorf("journal holds %d event records, the engine enqueued %d events", len(events), n)
		}
		return log, events, want
	}

	plain, events, want := run(false)
	rest := events
	for _, w := range want {
		i := slices.IndexFunc(rest, func(e []string) bool { return slices.Equal(e, w) })
		if i < 0 {
			t.Fatalf("event record %q missing or out of order in\n%s", w, joinRecords(events))
		}
		rest = rest[i+1:]
	}
	if len(events) == len(want) {
		t.Error("no rule-posted event record: the script does not exercise a post action")
	}
	if explicit, _, _ := run(true); !slices.Equal(plain, explicit) {
		t.Errorf("logs differ without and with WithJournal:\n%s\n---\n%s", strings.Join(plain, "\n"), strings.Join(explicit, "\n"))
	}
}

func joinRecords(recs [][]string) string {
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(strings.Join(r, " ") + "\n")
	}
	return b.String()
}
