package journal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/server"
	"repro/internal/wire"
)

// The recovery fixtures are the benchmark's design project (bench/project.go:
// per tree 13 blocks in three views, 12 use links, 26 derive links) built
// through Server.Handle on a journaled stack under the EDTC blueprint, so
// the records are the ones a loaded primary has on disk — some 285 per
// tree, most of them engine-posted events and property updates.  One
// snapshot is taken `tail` records before the end and the writer abandoned:
// a recovery loads that snapshot, walks the whole segment, and applies the
// tail.

// projectRequests is bench.Preload.
func projectRequests(trees int) []wire.Request {
	views := [3]string{"schematic", "netlist", "layout"}
	const blocks = 13
	var reqs []wire.Request
	for t := 0; t < trees; t++ {
		block := func(b int) string { return fmt.Sprintf("t%db%d", t, b) }
		key := func(b, v int) string { return meta.Key{Block: block(b), View: views[v], Version: 1}.String() }
		for b := 0; b < blocks; b++ {
			for _, v := range views {
				reqs = append(reqs, wire.Request{Verb: wire.VerbCreate, Args: []string{block(b), v}})
			}
		}
		for b := 1; b < blocks; b++ {
			reqs = append(reqs, wire.Request{Verb: wire.VerbLink, Args: []string{"use", key((b-1)/3, 0), key(b, 0)}})
		}
		for b := 0; b < blocks; b++ {
			reqs = append(reqs,
				wire.Request{Verb: wire.VerbLink, Args: []string{"derive", key(b, 0), key(b, 1)}},
				wire.Request{Verb: wire.VerbLink, Args: []string{"derive", key(b, 0), key(b, 2)}})
		}
	}
	return reqs
}

// projectStack is damocles assembled in-process on a journal directory.
type projectStack struct {
	w   *journal.Writer
	db  *meta.DB
	srv *server.Server
}

func openProjectStack(tb testing.TB, dir string) *projectStack {
	tb.Helper()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		tb.Fatal(err)
	}
	w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1, SegmentBytes: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := engine.New(db, bp, engine.WithJournal(w))
	if err != nil {
		tb.Fatal(err)
	}
	return &projectStack{w: w, db: db, srv: server.New(eng, server.WithJournal(w))}
}

func (s *projectStack) handle(tb testing.TB, req wire.Request) {
	tb.Helper()
	if resp := s.srv.Handle(req); !resp.OK {
		tb.Fatalf("%s: %s", req.Encode(), resp.Detail)
	}
}

// checkin posts one leaf check-in: some 15 records, no new object.
func (s *projectStack) checkin(tb testing.TB, tree, i int) {
	leaf := meta.Key{Block: fmt.Sprintf("t%db%d", tree, 4+i%9), View: "schematic", Version: 1}
	s.handle(tb, wire.Request{Verb: wire.VerbPost, Args: []string{"ckin", "down", leaf.String()}})
}

// buildRecoveryDir writes a journal directory holding the trees-tree
// project, churn check-ins until the log is at least minRecords long, one
// snapshot about tail records before the end, and no clean shutdown.  It
// returns the log's length and the snapshot's position.
func buildRecoveryDir(tb testing.TB, dir string, trees, minRecords, tail int) (last, snap int64) {
	tb.Helper()
	s := openProjectStack(tb, dir)
	for _, req := range projectRequests(trees) {
		s.handle(tb, req)
	}
	for i := 0; s.w.LastLSN() < int64(minRecords); i++ {
		s.checkin(tb, i%trees, i)
	}
	// The tail is more check-ins: the snapshot goes in before them.
	if err := s.w.Snapshot(); err != nil {
		tb.Fatal(err)
	}
	snap = s.w.LastLSN()
	for i := 0; s.w.LastLSN() < snap+int64(tail); i++ {
		s.checkin(tb, i%trees, i)
	}
	if err := s.w.Commit(); err != nil {
		tb.Fatal(err)
	}
	last = s.w.LastLSN()
	s.w.Abort()
	return last, snap
}

// BenchmarkRecovery is one journal.Replay of a loaded primary's directory:
// trees is the project's size, tail how many records lie behind the newest
// snapshot (a project load leaves anything from 180 to 6,600 there,
// depending on where the snapshot cadence fell).
func BenchmarkRecovery(b *testing.B) {
	tails := []struct {
		name    string
		records int
	}{{"short", 200}, {"long", 4000}}
	for _, trees := range []int{16, 64} {
		for _, tail := range tails {
			b.Run(fmt.Sprintf("trees=%d/tail=%s", trees, tail.name), func(b *testing.B) {
				dir := b.TempDir()
				last, snap := buildRecoveryDir(b, dir, trees, trees*285, tail.records)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					db, lsn, err := journal.Replay(dir, 0)
					if err != nil || lsn != last {
						b.Fatalf("replay reached lsn %d of %d: %v", lsn, last, err)
					}
					runtime.KeepAlive(db)
				}
				b.ReportMetric(float64(last-snap), "tail-records")
				b.ReportMetric(float64(last), "records")
			})
		}
	}
}

// cost is what one journal.Replay allocates, and what the database it
// returns keeps (the heap's growth from one result held to two).
type cost struct {
	retained, retainedObjects uint64
	allocated, objects        uint64
}

func replayCost(t *testing.T, dir string) cost {
	t.Helper()
	replay := func() *meta.DB {
		db, _, err := journal.Replay(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	var one, two runtime.MemStats
	first := replay()
	runtime.GC()
	runtime.ReadMemStats(&one)
	second := replay()
	runtime.GC()
	runtime.ReadMemStats(&two)
	runtime.KeepAlive(first)
	runtime.KeepAlive(second)
	return cost{
		retained: two.HeapAlloc - one.HeapAlloc, retainedObjects: two.HeapObjects - one.HeapObjects,
		allocated: two.TotalAlloc - one.TotalAlloc, objects: two.Mallocs - one.Mallocs,
	}
}

// copyWithoutLeadingFrames copies a journal directory of one snapshot and
// one segment that starts at LSN 1, leaving out the segment's first skip
// frames: the copy's segment starts at LSN skip+1 and is named for it.
func copyWithoutLeadingFrames(t *testing.T, from, to string, skip int) {
	t.Helper()
	snaps, _ := filepath.Glob(filepath.Join(from, "snapshot-*.json"))
	segs, _ := filepath.Glob(filepath.Join(from, "journal-*.log"))
	if len(snaps) != 1 || len(segs) != 1 || filepath.Base(segs[0]) != fmt.Sprintf("journal-%016x.log", 1) {
		t.Fatalf("want one snapshot and one segment from lsn 1: %v %v", snaps, segs)
	}
	doc, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(to, filepath.Base(snaps[0])), doc, 0o666); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	hdr := bytes.IndexByte(seg, '\n') + 1
	off := hdr
	for i := 0; i < skip; i++ {
		off += 8 + int(binary.LittleEndian.Uint32(seg[off:]))
	}
	name := fmt.Sprintf("journal-%016x.log", skip+1)
	if err := os.WriteFile(filepath.Join(to, name), append(seg[:hdr:hdr], seg[off:]...), 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryAllocatesWhatItKeeps is the guard on what made recovery
// small.  A record the snapshot covers costs nothing — no allocation at
// all: ten times the covered records, the same allocation count — and the
// whole recovery allocates little more than the database it returns, with
// a short tail behind the snapshot and with a long one.
func TestRecoveryAllocatesWhatItKeeps(t *testing.T) {
	const trees = 16
	whole := t.TempDir()
	last, snap := buildRecoveryDir(t, whole, trees, 20000, 0)
	if last != snap || snap < 20000 {
		t.Fatalf("fixture: %d records, snapshot at %d, want both ≥ 20000 and equal", last, snap)
	}
	trimmed := t.TempDir()
	copyWithoutLeadingFrames(t, whole, trimmed, int(last)-2000)
	few, many := replayCost(t, trimmed).objects, replayCost(t, whole).objects
	t.Logf("allocations per recovery: %d with 2,000 covered records in the segment, %d with %d", few, many, last)
	// (A few dozen either way are the runtime's own: map seeds, a background
	// sweep, the race detector.  One allocation for every tenth covered
	// record would show as 1,800.)
	if diff := int64(many) - int64(few); diff > 200 || diff < -200 {
		t.Errorf("covered records cost allocations: %d with 2,000 of them, %d with %d", few, many, last)
	}

	for _, tail := range []int{200, 4000} {
		dir := t.TempDir()
		last, snap = buildRecoveryDir(t, dir, trees, trees*285, tail)
		c := replayCost(t, dir)
		t.Logf("tail of %d records: retained %d B, allocated %d B in %d objects (%.2f× retained)",
			last-snap, c.retained, c.allocated, c.objects, float64(c.allocated)/float64(c.retained))
		if float64(c.allocated) > 1.6*float64(c.retained) {
			t.Errorf("tail of %d records: recovery allocated %d B to keep %d B", last-snap, c.allocated, c.retained)
		}
	}
}

// TestRecoveredProjectResidentBytes bounds what a recovered 64-tree project
// keeps: 4.44 MB in 63,500 objects while the tables were sync.Maps — an
// entry, a boxed key and a history box per object — and every link had maps
// of its own; 2.43 MB in 32,800 since.  Either coming back fails it.
func TestRecoveredProjectResidentBytes(t *testing.T) {
	dir := t.TempDir()
	last, snap := buildRecoveryDir(t, dir, 64, 64*285, 200)
	c := replayCost(t, dir)
	t.Logf("64 trees, tail of %d records: retained %d B in %d objects", last-snap, c.retained, c.retainedObjects)
	if c.retained > 2_800_000 || c.retainedObjects > 40_000 {
		t.Errorf("the recovered project keeps %d B in %d objects, want ≤ 2,800,000 B in ≤ 40,000", c.retained, c.retainedObjects)
	}
}

// TestRecoveryReadFaultSweep fails every I/O call a recovery makes — every
// open, read, readdir, close, stat and truncate of Open on a directory
// with a snapshot, several segments and a torn tail — once each.  Open
// either fails, naming the fault, or succeeds with exactly the state a
// fault-free recovery reaches; and whatever it did to the directory, a
// fault-free recovery afterwards still reaches that state.  The write
// path's sweep (TestJournalFaultSweep) opens empty directories: the read
// sites are enumerated here.
func TestRecoveryReadFaultSweep(t *testing.T) {
	master := t.TempDir()
	w, db, err := journal.Open(master, journal.Options{SegmentBytes: 2048, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		k, err := db.NewVersion(fmt.Sprintf("blk%d", i%7), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetProp(k, "round", fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if i == 60 {
			if err := w.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.Abort()
	segs, _ := filepath.Glob(filepath.Join(master, "journal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments behind the snapshot, got %v", segs)
	}
	// A torn tail, so that the repair's truncate is one of the sites.
	tail, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail.Write([]byte{40, 0, 0, 0, 1, 2, 3, 4, 'x'})
	tail.Close()

	clone := func() string {
		dir := t.TempDir()
		entries, err := os.ReadDir(master)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(master, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	refDB, refLSN, err := journal.Replay(master, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, refDB)

	counter := faultfs.New(faultfs.OS, faultfs.Plan{})
	cw, _, err := journal.Open(clone(), journal.Options{SnapshotEvery: -1, FS: counter})
	if err != nil {
		t.Fatal(err)
	}
	cw.Abort()
	counts := counter.Counts()
	// One read per window and one that finds the end, for each segment
	// behind the snapshot; the snapshot's own; the directory listing.
	if counts[faultfs.OpRead] < int64(2*len(segs)) || counts[faultfs.OpTruncate] == 0 || counts[faultfs.OpReadDir] == 0 {
		t.Fatalf("recovery of %d segments counted %v: the sweep would miss its read sites", len(segs), counts)
	}

	runs, failed := 0, 0
	for _, op := range faultfs.Ops {
		for n := int64(1); n <= counts[op]; n++ {
			plan := faultfs.SingleFault(op, n, nil)
			desc := plan.Faults[0].String()
			dir := clone()
			fw, fdb, err := journal.Open(dir, journal.Options{SnapshotEvery: -1, FS: faultfs.New(faultfs.OS, plan)})
			runs++
			if err != nil {
				failed++
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Errorf("%s: Open failed without naming the fault: %v", desc, err)
				}
			} else {
				if got := saveBytes(t, fdb); !bytes.Equal(got, want) || fw.LastLSN() != refLSN {
					t.Errorf("%s: Open succeeded at lsn %d with a state that differs from the fault-free recovery's at %d", desc, fw.LastLSN(), refLSN)
				}
				fw.Abort()
			}
			again, lsn, err := journal.Replay(dir, 0)
			if err != nil || lsn != refLSN || !bytes.Equal(saveBytes(t, again), want) {
				t.Errorf("%s: the directory no longer recovers to lsn %d: lsn %d, %v", desc, refLSN, lsn, err)
			}
		}
	}
	t.Logf("swept %d single-fault recoveries over sites %v: %d failed loudly, %d went through", runs, counts, failed, runs-failed)
}
