package journal_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/server"
)

// mutate exercises every journaled mutation class against db.
func mutate(t *testing.T, db *meta.DB) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var keys []meta.Key
	for _, block := range []string{"cpu", "alu", "reg"} {
		for _, view := range []string{"HDL_model", "netlist"} {
			k, err := db.NewVersion(block, view)
			must(err)
			keys = append(keys, k)
			must(db.SetProp(k, "owner", "yves"))
		}
	}
	must(db.SetProp(keys[0], "sim_result", "4 errors"))
	must(db.UpdateOID(keys[1], func(props map[string]string) {
		props["uptodate"] = "true"
		props["drc"] = "ok"
		delete(props, "owner")
	}))
	must(db.UpdateOID(keys[0], func(props map[string]string) { delete(props, "sim_result") }))

	l1, err := db.AddLink(meta.UseLink, keys[0], keys[2], "tpl_a", []string{"ckin"}, map[string]string{"TYPE": "composition"})
	must(err)
	_, err = db.AddLink(meta.DeriveLink, keys[1], keys[2], "", []string{"outofdate", "ckin"}, map[string]string{"TYPE": "equivalence"})
	must(err)
	_, err = db.AddLink(meta.DeriveLink, keys[3], keys[4], "", []string{"outofdate"}, nil)
	must(err)

	k2, err := db.NewVersion(keys[0].Block, keys[0].View)
	must(err)
	keys = append(keys, k2)
	must(db.RetargetLink(l1, keys[0], k2))

	if _, err := db.SnapshotQuery("everything", func(*meta.OID) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SnapshotQuery("doomed", func(*meta.OID) bool { return false }); err != nil {
		t.Fatal(err)
	}
	must(db.DeleteConfiguration("doomed"))
	must(db.AddWorkspace("ws", "/proj/data"))
	must(db.BindPath("ws", keys[2], "alu/hdl/1"))

	for i := 0; i < 3; i++ {
		if _, err := db.NewVersion("reg", "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalRecoveryRoundTrip crashes (abandons) a journal mid-life and
// checks recovery reproduces the exact committed state, byte for byte in
// its checkpoint.
func TestJournalRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, db)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	want := journal.DBText(t, db)

	// Crash: the writer is never closed; recovery sees only what Commit
	// pushed to the OS.
	got, lsn, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Fatal("no records replayed")
	}
	if !bytes.Equal(want, journal.DBText(t, got)) {
		t.Errorf("recovered state differs from committed state:\n--- live\n%s\n--- recovered\n%s",
			want, journal.DBText(t, got))
	}

	// A second, writable recovery must agree too and keep working.
	w2, db2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, journal.DBText(t, db2)) {
		t.Error("Open recovery differs from Replay recovery")
	}
	if _, err := db2.NewVersion("post", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, _, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journal.DBText(t, db2), journal.DBText(t, db3)) {
		t.Error("post-recovery mutation lost")
	}
}

// TestJournalRecoveryTornWrite is the torn-write sweep: a journal whose
// final record is cut at EVERY byte offset must always recover — to the
// state just before that record, since its write was never acknowledged.
func TestJournalRecoveryTornWrite(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := db.NewVersion("cpu", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetProp(k, "drc", "ok"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	wantTorn := journal.DBText(t, db) // state without the final record

	// The final record: one more property write, committed.
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want 1", segs)
	}
	before, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetProp(k, "sim_result", "good"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	wantFull := journal.DBText(t, db)
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(before) {
		t.Fatalf("final record added no bytes: %d -> %d", len(before), len(full))
	}

	for cut := len(before); cut <= len(full); cut++ {
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, filepath.Base(segs[0])), full[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		w2, db2, err := journal.Open(tdir, journal.Options{})
		if err != nil {
			t.Fatalf("cut at %d/%d bytes: recovery failed: %v", cut, len(full), err)
		}
		want := wantTorn
		if cut == len(full) {
			want = wantFull
		}
		if got := journal.DBText(t, db2); !bytes.Equal(want, got) {
			t.Fatalf("cut at %d/%d bytes: wrong recovered state:\n%s", cut, len(full), got)
		}
		// The repaired journal must accept appends and survive another
		// recovery: the truncated tail cannot poison the next generation.
		if err := db2.SetProp(k, "resumed", "true"); err != nil {
			t.Fatal(err)
		}
		if err := w2.Commit(); err != nil {
			t.Fatalf("cut at %d: append after repair: %v", cut, err)
		}
		db3, _, err := journal.Replay(tdir, 0)
		if err != nil {
			t.Fatalf("cut at %d: re-recovery: %v", cut, err)
		}
		if !bytes.Equal(journal.DBText(t, db2), journal.DBText(t, db3)) {
			t.Fatalf("cut at %d: post-repair append lost", cut)
		}
	}
}

// TestJournalRecoveryAfterRotationAndSnapshot forces segment rotation and
// snapshots, checks compaction deletes covered segments and stale
// snapshots, and that recovery from the compacted directory is exact.
func TestJournalRecoveryAfterRotationAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SegmentBytes: 256, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		k, err := db.NewVersion(fmt.Sprintf("blk%d", i%5), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetProp(k, "round", fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore, _ := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if len(segsBefore) < 3 {
		t.Fatalf("rotation did not happen: %d segments", len(segsBefore))
	}
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(); err != nil { // idempotent when nothing new
		t.Fatal(err)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if len(segsAfter) != 1 {
		t.Errorf("compaction left %d segments, want 1 (the tail)", len(segsAfter))
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.json"))
	if len(snaps) != 1 {
		t.Errorf("compaction left %d snapshots, want 1", len(snaps))
	}

	// More traffic after the snapshot, then crash-recover.
	k, err := db.NewVersion("after", "netlist")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetProp(k, "fresh", "yes"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journal.DBText(t, db), journal.DBText(t, got)) {
		t.Error("recovery after rotation+snapshot+compaction differs from live state")
	}
}

// TestJournalRecoveryCorruptionMidStreamFails checks that damage anywhere
// but the journal tail fails recovery instead of silently dropping
// acknowledged history.
func TestJournalRecoveryCorruptionMidStreamFails(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SegmentBytes: 128, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.NewVersion(fmt.Sprintf("b%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %d", len(segs))
	}
	// Flip one payload byte in the middle of the FIRST segment.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err = journal.Replay(dir, 0)
	if err == nil {
		t.Fatal("recovery accepted mid-stream corruption")
	}
	t.Logf("recovery refused, as it must: %v", err)
}

// TestJournalRecoverySnapshotOverUncommittedBuffer snapshots while
// records sit only in the writer's memory buffer, then crashes: the
// snapshot must not outrun the on-disk log in a way that leaves the next
// append discontinuous — recovery, append, and a second recovery must all
// succeed with nothing lost.
func TestJournalRecoverySnapshotOverUncommittedBuffer(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	k, err := db.NewVersion("cpu", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Buffered but deliberately not committed, then snapshot.
	if err := db.SetProp(k, "buffered", "yes"); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := journal.DBText(t, db)

	// Crash, recover, append, crash, recover.
	w2, db2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, journal.DBText(t, db2)) {
		t.Error("snapshot lost the buffered record")
	}
	if err := db2.SetProp(k, "after", "crash"); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	db3, _, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatalf("recovery after post-snapshot append: %v", err)
	}
	if !bytes.Equal(journal.DBText(t, db2), journal.DBText(t, db3)) {
		t.Error("post-snapshot append lost")
	}
}

// TestJournalRecoveryCorruptionBeforeValidTailFails flips a byte in the
// MIDDLE of the last segment, with acknowledged records after it: this is
// corruption, not a torn tail, and recovery must refuse rather than
// silently truncate the acknowledged suffix away.
func TestJournalRecoveryCorruptionBeforeValidTailFails(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.NewVersion(fmt.Sprintf("b%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err = journal.Replay(dir, 0)
	if err == nil {
		t.Fatal("recovery silently truncated acknowledged records after mid-segment corruption")
	}
	if !strings.Contains(err.Error(), "corruption") {
		t.Errorf("error does not name corruption: %v", err)
	}
}

// TestJournalRecoveryMissingSegmentFails deletes a middle segment: the
// record stream has a gap, and recovery must refuse rather than replay
// the surviving tail onto a state missing the middle of its history.
func TestJournalRecoveryMissingSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SegmentBytes: 128, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.NewVersion(fmt.Sprintf("b%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	_, _, err = journal.Replay(dir, 0)
	if err == nil {
		t.Fatal("recovery accepted a record stream with a missing segment")
	}
	if !strings.Contains(err.Error(), "gap") {
		t.Errorf("error does not name the gap: %v", err)
	}
}

// TestJournalRecoverySnapshotDuringLiveWrites runs checkin-shaped writers
// concurrently with repeated snapshots (under -race in CI): snapshots must
// never deadlock with or corrupt the write stream, writers keep making
// progress, and the final recovered state equals the final live state.
func TestJournalRecoverySnapshotDuringLiveWrites(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SegmentBytes: 1 << 16, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k, err := db.NewVersion(fmt.Sprintf("w%d-b%d", g, i), "HDL_model")
				if err != nil {
					t.Error(err)
					return
				}
				if err := db.SetProp(k, "state", "checked_in"); err != nil {
					t.Error(err)
					return
				}
				if err := w.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	stopSnap := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if err := w.Snapshot(); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-stopSnap:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	wg.Wait()
	close(stopSnap)
	<-done
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journal.DBText(t, db), journal.DBText(t, got)) {
		t.Error("recovery differs after concurrent snapshots")
	}
}

// TestJournalRecoveryThroughServer drives the full stack — engine and TCP
// server with an attached journal — then recovers from the abandoned
// journal directory and compares the REPORT body a fresh server produces.
func TestJournalRecoveryThroughServer(t *testing.T) {
	dir := t.TempDir()
	report1 := runServerTraffic(t, dir)

	// Recover (the first writer was never closed — a crash) and serve the
	// report again from a brand-new stack.
	w, db, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(db, bp, engine.WithJournal(w))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.WithJournal(w))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	report2, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(report1, "\n") != strings.Join(report2, "\n") {
		t.Errorf("post-recovery REPORT differs:\n--- before\n%s\n--- after\n%s",
			strings.Join(report1, "\n"), strings.Join(report2, "\n"))
	}
}

// runServerTraffic stands up a journaled server on dir, drives design
// traffic over TCP, and returns the REPORT body right before abandoning
// the stack without closing the journal (simulating a crash).
func runServerTraffic(t *testing.T, dir string) []string {
	t.Helper()
	w, db, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(db, bp, engine.WithJournal(w))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.WithJournal(w))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.User = "yves"

	parent, err := c.Create("CPU", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	child, err := c.Create("ALU", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Link("use", parent, child); err != nil {
		t.Fatal(err)
	}
	for _, k := range []meta.Key{parent, child} {
		if err := c.PostEvent("ckin", "up", k, "initial checkin"); err != nil {
			t.Fatal(err)
		}
		if err := c.PostEvent("hdl_sim", "down", k, "good"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Snapshot("milestone", "*"); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	report, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	return report
}
