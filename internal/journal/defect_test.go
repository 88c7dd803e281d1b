package journal_test

// Regression tests for three defects the benchmark ran into on a journaled
// primary (bench/README.md, "What the benchmark found in the seed"), and
// for a snapshot whose streamed write fails part-way.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/meta"
)

// TestSnapshotRepinsPastReclaimedLSN: records arrive and a reclaim pass
// moves the version horizon between Snapshot's read of the newest LSN and
// its pin.  The snapshot must be taken at the newer position; it used to
// fail with ErrViewReclaimed, which the snapshot loop turned into a
// degraded, write-refusing node.
func TestSnapshotRepinsPastReclaimedLSN(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.NewVersion(fmt.Sprintf("blk%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	raced := false
	w.SetPinHook(func() {
		if raced {
			return
		}
		raced = true
		if _, err := db.NewVersion("late", "HDL_model"); err != nil {
			t.Error(err)
		}
		db.ReclaimVersions()
	})
	stale := w.LastLSN()
	if err := w.Snapshot(); err != nil {
		t.Fatalf("snapshot over a reclaim pass: %v", err)
	}
	if db.VersionHorizon() <= stale {
		t.Fatalf("horizon %d did not pass the stale lsn %d: the race was not staged", db.VersionHorizon(), stale)
	}
	if got := w.SnapshotLSN(); got != stale+1 {
		t.Errorf("snapshot covers lsn %d, want the re-pinned %d", got, stale+1)
	}
	if healthy, reason := w.Health(); !healthy {
		t.Errorf("journal degraded: %s", reason)
	}
	want := saveBytes(t, db)
	w.Abort()
	got, lsn, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != stale+1 || !bytes.Equal(saveBytes(t, got), want) {
		t.Errorf("recovered to lsn %d, want %d with the live state", lsn, stale+1)
	}
}

// TestAuditGraphIndexOnJournaledDB: the graph-index audit a policy reload
// runs must not call the nil argument builder of a record it has no
// business writing (the panic left every shard lock taken and wedged the
// node), and must not journal anything.
func TestAuditGraphIndexOnJournaledDB(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := db.NewVersion("cpu", "schematic")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := db.NewVersion("cpu", "netlist")
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.AddLink(meta.DeriveLink, src, dst, "", []string{"outofdate"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		next, err := db.NewVersion("cpu", "netlist")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.RetargetLink(id, dst, next); err != nil {
			t.Fatal(err)
		}
		dst = next
	}
	before := w.LastLSN()
	db.AuditGraphIndex()
	if got := w.LastLSN(); got != before {
		t.Errorf("the audit journaled %d records", got-before)
	}

	// Every lock is free again: a write goes through, on time.
	wrote := make(chan error, 1)
	go func() { wrote <- db.SetProp(dst, "uptodate", "true") }()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a write after the audit hangs: shard locks were left taken")
	}
	want := saveBytes(t, db)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, db2, err := journal.Open(dir, journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !bytes.Equal(saveBytes(t, db2), want) {
		t.Error("state after reopen differs")
	}
}

// TestRotationNamesSegmentAfterWrittenPosition: a record buffered while
// Commit has released its mutex for the fsync is not in the old segment,
// so the segment Commit rotates to must be named after it, not after the
// record that follows it.  Misnamed, the tailer waited for the record in
// the old segment forever and recovery refused the directory.
func TestRotationNamesSegmentAfterWrittenPosition(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS, faultfs.Plan{Faults: []faultfs.Fault{
		{Op: faultfs.OpSync, Path: "journal-", LatencyOnly: true, Latency: 200 * time.Millisecond},
	}})
	w, db, err := journal.Open(dir, journal.Options{SegmentBytes: 256, SnapshotEvery: -1, Fsync: true, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := db.NewVersion(fmt.Sprintf("blk%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	written := w.LastLSN()

	// Another connection's record, the moment the commit is inside its fsync.
	inWindow := make(chan error, 1)
	go func() {
		for inj.Count(faultfs.OpSync) == 0 {
			time.Sleep(time.Millisecond)
		}
		_, err := db.NewVersion("window", "HDL_model")
		inWindow <- err
	}()
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-inWindow; err != nil {
		t.Fatal(err)
	}
	if got := w.CommittedLSN(); got != written {
		t.Fatalf("the commit covered lsn %d, want %d: the record did not fall into the fsync window", got, written)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("journal-%016x.log", written+1))); err != nil {
		names, _ := filepath.Glob(filepath.Join(dir, "journal-*.log"))
		t.Fatalf("no segment named after lsn %d, the first record it receives: %v", written+1, names)
	}
	if _, err := db.NewVersion("after", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	// A follower's tail crosses the boundary without a gap.
	tl := w.NewTailer(0)
	recs, wm := collectTail(t, tl)
	tl.Close()
	if wm != written+2 || len(recs) != int(written+2) {
		t.Fatalf("tailed %d records to watermark %d, want %d", len(recs), wm, written+2)
	}
	for i, r := range recs {
		if r.LSN != int64(i+1) {
			t.Fatalf("tailed record %d has lsn %d", i, r.LSN)
		}
	}

	// And recovery accepts the directory.
	want := saveBytes(t, db)
	w.Abort()
	got, lsn, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatalf("recovery across the rotation: %v", err)
	}
	if lsn != written+2 || !bytes.Equal(saveBytes(t, got), want) {
		t.Errorf("recovered to lsn %d, want %d with the live state", lsn, written+2)
	}
}

// TestSnapshotWriteFailsMidStream fails the second and the fourth write of
// a snapshot long enough to reach the file in several: Snapshot reports
// the error, leaves no temporary file and no snapshot, the journal stays
// healthy, and the next attempt succeeds.
func TestSnapshotWriteFailsMidStream(t *testing.T) {
	// load fills a journal and returns with everything committed; the
	// injector counts writes across all files, so a fault-free run first
	// tells which write is the snapshot's first.
	load := func(inj *faultfs.Injector) (string, *journal.Writer, *meta.DB) {
		dir := t.TempDir()
		w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1, FS: inj})
		if err != nil {
			t.Fatal(err)
		}
		value := strings.Repeat("v", 1<<10)
		for i := 0; i < 300; i++ {
			k, err := db.NewVersion(fmt.Sprintf("blk%d", i), "HDL_model")
			if err != nil {
				t.Fatal(err)
			}
			if err := db.SetProp(k, "note", value); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		return dir, w, db
	}
	counter := faultfs.New(faultfs.OS, faultfs.Plan{})
	_, w, _ := load(counter)
	before := counter.Count(faultfs.OpWrite)
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if writes := counter.Count(faultfs.OpWrite) - before; writes < 5 {
		t.Fatalf("the snapshot took %d writes: it was not streamed", writes)
	}

	for _, nth := range []int64{2, 4} {
		inj := faultfs.New(faultfs.OS, faultfs.SingleFault(faultfs.OpWrite, before+nth, nil))
		dir, w, db := load(inj)
		err := w.Snapshot()
		if err == nil || len(inj.Fired()) != 1 || !strings.Contains(inj.Fired()[0], "snapshot-") {
			t.Fatalf("write %d of the snapshot: err = %v, fired %v", nth, err, inj.Fired())
		}
		if got := inj.Count(faultfs.OpWrite) - before; got != nth {
			t.Errorf("%d writes to the snapshot after write %d failed, want none", got-nth, nth)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "snapshot-*")); len(left) != 0 {
			t.Errorf("a failed snapshot left %v behind", left)
		}
		if healthy, reason := w.Health(); !healthy {
			t.Errorf("a failed snapshot write degraded the journal: %s", reason)
		}
		if err := w.Snapshot(); err != nil {
			t.Fatalf("snapshot after the fault: %v", err)
		}
		want := saveBytes(t, db)
		w.Abort()
		got, _, err := journal.Replay(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, got), want) {
			t.Error("state recovered from the streamed snapshot differs")
		}
	}
}

// TestSnapshotOncePerInterval: every commit made while a snapshot runs
// re-armed the snapshot trigger, and the snapshot zeroed its record count
// only at its end, so the queued signal wrote a second full document right
// after the first.  One snapshot per SnapshotEvery records is the contract.
func TestSnapshotOncePerInterval(t *testing.T) {
	const every = 64
	inj := faultfs.New(nil, faultfs.Plan{})
	w, db, err := journal.Open(t.TempDir(), journal.Options{SnapshotEvery: every, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Each snapshot's pin notes how many records had been written; the
	// first one holds until released.
	var written atomic.Int64
	var mu sync.Mutex
	var pinnedAt []int64
	held, release := make(chan struct{}), make(chan struct{})
	w.SetPinHook(func() {
		mu.Lock()
		pinnedAt = append(pinnedAt, written.Load())
		first := len(pinnedAt) == 1
		mu.Unlock()
		if first {
			close(held)
			<-release
		}
	})
	write := func(records int) {
		for range records {
			if _, err := db.NewVersion(fmt.Sprintf("b%d", written.Add(1)), "v"); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Snapshots are the only renames the journal makes.
	snapshots := func(want int64) {
		t.Helper()
		for start := time.Now(); inj.Count(faultfs.OpRename) < want; time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("snapshot %d never came", want)
			}
		}
	}
	write(every) // arms the trigger: the snapshot holds at its pin
	<-held
	write(every / 4) // commits while it runs
	close(release)
	snapshots(1)
	write(every)
	snapshots(2)
	mu.Lock()
	defer mu.Unlock()
	if want := []int64{every, 2*every + every/4}; !slices.Equal(pinnedAt[:2], want) {
		t.Errorf("snapshots pinned after %v records; want %v, one per %d", pinnedAt, want, every)
	}
}
