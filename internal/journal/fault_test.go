package journal_test

// Disk-fault injection tests for the journal's degraded-mode contract:
// every single-fault run must end in exactly one of two states — fully
// recovered byte-identical to a fault-free reference, or explicitly
// degraded with reads serving and writes refused.  There is no third
// state: never a silent loss of an acknowledged record, never a commit
// acknowledged after the disk stopped cooperating.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/meta"
)

// faultWorkload drives a deterministic commit-per-step workload and
// returns the LSN acknowledged durable by the last successful Commit plus
// the first commit failure.  snap adds a mid-run Snapshot so the sweep
// covers snapshot and compaction I/O sites; a failed snapshot is
// tolerated — the log retains everything, so only the commit path decides
// the run's fate.  One property is longer than the snapshot encoder's
// flush mark, so the streamed document reaches its file in more than one
// write and the sweep fails each of them in turn.
func faultWorkload(w *journal.Writer, db *meta.DB, snap bool) (acked int64, failed error) {
	for i := 0; i < 8; i++ {
		k, err := db.NewVersion(fmt.Sprintf("blk%d", i%3), "HDL_model")
		if err != nil {
			return acked, err
		}
		if err := db.SetProp(k, "round", fmt.Sprint(i)); err != nil {
			return acked, err
		}
		if i == 4 {
			if err := db.SetProp(k, "log", strings.Repeat("x", 48<<10)); err != nil {
				return acked, err
			}
		}
		if err := w.Commit(); err != nil {
			return acked, err
		}
		acked = w.CommittedLSN()
		if snap && i == 4 {
			_ = w.Snapshot()
		}
	}
	return acked, nil
}

// sweepOpts are the faulty runs' options: segments tiny enough to rotate,
// fsync on every commit so the sync site exists, snapshots manual.
func sweepOpts(fs faultfs.FS) journal.Options {
	return journal.Options{SegmentBytes: 256, SnapshotEvery: -1, Fsync: true, FS: fs}
}

// buildFaultShadow runs the workload fault-free on the real filesystem
// with its raw log fully retained (one big segment, no snapshot), so
// ReplayUpTo over it yields the exact reference state at ANY lsn a faulty
// run might recover to.
func buildFaultShadow(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faultWorkload(w, db, false); err != nil {
		t.Fatal(err)
	}
	w.Abort() // keep the raw log: Close would fold it into a snapshot
	return dir
}

// requireRecovers is the sweep's no-third-state assertion: the faulty
// directory, read back with a CLEAN filesystem (the fault has been
// repaired), must recover without error, to at least the acknowledged
// position, and byte-identical to the fault-free reference at whatever
// lsn it reached.
func requireRecovers(t *testing.T, desc, dir, shadow string, acked int64) {
	t.Helper()
	got, lsn, err := journal.Replay(dir, 0)
	if err != nil {
		t.Errorf("%s: THIRD STATE — neither recovered nor cleanly degraded: replay failed: %v", desc, err)
		return
	}
	if lsn < acked {
		t.Errorf("%s: acknowledged lsn %d lost — recovered only to %d", desc, acked, lsn)
		return
	}
	want, wlsn, err := journal.ReplayUpTo(shadow, lsn)
	if err != nil {
		t.Fatalf("%s: shadow replay to lsn %d: %v", desc, lsn, err)
	}
	if wlsn != lsn {
		t.Fatalf("%s: shadow replay reached lsn %d, want %d", desc, wlsn, lsn)
	}
	if !bytes.Equal(journal.DBText(t, got), journal.DBText(t, want)) {
		t.Errorf("%s: recovered state at lsn %d diverges from the fault-free reference", desc, lsn)
	}
}

// sweepRun executes the workload with one injected fault and asserts the
// degraded-mode contract end to end.
func sweepRun(t *testing.T, shadow string, plan faultfs.Plan) {
	t.Helper()
	desc := plan.Faults[0].String()
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS, plan)
	w, db, err := journal.Open(dir, sweepOpts(inj))
	if err != nil {
		// The fault hit during Open: nothing was ever acknowledged, and a
		// clean reopen must recover the (empty) journal.
		w2, _, err2 := journal.Open(dir, journal.Options{SnapshotEvery: -1})
		if err2 != nil {
			t.Errorf("%s: open failed (%v) and clean reopen failed too: %v", desc, err, err2)
			return
		}
		if w2.LastLSN() != 0 {
			t.Errorf("%s: records appeared out of nowhere: lsn %d", desc, w2.LastLSN())
		}
		w2.Abort()
		return
	}
	acked, failed := faultWorkload(w, db, true)

	healthy, reason := w.Health()
	if failed != nil && healthy {
		t.Errorf("%s: commit failed (%v) but the journal reports healthy", desc, failed)
	}
	if !healthy {
		// The degraded contract: an explicit reason, reads still serving,
		// writes refused from now on.
		if reason == "" {
			t.Errorf("%s: degraded with an empty reason", desc)
		}
		if len(journal.DBText(t, db)) == 0 {
			t.Errorf("%s: degraded journal stopped serving reads", desc)
		}
		if _, err := db.NewVersion("probe", "HDL_model"); err != nil {
			t.Fatalf("%s: in-memory mutation failed: %v", desc, err)
		}
		if err := w.Commit(); err == nil {
			t.Errorf("%s: degraded journal acknowledged a new commit", desc)
		} else if !strings.Contains(err.Error(), "journal") {
			t.Errorf("%s: degraded commit error does not name the journal: %v", desc, err)
		}
	}
	w.Abort() // crash
	requireRecovers(t, desc, dir, shadow, acked)
}

// TestJournalFaultSweep fails every I/O site of the journal's write path
// — every open, write, sync, rename, remove, readdir, close and mkdir the
// workload performs — exactly once each, one run per site, and asserts
// the two-state contract for every run.  The site list comes from a
// fault-free counting run over the same deterministic workload, so the
// sweep is exhaustive by construction: a new I/O call in the journal
// automatically grows the sweep.
func TestJournalFaultSweep(t *testing.T) {
	shadow := buildFaultShadow(t)

	counter := faultfs.New(faultfs.OS, faultfs.Plan{})
	dir := t.TempDir()
	w, db, err := journal.Open(dir, sweepOpts(counter))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faultWorkload(w, db, true); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.json")); len(snaps) != 1 {
		t.Fatalf("counting run left snapshots %v", snaps)
	} else if fi, err := os.Stat(snaps[0]); err != nil || fi.Size() < 48<<10 {
		t.Fatalf("snapshot too short to be streamed in several writes: %v %v", fi, err)
	}
	counts := counter.Counts()
	for _, op := range []faultfs.Op{faultfs.OpOpen, faultfs.OpWrite, faultfs.OpSync, faultfs.OpRename, faultfs.OpRemove} {
		if counts[op] == 0 {
			t.Fatalf("workload exercises no %v site — the sweep would be vacuous (counts: %v)", op, counts)
		}
	}

	ops := make([]faultfs.Op, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	runs := 0
	for _, op := range ops {
		for n := int64(1); n <= counts[op]; n++ {
			sweepRun(t, shadow, faultfs.SingleFault(op, n, nil))
			runs++
		}
	}
	t.Logf("swept %d single-fault runs over sites %v", runs, counts)
}

// TestJournalENOSPCCompactsAndResumes is the full-disk survival path: a
// journal whose compaction has lagged (simulated by transiently failing
// removes) hits ENOSPC mid-append, frees space by compacting behind its
// newest snapshot, retries the append, and keeps running healthy — the
// disk filling up is not a durability failure while reclaimable history
// exists.
func TestJournalENOSPCCompactsAndResumes(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: build history whose compaction lagged.  Every Remove fails
	// (compaction is best-effort and shrugs), so the snapshot is installed
	// but the segments it covers stay on disk — reclaimable garbage.
	inj1 := faultfs.New(faultfs.OS, faultfs.Plan{Faults: []faultfs.Fault{
		{Op: faultfs.OpRemove, Sticky: true},
	}})
	w1, db1, err := journal.Open(dir, journal.Options{SegmentBytes: 256, SnapshotEvery: -1, FS: inj1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		k, err := db1.NewVersion(fmt.Sprintf("old%d", i), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		if err := db1.SetProp(k, "phase", "one"); err != nil {
			t.Fatal(err)
		}
		if err := w1.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if healthy, reason := w1.Health(); !healthy {
		t.Fatalf("failed removes must not degrade the journal: %s", reason)
	}
	w1.Abort()

	// Phase 2: reopen on a nearly-full disk.  The budget fits a few more
	// commits; then ENOSPC forces the emergency compaction, which reclaims
	// phase 1's covered segments and the append retries through.
	inj2 := faultfs.New(faultfs.OS, faultfs.Plan{DiskBytes: 600})
	w2, db2, err := journal.Open(dir, journal.Options{SegmentBytes: 1 << 20, SnapshotEvery: -1, FS: inj2})
	if err != nil {
		t.Fatal(err)
	}
	sawENOSPC := false
	for i := 0; i < 400; i++ {
		k, err := db2.NewVersion(fmt.Sprintf("new%d", i), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		if err := db2.SetProp(k, "phase", "two"); err != nil {
			t.Fatal(err)
		}
		if err := w2.Commit(); err != nil {
			t.Fatalf("commit %d failed despite reclaimable history on disk: %v", i, err)
		}
		if len(inj2.Fired()) > 0 {
			sawENOSPC = true
			break
		}
	}
	if !sawENOSPC {
		t.Fatal("the disk budget never filled — the ENOSPC path was not exercised")
	}
	if healthy, reason := w2.Health(); !healthy {
		t.Fatalf("journal degraded instead of compacting through ENOSPC: %s", reason)
	}

	// The node keeps accepting writes in the reclaimed space.
	for i := 0; i < 3; i++ {
		k, err := db2.NewVersion(fmt.Sprintf("post%d", i), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		if err := db2.SetProp(k, "phase", "resumed"); err != nil {
			t.Fatal(err)
		}
		if err := w2.Commit(); err != nil {
			t.Fatalf("commit after the emergency compaction: %v", err)
		}
	}
	want := journal.DBText(t, db2)
	w2.Abort()

	// The log the ENOSPC retry resumed into must be seamless: a clean
	// recovery reproduces the exact live state.
	got, _, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatalf("recovery after ENOSPC compaction: %v", err)
	}
	if !bytes.Equal(want, journal.DBText(t, got)) {
		t.Error("recovered state differs after the ENOSPC-compact-retry append")
	}
}

// TestJournalFsyncGate is the fsyncgate regression: after one failed
// fsync the watermark must never advance, the failure must be sticky
// (no later commit acknowledged), and a tailer must never deliver the
// unsynced suffix — it learns of the degradation through an explicit
// health event instead of waiting forever.
func TestJournalFsyncGate(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS, faultfs.Plan{Faults: []faultfs.Fault{
		{Op: faultfs.OpSync, Nth: 4, Sticky: true, Path: "journal-"},
	}})
	w, db, err := journal.Open(dir, journal.Options{Fsync: true, SnapshotEvery: -1, FS: inj})
	if err != nil {
		t.Fatal(err)
	}

	var keys []meta.Key
	for i := 0; i < 3; i++ {
		k, err := db.NewVersion(fmt.Sprintf("ok%d", i), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	wm := w.CommittedLSN()
	if wm == 0 {
		t.Fatal("no watermark before the fault")
	}

	// A follower tail, caught up to the watermark.
	tl := w.NewTailer(0)
	defer tl.Close()
	stop := make(chan struct{})
	var delivered []int64
	for {
		ev, err := tl.Next(stop)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == journal.FollowMark {
			if ev.Watermark != wm {
				t.Fatalf("caught-up watermark %d, want %d", ev.Watermark, wm)
			}
			break
		}
		if ev.Kind == journal.FollowRecord {
			rec, err := journal.DecodePayload(ev.Payload())
			if err != nil {
				t.Fatal(err)
			}
			delivered = append(delivered, rec.LSN)
		}
	}

	// The 4th segment fsync fails — and keeps failing.
	if err := db.SetProp(keys[0], "unsynced", "true"); err != nil {
		t.Fatal(err)
	}
	err = w.Commit()
	if err == nil {
		t.Fatal("commit acknowledged over a failed fsync")
	}
	if !strings.Contains(err.Error(), "fsync") {
		t.Errorf("commit error does not name the fsync: %v", err)
	}
	if got := w.CommittedLSN(); got != wm {
		t.Fatalf("watermark advanced to %d past a failed fsync (was %d)", got, wm)
	}
	if healthy, reason := w.Health(); healthy || !strings.Contains(reason, "fsync") {
		t.Fatalf("health = (%v, %q), want degraded with an fsync reason", healthy, reason)
	}

	// Sticky: the next commit is refused too, and the watermark stays put.
	if err := db.SetProp(keys[1], "also-unsynced", "true"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err == nil {
		t.Fatal("second commit acknowledged on a degraded journal")
	}
	if got := w.CommittedLSN(); got != wm {
		t.Fatalf("watermark moved to %d on a degraded journal", got)
	}

	// The parked tailer gets exactly one health event after the final
	// watermark — never a record from the unsynced suffix.
	ev, err := tl.Next(stop)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != journal.FollowHealth {
		t.Fatalf("tailer produced kind %v past a failed fsync, want FollowHealth", ev.Kind)
	}
	if ev.Reason == "" {
		t.Fatalf("health event = %+v, want a reason", ev)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	if ev, err := tl.Next(stop); err != journal.ErrTailStopped {
		t.Fatalf("tailer delivered (%v, %v) past a failed fsync, want ErrTailStopped", ev, err)
	}
	for _, lsn := range delivered {
		if lsn > wm {
			t.Fatalf("tailer shipped lsn %d above the durable watermark %d", lsn, wm)
		}
	}

	// Crash and recover with a healthy disk: the acknowledged prefix is
	// intact.  (The unsynced suffix MAY survive — it was written, just not
	// synced — which is allowed: it was never acknowledged to anyone.)
	w.Abort()
	_, lsn, err := journal.Replay(dir, 0)
	if err != nil {
		t.Fatalf("recovery after fsync failure: %v", err)
	}
	if lsn < wm {
		t.Fatalf("recovery lost acknowledged records: lsn %d < watermark %d", lsn, wm)
	}
}

// TestCommitCoveredIssuesNoSync: Commit covers its caller — one with
// nothing assigned since the last successful commit neither writes nor
// syncs, and the next record is synced again.
func TestCommitCoveredIssuesNoSync(t *testing.T) {
	inj := faultfs.New(faultfs.OS, faultfs.Plan{})
	w, db, err := journal.Open(t.TempDir(), journal.Options{Fsync: true, SnapshotEvery: -1, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	commit := func(wantWrites, wantSyncs int64) {
		t.Helper()
		writes, syncs := inj.Count(faultfs.OpWrite), inj.Count(faultfs.OpSync)
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := inj.Count(faultfs.OpWrite) - writes; got != wantWrites {
			t.Errorf("commit wrote %d times, want %d", got, wantWrites)
		}
		if got := inj.Count(faultfs.OpSync) - syncs; got != wantSyncs {
			t.Errorf("commit synced %d times, want %d", got, wantSyncs)
		}
	}
	commit(0, 0) // a fresh journal: nothing assigned yet
	if _, err := db.NewVersion("cpu", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	commit(1, 1)
	commit(0, 0)
	if w.CommittedLSN() != w.LastLSN() {
		t.Fatalf("watermark %d short of lsn %d", w.CommittedLSN(), w.LastLSN())
	}
	if _, err := db.NewVersion("alu", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	commit(1, 1)
}

// followerAt3 opens a follower's journal in dir through vfs and applies and
// commits three records.
func followerAt3(t *testing.T, dir string, vfs faultfs.FS) *journal.Writer {
	t.Helper()
	w, _, err := journal.OpenFollower(dir, journal.Options{SnapshotEvery: -1, FS: vfs})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := w.ApplyAppend(oidFrame(i, fmt.Sprintf("old%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return w
}

func oidFrame(lsn int64, block string) []byte {
	return journal.Frame(meta.Record{LSN: lsn, Seq: lsn, Op: meta.OpOID, Args: []string{block + ",HDL_model,1", fmt.Sprint(lsn)}})
}

// TestBootstrapSnapshotFaultSweep fails every I/O site of BootstrapSnapshot
// once each, one run per site, and then lives on as a follower does: restart
// (re-basing again if the first re-base did not take), apply and commit the
// records after the snapshot, restart.  Every run must recover, both times,
// to the shipped checkpoint plus those records.  A crash between installing
// the snapshot and creating the segment after it used to recover once and
// then never again: the records after the snapshot went into the old tail
// segment, behind records from before it.
func TestBootstrapSnapshotFaultSweep(t *testing.T) {
	primary := meta.NewDB()
	var want []meta.Key
	for i := 0; i < 4; i++ {
		k, err := primary.NewVersion(fmt.Sprintf("doc%d", i), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	doc, err := journal.CheckpointOf(primary, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(51); i <= 53; i++ {
		want = append(want, meta.Key{Block: fmt.Sprintf("new%d", i), View: "HDL_model", Version: 1})
	}

	counter := faultfs.New(faultfs.OS, faultfs.Plan{})
	w := followerAt3(t, t.TempDir(), counter)
	before := counter.Counts()
	if err := w.BootstrapSnapshot(50, doc); err != nil {
		t.Fatal(err)
	}
	after := counter.Counts()
	w.Abort()
	for _, op := range []faultfs.Op{faultfs.OpOpen, faultfs.OpWrite, faultfs.OpSync, faultfs.OpRename, faultfs.OpRemove} {
		if after[op] == before[op] {
			t.Fatalf("BootstrapSnapshot exercises no %v site — the sweep would be vacuous (before %v, after %v)", op, before, after)
		}
	}

	runs := 0
	for _, op := range faultfs.Ops {
		for n := before[op] + 1; n <= after[op]; n++ {
			plan := faultfs.SingleFault(op, n, nil)
			dir := t.TempDir()
			w := followerAt3(t, dir, faultfs.New(faultfs.OS, plan))
			desc := fmt.Sprintf("%s (bootstrap: %v)", plan.Faults[0], w.BootstrapSnapshot(50, doc))
			w.Abort()
			w, db, err := journal.OpenFollower(dir, journal.Options{SnapshotEvery: -1})
			if err != nil {
				t.Errorf("%s: first restart: %v", desc, err)
				continue
			}
			if w.LastLSN() < 50 {
				if err := w.BootstrapSnapshot(50, doc); err != nil {
					t.Errorf("%s: re-bootstrap at lsn %d: %v", desc, w.LastLSN(), err)
				}
			}
			for i := int64(51); i <= 53; i++ {
				if _, err := w.ApplyAppend(oidFrame(i, fmt.Sprintf("new%d", i))); err != nil {
					t.Errorf("%s: apply %d: %v", desc, i, err)
				}
			}
			if err := w.Commit(); err != nil {
				t.Errorf("%s: commit: %v", desc, err)
			}
			w.Abort()
			w, db, err = journal.OpenFollower(dir, journal.Options{SnapshotEvery: -1})
			if err != nil {
				t.Errorf("%s: second restart: %v", desc, err)
				continue
			}
			if got := db.Head().Keys(); w.LastLSN() != 53 || !slices.Equal(got, want) {
				t.Errorf("%s: recovered to lsn %d with %v, want 53 with %v", desc, w.LastLSN(), got, want)
			}
			w.Abort()
			runs++
		}
	}
	t.Logf("swept %d single-fault runs over BootstrapSnapshot's sites: counts %v before it, %v after", runs, before, after)
}
