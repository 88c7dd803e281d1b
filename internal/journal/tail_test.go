package journal_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/meta"
)

// collectTail drains a tailer until it reports a caught-up watermark,
// returning the records delivered before it.
func collectTail(t *testing.T, tl *journal.Tailer) ([]meta.Record, int64) {
	t.Helper()
	var recs []meta.Record
	stop := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(stop) })
	defer timer.Stop()
	for {
		ev, err := tl.Next(stop)
		if err != nil {
			t.Fatalf("tail: %v (after %d records)", err, len(recs))
		}
		switch ev.Kind {
		case journal.FollowRecord:
			rec, err := journal.DecodePayload(ev.Payload())
			if err != nil {
				t.Fatalf("tail: record %d: %v", len(recs)+1, err)
			}
			recs = append(recs, rec)
		case journal.FollowSnapshot:
			t.Fatalf("unexpected snapshot bootstrap at lsn %d", ev.SnapLSN)
		case journal.FollowMark:
			return recs, ev.Watermark
		}
	}
}

// TestTailerStreamsCommittedRecords: a tail from zero delivers exactly
// the committed records in contiguous LSN order, keeps delivering as the
// writer commits more, and never delivers anything still sitting in the
// writer's uncommitted buffer.
func TestTailerStreamsCommittedRecords(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for i := 0; i < 5; i++ {
		if _, err := db.NewVersion(fmt.Sprintf("blk%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	tl := w.NewTailer(0)
	defer tl.Close()
	recs, wm := collectTail(t, tl)
	if len(recs) != 5 || wm != 5 {
		t.Fatalf("got %d records, watermark %d, want 5 and 5", len(recs), wm)
	}
	for i, r := range recs {
		if r.LSN != int64(i+1) {
			t.Fatalf("record %d has lsn %d, want %d", i, r.LSN, i+1)
		}
		if r.Op != meta.OpOID {
			t.Fatalf("record %d op %q, want %q", i, r.Op, meta.OpOID)
		}
	}

	// Mutations that are buffered but not committed must stay invisible.
	if err := db.SetProp(meta.Key{Block: "blk0", View: "HDL_model", Version: 1}, "state", "good"); err != nil {
		t.Fatal(err)
	}
	got := make(chan journal.FollowEvent, 1)
	stop := make(chan struct{})
	go func() {
		ev, err := tl.Next(stop)
		if err == nil {
			got <- ev
		}
	}()
	select {
	case ev := <-got:
		t.Fatalf("tailer delivered uncommitted data: %+v", ev)
	case <-time.After(100 * time.Millisecond):
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		if rec, err := journal.DecodePayload(ev.Payload()); ev.Kind != journal.FollowRecord || err != nil || rec.LSN != 6 || rec.Op != meta.OpUpdate {
			t.Fatalf("after commit, got %+v, want the lsn-6 update record", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tailer never woke up after the commit")
	}
	close(stop)
}

// TestTailerCrossesSegmentRotation: tiny segments force rotations; the
// tail must follow the record stream across segment boundaries without a
// gap.
func TestTailerCrossesSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SegmentBytes: 256, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const n = 60
	for i := 0; i < n; i++ {
		if _, err := db.NewVersion(fmt.Sprintf("b%02d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	tl := w.NewTailer(0)
	defer tl.Close()
	recs, _ := collectTail(t, tl)
	if len(recs) != n {
		t.Fatalf("got %d records across rotations, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != int64(i+1) {
			t.Fatalf("record %d has lsn %d, want %d", i, r.LSN, i+1)
		}
	}
}

// TestTailerStaleLSNBootstrapsFromSnapshot: when compaction has deleted
// the segments behind a tail position, the tail must hand over the newest
// snapshot (which a follower installs cleanly, as the very file the primary
// holds, reflecting exactly its LSN) and resume records immediately after
// it — the stale-follower re-bootstrap path.
func TestTailerStaleLSNBootstrapsFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SegmentBytes: 256, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for i := 0; i < 30; i++ {
		if _, err := db.NewVersion(fmt.Sprintf("b%02d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(); err != nil { // compacts covered segments away
		t.Fatal(err)
	}
	snapLSN := w.SnapshotLSN()
	if snapLSN != 30 {
		t.Fatalf("snapshot lsn %d, want 30", snapLSN)
	}
	for i := 30; i < 35; i++ {
		if _, err := db.NewVersion(fmt.Sprintf("b%02d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	tl := w.NewTailer(1) // position 1 predates every retained segment
	defer tl.Close()
	stop := make(chan struct{})
	defer close(stop)
	ev, err := tl.Next(stop)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != journal.FollowSnapshot || ev.SnapLSN != snapLSN {
		t.Fatalf("first event %+v, want a snapshot bootstrap at lsn %d", ev, snapLSN)
	}
	fdir := t.TempDir()
	f, restored, err := journal.OpenFollower(fdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Abort()
	if err := f.BootstrapSnapshot(ev.SnapLSN, ev.Snapshot); err != nil {
		t.Fatalf("bootstrap snapshot does not install: %v", err)
	}
	if got := restored.Head().Stats().OIDs; got != 30 {
		t.Fatalf("bootstrap snapshot has %d oids, want 30", got)
	}
	name := fmt.Sprintf("snapshot-%016x.json", snapLSN)
	primary, perr := os.ReadFile(filepath.Join(dir, name))
	follower, ferr := os.ReadFile(filepath.Join(fdir, name))
	if perr != nil || ferr != nil || !bytes.Equal(primary, follower) {
		t.Fatalf("the follower's %s is not the primary's (%v, %v):\n%q\n%q", name, perr, ferr, primary, follower)
	}
	recs, wm := collectTail(t, tl)
	if len(recs) != 5 || wm != 35 {
		t.Fatalf("got %d post-snapshot records, watermark %d, want 5 and 35", len(recs), wm)
	}
	if recs[0].LSN != snapLSN+1 {
		t.Fatalf("records resume at lsn %d, want %d", recs[0].LSN, snapLSN+1)
	}
}

// TestFollowerLogResumeAndDuplicates: the follower-side journal preserves
// primary LSNs across Abort (crash) restarts, skips duplicate records,
// and refuses gaps.
func TestFollowerLogResumeAndDuplicates(t *testing.T) {
	dir := t.TempDir()
	w, _, err := journal.OpenFollower(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(lsn int64, block string) []byte {
		return journal.Frame(meta.Record{LSN: lsn, Seq: lsn, Op: meta.OpOID,
			Args: []string{block + ",HDL_model,1", fmt.Sprint(lsn)}})
	}
	for i := 1; i <= 3; i++ {
		if _, err := w.ApplyAppend(rec(int64(i), fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// A duplicate is skipped silently (reconnect overlap), at the position
	// it does not move...
	if lsn, err := w.ApplyAppend(rec(2, "a2")); err != nil || lsn != 3 {
		t.Fatalf("duplicate record should be skipped at lsn 3, got lsn %d, %v", lsn, err)
	}
	if w.LastLSN() != 3 {
		t.Fatalf("lastLSN %d after duplicate, want 3", w.LastLSN())
	}
	// ...a gap is terminal.
	if _, err := w.ApplyAppend(rec(5, "a5")); err == nil {
		t.Fatal("gap record (lsn 5 after 3) must be refused")
	}

	// Crash: the buffer beyond the last commit is lost, the persisted
	// position survives, and a reopened follower resumes exactly there.
	if _, err := w.ApplyAppend(rec(4, "a4")); err != nil {
		t.Fatal(err)
	}
	w.Abort() // record 4 was never committed

	w2, db2, err := journal.OpenFollower(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.LastLSN() != 3 {
		t.Fatalf("reopened follower at lsn %d, want 3 (uncommitted tail lost)", w2.LastLSN())
	}
	if got := db2.Head().Stats().OIDs; got != 3 {
		t.Fatalf("reopened follower has %d oids, want 3", got)
	}
	// Re-fetching the lost record resumes without duplicate application.
	if _, err := w2.ApplyAppend(rec(4, "a4")); err != nil {
		t.Fatal(err)
	}
	if w2.LastLSN() != 4 || db2.Head().Stats().OIDs != 4 {
		t.Fatalf("resume: lsn %d oids %d, want 4 and 4", w2.LastLSN(), db2.Head().Stats().OIDs)
	}
}

// TestBootstrapSnapshotKeepsPinnedViews: a re-bootstrap swaps the follower
// database's content under the *DB everyone holds.  A view pinned before it
// goes on reading the old content, byte for byte; the database reads as the
// shipped document, live and through a new view; the horizon is the
// snapshot's LSN; and the stream resumes on top of it.
func TestBootstrapSnapshotKeepsPinnedViews(t *testing.T) {
	w, db, err := journal.OpenFollower(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	oid := func(lsn int64, block string) []byte {
		return journal.Frame(meta.Record{LSN: lsn, Seq: lsn, Op: meta.OpOID,
			Args: []string{block + ",HDL_model,1", fmt.Sprint(lsn)}})
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := w.ApplyAppend(oid(i, fmt.Sprintf("old%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	save := func(v *meta.View) []byte {
		var buf bytes.Buffer
		if err := v.SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	pinned := db.ReadView()
	defer pinned.Close()
	before := save(pinned)

	// The primary's document: other objects, a link, a promotion on the way.
	primary := meta.NewDB()
	a, _ := primary.NewVersion("cpu", "HDL_model")
	b, _ := primary.NewVersion("cpu", "schematic")
	if err := primary.SetProp(a, "sim_result", "good"); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.AddLink(meta.DeriveLink, a, b, "", []string{"outofdate"}, nil); err != nil {
		t.Fatal(err)
	}
	// (An unjournaled database stamps 1, 2, …: its fourth mutation was the link.)
	if err := primary.ApplyRecord(meta.Record{LSN: 4, Seq: primary.Seq(), Op: meta.OpTerm, Args: []string{"2"}}); err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := primary.Save(&doc); err != nil {
		t.Fatal(err)
	}
	ckpt, err := journal.CheckpointOf(doc.Bytes(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BootstrapSnapshot(50, ckpt); err != nil {
		t.Fatal(err)
	}

	old := meta.Key{Block: "old1", View: "HDL_model", Version: 1}
	if !pinned.HasOID(old) || pinned.HasOID(a) || !bytes.Equal(save(pinned), before) {
		t.Errorf("the view pinned before the re-bootstrap reads differently after it:\n%s", save(pinned))
	}
	if db.Head().HasOID(old) || !db.Head().HasOID(a) || len(db.Head().LinksOf(a)) != 1 || db.CurrentTerm() != 2 {
		t.Errorf("live reads after the re-bootstrap: old %v, new %v, links %d, term %d",
			db.Head().HasOID(old), db.Head().HasOID(a), len(db.Head().LinksOf(a)), db.CurrentTerm())
	}
	now := db.ReadView()
	if got := save(now); !bytes.Equal(got, doc.Bytes()) || now.LSN() != 50 {
		t.Errorf("a view pinned after the re-bootstrap, at lsn %d, saves\n%s\nwant the shipped document\n%s", now.LSN(), got, doc.Bytes())
	}
	now.Close()
	if _, err := db.ReadViewAt(3); err == nil || db.VersionHorizon() != 50 {
		t.Errorf("ReadViewAt(3) below the re-base: %v, horizon %d", err, db.VersionHorizon())
	}
	if _, err := w.ApplyAppend(oid(51, "next")); err != nil {
		t.Fatal(err)
	}
	if got := db.Head().Stats().OIDs; got != 3 || !bytes.Equal(save(pinned), before) {
		t.Errorf("after the stream resumed: %d OIDs, want 3; pinned view unchanged: %v", got, bytes.Equal(save(pinned), before))
	}
}

// followStream encodes events as a FOLLOW stream carries them.
func followStream(evs ...journal.FollowEvent) []byte {
	var b []byte
	for _, ev := range evs {
		b = journal.AppendFollowEvent(b, ev)
	}
	return b
}

// readFollow decodes a whole stream, keeping a copy of every event.
func readFollow(stream []byte) ([]journal.FollowEvent, error) {
	var got []journal.FollowEvent
	err := journal.ReadFollow(bytes.NewReader(stream), func(ev journal.FollowEvent) error {
		ev.Frame = bytes.Clone(ev.Frame)
		got = append(got, ev)
		return nil
	})
	return got, err
}

// TestFollowEventRoundTrip: every kind of event goes out through
// AppendFollowEvent and comes back from ReadFollow as the same event, and
// encodes again to the same bytes — a record as the frame it was, even in a
// spelling the writer never produces.
func TestFollowEventRoundTrip(t *testing.T) {
	record := func(payload string) journal.FollowEvent {
		return journal.FollowEvent{Kind: journal.FollowRecord, Frame: journal.AppendFrame(nil, []byte(payload))}
	}
	want := []journal.FollowEvent{
		record(`7 5 update cpu,HDL_model,1 1 note "a b \"q\" \\"`),
		record("8\t6 \"oid\" odd,HDL_model,1 6"),
		record("9 7 event ckin\nraw"),
		{Kind: journal.FollowSnapshot, SnapLSN: 42, Snapshot: []byte("DJS2 0000000000000042 0000000000000001\n\x00\xff")},
		{Kind: journal.FollowMark, Watermark: 17},
		{Kind: journal.FollowPing, Watermark: 9223372036854775807},
		{Kind: journal.FollowHealth, Reason: "journal: fsync: no space left on device"},
		{Kind: journal.FollowHealth, Reason: ""},
	}
	// An end or an error event ends the stream: what follows is not read.
	for _, last := range []journal.FollowEvent{
		{Kind: journal.FollowEnd},
		{Kind: journal.FollowError, Reason: "tail: position 9 is \"ahead\"\nof the journal"},
	} {
		want := append(slices.Clone(want), last)
		stream := followStream(want...)
		got, err := readFollow(append(slices.Clone(stream), stream...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
		}
		if again := followStream(got...); !bytes.Equal(again, stream) {
			t.Fatalf("re-encoded %q, want %q", again, stream)
		}
	}
}

// TestReadFollowRefusesDamage: a stream cut short — mid-frame or between
// frames — a frame whose checksum fails, one whose length is past the
// journal's bound, an event of no kind and one spelled another way are
// errors, and nothing of the damaged frame reaches the caller.
func TestReadFollowRefusesDamage(t *testing.T) {
	good := followStream(journal.FollowEvent{Kind: journal.FollowMark, Watermark: 3})
	frame := func(payload string) []byte { return journal.AppendFrame(nil, []byte(payload)) }
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	for what, stream := range map[string][]byte{
		"cut mid-frame":         good[:len(good)-1],
		"checksum":              flipped,
		"oversized":             {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0},
		"unknown kind":          frame("gossip 1"),
		"another spelling":      frame("watermark +3"),
		"negative lsn":          frame("watermark -3"),
		"snapshot cut short":    append(frame("snapshot 4 10"), "short"...),
		"snapshot of no length": frame("snapshot 4"),
	} {
		got, err := readFollow(stream)
		if err == nil || len(got) != 0 {
			t.Errorf("%s: %d events, %v; want an error and none", what, len(got), err)
		}
	}
	if got, err := readFollow(good); !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 1 {
		t.Errorf("cut at a frame: %d events, %v; want the one before the cut and an error", len(got), err)
	}
}
