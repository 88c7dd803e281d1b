package journal

// Election-term plumbing: v2 segment headers, the term-bump record a
// promotion writes, recovery of the term from disk, and the follow-fence
// that keeps a deposed primary's divergent tail out of a new lineage.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/meta"
)

// v1SegMagic opened a segment before election terms: its records were of
// term 1.
const v1SegMagic = "DJL1\n"

func TestSegHeaderRoundTrip(t *testing.T) {
	for _, term := range []int64{1, 2, 7, 1 << 40} {
		hdr := encodeSegHeader(term)
		if len(hdr) != segHeaderLen {
			t.Fatalf("header for term %d is %d bytes, want %d", term, len(hdr), segHeaderLen)
		}
		got, n, err := parseSegHeader(append(hdr, "rest"...))
		if err != nil || got != term || n != segHeaderLen {
			t.Fatalf("parse(encode(%d)) = %d, %d, %v", term, got, n, err)
		}
	}
	// A version 1 header, and one torn inside it, are of the older
	// generation: refused as such.
	for _, old := range []string{v1SegMagic + "payload", v1SegMagic, v1SegMagic[:4]} {
		if got, n, err := parseSegHeader([]byte(old)); !errors.Is(err, errOldVersion) || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("v1 parse of %q = %d, %d, %v, want errOldVersion", old, got, n, err)
		}
	}
	for _, bad := range []string{"", "DJL", "DJL3 0000000000000001\n", "DJL2 00000000000000zz\n", "DJL2 0000000000000000\n", "DJL0\n"} {
		if _, _, err := parseSegHeader([]byte(bad)); err == nil || errors.Is(err, errOldVersion) {
			t.Fatalf("parseSegHeader(%q): %v", bad, err)
		}
	}
}

func TestTornSegHeaderPrefix(t *testing.T) {
	for _, term := range []int64{1, 9} {
		hdr := encodeSegHeader(term)
		for i := 0; i < len(hdr); i++ {
			if !tornSegHeaderPrefix(hdr[:i]) {
				t.Fatalf("prefix %q of a v2 header not classified torn", hdr[:i])
			}
		}
	}
	// A prefix of a version 1 header is torn only as far as it is one of a
	// current header too: past "DJL" it is an older format's, refused.
	for i := 0; i <= len(v1SegMagic); i++ {
		if got, want := tornSegHeaderPrefix([]byte(v1SegMagic[:i])), i < 4; got != want {
			t.Fatalf("prefix %q of the v1 magic classified torn: %v, want %v", v1SegMagic[:i], got, want)
		}
	}
	for _, bad := range []string{"X", "DJX", "DJL2 xyz", "DJL2 0000000000000001\n"} {
		if tornSegHeaderPrefix([]byte(bad)) {
			t.Fatalf("%q wrongly classified as a torn header prefix", bad)
		}
	}
}

// TestPromoteBumpsAndRecovers: a follower-mode writer promoted to primary
// writes a term-bump record; reopening the directory recovers the new
// term, fresh segments carry v2 headers stamped with it, and the database
// term table survives snapshot+compaction round-trips.
func TestPromoteBumpsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	w, db, err := OpenFollower(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		r := meta.Record{LSN: int64(i), Seq: int64(i), Op: meta.OpOID,
			Args: []string{fmt.Sprintf("b%d,HDL_model,1", i), fmt.Sprint(i)}}
		if _, err := w.ApplyAppend(AppendFrame(nil, appendPayload(nil, r))); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Term(); got != 1 {
		t.Fatalf("pre-promotion term %d, want 1", got)
	}
	term, lsn, err := w.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if term != 2 || lsn != 6 {
		t.Fatalf("Promote = term %d lsn %d, want 2, 6", term, lsn)
	}
	if got := db.CurrentTerm(); got != 2 {
		t.Fatalf("db term %d after promotion, want 2", got)
	}
	// The writer is a primary now: local records append and the term
	// table knows where the new lineage starts.
	if n := w.Record(meta.Record{Seq: db.Seq(), Op: meta.OpWorkspace, Args: []string{"w1", "/data"}}); n != 7 {
		t.Fatalf("post-promotion record at lsn %d, want 7", n)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if start, ok := db.FirstTermStartAfter(1); !ok || start != 6 {
		t.Fatalf("FirstTermStartAfter(1) = %d, %v, want 6, true", start, ok)
	}
	// Double promotion is a primary-mode error.
	if _, _, err := w.Promote(); err == nil {
		t.Fatal("Promote on a primary-mode writer accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery must seed the term from the records on disk.
	w2, db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.Term(); got != 2 {
		t.Fatalf("recovered term %d, want 2", got)
	}
	if got := db2.CurrentTerm(); got != 2 {
		t.Fatalf("recovered db term %d, want 2", got)
	}
	// A snapshot + compaction must carry the table: replay then starts
	// from the document, not from the bump record.
	if err := w2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	// Tiny SegmentBytes: the first committed record forces a rotation, so
	// a fresh segment stamped with the recovered term must appear.
	w3, db3, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Abort()
	if got := w3.Term(); got != 2 {
		t.Fatalf("post-compaction recovered term %d, want 2", got)
	}
	if start, ok := db3.FirstTermStartAfter(1); !ok || start != 6 {
		t.Fatalf("post-compaction FirstTermStartAfter(1) = %d, %v, want 6, true", start, ok)
	}
	// New segments after recovery open with a v2 header at the new term.
	w3.Record(meta.Record{Seq: db3.Seq(), Op: meta.OpWorkspace, Args: []string{"w2", "/e"}})
	if err := w3.Commit(); err != nil {
		t.Fatal(err)
	}
	w3.Record(meta.Record{Seq: db3.Seq(), Op: meta.OpWorkspace, Args: []string{"w3", "/f"}})
	if err := w3.Commit(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sawV2 := false
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		hdrTerm, _, err := parseSegHeader(data)
		if err != nil {
			t.Fatalf("segment %s: %v", e.Name(), err)
		}
		if hdrTerm == 2 {
			sawV2 = true
		}
	}
	if !sawV2 {
		t.Fatal("no segment carries a term-2 header after recovery at term 2")
	}
}

// TestValidateFollowPosition drives the divergent-tail fence table.
func TestValidateFollowPosition(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenFollower(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	for i := 1; i <= 5; i++ {
		r := meta.Record{LSN: int64(i), Seq: int64(i), Op: meta.OpOID,
			Args: []string{fmt.Sprintf("v%d,HDL_model,1", i), fmt.Sprint(i)}}
		if _, err := w.ApplyAppend(AppendFrame(nil, appendPayload(nil, r))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Promote(); err != nil { // bump at lsn 6, term 2
		t.Fatal(err)
	}
	w.Record(meta.Record{Seq: w.DB().Seq(), Op: meta.OpWorkspace, Args: []string{"w", "/d"}}) // lsn 7
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		from, fromTerm int64
		wantErr        string // "" means allowed
	}{
		{0, 0, ""},                     // cold, legacy
		{7, 0, ""},                     // at the watermark, legacy
		{8, 0, "ahead of the primary"}, // beyond everything committed
		{3, 1, ""},                     // old-term tail short of the bump: shared history
		{5, 1, ""},                     // last old-term record: the bump at 6 is the boundary
		{6, 1, "divergent tail"},       // old-term history reaching INTO the new lineage
		{7, 1, "divergent tail"},       // further past it
		{7, 2, ""},                     // same term: same lineage by construction
		{6, 2, ""},                     // same term, at the bump
		{3, 3, "deposed"},              // follower from the future: this primary lost an election
	}
	for _, c := range cases {
		err := w.ValidateFollowPosition(c.from, c.fromTerm)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("ValidateFollowPosition(%d, %d) = %v, want allowed", c.from, c.fromTerm, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ValidateFollowPosition(%d, %d) = %v, want %q", c.from, c.fromTerm, err, c.wantErr)
		}
	}
}

// TestHeaderTermRegressionRefused: segment headers must be non-decreasing
// along the journal; a regression (shuffled or doctored files) fails
// recovery loudly instead of replaying a franken-history.
func TestHeaderTermRegressionRefused(t *testing.T) {
	dir := t.TempDir()
	w, db, err := OpenFollower(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		r := meta.Record{LSN: int64(i), Seq: int64(i), Op: meta.OpOID,
			Args: []string{fmt.Sprintf("r%d,HDL_model,1", i), fmt.Sprint(i)}}
		if _, err := w.ApplyAppend(AppendFrame(nil, appendPayload(nil, r))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Promote(); err != nil {
		t.Fatal(err)
	}
	// Tiny SegmentBytes: every commit rotates, so post-promotion records
	// land in fresh segments headed with term 2.
	w.Record(meta.Record{Seq: db.Seq(), Op: meta.OpWorkspace, Args: []string{"wa", "/a"}})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Record(meta.Record{Seq: db.Seq(), Op: meta.OpWorkspace, Args: []string{"wb", "/b"}})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Abort, not Close: Close folds everything into a final snapshot and
	// compacts the very segments this test wants to doctor.
	w.Abort()

	// Sanity: the directory recovers as written.
	if _, _, err := Replay(dir, 4); err != nil {
		t.Fatalf("pristine directory failed replay: %v", err)
	}

	// Doctor a later segment's header back to term 1.
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".log") {
			names = append(names, e.Name())
		}
	}
	if len(names) < 2 {
		t.Fatalf("want ≥2 segments, got %v", names)
	}
	last := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	hdrTerm, hdrLen, err := parseSegHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if hdrTerm != 2 {
		t.Fatalf("last segment header term %d, want 2", hdrTerm)
	}
	doctored := append(encodeSegHeader(1), data[hdrLen:]...)
	if err := os.WriteFile(last, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Replay(dir, 4)
	if err == nil || !strings.Contains(err.Error(), "regresses") {
		t.Fatalf("replay of a term-regressing journal = %v, want a header-term regression error", err)
	}
}
