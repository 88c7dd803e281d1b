package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/meta"
)

// replaySegmentWhole is replaySegment as it was before the frame window: the
// whole segment in memory, every record decoded in full whether or not the
// snapshot covers it.  The windowed reader is held to its verdicts and its
// results, by the boundary tests and by FuzzSegmentRecovery.
func replaySegmentWhole(vfs faultfs.FS, st *replayState, path string, start int64, last, repair bool, upTo int64) (int64, error) {
	data, err := vfs.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	name := filepath.Base(path)
	torn := func(off int, what string) (bool, error) {
		if !last {
			return false, fmt.Errorf("journal: segment %s: %s at offset %d (not the journal tail)", name, what, off)
		}
		for cand := off + 1; cand+frameHeader <= len(data); cand++ {
			if validFrameAt(data, cand) {
				return false, fmt.Errorf("journal: segment %s: %s at offset %d (valid records follow — corruption, not a torn tail)", name, what, off)
			}
		}
		if repair {
			if err := vfs.Truncate(path, int64(off)); err != nil {
				return false, fmt.Errorf("journal: truncate torn tail of %s: %w", name, err)
			}
		}
		return true, nil
	}
	hdrTerm, hdrLen, herr := parseSegHeader(data)
	if herr != nil {
		if tornSegHeaderPrefix(data) {
			_, err := torn(0, "torn segment header")
			return start, err
		}
		return 0, fmt.Errorf("journal: segment %s: %v", name, herr)
	}
	if hdrTerm < st.hdrTerm {
		return 0, fmt.Errorf("journal: segment %s: header term %d regresses below %d", name, hdrTerm, st.hdrTerm)
	}
	st.hdrTerm = hdrTerm
	off := hdrLen
	next := start
	for off < len(data) {
		rest := len(data) - off
		if rest < frameHeader {
			stop, err := torn(off, "short frame header")
			if err != nil {
				return 0, err
			}
			if stop {
				return next, nil
			}
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordLen || rest-frameHeader < n {
			stop, err := torn(off, "torn or oversized record")
			if err != nil {
				return 0, err
			}
			if stop {
				return next, nil
			}
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			stop, err := torn(off, "record checksum mismatch")
			if err != nil {
				return 0, err
			}
			if stop {
				return next, nil
			}
		}
		rec, err := decodePayload(payload)
		if err != nil {
			stop, terr := torn(off, fmt.Sprintf("undecodable record (%v)", err))
			if terr != nil {
				return 0, terr
			}
			if stop {
				return next, nil
			}
		}
		if rec.LSN != next {
			return 0, fmt.Errorf("journal: segment %s: record lsn %d at offset %d, want %d", name, rec.LSN, off, next)
		}
		if rec.LSN > st.snapLSN && rec.LSN <= upTo {
			if err := st.db.ApplyRecord(rec); err != nil {
				return 0, fmt.Errorf("journal: segment %s: %w", name, err)
			}
			st.lastLSN = rec.LSN
		}
		next++
		off += frameHeader + n
	}
	return next, nil
}

type segmentReplayer func(vfs faultfs.FS, st *replayState, path string, start int64, last, repair bool, upTo int64) (int64, error)

// oneSegment is a journal directory's content, as the tests put it there:
// one segment starting at LSN 1 and, when snapLSN > 0, a snapshot.
type oneSegment struct {
	segment  []byte
	snapLSN  int64
	snapshot []byte
}

// recovery is what a replay came to.
type recovery struct {
	err     error
	lastLSN int64
	db      *meta.DB // the recovered database
	text    []byte   // its dbText
	segment []byte   // the segment file afterwards (a repair truncates it)
}

// recoverWith writes the content to a fresh directory and replays it, with
// repair, through the given segment reader.
func (c oneSegment) recoverWith(t testing.TB, replay segmentReplayer) recovery {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(path, c.segment, 0o666); err != nil {
		t.Fatal(err)
	}
	st := replayState{db: meta.NewDB()}
	if c.snapLSN > 0 {
		snap := filepath.Join(dir, snapshotName(c.snapLSN))
		if err := os.WriteFile(snap, c.snapshot, 0o666); err != nil {
			t.Fatal(err)
		}
		f, err := faultfs.OS.Open(snap)
		if err != nil {
			t.Fatal(err)
		}
		db, err := st.win.readSnapshot(f, c.snapLSN)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		st.db, st.snapLSN, st.lastLSN = db, c.snapLSN, c.snapLSN
	}
	_, err := replay(faultfs.OS, &st, path, 1, true, true, math.MaxInt64)
	r := recovery{err: err, lastLSN: st.lastLSN}
	if err == nil {
		st.db.SealVersions(st.lastLSN)
		r.db, r.text = st.db, dbText(t, st.db)
	}
	if r.segment, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkWindowedAgainstWhole replays the content through the windowed reader
// and through the whole-file reference: the same verdict, and after it the
// same position, the same database and the same repaired file.
func (c oneSegment) checkWindowedAgainstWhole(t testing.TB) recovery {
	t.Helper()
	got, want := c.recoverWith(t, replaySegment), c.recoverWith(t, replaySegmentWhole)
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("windowed reader: %v\nwhole-file reader: %v", got.err, want.err)
	}
	if got.err != nil {
		// Both refuse: for the same damage at the same place.
		if g, w := got.err.Error(), want.err.Error(); g != w {
			t.Fatalf("windowed reader: %s\nwhole-file reader: %s", g, w)
		}
		return got
	}
	if got.lastLSN != want.lastLSN || !bytes.Equal(got.text, want.text) {
		t.Fatalf("windowed reader recovered to lsn %d, whole-file reader to %d; same state: %v",
			got.lastLSN, want.lastLSN, bytes.Equal(got.text, want.text))
	}
	if !bytes.Equal(got.segment, want.segment) {
		t.Fatalf("windowed reader left a segment of %d bytes, whole-file reader of %d", len(got.segment), len(want.segment))
	}
	return got
}

// writeSegment runs build against a fresh journal and returns the directory
// content it left: the one segment and, if build took one, the snapshot.
func writeSegment(t testing.TB, build func(w *Writer, db *meta.DB)) oneSegment {
	t.Helper()
	dir := t.TempDir()
	w, db, err := Open(dir, Options{SnapshotEvery: -1, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	build(w, db)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	snapLSN := w.SnapshotLSN()
	w.Abort()
	c := oneSegment{snapLSN: snapLSN}
	if c.segment, err = os.ReadFile(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatal(err)
	}
	if snapLSN > 0 {
		if c.snapshot, err = os.ReadFile(filepath.Join(dir, snapshotName(snapLSN))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// frameOffsets returns where each frame of a valid segment starts, and the
// segment's length as the last element.
func frameOffsets(t testing.TB, segment []byte) []int {
	_, off, err := parseSegHeader(segment)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	for off < len(segment) {
		offs = append(offs, off)
		off += frameHeader + int(binary.LittleEndian.Uint32(segment[off:off+4]))
	}
	return append(offs, off)
}

// TestSegmentWindowBoundaries damages a segment several windows long right
// where the windows meet — and a few bytes to either side, and at the frame
// boundaries around — in the three ways a segment gets damaged: cut short
// (a torn tail: recovered up to the cut), one byte flipped with valid
// records behind it (corruption: refused), and cut short with a valid frame
// behind the cut (corruption, not a torn tail: refused, however intact what
// follows is).
func TestSegmentWindowBoundaries(t *testing.T) {
	intact := writeSegment(t, func(w *Writer, db *meta.DB) {
		for i := 0; i < 1000; i++ {
			k, err := db.NewVersion(fmt.Sprintf("b%d", i%50), "HDL_model")
			if err != nil {
				t.Fatal(err)
			}
			// Payloads of every length up to a few hundred bytes, so frames
			// straddle the window's end at every alignment.
			if err := db.SetProp(k, "log", strings.Repeat("x", i%331)); err != nil {
				t.Fatal(err)
			}
			if i == 200 {
				if err := w.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	whole := intact.checkWindowedAgainstWhole(t)
	if whole.err != nil || intact.snapLSN == 0 || len(intact.segment) < 3*windowBytes+windowBytes/2 {
		t.Fatalf("the intact segment: %v (%d bytes, snapshot at %d)", whole.err, len(intact.segment), intact.snapLSN)
	}
	offs := frameOffsets(t, intact.segment)
	aFrame := intact.segment[offs[10]:offs[11]]

	var places []int
	for w := 1; w <= 3; w++ {
		for _, d := range []int{-9, -8, -7, -1, 0, 1, 7, 8, 9} {
			places = append(places, w*windowBytes+d)
		}
		// The frames that straddle this window's end, and their neighbours.
		for i, off := range offs {
			if off > w*windowBytes {
				places = append(places, offs[i-2], offs[i-1], off, off+frameHeader, off+frameHeader+1)
				break
			}
		}
	}
	for _, at := range places {
		cut := intact
		cut.segment = intact.segment[:at:at]
		if r := cut.checkWindowedAgainstWhole(t); r.err != nil {
			t.Errorf("cut at %d: a torn tail is refused: %v", at, r.err)
		} else if r.lastLSN >= whole.lastLSN || int64(len(r.segment)) > int64(at) {
			t.Errorf("cut at %d: recovered to lsn %d of %d, segment %d bytes", at, r.lastLSN, whole.lastLSN, len(r.segment))
		}

		flipped := intact
		flipped.segment = bytes.Clone(intact.segment)
		flipped.segment[at] ^= 0x40
		if r := flipped.checkWindowedAgainstWhole(t); r.err == nil || !strings.Contains(r.err.Error(), "corruption") {
			t.Errorf("byte %d flipped: err = %v, want corruption", at, r.err)
		}

		followed := intact
		followed.segment = append(append(intact.segment[:at:at], "torn"...), aFrame...)
		if r := followed.checkWindowedAgainstWhole(t); r.err == nil {
			t.Errorf("cut at %d with a valid frame behind it: recovered to lsn %d", at, r.lastLSN)
		}
	}
}

// TestSegmentFrameLongerThanWindow: the window grows for the one frame that
// needs it, whole or torn.
func TestSegmentFrameLongerThanWindow(t *testing.T) {
	var long meta.Key
	intact := writeSegment(t, func(w *Writer, db *meta.DB) {
		for i := 0; i < 40; i++ {
			k, err := db.NewVersion(fmt.Sprintf("b%d", i), "HDL_model")
			if err != nil {
				t.Fatal(err)
			}
			if i == 20 {
				long = k
				if err := db.SetProp(k, "log", strings.Repeat("0123456789", 3*windowBytes/10)); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	r := intact.checkWindowedAgainstWhole(t)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if v, _, _ := r.db.Head().GetProp(long, "log"); len(v) != 3*windowBytes/10*10 {
		t.Errorf("the long property came back %d bytes long", len(v))
	}
	offs := frameOffsets(t, intact.segment)
	for i := 0; i+1 < len(offs); i++ {
		if offs[i+1]-offs[i] < windowBytes {
			continue
		}
		for _, at := range []int{offs[i] + 3, offs[i] + frameHeader, offs[i] + windowBytes, offs[i+1] - 1} {
			cut := intact
			cut.segment = intact.segment[:at:at]
			if r := cut.checkWindowedAgainstWhole(t); r.err != nil || r.lastLSN != int64(i) {
				t.Errorf("long frame %d cut at %d: lsn %d, %v", i+1, at, r.lastLSN, r.err)
			}
		}
		return
	}
	t.Fatal("no frame longer than the window in the segment")
}

// TestCoveredFrameChecks pins what is, and is not, verified on a frame the
// snapshot covers: its length, its checksum and its LSN's place in the
// sequence are; the syntax of the rest of its payload is not (a record is
// decoded when it is applied).
func TestCoveredFrameChecks(t *testing.T) {
	intact := writeSegment(t, func(w *Writer, db *meta.DB) {
		for i := 0; i < 30; i++ {
			if _, err := db.NewVersion(fmt.Sprintf("b%d", i), "HDL_model"); err != nil {
				t.Fatal(err)
			}
			if i == 19 {
				if err := w.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	offs := frameOffsets(t, intact.segment)
	reframe := func(i int, payload string) oneSegment {
		c := intact
		c.segment = append([]byte(nil), intact.segment[:offs[i]]...)
		c.segment = AppendFrame(c.segment, []byte(payload))
		c.segment = append(c.segment, intact.segment[offs[i+1]:]...)
		return c
	}
	for _, tc := range []struct {
		name    string
		content oneSegment
		refused string
	}{
		{"covered, wrong lsn", reframe(4, `7 5 oid b4,HDL_model,1 5`), "record lsn 7"},
		{"covered, lsn in another spelling", reframe(4, `"5" 5 oid b4,HDL_model,1 5`), ""},
		{"covered, no lsn at all", reframe(4, `oid b4,HDL_model,1 5`), "undecodable"},
		{"covered, payload that does not tokenize", reframe(4, `5 5 oid "b4`), ""},
		{"applied, payload that does not tokenize", reframe(24, `25 25 oid "b24`), "undecodable"},
		{"applied, wrong lsn", reframe(24, `26 25 oid b24,HDL_model,1 25`), "record lsn 26"},
	} {
		r := tc.content.recoverWith(t, replaySegment)
		switch {
		case tc.refused == "" && r.err != nil:
			t.Errorf("%s: refused: %v", tc.name, r.err)
		case tc.refused != "" && (r.err == nil || !strings.Contains(r.err.Error(), tc.refused)):
			t.Errorf("%s: err = %v, want %q", tc.name, r.err, tc.refused)
		}
	}
}

// fuzzPrefix is FuzzSegmentRecovery's valid prefix: a segment a little
// longer than one window, so that the fuzzed tail can begin on either side
// of where the windows meet, with a snapshot a third of the way in.  The
// corpus names offsets into it: it must come out the same on every run.
func fuzzPrefix(t testing.TB) oneSegment {
	return writeSegment(t, func(w *Writer, db *meta.DB) {
		for i := 0; i < 500; i++ {
			k, err := db.NewVersion(fmt.Sprintf("b%d", i%40), []string{"HDL_model", "netlist"}[i%2])
			if err != nil {
				t.Fatal(err)
			}
			if err := db.SetProp(k, "note", strings.Repeat("n", i%97)+` "q" \`); err != nil {
				t.Fatal(err)
			}
			if i == 250 {
				if err := w.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// FuzzSegmentRecovery: a valid prefix of a segment followed by arbitrary
// bytes never makes recovery panic, and the windowed reader comes to the
// verdict, the state and the repaired file of the whole-file reader it
// replaced — with and without a snapshot covering part of the prefix.
func FuzzSegmentRecovery(f *testing.F) {
	prefix := fuzzPrefix(f)
	if len(prefix.segment) < windowBytes+1024 || len(prefix.segment) > 2*windowBytes || prefix.snapLSN == 0 {
		f.Fatalf("the valid prefix is %d bytes with a snapshot at %d", len(prefix.segment), prefix.snapLSN)
	}
	offs := frameOffsets(f, prefix.segment)
	frame := func(i int) []byte { return prefix.segment[offs[i]:offs[i+1]] }
	whole := uint32(len(prefix.segment))
	f.Add(whole, true, []byte{})
	f.Add(whole, false, []byte("torn"))
	f.Add(whole, true, AppendFrame(nil, []byte(fmt.Sprintf("%d 1 event ckin", len(offs)))))
	f.Add(whole, true, AppendFrame(nil, []byte(fmt.Sprintf("%d 1 nosuchop", len(offs)))))
	f.Add(whole, false, AppendFrame([]byte("torn"), []byte(fmt.Sprintf("%d 1 event ckin", len(offs)))))
	f.Add(whole, true, frame(3))
	f.Add(uint32(offs[len(offs)-2]), true, frame(len(offs)-3))
	f.Add(uint32(windowBytes), true, []byte{})
	f.Add(uint32(windowBytes-1), false, []byte{0xff, 0xff, 0xff, 0x7f})
	f.Add(uint32(windowBytes+3), true, frame(7))
	f.Add(uint32(offs[300]), true, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint32(offs[100]+5), true, []byte{})
	f.Add(uint32(3), false, []byte("L2 "))
	f.Add(uint32(0), false, []byte(v1SegMagic))
	f.Fuzz(func(t *testing.T, keep uint32, snapshot bool, tail []byte) {
		c := prefix
		if !snapshot {
			c.snapLSN, c.snapshot = 0, nil
		}
		at := int(keep % (whole + 1))
		c.segment = append(prefix.segment[:at:at], tail...)
		c.checkWindowedAgainstWhole(t)
	})
}
