package replica_test

// A follower's log is its primary's, frame for frame: a record travels from
// the primary's segment file to the follower's as its payload, never decoded
// on the way and never re-encoded — even in a spelling the writer does not
// produce — and a payload that would not travel as one line of the stream is
// refused at the source.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/wire"
)

// appendRawRecord appends one CRC-valid frame holding payload to the newest
// segment in dir, as a writer with another spelling would have.
func appendRawRecord(t *testing.T, dir, payload string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment in %s: %v", dir, err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum([]byte(payload), crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
}

// segmentFrames reads every frame of every segment in dir, keyed by the LSN
// its payload starts with.
func segmentFrames(t *testing.T, dir string) map[int64][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	frames := map[int64][]byte{}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		_, data, ok := bytes.Cut(data, []byte{'\n'}) // the header
		for ok && len(data) > 0 {
			n := 8 + int(binary.LittleEndian.Uint32(data))
			fields, err := wire.Tokenize(string(data[8:n]))
			if err != nil || len(fields) == 0 {
				t.Fatalf("%s: frame %q: %v", seg, data[8:n], err)
			}
			var lsn int64
			fmt.Sscan(fields[0], &lsn)
			frames[lsn] = data[:n]
			data = data[n:]
		}
	}
	return frames
}

// TestFollowerLogIsPrimaryLog: over a primary/follower pair, the follower's
// segment frames are byte for byte the primary's over the whole history —
// including a record hand-appended in a spelling the writer never produces,
// a tab after its LSN and an op quoted without need, which a follower that
// re-encodes what it receives writes differently.
func TestFollowerLogIsPrimaryLog(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{Shards: 4, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	k, err := db.NewVersion("cpu", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetProp(k, "note", `a "quoted" note`); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	odd, seq := w.LastLSN()+1, db.Seq()+1
	w.Abort()
	appendRawRecord(t, dir, fmt.Sprintf("%d\t%d \"oid\" odd,HDL_model,1 %d", odd, seq, seq))

	p := startPrimary(t, dir, journal.Options{SnapshotEvery: -1})
	a := startNode(t, t.TempDir(), p.addr, journal.Options{})
	pc := dialT(t, p.addr)
	for i := 0; i < 5; i++ {
		k, err := pc.Create(fmt.Sprintf("blk%d", i), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.PostEvent("ckin", "up", k, "a note with spaces"); err != nil {
			t.Fatal(err)
		}
	}
	last := p.quiesce()
	waitApplied(t, a, last)
	if err := a.fol.Writer().Commit(); err != nil {
		t.Fatal(err)
	}

	prim, foll := segmentFrames(t, p.dir), segmentFrames(t, a.dir)
	if !bytes.Contains(prim[odd], []byte("\t")) || !a.fol.DB().Head().HasOID(meta.Key{Block: "odd", View: "HDL_model", Version: 1}) {
		t.Fatalf("the hand-appended record: primary frame %q, on the follower: %v", prim[odd],
			a.fol.DB().Head().HasOID(meta.Key{Block: "odd", View: "HDL_model", Version: 1}))
	}
	for lsn := int64(1); lsn <= last; lsn++ {
		if prim[lsn] == nil || !bytes.Equal(prim[lsn], foll[lsn]) {
			t.Errorf("lsn %d: primary frame %q, follower frame %q", lsn, prim[lsn], foll[lsn])
		}
	}
	if len(prim) != int(last) || len(foll) != int(last) {
		t.Errorf("%d frames on the primary, %d on the follower, want %d each", len(prim), len(foll), last)
	}
}

// TestTailRefusesRawLineBreak: a CRC-valid payload holding a raw LF comes
// only from a doctored log — the writer escapes it — and shipped as it is it
// would split the stream line, the part after the break reading as a record
// of its own.  The tail refuses it as corruption, naming its LSN; the
// follower stops there and applies nothing of it.
func TestTailRefusesRawLineBreak(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{Shards: 4, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewVersion("cpu", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	bad, seq := w.LastLSN()+1, db.Seq()
	w.Abort()
	appendRawRecord(t, dir, fmt.Sprintf("%d %d event ckin\nrecord %d %d oid forged,HDL_model,1 %d", bad, seq, bad+1, seq+1, seq+1))

	p := startPrimary(t, dir, journal.Options{SnapshotEvery: -1})
	if p.w.LastLSN() != bad {
		t.Fatalf("the primary recovered to lsn %d, want the hand-appended %d", p.w.LastLSN(), bad)
	}
	a := startNode(t, t.TempDir(), p.addr, journal.Options{})
	select {
	case <-a.fol.Done():
	case <-time.After(20 * time.Second):
		t.Fatalf("the follower is still replicating at lsn %d", a.fol.AppliedLSN())
	}
	if err := a.fol.Err(); err == nil || !strings.Contains(err.Error(), "line break") || !strings.Contains(err.Error(), fmt.Sprintf("lsn %d ", bad)) {
		t.Fatalf("terminal error %v, want the tail's refusal of lsn %d", err, bad)
	}
	if got := a.fol.AppliedLSN(); got != bad-1 || a.fol.DB().Head().HasOID(meta.Key{Block: "forged", View: "HDL_model", Version: 1}) {
		t.Fatalf("the follower applied up to lsn %d, forged OID present: %v", got,
			a.fol.DB().Head().HasOID(meta.Key{Block: "forged", View: "HDL_model", Version: 1}))
	}
}
