package replica_test

// A follower's log is its primary's, frame for frame: a record travels from
// the primary's segment file to the follower's as its frame, never decoded
// on the way and never re-encoded — even in a spelling the writer does not
// produce, or holding a byte the writer would have escaped.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

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
	w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1})
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
// only from a doctored log — the writer escapes it.  A line of a text
// stream, it would have split in two, the part after the break reading as
// a record of its own, so the tail used to refuse it; inside its frame it
// is one record's bytes like any other.  The follower holds the primary's
// frame byte for byte, replicates on past it, and the record the break
// seemed to start — a forged OID — exists on neither node.
func TestTailRefusesRawLineBreak(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1})
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
	if _, err := dialT(t, p.addr).Create("after", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	last := p.quiesce()
	waitApplied(t, a, last)
	if err := a.fol.Writer().Commit(); err != nil {
		t.Fatal(err)
	}

	prim, foll := segmentFrames(t, p.dir), segmentFrames(t, a.dir)
	if !bytes.Contains(prim[bad], []byte("\n")) || !bytes.Equal(prim[bad], foll[bad]) {
		t.Fatalf("lsn %d: primary frame %q, follower frame %q", bad, prim[bad], foll[bad])
	}
	forged := meta.Key{Block: "forged", View: "HDL_model", Version: 1}
	if p.db.Head().HasOID(forged) || a.fol.DB().Head().HasOID(forged) || a.fol.Err() != nil {
		t.Fatalf("forged OID on the primary: %v, on the follower: %v; follower error %v",
			p.db.Head().HasOID(forged), a.fol.DB().Head().HasOID(forged), a.fol.Err())
	}
}
