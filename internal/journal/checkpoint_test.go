package journal

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/meta"
)

// TestCkptHeaderBytes: a header renders to bytes that parse back to it.
func TestCkptHeaderBytes(t *testing.T) {
	for _, h := range []ckptHeader{{0, 1}, {1, 1}, {123456, 7}, {math.MaxInt64, math.MaxInt64}} {
		b := h.Bytes()
		if len(b) != ckptHeaderLen {
			t.Errorf("%+v: %q is %d bytes, want %d", h, b, len(b), ckptHeaderLen)
		}
		if got, err := parseCkptHeader(b); err != nil || got != h {
			t.Errorf("%+v: parsed back as %+v, %v", h, got, err)
		}
	}
}

// TestCkptHeaderVersions: a JSON document and a header of an older format
// are the old version, which only Upgrade reads; a newer one is refused
// naming both versions; a header is written one way only, and names the
// LSN of its file.
func TestCkptHeaderVersions(t *testing.T) {
	good := ckptHeader{lsn: 0x1a, term: 2}.Bytes()
	for in, want := range map[string]error{
		"{\n  \"seq\": 3":                          errOldVersion,
		"DJS1 0000000000000001 0000000000000001\n": errOldVersion,
		"DJS3 anything at all":                     errNewVersion,
		"DJS12 0000000000000001":                   errNewVersion,
		string(good):                               nil,
	} {
		if _, err := parseCkptHeader([]byte(in)); !errors.Is(err, want) || want == nil && err != nil {
			t.Errorf("%q: err = %v, want %v", in, err, want)
		}
	}
	if _, err := parseCkptHeader([]byte("DJS3 x")); err == nil || !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("a newer version does not name both: %v", err)
	}
	for _, bad := range []string{
		strings.Replace(string(good), "1a", "1A", 1), // the same LSN, spelled otherwise
		strings.Replace(string(good), " ", "  ", 1),
		string(good[:ckptHeaderLen-1]),
		strings.Replace(string(good), "02\n", "00\n", 1), // no term 0
		"DJS02" + string(good[4:]),
		"EJS2" + string(good[4:]), // damage, not a document
	} {
		if h, err := parseCkptHeader([]byte(bad)); err == nil || errors.Is(err, errOldVersion) || errors.Is(err, errNewVersion) {
			t.Errorf("%q: parsed as %+v, %v", bad, h, err)
		}
	}

	// Recovery refuses a snapshot of a newer version, and one whose header
	// is not its file's.
	dir, name, _ := checkpointDir(t)
	ckpt, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	for what, variant := range map[string][]byte{
		"version 3 of the format": append([]byte("DJS3"), ckpt[4:]...),
		"another lsn":             append(ckptHeader{lsn: 7, term: 1}.Bytes(), ckpt[ckptHeaderLen:]...),
		"another term":            append(ckptHeader{lsn: parseName(t, name), term: 2}.Bytes(), ckpt[ckptHeaderLen:]...),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), variant, 0o666); err != nil {
			t.Fatal(err)
		}
		_, _, err := Replay(dir, 0)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: recovery: %v", what, err)
		}
		if what == "version 3 of the format" && (!errors.Is(err, errNewVersion) || !strings.Contains(err.Error(), "version 3")) {
			t.Errorf("%s: recovery: %v", what, err)
		}
	}
}

func parseName(t *testing.T, name string) int64 {
	lsn, ok := parseSeqName(name, "snapshot-", ".json")
	if !ok {
		t.Fatalf("%s is not a snapshot", name)
	}
	return lsn
}

// checkpointDir is a journal directory of a checkpoint — objects of every
// kind — a record after it, and no segment it covers whole.  It returns the
// checkpoint's name and what the directory recovers to.
func checkpointDir(t *testing.T) (dir, name string, save []byte) {
	t.Helper()
	dir = t.TempDir()
	w, db, err := Open(dir, Options{SnapshotEvery: -1, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var keys []meta.Key
	for i := 0; i < 4; i++ {
		k, err := db.NewVersion(fmt.Sprintf("b%d", i%2), "schematic")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetProp(k, "note", fmt.Sprintf("%d \"x\"", i)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if _, err := db.AddLink(meta.DeriveLink, keys[0], keys[1], "t", []string{"ckin", "outofdate"}, map[string]string{"TYPE": "derived"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SnapshotHierarchy("c", keys[0], meta.FollowAllLinks); err != nil {
		t.Fatal(err)
	}
	if err := db.AddWorkspace("ws", "/p"); err != nil {
		t.Fatal(err)
	}
	if err := db.BindPath("ws", keys[0], "p/0"); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := db.SetProp(keys[3], "after", "1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	name = snapshotName(w.SnapshotLSN())
	w.Abort()
	rdb, _, err := Replay(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rdb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return dir, name, buf.Bytes()
}

// TestCheckpointDamageSweep flips one byte at every offset of a small
// checkpoint — each bit, and all eight — cuts it short at every offset and
// appends one byte to it.  Recovery refuses every variant, naming the file:
// a snapshot is renamed into place whole, so no damage is a torn tail, and
// none may load as a database.
func TestCheckpointDamageSweep(t *testing.T) {
	dir, name, _ := checkpointDir(t)
	path := filepath.Join(dir, name)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var variants [][]byte
	for off := range intact {
		for _, mask := range []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff} {
			v := bytes.Clone(intact)
			v[off] ^= mask
			variants = append(variants, v)
		}
		variants = append(variants, intact[:off])
	}
	variants = append(variants, append(bytes.Clone(intact), 0))
	for i, v := range variants {
		if err := os.WriteFile(path, v, 0o666); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Replay(dir, 0); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("variant %d of %d (%d bytes): recovery: %v", i, len(variants), len(v), err)
		}
	}
	t.Logf("%d variants of a %d-byte checkpoint refused", len(variants), len(intact))
}

// copyDir copies the files of a directory into a fresh one.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

func saveOf(t *testing.T, db *meta.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecoverV1Journal: testdata/v1journal is a journal directory written by
// a build whose snapshots were JSON documents — version 1 of the format — with
// a promotion, a pruned chain, a binding to a pruned OID, configurations and
// links with several PROPAGATE events, and records behind its snapshot;
// testdata/v1journal.save is what that build recovered it to.  Open refuses
// it; Upgrade converts it to what Open recovers to the same bytes, and a
// second Upgrade changes nothing.  The first checkpoint compacts the
// converted snapshot away, and the directory recovers to them still.
func TestRecoverV1Journal(t *testing.T) {
	golden, err := os.ReadFile("testdata/v1journal.save")
	if err != nil {
		t.Fatal(err)
	}
	dir := copyDir(t, "testdata/v1journal")
	if _, _, err := Open(dir, Options{SnapshotEvery: -1}); err == nil || !strings.Contains(err.Error(), "`dquery upgrade <dir>`") {
		t.Fatalf("Open of a directory with a JSON snapshot: %v", err)
	}
	converted, err := Upgrade(dir, Options{})
	if err != nil || len(converted) != 1 || !strings.HasPrefix(converted[0], "snapshot-") {
		t.Fatalf("Upgrade converted %v, %v; want the snapshot", converted, err)
	}
	upgraded := dirFiles(t, dir)
	if again, err := Upgrade(dir, Options{}); err != nil || len(again) != 0 || !maps.EqualFunc(dirFiles(t, dir), upgraded, bytes.Equal) {
		t.Fatalf("a second Upgrade converted %v, %v", again, err)
	}
	w, db, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := saveOf(t, db); !bytes.Equal(got, golden) {
		t.Fatalf("recovered to\n%s\nwant\n%s", got, golden)
	}
	last := w.LastLSN()
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	_, snaps, _, err := list(faultfs.OS, dir)
	if err != nil || len(snaps) != 1 || snaps[0] != last {
		t.Fatalf("snapshots after the first checkpoint: %v, %v; want one, at %d", snaps, err, last)
	}
	if ckpt, err := os.ReadFile(filepath.Join(dir, snapshotName(last))); err != nil || !bytes.HasPrefix(ckpt, []byte("DJS2 ")) {
		t.Fatalf("the snapshot at %d is no checkpoint: %.20q, %v", last, ckpt, err)
	}
	rdb, lsn, err := Replay(dir, 0)
	if err != nil || lsn != last || !bytes.Equal(saveOf(t, rdb), golden) {
		t.Fatalf("after the checkpoint: lsn %d of %d, %v, same state: %v", lsn, last, err, err == nil && bytes.Equal(saveOf(t, rdb), golden))
	}
}

// TestNewestSnapshotAcrossFormats: recovery and the tail take the newest
// snapshot, and read no other: a JSON document older than a checkpoint is
// made unreadable, and neither refuses the directory.
func TestNewestSnapshotAcrossFormats(t *testing.T) {
	master, name, save := checkpointDir(t)
	ckptLSN := parseName(t, name)
	dir := copyDir(t, master)
	if err := os.WriteFile(filepath.Join(dir, snapshotName(ckptLSN-1)), []byte("{damaged"), 0o666); err != nil {
		t.Fatal(err)
	}
	_, last, err := Replay(master, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, lsn, err := Replay(dir, 0)
	if err != nil || lsn != last || !bytes.Equal(saveOf(t, db), save) {
		t.Fatalf("recovered to lsn %d of %d: %v", lsn, last, err)
	}
	w, _, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if ev, err := w.NewTailer(0).Next(nil); err != nil || ev.Kind != FollowSnapshot || ev.SnapLSN != ckptLSN {
		t.Errorf("the tail from 0 begins with %+v, %v; want the snapshot at %d", ev, err, ckptLSN)
	}
}

// TestFollowerCheckpointIsPrimarys: a primary, a follower that applied its
// records, and a follower that bootstrapped from its checkpoint write, at
// one LSN, the same checkpoint file — across a promotion, and with links
// that share their template's attributes beside links that changed theirs.
func TestFollowerCheckpointIsPrimarys(t *testing.T) {
	pdir := t.TempDir()
	p, pdb, err := OpenFollower(pdir, Options{SnapshotEvery: -1, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Promote(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		k, err := pdb.NewVersion(fmt.Sprintf("b%d", i%3), "schematic")
		if err != nil {
			t.Fatal(err)
		}
		if err := pdb.SetProp(k, "round", fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v <= 3; v++ {
		from, to := meta.Key{Block: "b1", View: "schematic", Version: v}, meta.Key{Block: "b2", View: "schematic", Version: v}
		if _, err := pdb.AddLink(meta.DeriveLink, from, to, "derive", []string{"outofdate", "ckin"}, map[string]string{meta.PropType: meta.TypeDeriveFrom}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pdb.SetLinkProp(2, "note", "one-off"); err != nil {
		t.Fatal(err)
	}
	if err := pdb.SetLinkPropagates(3, []string{"lvs"}); err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.PruneVersions("b0", "schematic", 2); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	f, _, err := OpenFollower(fdir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	tl := p.NewTailer(0)
	for f.LastLSN() < p.LastLSN() {
		ev, err := tl.Next(nil)
		if err != nil || ev.Kind != FollowRecord {
			t.Fatalf("tail: %+v, %v", ev, err)
		}
		if _, err := f.ApplyAppend(ev.Frame); err != nil {
			t.Fatal(err)
		}
	}
	tl.Close()
	for _, w := range []*Writer{p, f} {
		if err := w.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	name := snapshotName(p.SnapshotLSN())
	bdir := t.TempDir()
	b, _, err := OpenFollower(bdir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := p.NewTailer(0).Next(nil)
	if err != nil || ev.Kind != FollowSnapshot {
		t.Fatalf("the tail from 0 begins with %+v, %v", ev, err)
	}
	if err := b.BootstrapSnapshot(ev.SnapLSN, ev.Snapshot); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(pdir, name))
	if err != nil {
		t.Fatal(err)
	}
	for node, dir := range map[string]string{"applying follower": fdir, "bootstrapped follower": bdir} {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("the %s's %s is not the primary's: %v\n%q\n%q", node, name, err, got, want)
		}
	}
	for _, w := range []*Writer{p, f, b} {
		w.Abort()
	}
}
