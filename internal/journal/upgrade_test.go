package journal

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/meta"
)

// v1SegMagic opened a segment before election terms: its records were of
// term 1.
const v1SegMagic = "DJL1\n"

// dirFiles returns the content of every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// toV1Segments puts every segment of dir, each of term 1, under the header
// of format version 1, which implied term 1.
func toV1Segments(t *testing.T, dir string) string {
	t.Helper()
	segs, _, _, err := list(faultfs.OS, dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments of %s: %v, %v", dir, segs, err)
	}
	for _, first := range segs {
		path := filepath.Join(dir, segmentName(first))
		data, err := os.ReadFile(path)
		if err != nil || !bytes.HasPrefix(data, encodeSegHeader(1)) {
			t.Fatalf("%s is no segment of term 1: %.22q, %v", path, data, err)
		}
		if err := os.WriteFile(path, append([]byte(v1SegMagic), data[segHeaderLen:]...), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRefusesOlderFormat: Open, OpenFollower and Replay refuse a directory
// in which they would have to read a file of an older format — the
// JSON-snapshot fixture; a history over several version 1 segments; the same
// with a torn final record, which Open would otherwise truncate; a JSON
// snapshot newer than a checkpoint — naming the file and `dquery upgrade
// <dir>`, and leave every file as it was.  Upgrade then converts each to what
// its twin of this build's format recovers to: a segment byte for byte.  A
// follower refuses a JSON document as its bootstrap snapshot and is left as
// it was.
func TestRefusesOlderFormat(t *testing.T) {
	golden, err := os.ReadFile("testdata/v1journal.save")
	if err != nil {
		t.Fatal(err)
	}

	// The twin: a term-1 history over several segments, no snapshot.
	twin := t.TempDir()
	w, db, err := Open(twin, Options{SnapshotEvery: -1, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		k, err := db.NewVersion(fmt.Sprintf("b%d", i%3), "schematic")
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
	twinSave := saveOf(t, db)
	w.Abort()
	// Its torn twin: a short frame header at the end of the last segment.
	tornTwin := copyDir(t, twin)
	segs, _, _, err := list(faultfs.OS, tornTwin)
	if err != nil || len(segs) < 3 {
		t.Fatalf("the twin's segments: %v, %v", segs, err)
	}
	last, err := os.OpenFile(filepath.Join(tornTwin, segmentName(segs[len(segs)-1])), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := last.Write([]byte{0x10, 0, 0}); err != nil {
		t.Fatal(err)
	}
	last.Close()

	// A JSON snapshot of the newest state, beside an older checkpoint.
	master, _, masterSave := checkpointDir(t)
	newer := copyDir(t, master)
	rdb, newest, err := Replay(master, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(newer, snapshotName(newest)), saveOf(t, rdb), 0o666); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		what, dir, file string
		twin            string // a directory of this format Upgrade must come to, file for file
		save            []byte // what the upgraded directory recovers to
	}{
		{"the JSON-snapshot fixture", copyDir(t, "testdata/v1journal"), "snapshot-0000000000000015.json", "", golden},
		{"version 1 segments", toV1Segments(t, copyDir(t, twin)), segmentName(1), twin, twinSave},
		{"version 1 segments, the last torn", toV1Segments(t, copyDir(t, tornTwin)), segmentName(1), tornTwin, twinSave},
		{"a JSON snapshot newer than a checkpoint", newer, snapshotName(newest), "", masterSave},
	} {
		before := dirFiles(t, c.dir)
		for verb, recover := range map[string]func() error{
			"Open": func() error {
				w, _, err := Open(c.dir, Options{})
				if err == nil {
					w.Abort()
				}
				return err
			},
			"OpenFollower": func() error {
				w, _, err := OpenFollower(c.dir, Options{})
				if err == nil {
					w.Abort()
				}
				return err
			},
			"Replay": func() error {
				_, _, err := Replay(c.dir, 0)
				return err
			},
		} {
			if err := recover(); err == nil || !strings.Contains(err.Error(), c.file) || !strings.Contains(err.Error(), "`dquery upgrade <dir>`") {
				t.Errorf("%s: %s: %v", c.what, verb, err)
			}
			if !maps.EqualFunc(dirFiles(t, c.dir), before, bytes.Equal) {
				t.Fatalf("%s: %s changed the directory", c.what, verb)
			}
		}

		converted, err := Upgrade(c.dir, Options{})
		if err != nil || len(converted) == 0 {
			t.Fatalf("%s: Upgrade converted %v, %v", c.what, converted, err)
		}
		if c.twin != "" && !maps.EqualFunc(dirFiles(t, c.dir), dirFiles(t, c.twin), bytes.Equal) {
			t.Errorf("%s: upgraded, the directory is not its twin", c.what)
		}
		if again, err := Upgrade(c.dir, Options{}); err != nil || len(again) != 0 {
			t.Errorf("%s: a second Upgrade converted %v, %v", c.what, again, err)
		}
		w, db, err := Open(c.dir, Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("%s: Open after Upgrade: %v", c.what, err)
		}
		if got := saveOf(t, db); !bytes.Equal(got, c.save) {
			t.Errorf("%s: upgraded, recovers to\n%s\nwant\n%s", c.what, got, c.save)
		}
		w.Abort()
	}

	fdir := t.TempDir()
	f, fdb, err := OpenFollower(fdir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Abort()
	for i := int64(1); i <= 3; i++ {
		r := meta.Record{LSN: i, Seq: i, Op: meta.OpOID, Args: []string{fmt.Sprintf("f%d,HDL_model,1", i), fmt.Sprint(i)}}
		if _, err := f.ApplyAppend(AppendFrame(nil, appendPayload(nil, r))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	files, state := dirFiles(t, fdir), saveOf(t, fdb)
	if err := f.BootstrapSnapshot(50, golden); !errors.Is(err, errOldVersion) {
		t.Errorf("a bootstrap from a JSON document: %v", err)
	}
	if f.LastLSN() != 3 || !bytes.Equal(saveOf(t, fdb), state) || !maps.EqualFunc(dirFiles(t, fdir), files, bytes.Equal) {
		t.Errorf("a refused bootstrap changed the follower: lsn %d", f.LastLSN())
	}
}

// TestUpgradeFaultSweep fails every I/O site of Upgrade once each, one run
// per site, over the oldest kind of directory: the JSON-snapshot fixture
// with its segment under a version 1 header.  After each, Open refuses the
// directory or recovers the fixture's database — never another — and a
// second Upgrade, without a fault, converts it to what Open recovers the
// fixture's database from.  The sites come from a counting run, as in
// TestBootstrapSnapshotFaultSweep.
func TestUpgradeFaultSweep(t *testing.T) {
	golden, err := os.ReadFile("testdata/v1journal.save")
	if err != nil {
		t.Fatal(err)
	}
	oldest := func() string { return toV1Segments(t, copyDir(t, "testdata/v1journal")) }
	counter := faultfs.New(faultfs.OS, faultfs.Plan{})
	if converted, err := Upgrade(oldest(), Options{FS: counter}); err != nil || len(converted) != 2 {
		t.Fatalf("the counting run converted %v, %v; want the snapshot and the segment", converted, err)
	}
	counts := counter.Counts()
	for _, op := range []faultfs.Op{faultfs.OpReadDir, faultfs.OpRead, faultfs.OpOpen, faultfs.OpWrite, faultfs.OpSync, faultfs.OpClose, faultfs.OpRename} {
		if counts[op] == 0 {
			t.Fatalf("Upgrade exercises no %v site — the sweep would be vacuous (counts: %v)", op, counts)
		}
	}

	runs := 0
	for _, op := range faultfs.Ops {
		for n := int64(1); n <= counts[op]; n++ {
			plan := faultfs.SingleFault(op, n, nil)
			dir := oldest()
			_, uerr := Upgrade(dir, Options{FS: faultfs.New(faultfs.OS, plan)})
			desc := fmt.Sprintf("%s (upgrade: %v)", plan.Faults[0], uerr)
			w, db, err := Open(dir, Options{SnapshotEvery: -1})
			if err == nil {
				if !bytes.Equal(saveOf(t, db), golden) {
					t.Errorf("%s: Open recovered another database", desc)
				}
				w.Abort()
			} else if uerr == nil || !strings.Contains(err.Error(), "dquery upgrade") {
				t.Errorf("%s: Open: %v", desc, err)
			}
			if _, err := Upgrade(dir, Options{}); err != nil {
				t.Errorf("%s: the second Upgrade: %v", desc, err)
				continue
			}
			w, db, err = Open(dir, Options{SnapshotEvery: -1})
			if err != nil {
				t.Errorf("%s: Open after the second Upgrade: %v", desc, err)
				continue
			}
			if !bytes.Equal(saveOf(t, db), golden) {
				t.Errorf("%s: after the second Upgrade, Open recovered another database", desc)
			}
			w.Abort()
			runs++
		}
	}
	t.Logf("swept %d single-fault runs over Upgrade's sites %v", runs, counts)
}
