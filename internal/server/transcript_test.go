package server

// The project server's bytes, pinned: one session of every kind of write
// and read through Handle, on a journaled node, and what it leaves on disk.
// A change to how the meta-database stores, walks or checkpoints its
// objects must leave both as they are; a change that means to alter them
// regenerates the golden file with -update and shows the difference.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/wire"
)

var updateTranscript = flag.Bool("update", false, "rewrite testdata/transcript.golden")

// transcriptBP has move and copy link templates and move and copy
// properties, so that new versions shift some links and copy others.
const transcriptBP = `blueprint transcript
view default
    property uptodate default true
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false done
endview
view HDL_model
    property sim_result default bad
    when hdl_sim do sim_result = $arg done
endview
view schematic
    property nl_sim_res default bad copy
    property lvs_res default not_equiv move
    let state = ($nl_sim_res == good) and ($lvs_res == is_equiv) and ($uptodate == true)
    link_from HDL_model move propagates outofdate type derived
    use_link copy propagates outofdate
    when nl_sim do nl_sim_res = $arg done
    when lvs do lvs_res = $arg done
endview
view netlist
    link_from schematic copy propagates outofdate type derived
endview
endblueprint`

// TestTranscriptGolden drives one session through Handle — CREATE, LINK,
// new versions over move and copy links, POST, BATCH, SNAPSHOT, a reclaim
// pass and a journal checkpoint, then STATE, LINKS, REPORT, GAP and QUERY —
// and compares every response, and a digest of every file the journal
// directory holds once the writer is closed, with testdata/transcript.golden.
func TestTranscriptGolden(t *testing.T) {
	dir := t.TempDir()
	w, db, err := journal.Open(dir, journal.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	bp, err := bpl.Parse(transcriptBP)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(db, bp, engine.WithJournal(w))
	if err != nil {
		w.Abort()
		t.Fatal(err)
	}
	s := New(eng, WithJournal(w))

	var out strings.Builder
	do := func(verb string, args ...string) {
		t.Helper()
		resp := s.Handle(wire.Request{Verb: verb, Args: args})
		fmt.Fprintf(&out, "> %s\n%s\n", strings.Join(append([]string{verb}, args...), " "), resp.Encode())
	}
	for _, block := range []string{"CPU", "ALU", "REG"} {
		for _, view := range []string{"HDL_model", "schematic", "netlist"} {
			do(wire.VerbCreate, block, view)
		}
		do(wire.VerbLink, "derive", block+",HDL_model,1", block+",schematic,1")
		do(wire.VerbLink, "derive", block+",schematic,1", block+",netlist,1")
	}
	do(wire.VerbLink, "use", "CPU,schematic,1", "ALU,schematic,1")
	do(wire.VerbLink, "use", "CPU,schematic,1", "REG,schematic,1")
	do(wire.VerbLink, "use", "ALU,schematic,1", "REG,schematic,1")
	do(wire.VerbPost, "hdl_sim", "down", "CPU,HDL_model,1", "good")
	do(wire.VerbPost, "nl_sim", "down", "CPU,schematic,1", "good")
	do(wire.VerbPost, "lvs", "down", "CPU,schematic,1", "is_equiv")
	do(wire.VerbSnapshot, "before", "*")
	// New versions: the schematic's move links shift to version 2, its
	// copy links are copied, and so are the netlist's.
	do(wire.VerbCreate, "CPU", "schematic")
	do(wire.VerbCreate, "CPU", "netlist")
	do(wire.VerbCreate, "ALU", "schematic")
	do(wire.VerbPost, "ckin", "down", "CPU,HDL_model,1")
	do(wire.VerbBatch,
		wire.BatchItem{Event: "nl_sim", Dir: "down", OID: "CPU,schematic,2", Args: []string{"good"}}.Encode(),
		wire.BatchItem{Event: "lvs", Dir: "down", OID: "CPU,schematic,2", Args: []string{"is_equiv"}}.Encode(),
		wire.BatchItem{Event: "ckin", Dir: "down", OID: "ALU,HDL_model,1"}.Encode())
	do(wire.VerbSnapshot, "cpu", "CPU,HDL_model,1")
	do(wire.VerbSync)
	db.ReclaimVersions()
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	do(wire.VerbCreate, "REG", "HDL_model")
	do(wire.VerbPost, "hdl_sim", "down", "REG,HDL_model,2", "good")
	do(wire.VerbSync)

	for _, k := range []string{"CPU,HDL_model,1", "CPU,schematic,1", "CPU,schematic,2", "CPU,netlist,2", "ALU,schematic,2", "REG,HDL_model,2"} {
		do(wire.VerbState, k)
		do(wire.VerbLinks, k)
	}
	do(wire.VerbReport)
	do(wire.VerbGap)
	do(wire.VerbQuery, "0", "reach", "CPU,HDL_model,1")
	do(wire.VerbQuery, "0", "deps", "REG,schematic,1", "all")
	do(wire.VerbQuery, "0", "equiv", "CPU,schematic,2")
	do(wire.VerbQuery, "0", "resolve", "before")
	do(wire.VerbQuery, "0", "resolve", "cpu")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "file %s %d %x\n", e.Name(), len(b), sha256.Sum256(b))
	}

	golden := filepath.Join("testdata", "transcript.golden")
	if *updateTranscript {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("the session differs from %s:\n%s", golden, firstLineDiff(got, string(want)))
	}
}

// firstLineDiff names the first line where got and want differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, gl, wl)
		}
	}
	return "(equal)"
}
