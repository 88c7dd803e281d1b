package meta

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/wire"
)

// checkpointOf is the checkpoint of a pinned view, a payload per record,
// spelled as the journal spells one.
func checkpointOf(t testing.TB, v *View) [][]byte {
	t.Helper()
	var out [][]byte
	if err := v.Checkpoint(func(head Record, args []byte) error {
		p := strconv.AppendInt(nil, head.LSN, 10)
		p = strconv.AppendInt(append(p, ' '), head.Seq, 10)
		out = append(out, append(wire.AppendQuote(append(p, ' '), head.Op), args...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// loadPayloads reads a checkpoint as the journal does: each payload read
// into one buffer and decoded into a record whose strings are its bytes —
// which are wiped once the record is entered, so that a string the load
// kept without copying it shows in what it loaded.
func loadPayloads(payloads [][]byte, shards int) (*DB, error) {
	var buf []byte
	var fields []string
	return LoadCheckpoint(shards, func(add func(Record) error) error {
		for _, p := range payloads {
			buf = append(buf[:0], p...)
			var err error
			if fields, err = wire.AppendFields(fields[:0], unsafe.String(unsafe.SliceData(buf), len(buf))); err != nil {
				return err
			}
			if len(fields) < 3 {
				return fmt.Errorf("payload %q", p)
			}
			lsn, _ := strconv.ParseInt(fields[0], 10, 64)
			seq, _ := strconv.ParseInt(fields[1], 10, 64)
			if err := add(Record{LSN: lsn, Seq: seq, Op: fields[2], Args: fields[3:]}); err != nil {
				return err
			}
			clear(buf)
		}
		return nil
	})
}

// hostile are strings one codec or the other has a rule for: HTML
// characters, quotes and backslashes, every kind of control byte, invalid
// and truncated UTF-8, the two line separators JavaScript trips over, a
// string of kilobytes, and spaces.
var hostile = []string{
	"", "plain", "<script>&amp;</script>", `q"uo\te`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"\xff", "\xc3", "\xe2\x82", "a\xf0\x9f\x98z", "é€😀", "\u2028\u2029", "\ufffd",
	"€€" + strings.Repeat("\xe2", 9) + strings.Repeat("<", 8<<10), " a  b ",
}

// hostileName is a hostile string that ValidateName accepts, as block,
// view and property names must be.
func hostileName(rng *rand.Rand) string {
	for {
		s := hostile[rng.Intn(len(hostile))]
		if len(s) < 64 && ValidateName(s) == nil {
			return s
		}
	}
}

// buildHostile fills db from the seed: OIDs with and without properties,
// links with and without template, props and propagates, configurations,
// workspaces with paths whose version numbers sort differently as text,
// and a term table — or, for some seeds, nothing at all.
func buildHostile(t testing.TB, db *DB, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	if rng.Intn(8) == 0 {
		return
	}
	// Every hostile string but the long one: that one is the value of at
	// most one property, so that a document stays small, and yet half of
	// them hold it.
	long := len(hostile) - 2
	pick := func() string {
		if i := rng.Intn(len(hostile) - 1); i != long {
			return hostile[i]
		}
		return hostile[len(hostile)-1]
	}
	blocks := []string{"cpu", "alu", hostileName(rng), hostileName(rng)}
	views := []string{"schematic", hostileName(rng)}
	var keys []Key
	for i, n := 0, rng.Intn(30)+2; i < n; i++ {
		k, err := db.NewVersion(blocks[rng.Intn(len(blocks))], views[rng.Intn(len(views))])
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		for p := rng.Intn(4); p > 0; p-- {
			if err := db.SetProp(k, hostileName(rng), pick()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rng.Intn(2) == 0 {
		if err := db.SetProp(keys[rng.Intn(len(keys))], hostileName(rng), hostile[long]); err != nil {
			t.Fatal(err)
		}
	}
	var ids []LinkID
	for i, n := 0, rng.Intn(20); i < n; i++ {
		a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		if a == b {
			continue
		}
		var template string
		var events []string
		var props map[string]string
		if rng.Intn(2) == 0 {
			template = pick()
		}
		for e := rng.Intn(3); e > 0; e-- {
			events = append(events, pick())
		}
		if rng.Intn(2) == 0 {
			props = map[string]string{PropType: pick(), pick(): pick()}
		}
		id, err := db.AddLink(DeriveLink, a, b, template, events, props)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if len(ids) > 0 && rng.Intn(2) == 0 {
		id := ids[rng.Intn(len(ids))]
		if err := db.SetLinkPropagates(id, nil); err != nil {
			t.Fatal(err)
		}
		if l, err := db.Head().GetLink(id); err == nil {
			_ = db.RetargetLink(id, l.To, keys[rng.Intn(len(keys))])
		}
		if rng.Intn(2) == 0 {
			// The newest link gone: next_link is above every link left.
			if err := db.DeleteLink(ids[len(ids)-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		if _, err := db.SnapshotHierarchy(fmt.Sprintf("cfg%d", i), keys[rng.Intn(len(keys))], FollowAllLinks); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(3) == 0 {
		// A configuration that references nothing: "oids" and "links" null.
		if _, err := db.SnapshotQuery("empty", func(*OID) bool { return false }); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		name := fmt.Sprintf("ws%d", i)
		if err := db.AddWorkspace(name, pick()); err != nil {
			t.Fatal(err)
		}
		for p := rng.Intn(14); p > 0; p-- {
			if err := db.BindPath(name, keys[rng.Intn(len(keys))], pick()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rng.Intn(3) == 0 {
		// A binding to a pruned OID, which a checkpoint keeps.
		k := keys[rng.Intn(len(keys))]
		if _, err := db.PruneVersions(k.Block, k.View, 1); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		// Promotions stamp the table with journal positions; at a view the
		// entries above its pin are filtered out.
		cur := db.mvcc.epoch.Load()
		if err := db.applyTermBump(2, cur/2+1); err != nil {
			t.Fatal(err)
		}
		if err := db.applyTermBump(5, cur+10); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuickStreamingSnapshotEqualsOracle is the byte-identity property of
// checkpoints: on random databases at 1, 4 and 64 shards a pinned view's
// checkpoint loads to a database that saves to exactly the view's SaveTo
// document — the oracle of recovery — with the same adjacency, and that,
// sealed at the view's LSN as recovery seals it, writes the same
// checkpoint again.
func TestQuickStreamingSnapshotEqualsOracle(t *testing.T) {
	f := func(seed int64) bool {
		for _, shards := range []int{1, 4, 64} {
			db := NewDBWithShards(shards)
			buildHostile(t, db, seed)
			v := db.ReadView()
			want, payloads := viewSave(t, v), checkpointOf(t, v)
			v.Close()
			got, err := loadPayloads(payloads, shards)
			if err != nil {
				t.Logf("seed %d shards %d: %v", seed, shards, err)
				return false
			}
			if s := saveDB(t, got); !bytes.Equal(s, want) {
				t.Logf("seed %d shards %d: the loaded checkpoint saves differently:\n%s", seed, shards, firstDiff(s, want))
				return false
			}
			// A loaded database's postings are in ID order, whichever format
			// it was loaded from — where the document keeps every name.
			oracle, err := LoadShards(bytes.NewReader(want), shards)
			if err == nil && bytes.Equal(saveDB(t, oracle), want) && adjacency(got) != adjacency(oracle) {
				t.Logf("seed %d shards %d: adjacency lists differ:\n got %s\nwant %s", seed, shards, adjacency(got), adjacency(oracle))
				return false
			}
			got.SealVersions(0)
			gv := got.ReadView()
			again := checkpointOf(t, gv)
			gv.Close()
			if !slices.EqualFunc(again, payloads, bytes.Equal) {
				t.Logf("seed %d shards %d: the loaded database writes another checkpoint", seed, shards)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStreamingSnapshotEmptyDatabase pins the smallest snapshots: a
// document whose two sections without omitempty are null, and a checkpoint
// that is its clock alone.
func TestStreamingSnapshotEmptyDatabase(t *testing.T) {
	const want = "{\n  \"seq\": 0,\n  \"next_link\": 0,\n  \"oids\": null,\n  \"links\": null\n}\n"
	db := NewDB()
	if got := string(oracleLive(t, db)); got != want {
		t.Errorf("oracle: %q", got)
	}
	v := db.ReadView()
	defer v.Close()
	if got := string(viewSave(t, v)); got != want {
		t.Errorf("view: %q", got)
	}
	if got := checkpointOf(t, v); len(got) != 1 || string(got[0]) != "0 0 clock 0" {
		t.Errorf("checkpoint: %q", got)
	}
}

// TestStreamingSnapshotPathOrder binds a dozen versions of one chain: the
// paths of a workspace are ordered by the text of their keys in the
// document, where version 10 comes before version 2, and by key in a
// checkpoint, which loads back to the same document.
func TestStreamingSnapshotPathOrder(t *testing.T) {
	db := NewDB()
	if err := db.AddWorkspace("ws", "/proj"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		k, err := db.NewVersion("cpu", "schematic")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.BindPath("ws", k, fmt.Sprintf("cpu/%d", k.Version)); err != nil {
			t.Fatal(err)
		}
	}
	doc := saveDB(t, db)
	if want := oracleLive(t, db); !bytes.Equal(doc, want) {
		t.Errorf("diverges from the oracle:\n%s", firstDiff(doc, want))
	}
	if i, j := bytes.Index(doc, []byte(`"cpu,schematic,10"`)), bytes.Index(doc, []byte(`"cpu,schematic,2"`)); i < 0 || j < i {
		t.Errorf("version 10 at byte %d, version 2 at byte %d", i, j)
	}
	v := db.ReadView()
	payloads := checkpointOf(t, v)
	v.Close()
	ws := payloads[len(payloads)-2]
	if i, j := bytes.Index(ws, []byte("cpu,schematic,2 ")), bytes.Index(ws, []byte("cpu,schematic,10 ")); i < 0 || j < i {
		t.Errorf("workspace record %q: version 2 at byte %d, version 10 at byte %d", ws, i, j)
	}
	if got, err := loadPayloads(payloads, DefaultShards); err != nil || !bytes.Equal(saveDB(t, got), doc) {
		t.Errorf("the checkpoint does not load back to the document: %v", err)
	}
}

func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) []byte {
		if hi := i + 60; hi < len(b) {
			return b[lo:hi]
		}
		return b[min(lo, len(b)):]
	}
	return fmt.Sprintf("at byte %d\n got %q\nwant %q", i, clip(got), clip(want))
}

// FuzzSnapshotString: a property value of any bytes survives a checkpoint
// byte for byte, on records that hold no raw line break — the writer
// escapes them, a record a line of text — and survives the JSON document as
// encoding/json has it, invalid UTF-8 become U+FFFD.
func FuzzSnapshotString(f *testing.F) {
	for _, s := range hostile {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		db := NewDB()
		k, err := db.NewVersion("cpu", "schematic")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetProp(k, "p", s); err != nil {
			t.Fatal(err)
		}
		to, err := db.NewVersion("cpu", "netlist")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddLink(DeriveLink, k, to, s, []string{s}, map[string]string{"n": s}); err != nil {
			t.Fatal(err)
		}
		v := db.ReadView()
		payloads := checkpointOf(t, v)
		v.Close()
		for _, p := range payloads {
			if bytes.ContainsAny(p, "\r\n") {
				t.Fatalf("record %q holds a raw line break", p)
			}
		}
		got, err := loadPayloads(payloads, 1)
		if err != nil {
			t.Fatal(err)
		}
		l, _ := got.Head().GetLink(1)
		if val, _, _ := got.Head().GetProp(k, "p"); val != s || l.Template != s || !l.CanPropagate(s) || l.Props["n"] != s {
			t.Fatalf("%q came back from a checkpoint as %q, template %q, link %+v", s, val, l.Template, l)
		}
		var want string
		if enc, err := json.Marshal(s); err != nil || json.Unmarshal(enc, &want) != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(saveDB(t, db)))
		if err != nil {
			t.Fatal(err)
		}
		if val, _, _ := loaded.Head().GetProp(k, "p"); val != want {
			t.Fatalf("%q came back from the document as %q, want %q", s, val, want)
		}
	})
}

// treeDB builds the benchmark's design project in a bare database: per
// tree 13 blocks in three views, 12 use links and 26 derive links, every
// OID with the property a check-in leaves behind.
func treeDB(t testing.TB, trees int) *DB {
	db := NewDB()
	for tr := 0; tr < trees; tr++ {
		var sch [13]Key
		for b := range sch {
			for _, view := range []string{"schematic", "netlist", "layout"} {
				k, err := db.NewVersion(fmt.Sprintf("t%db%d", tr, b), view)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.SetProp(k, "uptodate", "true"); err != nil {
					t.Fatal(err)
				}
				if view == "schematic" {
					sch[b] = k
				} else if _, err := db.AddLink(DeriveLink, sch[b], k, "derive_"+view, []string{"outofdate"}, map[string]string{PropType: TypeDeriveFrom}); err != nil {
					t.Fatal(err)
				}
			}
			if b > 0 {
				if _, err := db.AddLink(UseLink, sch[(b-1)/3], sch[b], "use", []string{"outofdate", "ckin"}, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db
}

// TestStreamingSnapshotAllocs is the guard on what keeps checkpoints
// cheap: nothing is allocated per OID, per link or per property.  Four
// times the project may only cost the extra doublings of the row slices.
func TestStreamingSnapshotAllocs(t *testing.T) {
	allocs := func(trees int) float64 {
		v := treeDB(t, trees).ReadView()
		defer v.Close()
		return testing.AllocsPerRun(5, func() {
			if err := v.Checkpoint(func(Record, []byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(64)
	t.Logf("allocs per checkpoint: %.0f at 16 trees, %.0f at 64", small, large)
	if large > small+8 {
		t.Errorf("allocs per checkpoint grow with the project: %.0f at 16 trees, %.0f at 64", small, large)
	}
}

var errDiskGone = errors.New("disk gone")

// TestStreamingSnapshotWriteError: the first error of emit ends a
// checkpoint — Checkpoint returns it, and does not call emit again.
func TestStreamingSnapshotWriteError(t *testing.T) {
	v := treeDB(t, 4).ReadView()
	defer v.Close()
	records := len(checkpointOf(t, v))
	for _, ok := range []int{0, 1, records / 2, records - 1} {
		calls := 0
		err := v.Checkpoint(func(Record, []byte) error {
			if calls++; calls > ok {
				return errDiskGone
			}
			return nil
		})
		if !errors.Is(err, errDiskGone) || calls != ok+1 {
			t.Errorf("emit failing after %d of %d records: err = %v after %d calls", ok, records, err, calls)
		}
	}
}

// TestCheckpointRefuses: what is not a checkpoint Checkpoint wrote does not
// load — whatever the frames' checksums say, since they are the journal's.
func TestCheckpointRefuses(t *testing.T) {
	db := treeDB(t, 1)
	if err := db.applyTermBump(2, 3); err != nil {
		t.Fatal(err)
	}
	v := db.ReadView()
	intact := checkpointOf(t, v)
	v.Close()
	if _, err := loadPayloads(intact, DefaultShards); err != nil {
		t.Fatal(err)
	}
	n := len(intact)
	edit := func(f func(p [][]byte) [][]byte) [][]byte { return f(slices.Clone(intact)) }
	for name, payloads := range map[string][][]byte{
		"empty":                nil,
		"cut before the clock": intact[:n-1],
		"cut before the links": intact[:14],
		"a record after it":    append(slices.Clone(intact), intact[1]),
		"an OID twice":         edit(func(p [][]byte) [][]byte { return slices.Insert(p, 2, p[1]) }),
		"OIDs out of order":    edit(func(p [][]byte) [][]byte { p[1], p[2] = p[2], p[1]; return p }),
		"a term after an OID":  edit(func(p [][]byte) [][]byte { p[0], p[1] = p[1], p[0]; return p }),
		"a link twice":         edit(func(p [][]byte) [][]byte { return slices.Insert(p, n-2, p[n-2]) }),
		"a record of the log": edit(func(p [][]byte) [][]byte {
			return slices.Insert(p, 1, bytes.Replace(p[1], []byte("oid"), []byte("event"), 1))
		}),
		"a term above the LSN":  edit(func(p [][]byte) [][]byte { p[0] = []byte("9999 " + string(p[0][2:])); return p }),
		"a property tail short": edit(func(p [][]byte) [][]byte { p[1] = bytes.TrimSuffix(p[1], []byte(" true")); return p }),
	} {
		if _, err := loadPayloads(payloads, DefaultShards); err == nil {
			t.Errorf("%s: loaded", name)
		} else if !strings.HasPrefix(err.Error(), "meta: checkpoint") {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// retainedBytes is the live heap one result of keep() holds on to — the
// growth of HeapAlloc from one result held to two, garbage collected on both
// sides — and what making the second one allocated.
func retainedBytes(keep func() any) (retained, allocated, objects uint64) {
	var one, two runtime.MemStats
	first := keep()
	runtime.GC()
	runtime.ReadMemStats(&one)
	second := keep()
	runtime.GC()
	runtime.ReadMemStats(&two)
	runtime.KeepAlive(first)
	runtime.KeepAlive(second)
	return two.HeapAlloc - one.HeapAlloc, two.TotalAlloc - one.TotalAlloc, two.Mallocs - one.Mallocs
}

// TestStreamingLoadAllocatesWhatItKeeps: loading the 64-tree project's
// checkpoint allocates little more than the database it returns.  (Its
// JSON document through encoding/json is 13.6 MB in 146,000 objects to keep
// 6.0 MB.)
func TestStreamingLoadAllocatesWhatItKeeps(t *testing.T) {
	v := treeDB(t, 64).ReadView()
	payloads := checkpointOf(t, v)
	v.Close()
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	load := func() any {
		db, err := loadPayloads(payloads, DefaultShards)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	retained, allocated, objects := retainedBytes(load)
	runtime.KeepAlive(payloads) // or the second load's end frees them, and counts against what is retained
	t.Logf("checkpoint of %d records, %d B: retained %d B, allocated %d B in %d objects (%.2f× retained)",
		len(payloads), size, retained, allocated, objects, float64(allocated)/float64(retained))
	if float64(allocated) > 1.25*float64(retained) {
		t.Errorf("loading the checkpoint allocated %d B to keep %d B", allocated, retained)
	}
}

// BenchmarkLoad is one load of the 64-tree project: from its checkpoint,
// which recovery reads, and from its JSON document, the cold path.
func BenchmarkLoad(b *testing.B) {
	db := treeDB(b, 64)
	v := db.ReadView()
	payloads := checkpointOf(b, v)
	v.Close()
	doc := saveDB(b, db)
	for _, format := range []struct {
		name string
		load func() error
	}{
		{"checkpoint", func() error { _, err := loadPayloads(payloads, DefaultShards); return err }},
		{"json", func() error { _, err := Load(bytes.NewReader(doc)); return err }},
	} {
		b.Run(format.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := format.load(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
