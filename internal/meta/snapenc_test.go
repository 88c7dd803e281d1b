package meta

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// The reflection encoder the streaming one replaced, kept as the oracle:
// the same collection into dbJSON and the same json.Encoder with SetIndent
// that wrote every snapshot before, so "byte-identical to the old
// documents" is checked against the code that wrote them.

func oracleTerms(starts []TermStart) []termJSON {
	if len(starts) == 0 {
		return nil
	}
	out := make([]termJSON, len(starts))
	for i, ts := range starts {
		out[i] = termJSON{Term: ts.Term, LSN: ts.LSN}
	}
	return out
}

func oracleLink(l *Link) linkJSON {
	lj := linkJSON{
		ID:         int64(l.ID),
		Class:      l.Class.String(),
		From:       l.From.String(),
		To:         l.To.String(),
		Template:   l.Template,
		Seq:        l.Seq,
		Propagates: l.PropagateList(),
	}
	if len(l.Props) > 0 {
		lj.Props = l.Props
	}
	return lj
}

func oracleConfig(c *Configuration) configJSON {
	cj := configJSON{Name: c.Name, Seq: c.Seq}
	for _, k := range c.OIDs {
		cj.OIDs = append(cj.OIDs, k.String())
	}
	for _, id := range c.Links {
		cj.Links = append(cj.Links, int64(id))
	}
	return cj
}

func oracleWorkspace(ws *Workspace) workspaceJSON {
	wj := workspaceJSON{Name: ws.Name, Root: ws.Root}
	if len(ws.paths) > 0 {
		wj.Paths = make(map[string]string, len(ws.paths))
		for k, p := range ws.paths {
			wj.Paths[k.String()] = p
		}
	}
	return wj
}

// oracleLive is the document the public live reads describe, object by
// object, without pinning a view.  The database must be quiescent.
func oracleLive(t testing.TB, db *DB) []byte {
	doc := dbJSON{Seq: db.Seq(), NextLink: db.nextLink.Load()}
	for _, k := range db.Head().Keys() {
		o, err := db.Head().GetOID(k)
		if err != nil {
			t.Fatal(err)
		}
		oj := oidJSON{Block: k.Block, View: k.View, Version: k.Version, Seq: o.Seq}
		if len(o.Props) > 0 {
			oj.Props = o.Props
		}
		doc.OIDs = append(doc.OIDs, oj)
	}
	for _, id := range db.Head().LinkIDs() {
		l, err := db.Head().GetLink(id)
		if err != nil {
			t.Fatal(err)
		}
		doc.Links = append(doc.Links, oracleLink(l))
	}
	for _, name := range db.Head().ConfigurationNames() {
		c, err := db.Head().GetConfiguration(name)
		if err != nil {
			t.Fatal(err)
		}
		doc.Configs = append(doc.Configs, oracleConfig(c))
	}
	for _, name := range db.Head().WorkspaceNames() {
		ws, err := db.Head().GetWorkspace(name)
		if err != nil {
			t.Fatal(err)
		}
		doc.Workspaces = append(doc.Workspaces, oracleWorkspace(ws))
	}
	doc.Terms = oracleTerms(db.TermStarts())
	return oracleEncode(t, &doc)
}

// oracleView is the old View.SaveTo.
func oracleView(t testing.TB, v *View) []byte {
	doc := dbJSON{Seq: v.seq, NextLink: v.nextLink}
	v.EachOID(func(o *OID) bool {
		oj := oidJSON{Block: o.Key.Block, View: o.Key.View, Version: o.Key.Version, Seq: o.Seq}
		if len(o.Props) > 0 {
			oj.Props = o.Props
		}
		doc.OIDs = append(doc.OIDs, oj)
		return true
	})
	v.EachLink(func(l *Link) bool {
		doc.Links = append(doc.Links, oracleLink(l))
		return true
	})
	v.eachConfiguration(func(c *Configuration) { doc.Configs = append(doc.Configs, oracleConfig(c)) })
	v.eachWorkspace(func(ws *Workspace) { doc.Workspaces = append(doc.Workspaces, oracleWorkspace(ws)) })
	doc.Terms = oracleTerms(v.db.termsUpTo(v.lsn))
	return oracleEncode(t, &doc)
}

// oracleEncode is the old encodeDoc.
func oracleEncode(t testing.TB, doc *dbJSON) []byte {
	sort.Slice(doc.OIDs, func(i, j int) bool {
		a, b := doc.OIDs[i], doc.OIDs[j]
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.View != b.View {
			return a.View < b.View
		}
		return a.Version < b.Version
	})
	sort.Slice(doc.Links, func(i, j int) bool { return doc.Links[i].ID < doc.Links[j].ID })
	sort.Slice(doc.Configs, func(i, j int) bool { return doc.Configs[i].Name < doc.Configs[j].Name })
	sort.Slice(doc.Workspaces, func(i, j int) bool { return doc.Workspaces[i].Name < doc.Workspaces[j].Name })

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(*doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostile are strings the escaper has a rule for: HTML characters, quotes
// and backslashes, every kind of control byte, invalid and truncated UTF-8,
// the two line separators JavaScript trips over, and a string that takes
// more than the encoder's whole buffer once escaped.
var hostile = []string{
	"", "plain", "<script>&amp;</script>", `q"uo\te`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"\xff", "\xc3", "\xe2\x82", "a\xf0\x9f\x98z", "é€😀", "\u2028\u2029", "\ufffd",
	"€€" + strings.Repeat("\xe2", 9) + strings.Repeat("<", snapBufBytes/8),
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
	// Every hostile string but the last, the long one: that one is the
	// value of at most one property, so that a document stays small enough
	// to be read a byte at a time, and yet half of them hold it.
	pick := func() string { return hostile[rng.Intn(len(hostile)-1)] }
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
		if err := db.SetProp(keys[rng.Intn(len(keys))], hostileName(rng), hostile[len(hostile)-1]); err != nil {
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

// TestQuickStreamingSnapshotEqualsOracle is the byte-identity property:
// on random databases at 1, 4 and 64 shards a pinned view's SaveTo writes
// exactly the bytes the reflection encoder wrote.
func TestQuickStreamingSnapshotEqualsOracle(t *testing.T) {
	f := func(seed int64) bool {
		for _, shards := range []int{1, 4, 64} {
			db := NewDBWithShards(shards)
			buildHostile(t, db, seed)

			var got bytes.Buffer
			v := db.ReadView()
			err := v.SaveTo(&got)
			want := oracleView(t, v)
			v.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Logf("seed %d shards %d: view collector diverges:\n%s", seed, shards, firstDiff(got.Bytes(), want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStreamingSnapshotEmptyDatabase pins the smallest document: both
// sections without omitempty are null.
func TestStreamingSnapshotEmptyDatabase(t *testing.T) {
	const want = "{\n  \"seq\": 0,\n  \"next_link\": 0,\n  \"oids\": null,\n  \"links\": null\n}\n"
	db := NewDB()
	var buf bytes.Buffer
	if got := string(oracleLive(t, db)); got != want {
		t.Errorf("oracle: %q", got)
	}
	v := db.ReadView()
	defer v.Close()
	if err := v.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("view: %q", buf.String())
	}
}

// TestStreamingSnapshotPathOrder binds a dozen versions of one chain: the
// paths of a workspace are ordered by the text of their keys, where
// version 10 comes before version 2.
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
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if want := oracleLive(t, db); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("diverges from the oracle:\n%s", firstDiff(buf.Bytes(), want))
	}
	if i, j := strings.Index(buf.String(), `"cpu,schematic,10"`), strings.Index(buf.String(), `"cpu,schematic,2"`); i < 0 || j < i {
		t.Errorf("version 10 at byte %d, version 2 at byte %d", i, j)
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

// FuzzSnapshotString checks the string appender against json.Marshal,
// which escapes HTML as the Encoder does, for arbitrary bytes.
func FuzzSnapshotString(f *testing.F) {
	for _, s := range hostile {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q):\n got %s\nwant %s", s, got, want)
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

// TestStreamingSnapshotAllocs is the guard on what made checkpoints cheap:
// nothing is allocated per OID, per link or per property.  Four times the
// project may only cost the extra doublings of the two row slices.
func TestStreamingSnapshotAllocs(t *testing.T) {
	allocs := func(trees int) float64 {
		v := treeDB(t, trees).ReadView()
		defer v.Close()
		return testing.AllocsPerRun(5, func() {
			if err := v.SaveTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(64)
	t.Logf("allocs per snapshot: %.0f at 16 trees, %.0f at 64", small, large)
	if large > small+8 {
		t.Errorf("allocs per snapshot grow with the project: %.0f at 16 trees, %.0f at 64", small, large)
	}
}

// failAfter accepts n bytes, then fails every write, the first one short.
type failAfter struct {
	n      int
	failed int // writes that failed
}

var errDiskGone = errors.New("disk gone")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.failed == 0 && len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	w.failed++
	n := w.n
	w.n = 0
	return n, errDiskGone
}

// TestStreamingSnapshotWriteError fails the writer at the first write, in
// the first buffer and a few buffers in: SaveTo returns its error and does
// not write to it again.
func TestStreamingSnapshotWriteError(t *testing.T) {
	db := treeDB(t, 16)
	var whole bytes.Buffer
	if err := db.Save(&whole); err != nil {
		t.Fatal(err)
	}
	if whole.Len() < 3*snapBufBytes {
		t.Fatalf("document of %d bytes is not several buffers long", whole.Len())
	}
	for _, budget := range []int{0, 100, 2*snapBufBytes + 100} {
		v := db.ReadView()
		w := &failAfter{n: budget}
		if err := v.SaveTo(w); !errors.Is(err, errDiskGone) || w.failed != 1 {
			t.Errorf("%d bytes accepted: err = %v after %d failed writes", budget, err, w.failed)
		}
		v.Close()
	}
}
