package meta

import (
	"bytes"
	"cmp"
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
func loadPayloads(payloads [][]byte) (*DB, error) {
	var buf []byte
	var fields []string
	return LoadCheckpoint(func(add func(Record) error) error {
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

// validHostile are the hostile strings with their invalid UTF-8 written as
// U+FFFD, as the JSON document writes it: each of them survives the
// document.
var validHostile = func() []string {
	out := make([]string, len(hostile))
	for i, s := range hostile {
		out[i] = strings.ToValidUTF8(s, "\ufffd")
	}
	return out
}()

// hostileName is a string of strs that ValidateName accepts, as block,
// view and property names must be.
func hostileName(rng *rand.Rand, strs []string) string {
	for {
		s := strs[rng.Intn(len(strs))]
		if len(s) < 64 && ValidateName(s) == nil {
			return s
		}
	}
}

// buildHostile fills db from the seed and strs, hostile or validHostile:
// OIDs with and without properties, links with and without template, props
// and propagates, configurations, workspaces with paths whose version
// numbers sort differently as text, and a term table — or, for some seeds,
// nothing at all.
func buildHostile(t testing.TB, db *DB, seed int64, strs []string) {
	rng := rand.New(rand.NewSource(seed))
	if rng.Intn(8) == 0 {
		return
	}
	// Every hostile string but the long one: that one is the value of at
	// most one property, so that a document stays small, and yet half of
	// them hold it.
	long := len(strs) - 2
	pick := func() string {
		if i := rng.Intn(len(strs) - 1); i != long {
			return strs[i]
		}
		return strs[len(strs)-1]
	}
	blocks := []string{"cpu", "alu", hostileName(rng, strs), hostileName(rng, strs)}
	views := []string{"schematic", hostileName(rng, strs)}
	var keys []Key
	for i, n := 0, rng.Intn(30)+2; i < n; i++ {
		k, err := db.NewVersion(blocks[rng.Intn(len(blocks))], views[rng.Intn(len(views))])
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		for p := rng.Intn(4); p > 0; p-- {
			if err := db.SetProp(k, hostileName(rng, strs), pick()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rng.Intn(2) == 0 {
		if err := db.SetProp(keys[rng.Intn(len(keys))], hostileName(rng, strs), strs[long]); err != nil {
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

// TestQuickStreamingSnapshotEqualsOracle is the byte-identity property of
// checkpoints: on random databases a pinned view's checkpoint loads to a
// database whose live reads are the source's —
// oracleLive, which the checkpoint's encoder does not write — with every
// adjacency list in ID order, and that, sealed at the view's LSN as
// recovery seals it, writes the same checkpoint again.
func TestQuickStreamingSnapshotEqualsOracle(t *testing.T) {
	f := func(seed int64) bool {
		db := NewDB()
		buildHostile(t, db, seed, hostile)
		want := oracleLive(t, db)
		v := db.ReadView()
		payloads := checkpointOf(t, v)
		v.Close()
		got, err := loadPayloads(payloads)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if s := oracleLive(t, got); !bytes.Equal(s, want) {
			t.Logf("seed %d: the loaded checkpoint reads differently:\n%s", seed, firstDiff(s, want))
			return false
		}
		// A loaded database's postings are in ID order, whatever order
		// the source's links came to their ends in.
		byID := func(a, b *Link) int { return cmp.Compare(a.ID, b.ID) }
		for _, k := range got.Head().Keys() {
			if p := got.Head().posting(k); !slices.IsSortedFunc(p.out, byID) || !slices.IsSortedFunc(p.in, byID) {
				t.Logf("seed %d: adjacency lists out of ID order:\n%s", seed, adjacency(got))
				return false
			}
		}
		got.SealVersions(0)
		gv := got.ReadView()
		again := checkpointOf(t, gv)
		gv.Close()
		if !slices.EqualFunc(again, payloads, bytes.Equal) {
			t.Logf("seed %d: the loaded database writes another checkpoint", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStreamingSnapshotEmptyDatabase pins the smallest checkpoint: its
// clock alone.
func TestStreamingSnapshotEmptyDatabase(t *testing.T) {
	v := NewDB().ReadView()
	defer v.Close()
	if got := checkpointOf(t, v); len(got) != 1 || string(got[0]) != "0 0 clock 0" {
		t.Errorf("checkpoint: %q", got)
	}
}

// TestStreamingSnapshotPathOrder binds a dozen versions of one chain: the
// paths of a workspace are ordered by key in a checkpoint, version 2 before
// version 10, which loads back to the same database.
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
	v := db.ReadView()
	payloads := checkpointOf(t, v)
	v.Close()
	ws := payloads[len(payloads)-2]
	if i, j := bytes.Index(ws, []byte("cpu,schematic,2 ")), bytes.Index(ws, []byte("cpu,schematic,10 ")); i < 0 || j < i {
		t.Errorf("workspace record %q: version 2 at byte %d, version 10 at byte %d", ws, i, j)
	}
	got, err := loadPayloads(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := oracleLive(t, got), oracleLive(t, db); !bytes.Equal(g, w) {
		t.Errorf("the checkpoint loads back to another database:\n%s", firstDiff(g, w))
	}
}

// oracleLive is the database the public live reads describe, object by
// object, without pinning a view and without the checkpoint's encoder: a
// line per object, every string quoted by strconv.Quote, which keeps every
// byte; of the term table, the starts a view pinned now would have.  The
// database must be quiescent.
func oracleLive(t testing.TB, db *DB) []byte {
	h := db.Head()
	b := fmt.Appendf(nil, "seq %d next_link %d terms %v\n", db.Seq(), db.nextLink.Load(), db.termsUpTo(db.mvcc.epoch.Load()))
	quoted := func(p Props) string {
		var pairs []string
		p.Each(func(n, v string) bool {
			pairs = append(pairs, strconv.Quote(n)+"="+strconv.Quote(v))
			return true
		})
		return strings.Join(pairs, " ")
	}
	for _, k := range h.Keys() {
		o, err := h.GetOID(k)
		if err != nil {
			t.Fatal(err)
		}
		b = fmt.Appendf(b, "oid %q seq %d props [%s]\n", k, o.Seq, quoted(o.Props))
	}
	for _, id := range h.LinkIDs() {
		l, err := h.GetLink(id)
		if err != nil {
			t.Fatal(err)
		}
		b = fmt.Appendf(b, "link %d %v %q -> %q template %q propagates %q props [%s] seq %d\n",
			l.ID, l.Class, l.From, l.To, l.Template, l.Propagates, quoted(l.Props), l.Seq)
	}
	for _, name := range h.ConfigurationNames() {
		c, err := h.GetConfiguration(name)
		if err != nil {
			t.Fatal(err)
		}
		b = fmt.Appendf(b, "config %q seq %d oids %q links %v\n", c.Name, c.Seq, c.OIDs, c.Links)
	}
	for _, name := range h.WorkspaceNames() {
		ws, err := h.GetWorkspace(name)
		if err != nil {
			t.Fatal(err)
		}
		b = fmt.Appendf(b, "workspace %q root %q", ws.Name, ws.Root)
		for _, k := range ws.Keys() {
			p, _ := ws.Path(k)
			b = fmt.Appendf(b, " %q=%q", k, p)
		}
		b = append(b, '\n')
	}
	return b
}

// adjacency renders what a checkpoint does not show: the order of every OID's link
// lists, which propagation follows, and the chains.
func adjacency(db *DB) string {
	var sb strings.Builder
	for _, k := range db.Head().Keys() {
		fmt.Fprintf(&sb, "%v out", k)
		for _, l := range db.Head().posting(k).out {
			fmt.Fprintf(&sb, " %d", l.ID)
		}
		sb.WriteString(" in")
		for _, l := range db.Head().posting(k).in {
			fmt.Fprintf(&sb, " %d", l.ID)
		}
		fmt.Fprintf(&sb, " chain %v\n", db.Head().Versions(k.Block, k.View))
	}
	return sb.String()
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
// escapes them, a record a line of text.
func FuzzSnapshotString(f *testing.F) {
	for _, s := range hostile {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		db, k := stringDB(t, s)
		v := db.ReadView()
		payloads := checkpointOf(t, v)
		v.Close()
		for _, p := range payloads {
			if bytes.ContainsAny(p, "\r\n") {
				t.Fatalf("record %q holds a raw line break", p)
			}
		}
		got, err := loadPayloads(payloads)
		if err != nil {
			t.Fatal(err)
		}
		l, _ := got.Head().GetLink(1)
		if val, _, _ := got.Head().GetProp(k, "p"); val != s || l.Template != s || !l.CanPropagate(s) || prop(l.Props, "n") != s {
			t.Fatalf("%q came back from a checkpoint as %q, template %q, link %+v", s, val, l.Template, l)
		}
	})
}

// stringDB is a database that holds s as a property value, and as the
// template, a propagated event and a property value of a link, and the key
// of the OID that holds the property.
func stringDB(t testing.TB, s string) (*DB, Key) {
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
	return db, k
}

// FuzzLoadCheckpoint: a hostile checkpoint, a payload per line, is either
// refused with a checkpoint error or loads to a database whose pinned view
// agrees with its live reads and whose own checkpoint loads back to the same
// database — never a panic, never a database that reads differently through
// a view than through the live API.  A line the journal's decoder would
// refuse before the load — no LSN, Seq and op — is not the loader's to judge.
// The corpus under testdata holds the EDTC project and hostile names as
// checkpoints, whole, cut short, and with a key or an op spelled wrong.
func FuzzLoadCheckpoint(f *testing.F) {
	text := func(db *DB) []byte {
		v := db.ReadView()
		defer v.Close()
		return bytes.Join(checkpointOf(f, v), []byte("\n"))
	}
	f.Add(text(NewDB()))
	f.Add(text(treeDB(f, 1)))
	for _, s := range hostile {
		db, _ := stringDB(f, s)
		f.Add(text(db))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		payloads := bytes.Split(text, []byte("\n"))
		for _, p := range payloads {
			fields, err := wire.AppendFields(nil, string(p))
			if err != nil || len(fields) < 3 {
				return
			}
		}
		db, err := loadPayloads(payloads)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "meta: checkpoint") {
				t.Fatalf("refused for no reason LoadCheckpoint gives: %v", err)
			}
			return
		}
		if err := liveReadsEqualView(db); err != nil {
			t.Fatalf("the live reads of the loaded database differ from its view: %v", err)
		}
		v := db.ReadView()
		again, err := loadPayloads(checkpointOf(t, v))
		v.Close()
		if err != nil {
			t.Fatalf("the checkpoint of a loaded database does not load: %v", err)
		}
		if got, want := dbText(t, again), dbText(t, db); !bytes.Equal(got, want) {
			t.Fatalf("the checkpoint of a loaded database loads to another database:\n%s", firstDiff(got, want))
		}
	})
}

// treeDB builds the benchmark's design project in a bare database: per
// tree 13 blocks in three views, 12 use links and 26 derive links, every
// OID with the property a check-in leaves behind.
func treeDB(t testing.TB, trees int) *DB {
	db := NewDB()
	addTrees(t, db, trees)
	return db
}

// addTrees builds treeDB's project in db.
func addTrees(t testing.TB, db *DB, trees int) {
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
	if _, err := loadPayloads(intact); err != nil {
		t.Fatal(err)
	}
	n := len(intact)
	edit := func(f func(p [][]byte) [][]byte) [][]byte { return f(slices.Clone(intact)) }
	// replace rewrites the first old in record i; the last link is use link
	// 38, t0b3,schematic,1 to t0b12,schematic,1.
	replace := func(i int, old, new string) [][]byte {
		return edit(func(p [][]byte) [][]byte { p[i] = bytes.Replace(p[i], []byte(old), []byte(new), 1); return p })
	}
	// beforeClock inserts records, each of the clock's LSN and Seq.
	beforeClock := func(records ...string) [][]byte {
		head, _, _ := bytes.Cut(intact[n-1], []byte("clock"))
		return edit(func(p [][]byte) [][]byte {
			for _, r := range records {
				p = slices.Insert(p, len(p)-1, append(slices.Clone(head), r...))
			}
			return p
		})
	}
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
		"a term above the LSN":         edit(func(p [][]byte) [][]byte { p[0] = []byte("9999 " + string(p[0][2:])); return p }),
		"a property tail short":        edit(func(p [][]byte) [][]byte { p[1] = bytes.TrimSuffix(p[1], []byte(" true")); return p }),
		"a link to a missing OID":      replace(n-2, "t0b12,schematic,1", "nowhere,schematic,1"),
		"a self link":                  replace(n-2, "t0b12,schematic,1", "t0b3,schematic,1"),
		"an unknown link class":        replace(n-2, " use ", " weird "),
		"a bad key in a link":          replace(n-2, "t0b3,schematic,1", "nokey"),
		"a bad key in a configuration": beforeClock("config c 1 1 x,y"),
		"a configuration twice":        beforeClock("config c 1 0", "config c 1 0"),
		"a workspace twice":            beforeClock("workspace w /a", "workspace w /b"),
		"an OID of version 0":          replace(1, "t0b0,layout,1", "t0b0,layout,0"),
		"a reserved name":              replace(1, "t0b0,layout,1", `"a b,layout,1"`),
	} {
		if _, err := loadPayloads(payloads); err == nil {
			t.Errorf("%s: loaded", name)
		} else if !strings.HasPrefix(err.Error(), "meta: checkpoint") {
			t.Errorf("%s: %v", name, err)
		}
	}
	// A clock of any size is not refused, and the checkpoint of what it
	// loads to is as long as the objects it holds: the checkpoint of the
	// intact load but for its clock.
	bigClock := func(p [][]byte) [][]byte {
		p[len(p)-1] = append(bytes.TrimRight(slices.Clone(p[len(p)-1]), "0123456789"), "9223372036854775807"...)
		return p
	}
	db2, err := loadPayloads(edit(bigClock))
	if err != nil {
		t.Fatalf("a clock of 2^63-1: %v", err)
	}
	back, err := loadPayloads(intact)
	if err != nil {
		t.Fatal(err)
	}
	v2, vBack := db2.ReadView(), back.ReadView()
	defer v2.Close()
	defer vBack.Close()
	if got, want := checkpointOf(t, v2), bigClock(checkpointOf(t, vBack)); !slices.EqualFunc(got, want, bytes.Equal) {
		t.Errorf("a clock of 2^63-1 checkpoints to %d records ending %q, want %d ending %q", len(got), got[len(got)-1], len(want), want[len(want)-1])
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
// checkpoint allocates little more than the database it returns.
func TestStreamingLoadAllocatesWhatItKeeps(t *testing.T) {
	v := treeDB(t, 64).ReadView()
	payloads := checkpointOf(t, v)
	v.Close()
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	load := func() any {
		db, err := loadPayloads(payloads)
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

// BenchmarkLoad is one load of the 64-tree project from its checkpoint, as
// recovery reads it; the sub-benchmark keeps the name earlier results carry.
func BenchmarkLoad(b *testing.B) {
	v := treeDB(b, 64).ReadView()
	payloads := checkpointOf(b, v)
	v.Close()
	b.Run("checkpoint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := loadPayloads(payloads); err != nil {
				b.Fatal(err)
			}
		}
	})
}
