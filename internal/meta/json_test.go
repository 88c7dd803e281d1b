package meta

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// The JSON document's cold path: LoadDocument is encoding/json and the
// loader, plus the four refusals of strict.  No build writes the document
// any more; docOf writes it as the builds before checkpoints did, to
// generate the documents these tests load.

// docOf is db as the JSON document, in canonical order.
func docOf(t testing.TB, db *DB) []byte {
	t.Helper()
	v := db.ReadView()
	defer v.Close()
	doc := dbJSON{Seq: v.seq, NextLink: v.nextLink, Terms: v.db.termsUpTo(v.lsn)}
	for _, k := range v.Keys() {
		o, err := v.GetOID(k)
		if err != nil {
			t.Fatal(err)
		}
		doc.OIDs = append(doc.OIDs, oidJSON{Block: k.Block, View: k.View, Version: k.Version, Seq: o.Seq, Props: o.Props.Map()})
	}
	for _, id := range v.LinkIDs() {
		l, err := v.GetLink(id)
		if err != nil {
			t.Fatal(err)
		}
		doc.Links = append(doc.Links, linkJSON{ID: int64(l.ID), Class: l.Class.String(), From: l.From.String(), To: l.To.String(),
			Template: l.Template, Propagates: l.Propagates, Props: l.Props.Map(), Seq: l.Seq})
	}
	for _, name := range v.ConfigurationNames() {
		c, err := v.GetConfiguration(name)
		if err != nil {
			t.Fatal(err)
		}
		cj := configJSON{Name: c.Name, Seq: c.Seq}
		for _, k := range c.OIDs {
			cj.OIDs = append(cj.OIDs, k.String())
		}
		for _, id := range c.Links {
			cj.Links = append(cj.Links, int64(id))
		}
		doc.Configs = append(doc.Configs, cj)
	}
	for _, name := range v.WorkspaceNames() {
		ws, err := v.GetWorkspace(name)
		if err != nil {
			t.Fatal(err)
		}
		wj := workspaceJSON{Name: ws.Name, Root: ws.Root}
		for k, p := range ws.paths {
			if wj.Paths == nil {
				wj.Paths = make(map[string]string, len(ws.paths))
			}
			wj.Paths[k.String()] = p
		}
		doc.Workspaces = append(doc.Workspaces, wj)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// errClass is what a refused document was refused for: one of the package's
// sentinels, the document's syntax, or something else LoadDocument checks.
func errClass(err error) string {
	for _, s := range []error{ErrExists, ErrNotFound, ErrBadKey, ErrBadName, ErrBadVersion, ErrBadLink} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	if strings.HasPrefix(err.Error(), "meta: decode:") {
		return "decode"
	}
	return "load"
}

// stricter reports whether err is one of the refusals strict adds to what
// encoding/json refuses: data after the document, a known member twice, a
// known member in another case, a document that is not an object.
func stricter(err error) bool {
	for _, s := range []string{"data after the document", "given twice", "the format spells it", "where the document's '{' should be"} {
		if strings.Contains(err.Error(), s) {
			return true
		}
	}
	return false
}

// loadFixedPoint loads doc and returns the database, nil when it is
// refused; a database it loads to must read the same live as through a
// view, and its document must load back to the same database.
func loadFixedPoint(t testing.TB, doc []byte) *DB {
	t.Helper()
	db, err := LoadDocument(bytes.NewReader(doc))
	if err != nil {
		if !stricter(err) && errClass(err) == "load" && !strings.HasPrefix(err.Error(), "meta: load:") {
			t.Fatalf("refused for no reason LoadDocument gives: %v", err)
		}
		return nil
	}
	if err := liveReadsEqualView(db); err != nil {
		t.Fatalf("the live reads of the loaded database differ from its view: %v", err)
	}
	first := docOf(t, db)
	again, err := LoadDocument(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("the document of a loaded database does not load: %v\n%s", err, clipDoc(first))
	}
	if got, want := dbText(t, again), dbText(t, db); !bytes.Equal(got, want) {
		t.Fatalf("the document of a loaded database loads to another database:\n%s", firstDiff(got, want))
	}
	return db
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

func clipDoc(doc []byte) []byte {
	if len(doc) > 2000 {
		return append(doc[:2000:2000], "..."...)
	}
	return doc
}

// sections decodes a document into its top-level members, numbers kept as
// they are spelled.
func sections(t testing.TB, doc []byte) map[string]any {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var top map[string]any
	if err := dec.Decode(&top); err != nil {
		t.Fatal(err)
	}
	return top
}

// respell writes doc again as another writer might: the sections in the
// order of the seed, every object's members sorted by name (which is not
// docOf's order), whitespace where the seed puts it, and — for some seeds —
// members the format does not know, at every level.
func respell(t testing.TB, doc []byte, rng *rand.Rand) []byte {
	top := sections(t, doc)
	future := rng.Intn(2) == 0
	unknown := func() any {
		return map[string]any{"a": []any{1.5e3, true, nil, map[string]any{"b": "x\u2028"}}, "c": "\"", "": []any{}}
	}
	names := make([]string, 0, len(top)+1)
	for name, section := range top {
		names = append(names, name)
		elems, _ := section.([]any)
		for _, e := range elems {
			if obj, ok := e.(map[string]any); ok && future {
				obj["future"] = unknown()
				obj["Zed"] = 7
			}
		}
	}
	if future {
		top["future"] = unknown()
		names = append(names, "future")
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	gaps := []string{"", " ", "\n", "\t\r\n  "}
	gap := func() string { return gaps[rng.Intn(len(gaps))] }
	var out bytes.Buffer
	out.WriteString(gap() + "{")
	for i, name := range names {
		if i > 0 {
			out.WriteString(",")
		}
		val, err := json.Marshal(top[name])
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			var ind bytes.Buffer
			if err := json.Indent(&ind, val, gap(), "\t"); err != nil {
				t.Fatal(err)
			}
			val = ind.Bytes()
		}
		fmt.Fprintf(&out, "%s%q%s:%s%s%s", gap(), name, gap(), gap(), val, gap())
	}
	out.WriteString("}" + gap())
	return out.Bytes()
}

// damage returns doc with one defect of the seed's choosing, and its name.
func damage(t testing.TB, doc []byte, rng *rand.Rand) ([]byte, string) {
	top := sections(t, doc)
	section := func(name string) []any { s, _ := top[name].([]any); return s }
	pick := func(s []any) map[string]any { return s[rng.Intn(len(s))].(map[string]any) }
	oids, links, configs, workspaces := section("oids"), section("links"), section("configurations"), section("workspaces")
	what := ""
	switch choice := rng.Intn(12); {
	case choice == 0 && len(oids) > 0:
		what, top["oids"] = "duplicate oid", append(oids, pick(oids))
	case choice == 1 && len(links) > 0:
		what, top["links"] = "duplicate link", append(links, pick(links))
	case choice == 2 && len(links) > 0:
		what, pick(links)["to"] = "dangling link", "nowhere,v,1"
	case choice == 3 && len(links) > 0:
		what, pick(links)["class"] = "bad class", "weird"
	case choice == 4 && len(links) > 0:
		what, pick(links)["from"] = "bad key", "no key"
	case choice == 5 && len(links) > 0:
		l := pick(links)
		what, l["from"] = "self link", l["to"]
	case choice == 6 && len(configs) > 0:
		what, top["configurations"] = "duplicate configuration", append(configs, pick(configs))
	case choice == 7 && len(workspaces) > 0:
		what, top["workspaces"] = "duplicate workspace", append(workspaces, pick(workspaces))
	case choice == 8 && len(oids) > 0:
		what, pick(oids)["version"] = "version 0", 0
	case choice == 9 && len(oids) > 0:
		what, pick(oids)["block"] = "reserved name", "a b"
	case choice == 10 && len(configs) > 0:
		what, pick(configs)["oids"] = "bad key in a configuration", []any{"x,y"}
	}
	if what != "" {
		out, err := json.Marshal(top)
		if err != nil {
			t.Fatal(err)
		}
		return out, what
	}
	// Damage to the text: cut short, or one byte overwritten.
	out := bytes.Clone(doc)
	if rng.Intn(2) == 0 {
		return out[:rng.Intn(len(out))], "truncated"
	}
	out[rng.Intn(len(out))] = "\x00\"\\{}[]:,x9 -"[rng.Intn(13)]
	return out, "one byte overwritten"
}

// TestQuickStreamingLoadEqualsOracle is LoadDocument's property: on the
// hostile databases of the checkpoint's test the document loads to a fixed point of LoadDocument, whose checkpoint loads to
// the same database, and the same document respelled loads to the same
// database too: the same checkpoint, the same adjacency; the document with
// one defect is refused, or loads to a fixed point of LoadDocument; and the
// document of a database built of validHostile loads to the source's live
// reads (oracleLive).
func TestQuickStreamingLoadEqualsOracle(t *testing.T) {
	// The hostile names do not all survive the document: invalid UTF-8 is
	// written as U+FFFD, and two names may become one — such a document is
	// refused.
	intact, loaded, refused := 0, 0, map[string]int{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := NewDB()
		buildHostile(t, src, seed, validHostile)
		got, err := LoadDocument(bytes.NewReader(docOf(t, src)))
		if err != nil {
			t.Logf("seed %d: the document of a database of valid strings does not load: %v", seed, err)
			return false
		}
		if g, w := oracleLive(t, got), oracleLive(t, src); !bytes.Equal(g, w) {
			t.Logf("seed %d: the document loads to live reads other than its source's:\n%s", seed, firstDiff(g, w))
			return false
		}

		db := NewDB()
		buildHostile(t, db, seed, hostile)
		doc := docOf(t, db)
		respelled := respell(t, doc, rng)
		want := loadFixedPoint(t, doc)
		if want == nil {
			if _, err := LoadDocument(bytes.NewReader(respelled)); err == nil {
				t.Fatalf("seed %d: the document respelled loads and the document does not:\n%s", seed, clipDoc(respelled))
			}
			return true
		}
		v := want.ReadView()
		payloads := checkpointOf(t, v)
		v.Close()
		for how, d := range map[string]func() (*DB, error){
			"respelled":  func() (*DB, error) { return LoadDocument(bytes.NewReader(respelled)) },
			"checkpoint": func() (*DB, error) { return loadPayloads(payloads) },
		} {
			got, err := d()
			if err != nil {
				t.Logf("seed %d: the document loads and %s does not: %v", seed, how, err)
				return false
			}
			if s, w := dbText(t, got), dbText(t, want); !bytes.Equal(s, w) {
				t.Logf("seed %d: %s loads to another database:\n%s", seed, how, firstDiff(s, w))
				return false
			}
			if ga, wa := adjacency(got), adjacency(want); ga != wa {
				t.Logf("seed %d: %s: adjacency lists differ:\n got %s\nwant %s", seed, how, ga, wa)
				return false
			}
		}
		intact++
		for _, base := range [][]byte{doc, respelled} {
			damaged, what := damage(t, base, rng)
			if loadFixedPoint(t, damaged) != nil {
				loaded++
			} else {
				refused[what]++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 180}); err != nil {
		t.Error(err)
	}
	t.Logf("%d documents loaded, respelled and checkpointed; damaged: %d loaded all the same, refused %v", intact, loaded, refused)
	if intact < 60 || len(refused) < 8 {
		t.Errorf("%d intact documents loaded and %d kinds of damage were refused: the property is not exercised", intact, len(refused))
	}
}

// legacyDocuments are the documents under testdata: the FuzzLoad corpus,
// written by the encoders of earlier versions.
func legacyDocuments(t testing.TB) map[string][]byte {
	paths, err := filepath.Glob("testdata/fuzz/FuzzLoad/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no documents under testdata/fuzz/FuzzLoad: %v", err)
	}
	docs := map[string][]byte{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, ok := strings.Cut(string(raw), "\n[]byte(")
		if !ok {
			t.Fatalf("%s is not a one-argument corpus file", p)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		docs[filepath.Base(p)] = []byte(s)
	}
	return docs
}

func TestStreamingLoadLegacyDocuments(t *testing.T) {
	loaded := 0
	for name, doc := range legacyDocuments(t) {
		if loadFixedPoint(t, doc) != nil {
			loaded++
		} else {
			t.Logf("%s: refused", name)
		}
	}
	if loaded < 3 {
		t.Errorf("only %d loads of legacy documents succeeded", loaded)
	}
}

// TestLoadRefusesWhatEncodingJSONLetThrough is the regression test of the
// defect strict closes: json.Decoder.Decode stops at the document's closing
// brace, folds case and lets a repeated member win, so a damaged document
// loaded — as another database — and BootstrapSnapshot's "validate the
// document before touching any file" passed it.
func TestLoadRefusesWhatEncodingJSONLetThrough(t *testing.T) {
	for doc, was := range map[string]int64{
		`{"seq":1} garbage`:      1,
		`{"seq":1}{"seq":9}`:     1,
		`{"seq":1,"SEQ":7}`:      7,
		`{"seq":1,"seq":5}`:      5,
		`{"seq":1,"\u017feq":3}`: 3, // U+017F, the long s, folds to s
	} {
		var alone dbJSON
		if err := json.NewDecoder(strings.NewReader(doc)).Decode(&alone); err != nil || alone.Seq != was {
			t.Errorf("%s: encoding/json alone no longer lets this through: seq %d, %v", doc, alone.Seq, err)
		}
		if db, err := LoadDocument(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: loaded, with seq %d", doc, db.Seq())
		} else if !stricter(err) || errClass(err) != "decode" {
			t.Errorf("%s: refused for another reason: %v", doc, err)
		}
	}
	// Inside an element too; and what follows the document may be space.
	for doc, ok := range map[string]bool{
		`{"oids":[{"block":"a","view":"v","version":1,"Version":2}]}`:                       false,
		`{"oids":[{"block":"a","view":"v","version":1,"version":2}]}`:                       false,
		`{"oids":[{"block":"a","view":"v","version":1,"props":{"p":"1","p":"2","P":"3"}}]}`: true,
		"{\"seq\":1} \n\t\r ": true,
		`null`:                false,
		`[]`:                  false,
		``:                    false,
	} {
		_, err := LoadDocument(strings.NewReader(doc))
		if (err == nil) != ok {
			t.Errorf("%q: err = %v, want loaded = %v", doc, err, ok)
		}
	}
}

// TestStreamingLoadNesting: members the format does not know may nest as
// deep as encoding/json lets them, and no deeper.
func TestStreamingLoadNesting(t *testing.T) {
	const maxDepth = 10000 // encoding/json's
	for _, tc := range []struct {
		arrays int
		ok     bool
	}{{maxDepth - 1, true}, {maxDepth, false}} {
		doc := []byte(`{"future":` + strings.Repeat("[", tc.arrays) + strings.Repeat("]", tc.arrays) + `}`)
		if loaded := loadFixedPoint(t, doc) != nil; loaded != tc.ok {
			t.Errorf("%d arrays deep: loaded = %v, want %v", tc.arrays, loaded, tc.ok)
		}
	}
	mixed := []byte(`{"oids":[{"block":"a","view":"v","version":1,"x":` +
		strings.Repeat(`{"k":[`, 2000) + `1.5e-3` + strings.Repeat(`]}`, 2000) + `}]}`)
	if loadFixedPoint(t, mixed) == nil {
		t.Error("objects and arrays nested 4,000 deep in an unknown member do not load")
	}
}

// TestStreamingLoadSpellings are documents no build wrote: escapes of every
// kind, surrogates paired and lone, null in every position, numbers at the
// ends of their range and beyond, keys ParseKey trims — each loaded to a
// fixed point of LoadDocument or refused.
func TestStreamingLoadSpellings(t *testing.T) {
	oid := func(block string) string { return `{"block":` + block + `,"view":"v","version":1}` }
	docs := []string{
		`{}`, `{"oids":null,"links":null,"configurations":null,"workspaces":null,"terms":null,"seq":null,"next_link":null}`,
		`{"oids":[],"links":[]}`, `{"oids":[null]}`, `{"oids":[{}]}`,
		`{"oids":[` + oid(`"\u0061\/\b\f\n\r\t\\\"x"`) + `]}`,
		`{"oids":[{"block":"a","view":"v","version":1,"props":{"\u0070\/":"\u0061\/\b\f\n\r\t\\\"x"}}]}`,
		`{"oids":[` + oid(`"\ud83d\ude00"`) + `,` + oid(`"\ud83dx"`) + `,` + oid(`"\ude00\ud83d"`) + `,` + oid(`"\ud83d\ud83d\ude00"`) + `,` + oid(`"\uD83D\u0041"`) + `]}`,
		`{"oids":[` + oid("\"a\xffb\xe2\x82\"") + `,` + oid("\"\xe2\x82\\u00ac\"") + `]}`,
		`{"oids":[` + oid(`"bad \q escape"`) + `]}`, `{"oids":[` + oid(`"bad \u12g4"`) + `]}`, `{"oids":[` + oid("\"tab\there\"") + `]}`,
		// One spelling of a key per paths object: two that parse to the same
		// key are last-wins here and map-order in the oracle.
		`{"oids":[` + oid(`"a"`) + `],"workspaces":[{"name":"w","root":null,"paths":{" a , v , 1 ":"p"}}]}`,
		`{"oids":[` + oid(`"a"`) + `],"workspaces":[{"name":"w","root":null,"paths":{"a,v,+1":"q"}}]}`,
		`{"oids":[` + oid(`"a"`) + `,` + oid(`"b"`) + `],"links":[{"id":1,"class":"DERIVE","from":"a,v,1","to":" b,v, 1","propagates":["e",null,"e"],"props":{"k":null},"template":null}]}`,
		`{"oids":[` + oid(`"a"`) + `,` + oid(`"b"`) + `],"links":[{"id":1,"class":"use","to":"b,v,1"}]}`,
		`{"oids":[` + oid(`"a"`) + `,` + oid(`"b"`) + `],"links":[null]}`,
		`{"links":[{"id":2,"class":"use","from":"a,v,1","to":"b,v,1"}],"oids":[` + oid(`"b"`) + `,` + oid(`"a"`) + `]}`,
		`{"seq":9223372036854775807,"next_link":-9223372036854775808}`, `{"next_link":9223372036854775807}`,
		`{"oids":[` + oid(`"a"`) + `,` + oid(`"b"`) + `],"links":[{"id":9223372036854775807,"class":"use","from":"a,v,1","to":"b,v,1"}]}`, `{"seq":9223372036854775808}`, `{"seq":-9223372036854775809}`,
		`{"seq":-0}`, `{"seq":01}`, `{"seq":1.0}`, `{"seq":1e2}`, `{"seq":-}`, `{"seq":"1"}`, `{"seq":1,}`, `{,"seq":1}`, `{"seq" 1}`, `{"seq":1`, `{"seq":tru}`,
		`{"oids":[` + oid(`"a"`) + `,]}`, `{"oids":[` + oid(`"a"`) + ` ` + oid(`"b"`) + `]}`, `{"oids":{}}`, `{"oids":[[]]}`, `{"oids":[` + oid(`5`) + `]}`,
		`{"x":[1,2.5,-3e+7,0.1E-2,true,false,null,"s",{"y":{}}],"y":{"":[]}}`, `{"x":[1 2]}`, `{"x":{"a" "b"}}`, `{"x":{"a":1,}}`, `{"x":[1,]}`, `{"x":-}`, `{"x":1.}`, `{"x":1e}`, `{"x":.5}`, `{"x":+1}`, `{"x":nul}`,
		`{"configurations":[{"name":"c","seq":2,"oids":["a,v,1",null],"links":[1,null]}]}`,
		`{"configurations":[{"name":"c","oids":[],"links":[]}],"terms":[{"term":2,"lsn":5},{"lsn":9,"term":3}]}`,
		`{"terms":[{"term":1,"lsn":5}]}`, `{"terms":[{"term":3,"lsn":5},{"term":2,"lsn":9}]}`, `{"terms":[null]}`,
	}
	loaded := 0
	for _, doc := range docs {
		if loadFixedPoint(t, []byte(doc)) != nil {
			loaded++
		}
	}
	t.Logf("%d of %d spellings load", loaded, len(docs))
	if loaded < 12 || loaded > len(docs)-20 {
		t.Errorf("%d of %d spellings load: the list no longer covers both sides", loaded, len(docs))
	}
}

// TestStreamingLoadReadError: an error of the reader is the error of
// LoadDocument.
func TestStreamingLoadReadError(t *testing.T) {
	doc := docOf(t, treeDB(t, 4))
	for _, n := range []int{0, 10, len(doc) / 2, len(doc) - 1} {
		r := io.MultiReader(bytes.NewReader(doc[:n]), iotest.ErrReader(errDiskGone))
		if _, err := LoadDocument(r); !errors.Is(err, errDiskGone) {
			t.Errorf("reader failing after %d bytes: err = %v", n, err)
		}
	}
	if _, err := LoadDocument(io.MultiReader(bytes.NewReader(doc), iotest.ErrReader(errDiskGone))); !errors.Is(err, errDiskGone) {
		t.Errorf("reader failing after the document: err = %v", err)
	}
}
