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

// The JSON document's cold path: Load is encoding/json and the loader, plus
// the four refusals of strict.

// oracleLive is the document the public live reads describe, object by
// object, without pinning a view.  The database must be quiescent.
func oracleLive(t testing.TB, db *DB) []byte {
	h := db.Head()
	s := &snapshot{seq: db.Seq(), nextLink: db.nextLink.Load(), terms: db.loadTerms()}
	for _, k := range h.Keys() {
		o, err := h.GetOID(k)
		if err != nil {
			t.Fatal(err)
		}
		s.oids = append(s.oids, *o)
	}
	for _, id := range h.LinkIDs() {
		l, err := h.GetLink(id)
		if err != nil {
			t.Fatal(err)
		}
		s.links = append(s.links, l)
	}
	for _, name := range h.ConfigurationNames() {
		c, err := h.GetConfiguration(name)
		if err != nil {
			t.Fatal(err)
		}
		s.configs = append(s.configs, c)
	}
	for _, name := range h.WorkspaceNames() {
		ws, err := h.GetWorkspace(name)
		if err != nil {
			t.Fatal(err)
		}
		s.workspaces = append(s.workspaces, ws)
	}
	var buf bytes.Buffer
	if err := s.save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// errClass is what a refused document was refused for: one of the package's
// sentinels, the document's syntax, or something else Load checks.
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
// refused; a database it loads to must save to a document that loads back
// to the same bytes, with live reads that agree with its view.
func loadFixedPoint(t testing.TB, doc []byte, shards int) *DB {
	t.Helper()
	db, err := LoadShards(bytes.NewReader(doc), shards)
	if err != nil {
		if !stricter(err) && errClass(err) == "load" && !strings.HasPrefix(err.Error(), "meta: load:") {
			t.Fatalf("refused for no reason Load gives: %v", err)
		}
		return nil
	}
	first := saveDB(t, db)
	if live := oracleLive(t, db); !bytes.Equal(live, first) {
		t.Fatalf("the live reads of the loaded database differ from its view:\n%s", firstDiff(live, first))
	}
	again, err := LoadShards(bytes.NewReader(first), shards)
	if err != nil {
		t.Fatalf("the Save of a loaded database does not load: %v\n%s", err, clipDoc(first))
	}
	if second := saveDB(t, again); !bytes.Equal(second, first) {
		t.Fatalf("Save(Load(Save(Load(doc)))) differs:\n%s", firstDiff(second, first))
	}
	return db
}

// adjacency renders what Save does not show: the order of every OID's link
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
// Save's order), whitespace where the seed puts it, and — for some seeds —
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

// TestQuickStreamingLoadEqualsOracle is Load's property: on the hostile
// databases of the checkpoint's test — at 1, 4 and 64 shards — the Save
// document loads to a fixed point of Load, whose checkpoint loads to the
// same database, and the same document respelled loads to the same
// database too: the same document, the same adjacency; and the document
// with one defect is refused, or loads to a fixed point of Load.
func TestQuickStreamingLoadEqualsOracle(t *testing.T) {
	// The hostile names do not all survive a Save: invalid UTF-8 is written
	// as U+FFFD, and two names may become one — such a document is refused.
	intact, loaded, refused := 0, 0, map[string]int{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, shards := range []int{1, 4, 64} {
			db := NewDBWithShards(shards)
			buildHostile(t, db, seed)
			doc := saveDB(t, db)
			respelled := respell(t, doc, rng)
			want := loadFixedPoint(t, doc, shards)
			if want == nil {
				if _, err := LoadShards(bytes.NewReader(respelled), shards); err == nil {
					t.Fatalf("seed %d: the document respelled loads and the document does not:\n%s", seed, clipDoc(respelled))
				}
				continue
			}
			v := want.ReadView()
			payloads := checkpointOf(t, v)
			v.Close()
			for how, d := range map[string]func() (*DB, error){
				"respelled":  func() (*DB, error) { return LoadShards(bytes.NewReader(respelled), shards) },
				"checkpoint": func() (*DB, error) { return loadPayloads(payloads, shards) },
			} {
				got, err := d()
				if err != nil {
					t.Logf("seed %d shards %d: the document loads and %s does not: %v", seed, shards, how, err)
					return false
				}
				if s, w := saveDB(t, got), saveDB(t, want); !bytes.Equal(s, w) {
					t.Logf("seed %d shards %d: %s loads to another database:\n%s", seed, shards, how, firstDiff(s, w))
					return false
				}
				if ga, wa := adjacency(got), adjacency(want); ga != wa {
					t.Logf("seed %d shards %d: %s: adjacency lists differ:\n got %s\nwant %s", seed, shards, how, ga, wa)
					return false
				}
			}
			intact++
			for _, base := range [][]byte{doc, respelled} {
				damaged, what := damage(t, base, rng)
				if loadFixedPoint(t, damaged, shards) != nil {
					loaded++
				} else {
					refused[what]++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
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
		for _, shards := range []int{1, 16} {
			if loadFixedPoint(t, doc, shards) != nil {
				loaded++
			} else {
				t.Logf("%s: refused", name)
			}
		}
	}
	if loaded < 6 {
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
		if db, err := Load(strings.NewReader(doc)); err == nil {
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
		_, err := Load(strings.NewReader(doc))
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
		if loaded := loadFixedPoint(t, doc, 1) != nil; loaded != tc.ok {
			t.Errorf("%d arrays deep: loaded = %v, want %v", tc.arrays, loaded, tc.ok)
		}
	}
	mixed := []byte(`{"oids":[{"block":"a","view":"v","version":1,"x":` +
		strings.Repeat(`{"k":[`, 2000) + `1.5e-3` + strings.Repeat(`]}`, 2000) + `}]}`)
	if loadFixedPoint(t, mixed, 1) == nil {
		t.Error("objects and arrays nested 4,000 deep in an unknown member do not load")
	}
}

// TestStreamingLoadSpellings are documents no Save wrote: escapes of every
// kind, surrogates paired and lone, null in every position, numbers at the
// ends of their range and beyond, keys ParseKey trims — each loaded to a
// fixed point of Load or refused.
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
		`{"seq":9223372036854775807,"next_link":-9223372036854775808}`, `{"seq":9223372036854775808}`, `{"seq":-9223372036854775809}`,
		`{"seq":-0}`, `{"seq":01}`, `{"seq":1.0}`, `{"seq":1e2}`, `{"seq":-}`, `{"seq":"1"}`, `{"seq":1,}`, `{,"seq":1}`, `{"seq" 1}`, `{"seq":1`, `{"seq":tru}`,
		`{"oids":[` + oid(`"a"`) + `,]}`, `{"oids":[` + oid(`"a"`) + ` ` + oid(`"b"`) + `]}`, `{"oids":{}}`, `{"oids":[[]]}`, `{"oids":[` + oid(`5`) + `]}`,
		`{"x":[1,2.5,-3e+7,0.1E-2,true,false,null,"s",{"y":{}}],"y":{"":[]}}`, `{"x":[1 2]}`, `{"x":{"a" "b"}}`, `{"x":{"a":1,}}`, `{"x":[1,]}`, `{"x":-}`, `{"x":1.}`, `{"x":1e}`, `{"x":.5}`, `{"x":+1}`, `{"x":nul}`,
		`{"configurations":[{"name":"c","seq":2,"oids":["a,v,1",null],"links":[1,null]}]}`,
		`{"configurations":[{"name":"c","oids":[],"links":[]}],"terms":[{"term":2,"lsn":5},{"lsn":9,"term":3}]}`,
		`{"terms":[{"term":1,"lsn":5}]}`, `{"terms":[{"term":3,"lsn":5},{"term":2,"lsn":9}]}`, `{"terms":[null]}`,
	}
	loaded := 0
	for _, doc := range docs {
		if loadFixedPoint(t, []byte(doc), 4) != nil {
			loaded++
		}
	}
	t.Logf("%d of %d spellings load", loaded, len(docs))
	if loaded < 12 || loaded > len(docs)-20 {
		t.Errorf("%d of %d spellings load: the list no longer covers both sides", loaded, len(docs))
	}
}

// TestStreamingLoadReadError: an error of the reader is the error of Load.
func TestStreamingLoadReadError(t *testing.T) {
	doc := saveDB(t, treeDB(t, 4))
	for _, n := range []int{0, 10, len(doc) / 2, len(doc) - 1} {
		r := io.MultiReader(bytes.NewReader(doc[:n]), iotest.ErrReader(errDiskGone))
		if _, err := Load(r); !errors.Is(err, errDiskGone) {
			t.Errorf("reader failing after %d bytes: err = %v", n, err)
		}
	}
	if _, err := Load(io.MultiReader(bytes.NewReader(doc), iotest.ErrReader(errDiskGone))); !errors.Is(err, errDiskGone) {
		t.Errorf("reader failing after the document: err = %v", err)
	}
}
