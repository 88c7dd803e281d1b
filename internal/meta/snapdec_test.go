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
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

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

// stricter reports whether err is one of the refusals the streaming decoder
// adds to the oracle's: data after the document, a known member twice, a
// known member in another case, a document that is not an object.
func stricter(err error) bool {
	for _, s := range []string{"data after the document", "given twice", "the format spells it", "where the document's '{' should be"} {
		if strings.Contains(err.Error(), s) {
			return true
		}
	}
	return false
}

// checkLoadAgainstOracle holds the streaming decoder to the oracle on one
// document: both load it to databases that Save to the same bytes, or both
// refuse it for the same class of reason — or the streaming one refuses it
// for one of its documented reasons.  The document is read whole, a byte at
// a time and in odd pieces: the result may not depend on where the window
// falls.
func checkLoadAgainstOracle(t testing.TB, doc []byte, shards int) (loaded bool) {
	t.Helper()
	want, wantErr := oracleLoad(bytes.NewReader(doc), shards)
	readers := map[string]io.Reader{
		"whole":      bytes.NewReader(doc),
		"byte-wise":  iotest.OneByteReader(bytes.NewReader(doc)),
		"piece-wise": &pieceReader{doc: doc, piece: 7},
	}
	for how, r := range readers {
		got, err := LoadShards(r, shards)
		switch {
		case err == nil && wantErr != nil:
			t.Fatalf("%s: the streaming decoder loads what the oracle refuses (%v):\n%s", how, wantErr, clipDoc(doc))
		case err != nil && stricter(err):
			// Refused for what the oracle never looked at, whatever the
			// oracle made of the rest.
		case err != nil && wantErr == nil:
			t.Fatalf("%s: the streaming decoder refuses (%v) what the oracle loads:\n%s", how, err, clipDoc(doc))
		case err != nil:
			if errClass(err) != errClass(wantErr) {
				t.Fatalf("%s: refused for %q (%v), the oracle for %q (%v):\n%s",
					how, errClass(err), err, errClass(wantErr), wantErr, clipDoc(doc))
			}
		default:
			a, b := saveDB(t, got), saveDB(t, want)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: Save after the streaming Load differs from Save after the oracle's:\n%s", how, firstDiff(a, b))
			}
			if live := oracleLive(t, got); !bytes.Equal(live, a) {
				t.Fatalf("%s: the live reads of the loaded database differ from its view:\n%s", how, firstDiff(live, a))
			}
			if ga, wa := adjacency(got), adjacency(want); ga != wa {
				t.Fatalf("%s: adjacency lists differ from the oracle's:\n got %s\nwant %s", how, ga, wa)
			}
			loaded = true
		}
	}
	return loaded
}

// pieceReader hands the document out in pieces of 1 to piece bytes.
type pieceReader struct {
	doc   []byte
	piece int
	n     int
}

func (r *pieceReader) Read(p []byte) (int, error) {
	if len(r.doc) == 0 {
		return 0, io.EOF
	}
	r.n++
	n := min(1+r.n%r.piece, len(r.doc), len(p))
	copy(p, r.doc[:n])
	r.doc = r.doc[n:]
	return n, nil
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

// TestQuickStreamingLoadEqualsOracle is the decoder's property: on the
// hostile databases of the encoder's test — at 1, 4 and 64 shards — the
// Save document, the same document respelled, and either with one defect
// load through the streaming decoder exactly as through the reflection
// decoder it replaced.
func TestQuickStreamingLoadEqualsOracle(t *testing.T) {
	// The hostile names do not all survive a Save: invalid UTF-8 is written
	// as U+FFFD, and two names may become one — such a document is refused,
	// by both decoders.
	intact, loaded, refused := 0, 0, map[string]int{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, shards := range []int{1, 4, 64} {
			db := NewDBWithShards(shards)
			buildHostile(t, db, seed)
			doc := saveDB(t, db)
			respelled := respell(t, doc, rng)
			if ok := checkLoadAgainstOracle(t, doc, shards); ok != checkLoadAgainstOracle(t, respelled, shards) {
				t.Fatalf("seed %d: the document loads (%v) and the same document respelled does not, or the reverse:\n%s", seed, ok, clipDoc(respelled))
			} else if ok {
				intact++
			}
			for _, base := range [][]byte{doc, respelled} {
				damaged, what := damage(t, base, rng)
				if checkLoadAgainstOracle(t, damaged, shards) {
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
	t.Logf("%d documents loaded as saved and respelled; damaged: %d loaded all the same, refused %v", intact, loaded, refused)
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
			if checkLoadAgainstOracle(t, doc, shards) {
				loaded++
			} else {
				t.Logf("%s: refused by both", name)
			}
		}
	}
	if loaded < 6 {
		t.Errorf("only %d loads of legacy documents succeeded", loaded)
	}
}

// TestLoadRefusesWhatEncodingJSONLetThrough is the regression test of the
// defect the streaming decoder closes: json.Decoder.Decode stops at the
// document's closing brace, folds case and lets a repeated member win, so a
// damaged document loaded — as another database — and BootstrapSnapshot's
// "validate the document before touching any file" passed it.
func TestLoadRefusesWhatEncodingJSONLetThrough(t *testing.T) {
	for doc, was := range map[string]int64{
		`{"seq":1} garbage`:      1,
		`{"seq":1}{"seq":9}`:     1,
		`{"seq":1,"SEQ":7}`:      7,
		`{"seq":1,"seq":5}`:      5,
		`{"seq":1,"\u017feq":3}`: 3, // U+017F, the long s, folds to s
	} {
		old, err := oracleLoad(strings.NewReader(doc), 1)
		if err != nil || old.Seq() != was {
			t.Errorf("%s: the reflection decoder is no longer the oracle of this defect: seq %v, %v", doc, old, err)
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
	for _, tc := range []struct {
		arrays int
		ok     bool
	}{{snapMaxDepth - 1, true}, {snapMaxDepth, false}} {
		doc := []byte(`{"future":` + strings.Repeat("[", tc.arrays) + strings.Repeat("]", tc.arrays) + `}`)
		if loaded := checkLoadAgainstOracle(t, doc, 1); loaded != tc.ok {
			t.Errorf("%d arrays deep: loaded = %v, want %v", tc.arrays, loaded, tc.ok)
		}
	}
	mixed := []byte(`{"oids":[{"block":"a","view":"v","version":1,"x":` +
		strings.Repeat(`{"k":[`, 2000) + `1.5e-3` + strings.Repeat(`]}`, 2000) + `}]}`)
	if !checkLoadAgainstOracle(t, mixed, 1) {
		t.Error("objects and arrays nested 4,000 deep in an unknown member do not load")
	}
}

// TestStreamingLoadSpellings are documents no Save wrote: escapes of every
// kind, surrogates paired and lone, null in every position, numbers at the
// ends of their range and beyond, keys ParseKey trims — each judged as the
// oracle judges it.
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
		if checkLoadAgainstOracle(t, []byte(doc), 4) {
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

// TestStreamingLoadAllocatesWhatItKeeps: loading the 64-tree project
// allocates little more than the database it returns.  (Through
// encoding/json it was 13.6 MB in 146,000 objects to keep 6.0 MB.)
func TestStreamingLoadAllocatesWhatItKeeps(t *testing.T) {
	doc := saveDB(t, treeDB(t, 64))
	load := func() any {
		db, err := Load(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	retained, allocated, objects := retainedBytes(load)
	runtime.KeepAlive(doc) // or the second load's end frees it, and counts against what is retained
	t.Logf("document %d B: retained %d B, allocated %d B in %d objects (%.2f× retained)",
		len(doc), retained, allocated, objects, float64(allocated)/float64(retained))
	if float64(allocated) > 1.25*float64(retained) {
		t.Errorf("Load allocated %d B to keep %d B", allocated, retained)
	}
}

// BenchmarkLoad is one Load of the 64-tree project's document, against the
// reflection decoder it replaced.
func BenchmarkLoad(b *testing.B) {
	doc := saveDB(b, treeDB(b, 64))
	for _, dec := range []struct {
		name string
		load func(io.Reader, int) (*DB, error)
	}{{"streaming", LoadShards}, {"oracle", oracleLoad}} {
		b.Run(dec.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				if _, err := dec.load(bytes.NewReader(doc), DefaultShards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
