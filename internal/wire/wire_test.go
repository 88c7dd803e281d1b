package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{`POST ckin up reg,verilog,4 "logic sim passed"`,
			[]string{"POST", "ckin", "up", "reg,verilog,4", "logic sim passed"}},
		{``, nil},
		{`  a   b  `, []string{"a", "b"}},
		{`"a \"quoted\" word" plain`, []string{`a "quoted" word`, "plain"}},
		{`"tab\there" "nl\nthere" "bs\\"`, []string{"tab\there", "nl\nthere", `bs\`}},
		{`""`, []string{""}},
	}
	for _, tt := range tests {
		got, err := Tokenize(tt.in)
		if err != nil {
			t.Errorf("Tokenize(%q): %v", tt.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, in := range []string{`"open`, `a"b`, `"esc\q"`, `"dangling\`} {
		if _, err := Tokenize(in); !errors.Is(err, ErrSyntax) {
			t.Errorf("Tokenize(%q) err = %v, want ErrSyntax", in, err)
		}
	}
}

func TestQuoteRoundTrip(t *testing.T) {
	values := []string{
		"plain", "two words", `with "quotes"`, "tab\tnl\n", "", `back\slash`,
		"reg,verilog,4",
	}
	for _, v := range values {
		got, err := Tokenize(Quote(v))
		if err != nil {
			t.Errorf("Quote(%q) = %q does not tokenize: %v", v, Quote(v), err)
			continue
		}
		if len(got) != 1 || got[0] != v {
			t.Errorf("round trip %q -> %q -> %q", v, Quote(v), got)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Verb: "POST", Args: []string{"ckin", "up", "reg,verilog,4", "logic sim passed"}, User: "yves"},
		{Verb: "PING"},
		{Verb: "CREATE", Args: []string{"cpu", "schematic"}, User: "marc m"},
		{Verb: "STATE", Args: []string{"cpu,schematic,1"}},
	}
	for _, r := range reqs {
		got, err := ParseRequest(r.Encode())
		if err != nil {
			t.Errorf("ParseRequest(%q): %v", r.Encode(), err)
			continue
		}
		if got.Verb != r.Verb || got.User != r.User || !reflect.DeepEqual(got.Args, r.Args) {
			t.Errorf("round trip %+v -> %+v", r, got)
		}
	}
}

func TestParseRequestNormalizesVerb(t *testing.T) {
	r, err := ParseRequest("post ev down a,v,1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Verb != "POST" {
		t.Errorf("verb = %q", r.Verb)
	}
}

func TestParseRequestErrors(t *testing.T) {
	for _, in := range []string{"", "   ", `user=x`, `"unterminated`} {
		if _, err := ParseRequest(in); err == nil {
			t.Errorf("ParseRequest(%q) accepted", in)
		}
	}
}

func TestResponseSingleLine(t *testing.T) {
	r := Response{OK: true, Detail: "cpu,schematic,1"}
	if got := r.Encode(); got != "OK cpu,schematic,1" {
		t.Errorf("Encode = %q", got)
	}
	parsed, multi, err := ParseResponseHeader(r.Encode())
	if err != nil || multi || !parsed.OK || parsed.Detail != "cpu,schematic,1" {
		t.Errorf("parse = %+v %v %v", parsed, multi, err)
	}
	e := Response{OK: false, Detail: "no such OID"}
	parsed, multi, err = ParseResponseHeader(e.Encode())
	if err != nil || multi || parsed.OK || parsed.Detail != "no such OID" {
		t.Errorf("parse err resp = %+v %v %v", parsed, multi, err)
	}
	if got := (Response{OK: true}).Encode(); got != "OK" {
		t.Errorf("empty ok = %q", got)
	}
}

func TestResponseMultiLine(t *testing.T) {
	r := Response{OK: true, Detail: "2 rows", Body: []string{"row one", ". leading dot", ""}}
	enc := r.Encode()
	want := "OK+ 2 rows\n|row one\n|. leading dot\n|\n."
	if enc != want {
		t.Errorf("Encode = %q, want %q", enc, want)
	}
	// Parse back line by line.
	lines := splitLines(enc)
	head, multi, err := ParseResponseHeader(lines[0])
	if err != nil || !multi || !head.OK {
		t.Fatalf("header = %+v %v %v", head, multi, err)
	}
	var body []string
	for _, l := range lines[1:] {
		content, done, err := ParseBodyLine(l)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		body = append(body, content)
	}
	if !reflect.DeepEqual(body, r.Body) {
		t.Errorf("body = %q, want %q", body, r.Body)
	}
}

func TestParseBodyLineErrors(t *testing.T) {
	if _, _, err := ParseBodyLine("no prefix"); !errors.Is(err, ErrSyntax) {
		t.Errorf("err = %v", err)
	}
}

func TestParseResponseHeaderErrors(t *testing.T) {
	if _, _, err := ParseResponseHeader("WAT 1"); !errors.Is(err, ErrSyntax) {
		t.Errorf("err = %v", err)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func TestBatchItemRoundTrip(t *testing.T) {
	cases := []BatchItem{
		{Event: "ckin", Dir: "down", OID: "reg,verilog,4"},
		{Event: "hdl_sim", Dir: "down", OID: "cpu,HDL_model,1", Args: []string{"good"}},
		{Event: "nl_sim", Dir: "up", OID: "a,b,1", Args: []string{`4 errors: "stuck\at zero"`, "x\ty\nz", ""}},
	}
	for _, want := range cases {
		enc := want.Encode()
		got, err := ParseBatchItem(enc)
		if err != nil {
			t.Fatalf("ParseBatchItem(%q): %v", enc, err)
		}
		if got.Event != want.Event || got.Dir != want.Dir || got.OID != want.OID ||
			len(got.Args) != len(want.Args) {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
		for i := range want.Args {
			if got.Args[i] != want.Args[i] {
				t.Errorf("arg %d: %q != %q", i, got.Args[i], want.Args[i])
			}
		}
	}
}

func TestBatchItemNestsInsideRequest(t *testing.T) {
	// A BATCH request carries each item as one quoted field; the nested
	// quoting must survive the outer request round trip.
	items := []BatchItem{
		{Event: "ckin", Dir: "down", OID: "a,v,1", Args: []string{"note with spaces"}},
		{Event: "drc", Dir: "down", OID: "b,v,2", Args: []string{`"quoted"`}},
	}
	req := Request{Verb: VerbBatch, User: "tess"}
	for _, it := range items {
		req.Args = append(req.Args, it.Encode())
	}
	parsed, err := ParseRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Verb != VerbBatch || len(parsed.Args) != len(items) {
		t.Fatalf("parsed %+v", parsed)
	}
	for i, raw := range parsed.Args {
		it, err := ParseBatchItem(raw)
		if err != nil {
			t.Fatal(err)
		}
		if it.Event != items[i].Event || it.Args[0] != items[i].Args[0] {
			t.Errorf("item %d: %+v != %+v", i, it, items[i])
		}
	}
}

func TestParseBatchItemErrors(t *testing.T) {
	for _, bad := range []string{"", "ckin", "ckin down", `ckin down "unterminated`} {
		if _, err := ParseBatchItem(bad); err == nil {
			t.Errorf("ParseBatchItem(%q) accepted", bad)
		}
	}
}

// tokenizeOracle is Tokenize as it was before it counted its fields first:
// a strings.Builder grown a byte at a time per field, the slice by append.
// The differential tests hold the new one to its fields and its errors.
func tokenizeOracle(line string) ([]string, error) {
	var fields []string
	i := 0
	n := len(line)
	for {
		for i < n && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= n {
			return fields, nil
		}
		var sb strings.Builder
		if line[i] == '"' {
			i++
			closed := false
			for i < n {
				c := line[i]
				if c == '"' {
					i++
					closed = true
					break
				}
				if c == '\\' {
					if i+1 >= n {
						return nil, fmt.Errorf("%w: dangling escape", ErrSyntax)
					}
					i++
					switch line[i] {
					case '"':
						sb.WriteByte('"')
					case '\\':
						sb.WriteByte('\\')
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case 'r':
						sb.WriteByte('\r')
					default:
						return nil, fmt.Errorf("%w: unknown escape \\%c", ErrSyntax, line[i])
					}
					i++
					continue
				}
				sb.WriteByte(c)
				i++
			}
			if !closed {
				return nil, fmt.Errorf("%w: unterminated quote", ErrSyntax)
			}
		} else {
			for i < n && line[i] != ' ' && line[i] != '\t' {
				if line[i] == '"' {
					return nil, fmt.Errorf("%w: quote inside bare field", ErrSyntax)
				}
				sb.WriteByte(line[i])
				i++
			}
		}
		fields = append(fields, sb.String())
	}
}

// checkTokenizeAgainstOracle holds Tokenize and AppendFields to the oracle
// on one line: the same fields, or the same error text.
func checkTokenizeAgainstOracle(t *testing.T, line string) {
	t.Helper()
	want, wantErr := tokenizeOracle(line)
	got, gotErr := Tokenize(line)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize(%q) = %q, %v; the oracle says %q, %v", line, got, gotErr, want, wantErr)
	}
	scratch := []string{"kept"}
	app, appErr := AppendFields(scratch, line)
	if fmt.Sprint(appErr) != fmt.Sprint(wantErr) {
		t.Fatalf("AppendFields(%q): %v; the oracle says %v", line, appErr, wantErr)
	}
	if appErr == nil && (app[0] != "kept" || !slices.Equal(app[1:], want)) {
		t.Fatalf("AppendFields(%q) = %q, want %q after the kept element", line, app, want)
	}
}

// TestQuickTokenizeEqualsOracle draws lines from an alphabet that is mostly
// quotes, backslashes, blanks and escape letters.
func TestQuickTokenizeEqualsOracle(t *testing.T) {
	const alphabet = "\"\"\\\\  \tntrqab,\n\xff"
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		line := make([]byte, rng.Intn(40))
		for i := range line {
			line[i] = alphabet[rng.Intn(len(alphabet))]
		}
		checkTokenizeAgainstOracle(t, string(line))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestTokenizeAllocs pins what the rewrite is for: the slice and one string
// per field from Tokenize, and from AppendFields into a reused slice only
// the fields that hold escapes.
func TestTokenizeAllocs(t *testing.T) {
	const line = `18240 9120 update t12b7,netlist,1 2 state "(not ready)" uptodate false drc_result`
	var scratch []string
	for _, tc := range []struct {
		name string
		want float64
		run  func()
	}{
		{"Tokenize", 1 + 10, func() { _, _ = Tokenize(line) }},
		{"AppendFields", 0, func() { scratch, _ = AppendFields(scratch[:0], line) }},
		{"AppendFields with an escape", 1, func() { scratch, _ = AppendFields(scratch[:0], `1 2 update "a\tb"`) }},
	} {
		tc.run()
		if got := testing.AllocsPerRun(100, tc.run); got != tc.want {
			t.Errorf("%s: %.0f allocations, want %.0f", tc.name, got, tc.want)
		}
	}
}
