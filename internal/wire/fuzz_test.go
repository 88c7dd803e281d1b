package wire

import (
	"slices"
	"testing"
)

// FuzzParseRequest: ParseRequest never panics on arbitrary bytes, its
// tokenizer agrees with the one it replaced (wire_test.go), and whatever it
// accepts re-encodes to a line that parses to the same request — the items
// nested in a BATCH, which are quoted once more, included.
func FuzzParseRequest(f *testing.F) {
	for _, line := range []string{
		"PING",
		"post ckin down CPU,HDL_model,1",
		`user=yves POST hdl_sim down CPU,HDL_model,1 "4 errors"`,
		`"user=two words" STATE "a b,c,1"`,
		`BATCH "ckin down t0b4,schematic,1" "nl_sim up t0b5,netlist,2 \"not good\"" "drc down \"a\\\\b,v,1\" \"tab\there\""`,
		`BATCH "too few" ""`,
		`REPORT 12`,
		`QUERY 0 reach t1b0,schematic,1 type:use,derive`,
		`"quoted verb" x`,
		`""`,
		`user=`,
		`user= PING`,
		`"unterminated`,
		`dangling\`,
		`"bad \q escape"`,
		`bare"quote`,
		"tab\tseparated\tfields",
		"\xff\xfe \x00",
		`BPSWAP "blueprint b\nview v\nendview\nendblueprint"`,
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		checkTokenizeAgainstOracle(t, line)
		req, err := ParseRequest(line)
		if err != nil {
			return
		}
		again, err := ParseRequest(req.Encode())
		if err != nil {
			t.Fatalf("%q parses to %+v, which encodes to %q: %v", line, req, req.Encode(), err)
		}
		if again.Verb != req.Verb || again.User != req.User || !slices.Equal(again.Args, req.Args) {
			t.Fatalf("%q parses to %+v, which encodes to %q and parses to %+v", line, req, req.Encode(), again)
		}
		if req.Verb != VerbBatch {
			return
		}
		for _, arg := range req.Args {
			it, err := ParseBatchItem(arg)
			if err != nil {
				continue
			}
			back, err := ParseBatchItem(it.Encode())
			if err != nil {
				t.Fatalf("batch item %q parses to %+v, which encodes to %q: %v", arg, it, it.Encode(), err)
			}
			if back.Event != it.Event || back.Dir != it.Dir || back.OID != it.OID || !slices.Equal(back.Args, it.Args) {
				t.Fatalf("batch item %q parses to %+v, which encodes to %q and parses to %+v", arg, it, it.Encode(), back)
			}
		}
	})
}
