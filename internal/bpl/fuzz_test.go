package bpl

import "testing"

// FuzzParse: BPSWAP hands network input to Parse.  Parse never panics, and
// whatever it accepts prints to a source that parses back to the same
// blueprint, compared by printed text.  The seeds are the two package
// examples; the blueprints of examples/ and of the engine's feedback-loop
// and duplicate-property tests are the corpus under testdata/fuzz.
func FuzzParse(f *testing.F) {
	f.Add(EDTCExample)
	f.Add(DSMExample)
	f.Fuzz(func(t *testing.T, src string) {
		bp, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(bp)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q parses, but its printed form %q does not: %v", src, printed, err)
		}
		if got := Print(again); got != printed {
			t.Fatalf("%q prints to %q, which parses and prints to %q", src, printed, got)
		}
	})
}
