package bpl

import (
	"reflect"
	"strings"
	"testing"
)

func TestExplainerMatchesExplainFailure(t *testing.T) {
	exprs := []string{
		`($drc == good)`,
		`($drc != bad)`,
		`$uptodate`,
		`not $broken`,
		`($a == x) and ($b == y)`,
		`($a == x) or ($b == y)`,
		`not (($a == x) and ($b == y))`,
		`(($a == x) or ($b == y)) and not $c and ($d != z)`,
	}
	lookups := []LookupFunc{
		func(string) string { return "" },
		func(n string) string { return n },
		func(n string) string {
			return map[string]string{"a": "x", "b": "y", "c": "true", "d": "z",
				"drc": "good", "uptodate": "true", "broken": "false"}[n]
		},
		func(n string) string {
			return map[string]string{"a": "wrong", "b": "y", "c": "false",
				"drc": "bad", "uptodate": "false", "broken": "true"}[n]
		},
		func(n string) string { return "q\" b\\ n\n t\t ;|" + n + "\xff" },
	}
	for _, src := range exprs {
		bp, err := Parse("blueprint x\nview v\n    let t = " + src + "\nendview\nendblueprint")
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		e := bp.Views[0].Lets[0].Expr
		x := CompileExplainer(e)
		for i, lookup := range lookups {
			want := ExplainFailure(e, lookup)
			got := x.Explain(lookup)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q lookup %d: Explain = %q, want %q", src, i, got, want)
			}
			// The append form is the same list, labelled and joined, after
			// whatever the buffer already holds.
			labelled := []string{"earlier: reason"}
			for _, r := range x.Failures(lookup) {
				labelled = append(labelled, "t: "+r)
			}
			joined := strings.Join(labelled, "; ")
			if got := string(x.AppendFailures([]byte("earlier: reason"), "t", lookup)); got != joined {
				t.Errorf("%q lookup %d: AppendFailures = %q, want %q", src, i, got, joined)
			}
			if got, want := string(x.AppendFailures(nil, "t", lookup)), strings.Join(labelled[1:], "; "); got != want {
				t.Errorf("%q lookup %d: AppendFailures(nil) = %q, want %q", src, i, got, want)
			}
		}
	}
}
