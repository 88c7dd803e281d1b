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
			// Failures is ExplainFailure's list, labelled, after whatever
			// dst already holds — for an expression that fails.
			labelled := x.Failures([]string{"earlier: reason"}, "t", lookup)
			if !Eval(e, lookup) {
				wantLabelled := []string{"earlier: reason"}
				for _, r := range want {
					wantLabelled = append(wantLabelled, "t: "+r)
				}
				if !reflect.DeepEqual(labelled, wantLabelled) {
					t.Errorf("%q lookup %d: Failures = %q, want %q", src, i, labelled, wantLabelled)
				}
			} else if want != nil {
				t.Errorf("%q lookup %d: a passing expression explained as %q", src, i, want)
			}
			// The append form is the same list, each reason after sep.
			joined := strings.Join(labelled, "; ")
			if got := string(x.AppendFailures([]byte("earlier: reason"), "; ", "t", lookup)); got != joined {
				t.Errorf("%q lookup %d: AppendFailures = %q, want %q", src, i, got, joined)
			}
			lines := ""
			for _, r := range labelled[1:] {
				if strings.Contains(r, "\n") {
					t.Errorf("%q lookup %d: reason %q holds a line feed", src, i, r)
				}
				lines += "\n" + r
			}
			if got := string(x.AppendFailures(nil, "\n", "t", lookup)); got != lines {
				t.Errorf("%q lookup %d: AppendFailures(nil) = %q, want %q", src, i, got, lines)
			}
		}
	}
}
