package bpl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genBlueprint builds a random but valid blueprint AST from a seed, used to
// property-test the Print→Parse round trip on trees the hand-written cases
// would never cover.
func genBlueprint(rng *rand.Rand) *Blueprint {
	names := []string{"default", "hdl", "schem", "netlist", "layout", "lib"}
	events := []string{"ckin", "outofdate", "sim", "drc", "lvs"}
	words := []string{"good", "bad", "ok", "not_equiv", "is_equiv", "true", "false"}
	vars := []string{"arg", "oid", "user", "uptodate", "sim_result"}

	genTemplate := func() Template {
		switch rng.Intn(4) {
		case 0:
			return LitTemplate(words[rng.Intn(len(words))])
		case 1:
			return VarTemplate(vars[rng.Intn(len(vars))])
		case 2:
			return ParseTemplate("$" + vars[rng.Intn(len(vars))] + " with " + words[rng.Intn(len(words))])
		default:
			return ParseTemplate("plain text " + words[rng.Intn(len(words))])
		}
	}
	genOperand := func() Operand {
		if rng.Intn(2) == 0 {
			return Operand{Var: vars[rng.Intn(len(vars))]}
		}
		return Operand{Lit: words[rng.Intn(len(words))]}
	}
	var genExpr func(depth int) Expr
	genExpr = func(depth int) Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return &BoolExpr{X: genOperand()}
			}
			return &CmpExpr{Neq: rng.Intn(2) == 0, L: genOperand(), R: genOperand()}
		}
		switch rng.Intn(3) {
		case 0:
			return &AndExpr{L: genExpr(depth - 1), R: genExpr(depth - 1)}
		case 1:
			return &OrExpr{L: genExpr(depth - 1), R: genExpr(depth - 1)}
		default:
			return &NotExpr{X: genExpr(depth - 1)}
		}
	}
	genAction := func() Action {
		switch rng.Intn(4) {
		case 0:
			return &AssignAction{Prop: "p" + words[rng.Intn(len(words))], Value: genTemplate()}
		case 1:
			argv := []Template{LitTemplate("tool.sh")}
			for i := rng.Intn(3); i > 0; i-- {
				argv = append(argv, genTemplate())
			}
			return &ExecAction{Argv: argv}
		case 2:
			return &NotifyAction{Message: genTemplate()}
		default:
			pa := &PostAction{
				Event: events[rng.Intn(len(events))],
				Dir:   Direction(rng.Intn(2)),
			}
			if rng.Intn(2) == 0 {
				pa.ToView = names[1+rng.Intn(len(names)-1)]
			}
			for i := rng.Intn(2); i > 0; i-- {
				pa.Args = append(pa.Args, genTemplate())
			}
			return pa
		}
	}

	bp := &Blueprint{Name: "gen"}
	nViews := rng.Intn(4) + 1
	for vi := 0; vi < nViews; vi++ {
		v := &View{Name: names[vi%len(names)] + string(rune('a'+vi))}
		for i := rng.Intn(3); i > 0; i-- {
			v.Properties = append(v.Properties, &PropertyDecl{
				Name:    "prop" + string(rune('a'+len(v.Properties))),
				Default: words[rng.Intn(len(words))],
				Inherit: InheritMode(rng.Intn(3)),
			})
		}
		for i := rng.Intn(2); i > 0; i-- {
			v.Lets = append(v.Lets, &LetDecl{
				Name: "let" + string(rune('a'+len(v.Lets))),
				Expr: genExpr(3),
			})
		}
		for i := rng.Intn(3); i > 0; i-- {
			d := &LinkDecl{Inherit: InheritMode(rng.Intn(3))}
			if rng.Intn(3) == 0 {
				d.Use = true
			} else {
				d.FromView = names[rng.Intn(len(names))]
				if rng.Intn(2) == 0 {
					d.Type = []string{"derived", "equivalence", "depend_on"}[rng.Intn(3)]
				}
			}
			for j := rng.Intn(2) + 1; j > 0; j-- {
				d.Propagates = append(d.Propagates, events[rng.Intn(len(events))])
			}
			d.TemplateID = v.Name + "#" + string(rune('0'+len(v.Links)))
			v.Links = append(v.Links, d)
		}
		for i := rng.Intn(3); i > 0; i-- {
			r := &Rule{Event: events[rng.Intn(len(events))]}
			for j := rng.Intn(3) + 1; j > 0; j-- {
				r.Actions = append(r.Actions, genAction())
			}
			v.Rules = append(v.Rules, r)
		}
		bp.Views = append(bp.Views, v)
	}
	return bp
}

// TestQuickPrintParseRoundTrip: for random valid ASTs, Parse(Print(bp))
// equals bp.  Template IDs are regenerated deterministically by the parser,
// so they match when the generator uses the same scheme.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bp := genBlueprint(rng)
		src := Print(bp)
		bp2, err := Parse(src)
		if err != nil {
			t.Logf("seed %d: parse error %v\n%s", seed, err, src)
			return false
		}
		if !reflect.DeepEqual(bp, bp2) {
			t.Logf("seed %d: tree mismatch\n%s", seed, src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickExprEvalTotal checks that evaluation is total (never panics) and
// boolean operators behave consistently with their truth tables on random
// expressions and environments.
func TestQuickExprEvalTotal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bp := genBlueprint(rng)
		lookup := func(name string) string {
			if rng.Intn(2) == 0 {
				return "true"
			}
			return "other"
		}
		for _, v := range bp.Views {
			for _, l := range v.Lets {
				_ = Eval(l.Expr, lookup)
				// Not(e) must negate a deterministic lookup.
				det := func(string) string { return "true" }
				if Eval(&NotExpr{X: l.Expr}, det) == Eval(l.Expr, det) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
