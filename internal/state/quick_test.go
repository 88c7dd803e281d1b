package state

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// genExprAndOID builds a random boolean expression over a small property
// alphabet plus a random property assignment for one OID.
func genExprAndOID(rng *rand.Rand) (bpl.Expr, *meta.OID) {
	props := []string{"a", "b", "c", "d"}
	vals := []string{"good", "bad", "true", "false"}
	operand := func() bpl.Operand {
		if rng.Intn(2) == 0 {
			return bpl.Operand{Var: props[rng.Intn(len(props))]}
		}
		return bpl.Operand{Lit: vals[rng.Intn(len(vals))]}
	}
	var gen func(depth int) bpl.Expr
	gen = func(depth int) bpl.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return &bpl.BoolExpr{X: operand()}
			}
			return &bpl.CmpExpr{Neq: rng.Intn(2) == 0, L: operand(), R: operand()}
		}
		switch rng.Intn(3) {
		case 0:
			return &bpl.AndExpr{L: gen(depth - 1), R: gen(depth - 1)}
		case 1:
			return &bpl.OrExpr{L: gen(depth - 1), R: gen(depth - 1)}
		default:
			return &bpl.NotExpr{X: gen(depth - 1)}
		}
	}
	db := meta.NewDB()
	k, err := db.NewVersion("b", "v")
	for _, p := range props {
		if err == nil {
			err = db.SetProp(k, p, vals[rng.Intn(len(vals))])
		}
	}
	o, err2 := db.Head().GetOID(k)
	if err != nil || err2 != nil {
		panic(fmt.Sprint(err, err2))
	}
	return gen(3), o
}

// TestQuickExplainFailureConsistency: ExplainFailure returns reasons
// exactly when the expression fails, and every reason names a concrete
// leaf.
func TestQuickExplainFailureConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o := genExprAndOID(rng)
		lookup := func(n string) string { v, _ := o.Props.Get(n); return v }
		pass := bpl.Eval(e, lookup)
		reasons := bpl.ExplainFailure(e, lookup)
		if pass && reasons != nil {
			t.Logf("seed %d: passing expr %s explained: %v", seed, e.String(), reasons)
			return false
		}
		if !pass && len(reasons) == 0 {
			t.Logf("seed %d: failing expr %s unexplained", seed, e.String())
			return false
		}
		for _, r := range reasons {
			if r == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickEvaluateMatchesLets: Evaluate's Ready field is exactly the
// conjunction of the view's continuous assignments.
func TestQuickEvaluateMatchesLets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1, o := genExprAndOID(rng)
		e2, _ := genExprAndOID(rng)
		bp := &bpl.Blueprint{Name: "q", Views: []*bpl.View{{
			Name: "v",
			Lets: []*bpl.LetDecl{
				{Name: "s1", Expr: e1},
				{Name: "s2", Expr: e2},
			},
		}}}
		lookup := func(n string) string { v, _ := o.Props.Get(n); return v }
		st := Evaluate(bp, o)
		want := bpl.Eval(e1, lookup) && bpl.Eval(e2, lookup)
		return st.Ready == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
