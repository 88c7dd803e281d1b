package bpl

// Compiled failure explanation.  ExplainFailure renders the static parts of
// every leaf description — the leaf's canonical source and the referenced
// operand — from scratch on each call, which makes it the dominant cost of
// project-state reports over large databases: the strings are identical for
// every OID of a view, only the current property value differs.  An
// Explainer compiles an expression once into a leaf list with pre-rendered
// static prefixes; explaining a failure then costs one small allocation per
// failing leaf, and none when appended to a caller's buffer (AppendFailures).

// leafCheck is one boolean leaf (BoolExpr or CmpExpr) of a compiled
// expression, with its negation context and pre-rendered description.
type leafCheck struct {
	expr Expr
	// neg is true when the leaf appears under an odd number of nots: the
	// leaf contributes to a failure when it evaluates to true.
	neg bool
	// prefix is the static part of the description: the leaf source plus
	// " [<operand> = ".  The current operand value and "]" complete it.
	prefix string
	// operand is the reference whose current value is reported, valid only
	// when hasOperand is set.
	operand    Operand
	hasOperand bool
}

// Explainer is the compiled form of a boolean expression for failure
// reporting.  Build one with CompileExplainer; it is immutable and safe for
// concurrent use.
type Explainer struct {
	root   Expr
	leaves []leafCheck
}

// CompileExplainer compiles e.  The expression must not be mutated
// afterwards.
func CompileExplainer(e Expr) *Explainer {
	x := &Explainer{root: e}
	var walk func(Expr, bool)
	walk = func(e Expr, neg bool) {
		switch n := e.(type) {
		case *NotExpr:
			walk(n.X, !neg)
		case *AndExpr:
			walk(n.L, neg)
			walk(n.R, neg)
		case *OrExpr:
			walk(n.L, neg)
			walk(n.R, neg)
		default:
			desc := e.String()
			if neg {
				desc = "not " + desc
			}
			lc := leafCheck{expr: e, neg: neg}
			switch leaf := e.(type) {
			case *CmpExpr:
				lc.prefix = desc + " [" + leaf.L.Source() + " = "
				lc.operand, lc.hasOperand = leaf.L, true
			case *BoolExpr:
				lc.prefix = desc + " [" + leaf.X.Source() + " = "
				lc.operand, lc.hasOperand = leaf.X, true
			default:
				lc.prefix = desc
			}
			x.leaves = append(x.leaves, lc)
		}
	}
	walk(e, false)
	return x
}

// Explain returns the failing leaf conditions under lookup, with current
// values, in the same order and format as ExplainFailure.  A passing
// expression returns nil.
func (x *Explainer) Explain(lookup LookupFunc) []string {
	if x.root.Eval(lookup) {
		return nil
	}
	return x.Failures(lookup)
}

// Failures is Explain without the passing-expression check, for callers
// that have already evaluated the expression.
func (x *Explainer) Failures(lookup LookupFunc) []string {
	var out []string
	for i := range x.leaves {
		lc := &x.leaves[i]
		if !lc.fails(lookup) {
			continue
		}
		if !lc.hasOperand {
			out = append(out, lc.prefix)
			continue
		}
		var buf [128]byte
		out = append(out, string(lc.appendTo(buf[:0], lookup)))
	}
	return out
}

// AppendFailures appends the failing leaves of Failures to dst, a list of
// reasons joined by "; " that may already hold those of other expressions,
// each leaf as "label: " and its description.  It allocates only to grow
// dst.
func (x *Explainer) AppendFailures(dst []byte, label string, lookup LookupFunc) []byte {
	for i := range x.leaves {
		lc := &x.leaves[i]
		if !lc.fails(lookup) {
			continue
		}
		if len(dst) > 0 {
			dst = append(dst, "; "...)
		}
		dst = append(dst, label...)
		dst = append(dst, ": "...)
		dst = lc.appendTo(dst, lookup)
	}
	return dst
}

// fails reports whether the leaf contributes to a failure under lookup.
func (lc *leafCheck) fails(lookup LookupFunc) bool {
	return lc.expr.Eval(lookup) == lc.neg
}

// appendTo appends the leaf's description with the current operand value.
func (lc *leafCheck) appendTo(dst []byte, lookup LookupFunc) []byte {
	dst = append(dst, lc.prefix...)
	if lc.hasOperand {
		dst = appendQuote(dst, lc.operand.Value(lookup))
		dst = append(dst, ']')
	}
	return dst
}
