package bpl

import "strings"

// Expression language for continuous assignments:
//
//	let state = ($nl_sim_res == good) and ($lvs_res == is_equiv) and ($uptodate == true)
//
// Operands are $property references and string/identifier literals.
// Comparisons (== and !=) compare strings; and/or/not combine booleans.
// A bare operand used as a boolean is true when its value equals "true".

// Expr is a boolean expression node.
type Expr interface {
	exprNode()
	// String renders canonical source whose reparse yields an equal tree.
	String() string
}

// Operand is a string-valued leaf: a $reference or a literal.
type Operand struct {
	// Var is the referenced name for $references; empty for literals.
	Var string
	// Lit is the literal value when Var is empty.
	Lit string
}

// Value resolves the operand to its string value.
func (o Operand) Value(lookup LookupFunc) string {
	if o.Var != "" {
		if lookup == nil {
			return ""
		}
		return lookup(o.Var)
	}
	return o.Lit
}

// Source renders the operand.
func (o Operand) Source() string {
	if o.Var != "" {
		return "$" + o.Var
	}
	if o.Lit != "" && isBareIdent(o.Lit) && o.Lit != "and" && o.Lit != "or" && o.Lit != "not" {
		return o.Lit
	}
	return quote(strings.ReplaceAll(o.Lit, "$", `\$`))
}

// BoolExpr wraps a bare operand used in boolean position; it is true when
// the operand's value is exactly "true".
type BoolExpr struct {
	X Operand
}

// CmpExpr is "L == R" or "L != R".
type CmpExpr struct {
	Neq  bool
	L, R Operand
}

// NotExpr is "not X".
type NotExpr struct {
	X Expr
}

// AndExpr is "L and R".
type AndExpr struct {
	L, R Expr
}

// OrExpr is "L or R".
type OrExpr struct {
	L, R Expr
}

func (*BoolExpr) exprNode() {}
func (*CmpExpr) exprNode()  {}
func (*NotExpr) exprNode()  {}
func (*AndExpr) exprNode()  {}
func (*OrExpr) exprNode()   {}

// Eval evaluates the expression; lookup resolves $references.  It is a
// function, not an Expr method, so that a lookup passed to it does not
// escape to the heap.
func Eval(e Expr, lookup LookupFunc) bool {
	switch n := e.(type) {
	case *BoolExpr:
		return n.X.Value(lookup) == "true"
	case *CmpExpr:
		return (n.L.Value(lookup) == n.R.Value(lookup)) != n.Neq
	case *NotExpr:
		return !Eval(n.X, lookup)
	case *AndExpr:
		return Eval(n.L, lookup) && Eval(n.R, lookup)
	case *OrExpr:
		return Eval(n.L, lookup) || Eval(n.R, lookup)
	}
	return false
}

// precedence levels for printing: or < and < unary.
func exprPrec(e Expr) int {
	switch e.(type) {
	case *OrExpr:
		return 1
	case *AndExpr:
		return 2
	default:
		return 3
	}
}

// renderChild parenthesizes child expressions that would reassociate when
// reparsed: lower-precedence children always, and — because the parser
// builds left-associative chains — right children of equal precedence.
func renderChild(child Expr, parentPrec int, rightSide bool) string {
	p := exprPrec(child)
	if p < parentPrec || (rightSide && p == parentPrec) {
		return "(" + child.String() + ")"
	}
	return child.String()
}

// String implements Expr.
func (e *BoolExpr) String() string { return e.X.Source() }

// String implements Expr.  Comparisons always print parenthesized, matching
// the paper's style: ($sim == ok).
func (e *CmpExpr) String() string {
	op := "=="
	if e.Neq {
		op = "!="
	}
	return "(" + e.L.Source() + " " + op + " " + e.R.Source() + ")"
}

// String implements Expr.
func (e *NotExpr) String() string {
	if exprPrec(e.X) < 3 {
		return "not (" + e.X.String() + ")"
	}
	return "not " + e.X.String()
}

// String implements Expr.
func (e *AndExpr) String() string {
	return renderChild(e.L, 2, false) + " and " + renderChild(e.R, 2, true)
}

// String implements Expr.
func (e *OrExpr) String() string {
	return renderChild(e.L, 1, false) + " or " + renderChild(e.R, 1, true)
}

// ExprVars returns every $reference in the expression, in evaluation order.
func ExprVars(e Expr) []string {
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *BoolExpr:
			if n.X.Var != "" {
				out = append(out, n.X.Var)
			}
		case *CmpExpr:
			if n.L.Var != "" {
				out = append(out, n.L.Var)
			}
			if n.R.Var != "" {
				out = append(out, n.R.Var)
			}
		case *NotExpr:
			walk(n.X)
		case *AndExpr:
			walk(n.L)
			walk(n.R)
		case *OrExpr:
			walk(n.L)
			walk(n.R)
		}
	}
	walk(e)
	return out
}

// ExplainFailure walks a failed boolean expression and returns the leaf
// conditions that evaluate false under the lookup — the "what still needs to
// be modified" answer for state queries.  For a passing expression it
// returns nil.  Disjunctions report all failing alternatives.
func ExplainFailure(e Expr, lookup LookupFunc) []string {
	if Eval(e, lookup) {
		return nil
	}
	var out []string
	var walk func(Expr, bool) // negated context
	walk = func(e Expr, neg bool) {
		switch n := e.(type) {
		case *NotExpr:
			walk(n.X, !neg)
		case *AndExpr:
			// In positive context, an and fails if either side fails.
			walk(n.L, neg)
			walk(n.R, neg)
		case *OrExpr:
			walk(n.L, neg)
			walk(n.R, neg)
		default:
			val := Eval(e, lookup)
			if val == neg { // leaf contributes to the failure
				desc := e.String()
				if neg {
					desc = "not " + desc
				}
				out = append(out, describeLeaf(e, lookup, desc))
			}
		}
	}
	walk(e, false)
	return out
}

func describeLeaf(e Expr, lookup LookupFunc, desc string) string {
	switch n := e.(type) {
	case *CmpExpr:
		var sb strings.Builder
		sb.WriteString(desc)
		sb.WriteString(" [")
		sb.WriteString(n.L.Source())
		sb.WriteString(" = ")
		sb.WriteString(quote(n.L.Value(lookup)))
		sb.WriteString("]")
		return sb.String()
	case *BoolExpr:
		return desc + " [" + n.X.Source() + " = " + quote(n.X.Value(lookup)) + "]"
	default:
		return desc
	}
}
