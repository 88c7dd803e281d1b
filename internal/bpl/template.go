package bpl

import (
	"strings"
	"unicode"
)

// Template is a value with $variable interpolation, e.g.
// "$oid changed by $user".  Assignment values, exec arguments, notify
// messages and post arguments are all templates.  Variables are resolved at
// run time against the engine's environment: built-ins like $oid, $arg,
// $user, $date, plus the properties of the target OID.
type Template struct {
	Parts []TemplatePart
}

// TemplatePart is either a literal chunk (Var == "") or a variable
// reference (Lit unused).
type TemplatePart struct {
	Lit string
	Var string
}

// LitTemplate returns a template that expands to the fixed string s.
func LitTemplate(s string) Template {
	if s == "" {
		return Template{}
	}
	return Template{Parts: []TemplatePart{{Lit: s}}}
}

// VarTemplate returns a template consisting of the single variable $name.
func VarTemplate(name string) Template {
	return Template{Parts: []TemplatePart{{Var: name}}}
}

// ParseTemplate scans a raw string for $variable references.  A variable is
// '$' followed by letters, digits and underscores.  The sequence \$
// produces a literal dollar sign.
func ParseTemplate(raw string) Template {
	var t Template
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			t.Parts = append(t.Parts, TemplatePart{Lit: lit.String()})
			lit.Reset()
		}
	}
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\' && i+1 < len(raw) && raw[i+1] == '$':
			lit.WriteByte('$')
			i += 2
		case c == '$':
			j := i + 1
			for j < len(raw) && isVarRune(rune(raw[j])) {
				j++
			}
			if j == i+1 {
				// Lone '$': literal.
				lit.WriteByte('$')
				i++
				continue
			}
			flush()
			t.Parts = append(t.Parts, TemplatePart{Var: raw[i+1 : j]})
			i = j
		default:
			lit.WriteByte(c)
			i++
		}
	}
	flush()
	return t
}

func isVarRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

// LookupFunc resolves a $variable name to its value.  Unknown variables
// should return "".
type LookupFunc func(name string) string

// Expand substitutes every variable using lookup and returns the result.
// A template of one part is that part's value itself, not a copy of it.
func (t Template) Expand(lookup LookupFunc) string {
	if len(t.Parts) == 1 {
		return t.Parts[0].expand(lookup)
	}
	var buf [64]byte
	b := buf[:0]
	for _, p := range t.Parts {
		b = append(b, p.expand(lookup)...)
	}
	return string(b)
}

func (p TemplatePart) expand(lookup LookupFunc) string {
	if p.Var == "" {
		return p.Lit
	}
	if lookup == nil {
		return ""
	}
	return lookup(p.Var)
}

// IsConst reports whether the template contains no variables.
func (t Template) IsConst() bool {
	for _, p := range t.Parts {
		if p.Var != "" {
			return false
		}
	}
	return true
}

// Vars returns the variable names referenced, in order of appearance,
// without deduplication.
func (t Template) Vars() []string {
	var out []string
	for _, p := range t.Parts {
		if p.Var != "" {
			out = append(out, p.Var)
		}
	}
	return out
}

// Source renders the template in canonical BluePrint syntax: a bare
// identifier when possible, a bare $var for a single-variable template, and
// a quoted string otherwise.  Parsing the result reproduces the template.
func (t Template) Source() string {
	raw := t.raw()
	if len(t.Parts) == 1 && t.Parts[0].Var != "" {
		return "$" + t.Parts[0].Var
	}
	if t.IsConst() && raw != "" && isBareIdent(raw) {
		return raw
	}
	return quote(raw)
}

// raw renders the template in string-literal body form, with variables as
// $name and literal dollars escaped.
func (t Template) raw() string {
	var sb strings.Builder
	for _, p := range t.Parts {
		if p.Var != "" {
			sb.WriteByte('$')
			sb.WriteString(p.Var)
		} else {
			sb.WriteString(strings.ReplaceAll(p.Lit, "$", `\$`))
		}
	}
	return sb.String()
}

// isBareIdent reports whether s lexes as a single identifier token and is
// not a keyword that would confuse the action parser.
func isBareIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 && !isIdentStart(r) && !unicode.IsDigit(r) {
			return false
		}
		if !isIdentRune(r) {
			return false
		}
	}
	switch s {
	case "done", "do", "when", "exec", "post", "notify", "endview", "endblueprint":
		return false
	}
	return true
}

// quote renders s as a BluePrint string literal.
func quote(s string) string { return string(appendQuote(make([]byte, 0, len(s)+2), s)) }

// appendQuote appends the BluePrint string literal of s to dst.
func appendQuote(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			// A backslash in the raw form is only produced by \$; keep it.
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
