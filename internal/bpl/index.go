package bpl

// Compiled policy resolution.  The Effective* functions in resolve.go derive
// a view's rules, lets, properties and link templates from scratch — walking
// the default view, checking overrides and allocating a fresh slice — on
// every call.  That is fine for tooling, but the run-time engine performs the
// same derivation for every single event delivery, which makes policy
// resolution the dominant allocation source on the hot path.
//
// An Index compiles a Blueprint once into immutable lookup tables: effective
// rules per (view, event) — partitioned by execution phase into a Program —
// effective lets, properties and link templates per view, and the link
// templates by ID.  Blueprints are never mutated after parsing, so the Index
// stays valid for the lifetime of the Blueprint; loading a new policy
// (Engine.SetBlueprint) builds a new Index.
//
// All slices returned by Index methods are shared, pre-computed state:
// callers must treat them as read-only.

// Program is the phase-ordered execution plan for one (view, event) pair:
// the effective rules' actions split by the engine's fixed delivery phases
// (assign, exec/notify, post), each preserving rule and action order.
type Program struct {
	// Rules are the effective rules, default view first — what
	// EffectiveRules returns for the pair.
	Rules []*Rule
	// Assigns is phase 1: every AssignAction in rule/action order.
	Assigns []*AssignAction
	// Execs is phase 3: every ExecAction and NotifyAction, interleaved in
	// rule/action order.
	Execs []Action
	// Posts is phase 4: every PostAction in rule/action order.
	Posts []*PostAction
}

func compileProgram(rules []*Rule) *Program {
	if len(rules) == 0 {
		return nil
	}
	p := &Program{Rules: rules}
	for _, r := range rules {
		for _, a := range r.Actions {
			switch act := a.(type) {
			case *AssignAction:
				p.Assigns = append(p.Assigns, act)
			case *ExecAction, *NotifyAction:
				p.Execs = append(p.Execs, a)
			case *PostAction:
				p.Posts = append(p.Posts, act)
			}
		}
	}
	return p
}

// Index is the compiled form of a Blueprint.  Build one with NewIndex; it is
// immutable afterwards and safe for concurrent use.
type Index struct {
	bp *Blueprint

	// Per declared view.  Undeclared views resolve to the default-only
	// tables below, mirroring the Effective* fallback semantics.
	progs map[string]map[string]*Program // view -> event -> program
	lets  map[string][]*LetDecl
	props map[string][]*PropertyDecl
	links map[string][]*LinkDecl

	defaultProgs map[string]*Program // event -> default-view-only program
	defaultLets  []*LetDecl
	defaultProps []*PropertyDecl
	defaultLinks []*LinkDecl

	linkByID   map[string]*LinkDecl
	explainers map[*LetDecl]*Explainer
}

// NewIndex compiles bp.  The blueprint must not be mutated afterwards.
func NewIndex(bp *Blueprint) *Index {
	ix := &Index{
		bp:    bp,
		progs: make(map[string]map[string]*Program, len(bp.Views)),
		lets:  make(map[string][]*LetDecl, len(bp.Views)),
		props: make(map[string][]*PropertyDecl, len(bp.Views)),
		links: make(map[string][]*LinkDecl, len(bp.Views)),
	}
	dv := bp.DefaultView()
	if dv != nil {
		ix.defaultLets = bp.EffectiveLets("")
		ix.defaultProps = bp.EffectiveProperties("")
		ix.defaultLinks = bp.EffectiveLinks("")
		ix.defaultProgs = make(map[string]*Program)
		for _, r := range dv.Rules {
			if _, done := ix.defaultProgs[r.Event]; !done {
				ix.defaultProgs[r.Event] = compileProgram(bp.EffectiveRules("", r.Event))
			}
		}
	}
	for _, v := range bp.Views {
		ix.lets[v.Name] = bp.EffectiveLets(v.Name)
		ix.props[v.Name] = bp.EffectiveProperties(v.Name)
		ix.links[v.Name] = bp.EffectiveLinks(v.Name)
		progs := make(map[string]*Program)
		for _, r := range v.Rules {
			if _, done := progs[r.Event]; !done {
				progs[r.Event] = compileProgram(bp.EffectiveRules(v.Name, r.Event))
			}
		}
		if dv != nil && dv.Name != v.Name {
			for _, r := range dv.Rules {
				if _, done := progs[r.Event]; !done {
					progs[r.Event] = compileProgram(bp.EffectiveRules(v.Name, r.Event))
				}
			}
		}
		ix.progs[v.Name] = progs
	}
	ix.linkByID = make(map[string]*LinkDecl)
	ix.explainers = make(map[*LetDecl]*Explainer)
	for _, v := range bp.Views {
		for _, d := range v.Links {
			if _, dup := ix.linkByID[d.TemplateID]; !dup {
				ix.linkByID[d.TemplateID] = d
			}
		}
		for _, l := range v.Lets {
			ix.explainers[l] = CompileExplainer(l.Expr)
		}
	}
	return ix
}

// Blueprint returns the blueprint the index was compiled from.
func (ix *Index) Blueprint() *Blueprint { return ix.bp }

// Program returns the compiled execution plan for an event delivered to an
// OID of the named view, or nil when no effective rule matches.
func (ix *Index) Program(view, event string) *Program {
	if m, ok := ix.progs[view]; ok {
		return m[event]
	}
	return ix.defaultProgs[event]
}

// Lets returns the effective continuous assignments of the view — the
// compiled equivalent of Blueprint.EffectiveLets.
func (ix *Index) Lets(view string) []*LetDecl {
	if l, ok := ix.lets[view]; ok {
		return l
	}
	return ix.defaultLets
}

// Properties returns the effective property templates of the view — the
// compiled equivalent of Blueprint.EffectiveProperties.
func (ix *Index) Properties(view string) []*PropertyDecl {
	if p, ok := ix.props[view]; ok {
		return p
	}
	return ix.defaultProps
}

// Links returns the effective link templates of the view — the compiled
// equivalent of Blueprint.EffectiveLinks.
func (ix *Index) Links(view string) []*LinkDecl {
	if l, ok := ix.links[view]; ok {
		return l
	}
	return ix.defaultLinks
}

// Explainer returns the compiled failure explainer of a continuous
// assignment.  Lets not declared in the indexed blueprint are compiled on
// the fly.
func (ix *Index) Explainer(l *LetDecl) *Explainer {
	if x, ok := ix.explainers[l]; ok {
		return x
	}
	return CompileExplainer(l.Expr)
}

// LinkTemplate finds the template decorating a new link of the given class
// between fromView and toView: for a use link, a use_link declaration in the
// (shared) view type; for a derive link, a link_from fromView declaration in
// toView.  The first match in Links(toView) wins: the default view's
// templates before the view's own.
func (ix *Index) LinkTemplate(use bool, fromView, toView string) (*LinkDecl, bool) {
	for _, d := range ix.Links(toView) {
		if use && d.Use {
			return d, true
		}
		if !use && !d.Use && d.FromView == fromView {
			return d, true
		}
	}
	return nil, false
}

// LinkDecl finds the link template with the given identifier anywhere in
// the blueprint — the first declaration in view order, should two views
// share a name.  Link instances are stamped with their template ID at
// creation; version inheritance uses this lookup so a link shifts
// according to its own template no matter which endpoint is being
// versioned (a new synth_lib version must shift the depend_on links that
// point out of it just as a new schematic version shifts the links
// pointing into it).
func (ix *Index) LinkDecl(id string) (*LinkDecl, bool) {
	d, ok := ix.linkByID[id]
	return d, ok
}
