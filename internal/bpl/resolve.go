package bpl

// Effective-view resolution: the special default view applies to all views
// (section 3.4), so the template and run-time rules seen by an OID are the
// union of its own view's declarations and the default view's.  Where both
// declare the same property, the specific view wins.  Rules run default
// view first, then the specific view, so project-wide policy applies before
// view-specific behaviour and later assignments override earlier ones.

// EffectiveProperties returns the property templates applying to the named
// view: default-view properties not overridden, followed by the view's own.
func (bp *Blueprint) EffectiveProperties(view string) []*PropertyDecl {
	v, _ := bp.View(view)
	var out []*PropertyDecl
	if dv := bp.DefaultView(); dv != nil && dv.Name != view {
		for _, p := range dv.Properties {
			overridden := false
			if v != nil {
				_, overridden = v.Property(p.Name)
			}
			if !overridden {
				out = append(out, p)
			}
		}
	}
	if v != nil {
		out = append(out, v.Properties...)
	}
	return out
}

// EffectiveLets returns the continuous assignments applying to the named
// view, default view first.  A view-level let with the same target name
// replaces the default one.
func (bp *Blueprint) EffectiveLets(view string) []*LetDecl {
	v, _ := bp.View(view)
	var out []*LetDecl
	if dv := bp.DefaultView(); dv != nil && dv.Name != view {
		for _, l := range dv.Lets {
			overridden := false
			if v != nil {
				for _, vl := range v.Lets {
					if vl.Name == l.Name {
						overridden = true
						break
					}
				}
			}
			if !overridden {
				out = append(out, l)
			}
		}
	}
	if v != nil {
		out = append(out, v.Lets...)
	}
	return out
}

// EffectiveRules returns the run-time rules for an event on the named view:
// default-view rules first, then the view's own.
func (bp *Blueprint) EffectiveRules(view, event string) []*Rule {
	var out []*Rule
	if dv := bp.DefaultView(); dv != nil && dv.Name != view {
		out = append(out, dv.RulesFor(event)...)
	}
	if v, ok := bp.View(view); ok {
		out = append(out, v.RulesFor(event)...)
	}
	return out
}

// EffectiveLinks returns the link templates applying to the named view:
// the default view's templates followed by the view's own.
func (bp *Blueprint) EffectiveLinks(view string) []*LinkDecl {
	var out []*LinkDecl
	if dv := bp.DefaultView(); dv != nil && dv.Name != view {
		out = append(out, dv.Links...)
	}
	if v, ok := bp.View(view); ok {
		out = append(out, v.Links...)
	}
	return out
}

// Events returns every event name mentioned anywhere in the blueprint —
// rule triggers, post actions, and link PROPAGATE lists — deduplicated in
// first-appearance order.  Useful for tooling and policy review.
func (bp *Blueprint) Events() []string {
	seen := map[string]bool{}
	var out []string
	push := func(e string) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for _, v := range bp.Views {
		for _, r := range v.Rules {
			push(r.Event)
			for _, a := range r.Actions {
				if pa, ok := a.(*PostAction); ok {
					push(pa.Event)
				}
			}
		}
		for _, l := range v.Links {
			for _, e := range l.Propagates {
				push(e)
			}
		}
	}
	return out
}
