package engine

import (
	"fmt"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// Template application: "Each time the BluePrint is informed of a new OID
// being created, it finds the corresponding view in the BluePrint and
// attaches properties and Links to the new OID" (section 3.2).  Properties
// are created with their default value on the first version and copied or
// moved from the previous version afterwards (Figure 2).  Move-tagged link
// templates shift their instances from the previous version to the new one
// (Figure 3); copy-tagged templates duplicate them.

// CreateOID creates the next version of (block, view), applies the
// blueprint's template rules, and posts the built-in "create" event at the
// new OID.  It returns the new key.  The queue is not drained; callers
// typically post a ckin event next and then Drain.
//
// Each OID the template touches changes in one update: the properties
// move templates take leave the previous version together, and the new
// version gets its whole map at once — owner, template values, and each
// continuous assignment's first value.
func (e *Engine) CreateOID(block, view, user string) (meta.Key, error) {
	if user == "" {
		user = e.user
	}
	k, err := e.db.NewVersion(block, view)
	if err != nil {
		return meta.Key{}, err
	}
	e.stats.oidsCreated.Add(1)

	pol := e.pol.Load()
	prev, hasPrev := e.head.Predecessor(k)

	// Owner is a generic property the engine always records.  Template
	// property names are blueprint identifiers, which are valid names.
	props := pol.Properties(view)
	seed := make(map[string]string, len(props)+1)
	seed[meta.PropOwner] = user
	for _, p := range props {
		seed[p.Name] = p.Default
	}
	if hasPrev {
		err := e.db.UpdateOID(prev, func(cur map[string]string) {
			for _, p := range props {
				if v, ok := cur[p.Name]; ok && p.Inherit != bpl.InheritNone {
					seed[p.Name] = v
				}
				if p.Inherit == bpl.InheritMove {
					delete(cur, p.Name)
				}
			}
		})
		if err != nil {
			return meta.Key{}, err
		}
	}
	// Continuous assignments get an initial evaluation.
	ev := Event{Name: EventCreate, Target: k, User: user}
	if err := e.applyAssignsAndLets(&vars{ev: ev, now: e.clock}, seed, nil, pol.Lets(view)); err != nil {
		return meta.Key{}, err
	}

	// Link templates: shift or copy instances from the previous version.
	if hasPrev {
		if err := e.inheritLinks(pol, prev, k); err != nil {
			return meta.Key{}, err
		}
	}

	if e.tracing {
		e.tracer.Trace(TraceEntry{Kind: TraceCreateOID, OID: k.String(), Detail: "owner " + user})
	}

	// Let blueprints hook creations.
	e.mu.Lock()
	e.enqueueLocked(Event{Name: EventCreate, Dir: bpl.DirDown, Target: k, User: user}, false)
	e.mu.Unlock()
	return k, nil
}

// inheritLinks applies move/copy link templates when newK supersedes prev.
// Every link instance attached to prev is considered: its own template
// (identified by the stamp it received at creation) decides whether it
// shifts, copies, or stays, regardless of which view declared the template.
func (e *Engine) inheritLinks(pol *bpl.Index, prev, newK meta.Key) error {
	// Collect matching instances first, from one read of prev's links; the
	// mutations below republish the links they move.
	type move struct {
		id   meta.LinkID
		decl *bpl.LinkDecl
		link meta.Link
	}
	var moves []move
	for _, l := range e.head.LinksOf(prev) {
		if l.Template == "" {
			continue
		}
		d, ok := pol.LinkDecl(l.Template)
		if !ok || d.Inherit == bpl.InheritNone {
			continue
		}
		moves = append(moves, move{id: l.ID, decl: d, link: *l})
	}
	for _, m := range moves {
		switch m.decl.Inherit {
		case bpl.InheritMove:
			if err := e.db.RetargetLink(m.id, prev, newK); err != nil {
				return fmt.Errorf("engine: shift link %d: %w", m.id, err)
			}
			e.stats.linksShifted.Add(1)
			if e.tracing {
				e.tracer.Trace(TraceEntry{Kind: TraceShiftLink, OID: newK.String(),
					Detail: fmt.Sprintf("link %d from %v", m.id, prev)})
			}
		case bpl.InheritCopy:
			from, to := m.link.From, m.link.To
			if from == prev {
				from = newK
			} else {
				to = newK
			}
			id, err := e.db.AddLink(m.link.Class, from, to, m.link.Template, m.link.Propagates, m.link.Props.Map())
			if err != nil {
				return fmt.Errorf("engine: copy link %d: %w", m.id, err)
			}
			e.stats.linksCreated.Add(1)
			if e.tracing {
				e.tracer.Trace(TraceEntry{Kind: TraceCopyLink, OID: newK.String(),
					Detail: fmt.Sprintf("link %d copied as %d", m.id, id)})
			}
		}
	}
	return nil
}

// CreateLink records a new relationship created by a design activity (e.g.
// the netlister linking a netlist to its schematic).  The engine finds the
// matching link template — use_link in the endpoints' view, or link_from
// fromKey's view declared in toKey's view — and attaches the template's
// PROPAGATE list and TYPE property, exactly as the paper describes for
// newly created Links.  Links with no matching template are created bare:
// they propagate nothing.
func (e *Engine) CreateLink(class meta.LinkClass, from, to meta.Key) (meta.LinkID, error) {
	pol := e.pol.Load()
	var (
		template   string
		propagates []string
		props      map[string]string
	)
	if d, ok := pol.LinkTemplate(class == meta.UseLink, from.View, to.View); ok {
		template = d.TemplateID
		propagates = d.Propagates
		if d.Type != "" {
			props = map[string]string{meta.PropType: d.Type}
		}
	}
	id, err := e.db.AddLink(class, from, to, template, propagates, props)
	if err != nil {
		return 0, err
	}
	e.stats.linksCreated.Add(1)
	if e.tracing {
		e.tracer.Trace(TraceEntry{Kind: TraceCreateLink, OID: to.String(),
			Detail: fmt.Sprintf("%s link %d from %v (template %q)", class, id, from, template)})
	}
	return id, nil
}
