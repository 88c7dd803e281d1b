package meta

import "fmt"

// View-based graph walks.  Each walk resolves adjacency through the
// versioned reachability index (shardHist.out/in): one lock-free lookup
// per visited key, so a closure query costs O(closure) index lookups —
// never a whole-graph link scan, and never a shard or stripe lock.  The
// results are byte-stable: re-running a walk on the same view always
// yields the same slice.

// outAt returns the view's outgoing-adjacency posting of k (links with
// From == k).  The slice and its links are immutable; callers must not
// mutate them.
func (v *View) outAt(k Key) []*Link {
	return v.adjAt(k, true)
}

// inAt returns the view's incoming-adjacency posting of k (links with
// To == k).
func (v *View) inAt(k Key) []*Link {
	return v.adjAt(k, false)
}

func (v *View) adjAt(k Key, out bool) []*Link {
	h := v.shards[v.db.shardIndex(k.Block)]
	m := &h.in
	if out {
		m = &h.out
	}
	hi, ok := m.Load(k)
	if !ok {
		return nil
	}
	x := hi.(*hist[[]*Link]).at(v.lsn)
	if x == nil || x.del {
		return nil
	}
	return x.val
}

// linkAt resolves a link by ID at the view, nil when absent/deleted.
// The returned object is immutable and may be retained.
func (v *View) linkAt(id LinkID) *Link {
	hi, ok := v.stripes[uint32(id)&v.db.lmask].links.Load(id)
	if !ok {
		return nil
	}
	x := hi.(*hist[*Link]).at(v.lsn)
	if x == nil || x.del {
		return nil
	}
	return x.val
}

// configAt resolves a stored configuration at the view, nil when
// absent/deleted.  The returned object is the immutable stored version.
func (v *View) configAt(name string) *Configuration {
	hi, ok := v.ctl.configs.Load(name)
	if !ok {
		return nil
	}
	x := hi.(*hist[*Configuration]).at(v.lsn)
	if x == nil || x.del {
		return nil
	}
	return x.val
}

// Reachable is DB.Reachable evaluated at the view: the set of keys
// reachable from root by traversing admitted links From→To, including
// root itself; nil when root does not exist at the view.
func (v *View) Reachable(root Key, follow FollowFunc) []Key {
	if follow == nil {
		follow = FollowUseLinks
	}
	out := v.closure(root, follow)
	sortKeys(out)
	return out
}

// Dependents is DB.Dependents evaluated at the view: the downstream
// closure of root, root itself excluded; nil when root does not exist at
// the view.
func (v *View) Dependents(root Key, follow FollowFunc) []Key {
	if follow == nil {
		follow = FollowAllLinks
	}
	out := v.closure(root, follow)
	if len(out) < 2 {
		return nil
	}
	out = out[1:]
	sortKeys(out)
	return out
}

// closure walks admitted links From→To breadth-first from root and returns
// the keys in visiting order, root first; nil when root does not exist at
// the view.
func (v *View) closure(root Key, follow FollowFunc) []Key {
	if !v.HasOID(root) {
		return nil
	}
	visited := map[Key]bool{root: true}
	out := []Key{root}
	for i := 0; i < len(out); i++ {
		for _, l := range v.outAt(out[i]) {
			if follow(l) && !visited[l.To] {
				visited[l.To] = true
				out = append(out, l.To)
			}
		}
	}
	return out
}

// Equivalents is DB.Equivalents evaluated at the view: the transitive
// equivalence plane of k over derive links typed "equivalence", followed
// in both directions, k included; nil when k does not exist at the view.
func (v *View) Equivalents(k Key) []Key {
	if !v.HasOID(k) {
		return nil
	}
	visited := map[Key]bool{k: true}
	queue := []Key{k}
	out := []Key{k}
	step := func(next Key) {
		if !visited[next] {
			visited[next] = true
			out = append(out, next)
			queue = append(queue, next)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range v.outAt(cur) {
			if l.Class == DeriveLink && l.Type() == TypeEquivalence {
				step(l.To)
			}
		}
		for _, l := range v.inAt(cur) {
			if l.Class == DeriveLink && l.Type() == TypeEquivalence {
				step(l.From)
			}
		}
	}
	sortKeys(out)
	return out
}

// Resolve materializes a stored configuration at the view — both the
// configuration and every referenced object resolve at the same LSN, and
// the clone-heavy materialization runs without any database lock.
func (v *View) Resolve(name string) (*ResolvedConfiguration, error) {
	c := v.configAt(name)
	if c == nil {
		return nil, fmt.Errorf("configuration %q: %w", name, ErrNotFound)
	}
	r := &ResolvedConfiguration{Config: c.clone()}
	r.OIDs = make([]*OID, 0, len(c.OIDs))
	for _, k := range c.OIDs {
		if x := v.oidAt(k); x != nil {
			o := &OID{Key: k, Seq: x.val.seq, Props: make(map[string]string, len(x.val.props))}
			for pk, pv := range x.val.props {
				o.Props[pk] = pv
			}
			r.OIDs = append(r.OIDs, o)
		} else {
			r.MissingOIDs = append(r.MissingOIDs, k)
		}
	}
	r.Links = make([]*Link, 0, len(c.Links))
	for _, id := range c.Links {
		if l := v.linkAt(id); l != nil {
			r.Links = append(r.Links, l.clone())
		} else {
			r.MissingLinks = append(r.MissingLinks, id)
		}
	}
	return r, nil
}
