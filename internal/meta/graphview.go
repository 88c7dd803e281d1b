package meta

import "sync"

// View-based graph walks.  Each walk resolves adjacency through the
// versioned reachability index (store.adj): one lock-free lookup
// per visited key, so a closure query costs O(closure) index lookups —
// never a whole-graph link scan, and never a lock.  The
// results are byte-stable: re-running a walk on the same view always
// yields the same slice.

// Reachable returns the set of keys reachable from root by traversing
// links downward (From→To) through links admitted by follow, including root
// itself; nil when root does not exist at the view.  It is the query
// primitive behind hierarchy snapshots and transitive-dependency analyses.
func (v *View) Reachable(root Key, follow FollowFunc) []Key {
	return v.AppendReachable(nil, root, follow)
}

// AppendReachable appends the keys of Reachable to dst.
func (v *View) AppendReachable(dst []Key, root Key, follow FollowFunc) []Key {
	if follow == nil {
		follow = FollowUseLinks
	}
	out := v.closure(dst, root, follow)
	sortKeys(out[len(dst):])
	return out
}

// Dependents returns the downstream closure of root: every OID reachable by
// repeatedly following admitted links From→To — the set of data
// invalidated when root changes.  root itself is excluded; nil when root
// does not exist at the view.
func (v *View) Dependents(root Key, follow FollowFunc) []Key {
	return v.AppendDependents(nil, root, follow)
}

// AppendDependents appends the keys of Dependents to dst.
func (v *View) AppendDependents(dst []Key, root Key, follow FollowFunc) []Key {
	if follow == nil {
		follow = FollowAllLinks
	}
	out := v.closure(dst, root, follow)
	if len(out)-len(dst) < 2 {
		return dst
	}
	out = append(out[:len(dst)], out[len(dst)+1:]...) // drop root
	sortKeys(out[len(dst):])
	return out
}

// closure walks admitted links From→To breadth-first from root and appends
// the keys to dst in visiting order, root first; nothing when root does not
// exist at the view.
func (v *View) closure(dst []Key, root Key, follow FollowFunc) []Key {
	if !v.HasOID(root) {
		return dst
	}
	visited := visitedSet()
	defer releaseVisited(visited)
	visited[root] = true
	out := append(dst, root)
	for i := len(dst); i < len(out); i++ {
		for _, l := range v.posting(out[i]).out {
			if follow(l) && !visited[l.To] {
				visited[l.To] = true
				out = append(out, l.To)
			}
		}
	}
	return out
}

// Equivalents returns the transitive set of OIDs tied to k by derive links
// whose TYPE property is "equivalence" — the equivalence plane of Katz's
// version server, which the paper's link types reference.  Links are
// followed in both directions; k itself is included; nil when k does not
// exist at the view.
func (v *View) Equivalents(k Key) []Key {
	return v.AppendEquivalents(nil, k)
}

// AppendEquivalents appends the keys of Equivalents to dst.
func (v *View) AppendEquivalents(dst []Key, k Key) []Key {
	if !v.HasOID(k) {
		return dst
	}
	visited := visitedSet()
	defer releaseVisited(visited)
	visited[k] = true
	out := append(dst, k)
	// out[len(dst):] is the breadth-first queue too: a key is visited once,
	// in the order it was reached.
	for i := len(dst); i < len(out); i++ {
		p := v.posting(out[i])
		for _, l := range p.out {
			if l.Class == DeriveLink && l.Type() == TypeEquivalence && !visited[l.To] {
				visited[l.To] = true
				out = append(out, l.To)
			}
		}
		for _, l := range p.in {
			if l.Class == DeriveLink && l.Type() == TypeEquivalence && !visited[l.From] {
				visited[l.From] = true
				out = append(out, l.From)
			}
		}
	}
	sortKeys(out[len(dst):])
	return out
}

// visitedPool recycles the graph walks' visited sets: a walk makes no set
// of its own, and a parked set is empty, so it keeps no key alive.
var visitedPool = sync.Pool{New: func() any { return make(map[Key]bool) }}

func visitedSet() map[Key]bool { return visitedPool.Get().(map[Key]bool) }

func releaseVisited(visited map[Key]bool) {
	clear(visited)
	visitedPool.Put(visited)
}

// Resolve materializes a stored configuration at the view — both the
// configuration and every referenced object resolve at the same LSN.
func (v *View) Resolve(name string) (*ResolvedConfiguration, error) {
	c, err := v.GetConfiguration(name)
	if err != nil {
		return nil, err
	}
	r := &ResolvedConfiguration{Config: c, OIDs: make([]*OID, 0, len(c.OIDs)), Links: make([]*Link, 0, len(c.Links))}
	for _, k := range c.OIDs {
		if o, err := v.GetOID(k); err == nil {
			r.OIDs = append(r.OIDs, o)
		} else {
			r.MissingOIDs = append(r.MissingOIDs, k)
		}
	}
	for _, id := range c.Links {
		if l, err := v.GetLink(id); err == nil {
			r.Links = append(r.Links, l)
		} else {
			r.MissingLinks = append(r.MissingLinks, id)
		}
	}
	return r, nil
}
