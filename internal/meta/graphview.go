package meta

import (
	"cmp"
	"slices"
)

// View-based graph walks.  Each walk resolves adjacency through the
// versioned reachability index (shardHist.adj): one lock-free lookup
// per visited key, so a closure query costs O(closure) index lookups —
// never a whole-graph link scan, and never a shard or stripe lock.  The
// results are byte-stable: re-running a walk on the same view always
// yields the same slice.

// Reachable returns the set of keys reachable from root by traversing
// links downward (From→To) through links admitted by follow, including root
// itself; nil when root does not exist at the view.  It is the query
// primitive behind hierarchy snapshots and transitive-dependency analyses.
func (v *View) Reachable(root Key, follow FollowFunc) []Key {
	if follow == nil {
		follow = FollowUseLinks
	}
	out := v.closure(root, follow)
	sortKeys(out)
	return out
}

// Dependents returns the downstream closure of root: every OID reachable by
// repeatedly following admitted links From→To — the set of data
// invalidated when root changes.  root itself is excluded; nil when root
// does not exist at the view.
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
		for _, l := range v.posting(cur).out {
			if l.Class == DeriveLink && l.Type() == TypeEquivalence {
				step(l.To)
			}
		}
		for _, l := range v.posting(cur).in {
			if l.Class == DeriveLink && l.Type() == TypeEquivalence {
				step(l.From)
			}
		}
	}
	sortKeys(out)
	return out
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

// AuditGraphIndex checks the adjacency postings against the link table —
// every live link is, as that very object, in its From's out-posting and
// its To's in-posting, and every posting member is a live link — and
// re-publishes any posting that diverged, in link-ID order.  Incremental
// maintenance keeps the postings exact, so the scan normally publishes
// nothing: it is the safety net under every walk.  It locks the whole
// database for the scan (O(links)); the engine runs it at a policy reload.
// A repair is stamped with the current epoch and goes through no commit
// point: the postings are derived from the link table, so there is nothing
// to journal and no stamp to spend, and under lockAll no link mutation is
// installing, so no posting carries a newer stamp.
func (db *DB) AuditGraphIndex() {
	db.lockAll()
	defer db.unlockAll()
	s := db.mvcc.epoch.Load()
	want := make(map[Key]posting)
	for _, st := range db.store.Load().stripes {
		st.links.each(newest, func(_ LinkID, l *Link) bool {
			p := want[l.From]
			p.out = append(p.out, l)
			want[l.From] = p
			p = want[l.To]
			p.in = append(p.in, l)
			want[l.To] = p
			return true
		})
	}
	byID := func(a, b *Link) int { return cmp.Compare(a.ID, b.ID) }
	same := func(have, want []*Link) bool {
		have = slices.Clone(have)
		slices.SortFunc(have, byID)
		slices.SortFunc(want, byID)
		return slices.Equal(have, want)
	}
	for k, p := range want {
		h := db.head.shard(k.Block)
		have := h.links(k, newest)
		if !same(have.out, p.out) {
			h.post(true, k, s, p.out)
		}
		if !same(have.in, p.in) {
			h.post(false, k, s, p.in)
		}
	}
	// A posting whose key no live link names must read empty.
	for _, h := range db.store.Load().shards {
		h.adj.each(newest, func(k Key, _ posting) bool {
			if _, named := want[k]; !named {
				h.adj.push(k, s, posting{}, true)
			}
			return true
		})
	}
}
