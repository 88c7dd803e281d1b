package meta

import (
	"fmt"
	"sync"
)

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

// AuditGraphIndex checks the versioned adjacency index against the live
// adjacency maps and re-publishes any posting that diverged.  Incremental
// maintenance keeps the index exact, so the scan normally publishes
// nothing: it is the safety net under every view walk.  It locks the whole
// database for the scan (O(links)); the engine runs it at a policy reload.
// A repair is stamped with the current epoch and goes through no commit
// point: the index is derived state, so there is nothing to journal and no
// stamp to spend, and under lockAll no link mutation is installing, so no
// posting carries a newer stamp.
func (db *DB) AuditGraphIndex() {
	db.lockAll()
	defer db.unlockAll()
	s := db.mvcc.epoch.Load()
	for _, sh := range db.shards {
		h := sh.hist.Load()
		for k, refs := range sh.outLinks {
			if !adjCurrent(&h.out, k, refs) {
				db.histAdjPush(sh, k, s, true)
			}
		}
		for k, refs := range sh.inLinks {
			if !adjCurrent(&h.in, k, refs) {
				db.histAdjPush(sh, k, s, false)
			}
		}
		// Postings whose key has no live refs anymore must read empty.
		h.out.Range(func(ki, _ any) bool {
			k := ki.(Key)
			if len(sh.outLinks[k]) == 0 && !adjCurrent(&h.out, k, nil) {
				db.histAdjPush(sh, k, s, true)
			}
			return true
		})
		h.in.Range(func(ki, _ any) bool {
			k := ki.(Key)
			if len(sh.inLinks[k]) == 0 && !adjCurrent(&h.in, k, nil) {
				db.histAdjPush(sh, k, s, false)
			}
			return true
		})
	}
}

// adjCurrent reports whether the head of an adjacency posting matches the
// live ref list exactly (same link objects, same order).
func adjCurrent(m *sync.Map, k Key, refs []linkRef) bool {
	hi, ok := m.Load(k)
	if !ok {
		return len(refs) == 0
	}
	x := hi.(*hist[[]*Link]).at(1 << 62)
	if x == nil || x.del {
		return len(refs) == 0
	}
	if len(x.val) != len(refs) {
		return false
	}
	for i, r := range refs {
		if x.val[i] != r.l {
			return false
		}
	}
	return true
}
