package meta

import "sync"

// Block connectivity tracking for the engine's parallel wave scheduler.
//
// Two event waves may drain concurrently only if they cannot touch a common
// OID.  Propagation crosses a link only when the event name is in the
// link's PROPAGATE set (stamped from the blueprint's compiled link
// templates at creation), and rule-posted events always target a view of
// the same block — so the set of blocks a wave can reach is bounded by the
// connected component of its seed block in the graph whose edges are links
// with a non-empty PROPAGATE set.
//
// The DB maintains that component structure as a union-find over block
// names: AddLink, RetargetLink and SetLinkPropagates merge the endpoint
// blocks (before the link becomes visible, so the analysis never
// underestimates), and nothing ever splits a component — deleting or
// pruning links leaves the partition conservatively coarse.  Components
// therefore only merge, which is exactly the monotonicity the scheduler's
// cached footprints rely on: ComponentGen bumps on every merge so cached
// roots can be revalidated cheaply.

// Component returns a canonical representative of the block's connected
// component under propagating links.  Two blocks can share a propagation
// path only if their Component results are equal (the converse does not
// hold: the analysis is conservative and never splits).  A block with no
// propagating links is its own component.
func (db *DB) Component(block string) string {
	if db.compGen.Load() == 0 {
		// No propagating link has ever merged two blocks: every block is
		// its own component, no lock needed.  (A merge racing with this
		// read is indistinguishable from reading just before it.)
		return block
	}
	db.compMu.Lock()
	defer db.compMu.Unlock()
	return db.findLocked(block)
}

// SameComponent reports whether two blocks may be connected by propagating
// links.
func (db *DB) SameComponent(a, b string) bool {
	if a == b {
		return true
	}
	db.compMu.Lock()
	defer db.compMu.Unlock()
	return db.findLocked(a) == db.findLocked(b)
}

// ComponentGen returns a generation counter that increases whenever two
// components merge.  Callers caching Component results revalidate when the
// generation moves.
func (db *DB) ComponentGen() int64 { return db.compGen.Load() }

// findLocked resolves the root of a block with path halving.  Callers hold
// compMu.  Unknown blocks are their own root and are not materialized.
func (db *DB) findLocked(block string) string {
	cur := block
	for {
		parent, ok := db.comp[cur]
		if !ok || parent == cur {
			return cur
		}
		if gp, ok := db.comp[parent]; ok && gp != parent {
			db.comp[cur] = gp // path halving
			cur = gp
			continue
		}
		cur = parent
	}
}

// unionBlocks merges the components of two blocks.
func (db *DB) unionBlocks(a, b string) {
	if a == b {
		return
	}
	db.compMu.Lock()
	ra, rb := db.findLocked(a), db.findLocked(b)
	if ra != rb {
		db.comp[ra] = rb
		db.compGen.Add(1)
	}
	db.compMu.Unlock()
}

// ComponentChurn counts propagating-link removals and retargets since the
// last RebuildComponents — mutations the merge-only union-find cannot
// reflect, each a chance that the partition is now coarser than the real
// link graph.  The engine uses it to schedule periodic exact rebuilds.
func (db *DB) ComponentChurn() int64 { return db.compChurn.Load() }

// RebuildComponents recomputes the block partition exactly from the
// current propagating links, replacing the merge-only approximation —
// components that converged toward one blob as links were pruned or
// retargeted split apart again, restoring drain parallelism on long-lived
// graphs.  It locks the whole database for the scan (O(links)), so
// callers should run it at quiet points; the engine triggers it at drain
// start when the queue holds only fresh seed events (a wave that already
// propagated across a since-removed link must keep its conservative
// footprint) and enough churn has accumulated or the blueprint was
// reloaded.
func (db *DB) RebuildComponents() {
	db.lockAll()
	defer db.unlockAll()
	comp := make(map[string]string)
	var find func(string) string
	find = func(b string) string {
		for {
			p, ok := comp[b]
			if !ok || p == b {
				return b
			}
			if gp, ok := comp[p]; ok && gp != p {
				comp[b] = gp
				b = gp
				continue
			}
			b = p
		}
	}
	for _, st := range db.stripes {
		for _, l := range st.links {
			if len(l.Propagates) == 0 || l.From.Block == l.To.Block {
				continue
			}
			ra, rb := find(l.From.Block), find(l.To.Block)
			if ra != rb {
				comp[ra] = rb
			}
		}
	}
	db.compMu.Lock()
	db.comp = comp
	db.compMu.Unlock()
	// Bump after the swap so schedulers that cached roots under the old
	// generation revalidate against the rebuilt partition.
	db.compGen.Add(1)
	db.compChurn.Store(0)
	// Audit the versioned adjacency index against the live maps and
	// re-publish any diverged posting — the same safety-net role
	// the exact union-find pass above plays for the merge-only partition.
	// Incremental maintenance keeps the index exact, so the scan normally
	// publishes nothing.  A repair is stamped with the current epoch and
	// goes through no commit point: the index is derived state, so there is
	// nothing to journal and no stamp to spend, and under lockAll no link
	// mutation is installing, so no posting carries a newer stamp.
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
