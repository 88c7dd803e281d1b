package meta

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// View is the one way to read the database: every read is a View method.
// A view pinned at one stamp (ReadView, ReadViewAt; the journal LSN on a
// journaled database) is a point-in-time cut, byte-stable while writers
// keep committing; Close releases the pin so reclamation can trim behind
// it.  The head (Head) asks the same resolver for the newest version, the
// caller's own writes included.  Neither takes a lock to read.
//
// A point read resolves one object's history, so on the head it is
// linearizable: it answers as of one instant between its call and its
// return.  Walks and enumerations resolve many histories one after another;
// on the head they are not one cut, so ask them of a pinned view.  Getters
// of one object return copies, which share the immutable property sets;
// the iterators (Each*, WithOID) hand the stored immutable objects to a
// callback, which must not mutate them.
type View struct {
	db       *DB
	lsn      int64
	seq      int64
	nextLink int64
	st       *store // the containers pinned with lsn; nil on the head
	closed   atomic.Bool
}

// Head returns the head view: every read resolves at the newest version,
// nothing is pinned and Close does nothing.  It is one value the DB owns —
// a call allocates nothing — and it loads the DB's containers on every
// read, so it follows RestoreFrom.  Its LSN is newest (math.MaxInt64); the
// header values (Seq) and Checkpoint belong to pinned views.
func (db *DB) Head() *View { return &db.head }

// ReadView pins a view at the current epoch — the newest assigned
// mutation stamp — waiting (briefly) for the mutation still installing its
// versions, so a write that committed before the call is always visible
// (read-your-writes).  The wait is only ever for a mutation already past
// its journal append (installs run in microseconds); it never waits for
// the writer lock and never blocks writers.
func (db *DB) ReadView() *View {
	m := &db.mvcc
	m.mu.Lock()
	for {
		e := m.epoch.Load()
		for 0 < m.inflight && m.inflight <= e {
			if m.doneCh == nil {
				m.doneCh = make(chan struct{})
			}
			ch := m.doneCh
			m.mu.Unlock()
			<-ch
			m.mu.Lock()
		}
		if m.horizon.Load() <= e {
			v := db.pinLocked(e)
			m.mu.Unlock()
			return v
		}
		// A reclaim pass advanced the horizon past the captured epoch
		// while we waited; retry at the newer epoch (horizon never
		// exceeds the current epoch, so this converges).
	}
}

// ReadViewAt pins a view at exactly lsn: it contains the effect of every
// mutation stamped at or below lsn and nothing newer.  It waits (briefly)
// for an in-flight mutation at or below lsn to finish installing, and
// returns ErrViewReclaimed when lsn predates the retained horizon.  The
// caller must not pass an lsn beyond the journal's assigned positions —
// the read-your-LSN paths check the journal (or the replica's applied
// position) first, which also guarantees the wait terminates.
func (db *DB) ReadViewAt(lsn int64) (*View, error) {
	m := &db.mvcc
	m.mu.Lock()
	for {
		if lsn < m.horizon.Load() {
			h := m.horizon.Load()
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: lsn %d < horizon %d", ErrViewReclaimed, lsn, h)
		}
		if !(0 < m.inflight && m.inflight <= lsn) {
			v := db.pinLocked(lsn)
			m.mu.Unlock()
			return v, nil
		}
		if m.doneCh == nil {
			m.doneCh = make(chan struct{})
		}
		ch := m.doneCh
		m.mu.Unlock()
		<-ch
		m.mu.Lock()
	}
}

// pinLocked registers a pin and captures the containers.  Callers hold the
// gate mutex.
func (db *DB) pinLocked(l int64) *View {
	m := &db.mvcc
	if m.pins == nil {
		m.pins = make(map[int64]int)
	}
	m.pins[l]++
	seq, nl := m.metaAtLocked(l)
	return &View{db: db, lsn: l, seq: seq, nextLink: nl, st: db.store.Load()}
}

// Close releases the view's pin.  Idempotent; the head is born closed.
func (v *View) Close() {
	if v.closed.Swap(true) {
		return
	}
	m := &v.db.mvcc
	m.mu.Lock()
	if n := m.pins[v.lsn]; n > 1 {
		m.pins[v.lsn] = n - 1
	} else {
		delete(m.pins, v.lsn)
	}
	m.mu.Unlock()
}

// LSN returns the stamp the view is pinned at.
func (v *View) LSN() int64 { return v.lsn }

// Seq returns the database logical clock as of the view.
func (v *View) Seq() int64 { return v.seq }

// store is the containers the view reads: pinned with it or, on the head,
// the DB's current ones.
func (v *View) store() *store {
	if v.st != nil {
		return v.st
	}
	return v.db.store.Load()
}

// ---------------------------------------------------------------------------
// OIDs and version chains

// HasOID reports whether the OID exists.
func (v *View) HasOID(k Key) bool {
	_, ok := v.store().oids.at(k, v.lsn)
	return ok
}

// GetOID returns a copy of the OID, which shares the immutable Props.
func (v *View) GetOID(k Key) (*OID, error) {
	x, err := v.store().oid(k, v.lsn)
	if err != nil {
		return nil, err
	}
	return &OID{Key: k, Seq: x.seq, Props: x.props}, nil
}

// GetProp returns a property value of an OID.  Missing properties return
// ("", false, nil); a missing OID is an error.
func (v *View) GetProp(k Key, name string) (string, bool, error) {
	x, err := v.store().oid(k, v.lsn)
	if err != nil {
		return "", false, err
	}
	val, ok := x.props.Get(name)
	return val, ok, nil
}

// WithOID runs fn on the OID — the read for callers that need several
// properties at once without allocating the copy GetOID returns.  fn must
// not retain or mutate the OID; it may retain Props (immutable).
func (v *View) WithOID(k Key, fn func(o *OID)) error {
	x, err := v.store().oid(k, v.lsn)
	if err != nil {
		return err
	}
	o := oidScratch.Get().(*OID)
	*o = OID{Key: k, Seq: x.seq, Props: x.props}
	fn(o)
	*o = OID{}
	oidScratch.Put(o)
	return nil
}

// oidScratch recycles the OID WithOID hands its callback: the argument of a
// function the compiler cannot see is a heap object.
var oidScratch = sync.Pool{New: func() any { return new(OID) }}

// chain resolves the version chain of (block, view): ascending and
// immutable, nil when there is none.
func (v *View) chain(block, view string) []int {
	chain, _ := v.store().chains.at(BlockView{Block: block, View: view}, v.lsn)
	return chain
}

// Latest returns the key of the newest version of (block, view).
func (v *View) Latest(block, view string) (Key, error) {
	chain := v.chain(block, view)
	if len(chain) == 0 {
		return Key{}, fmt.Errorf("no versions of %q.%q: %w", block, view, ErrNotFound)
	}
	return Key{Block: block, View: view, Version: chain[len(chain)-1]}, nil
}

// Versions returns the version numbers of (block, view) in ascending order.
func (v *View) Versions(block, view string) []int {
	return append([]int{}, v.chain(block, view)...)
}

// Predecessor returns the key of the version immediately preceding k in its
// chain, or ok=false if k is the first version.  Chains are ascending, so
// the position is found by binary search.
func (v *View) Predecessor(k Key) (Key, bool) {
	chain := v.chain(k.Block, k.View)
	i := sort.SearchInts(chain, k.Version)
	if i >= len(chain) || chain[i] != k.Version || i == 0 {
		return Key{}, false
	}
	return Key{Block: k.Block, View: k.View, Version: chain[i-1]}, true
}

// ---------------------------------------------------------------------------
// Links

// GetLink returns a copy of the link, the caller's to change.
func (v *View) GetLink(id LinkID) (*Link, error) {
	l, ok := v.store().links.at(id, v.lsn)
	if !ok {
		return nil, fmt.Errorf("link %d: %w", id, ErrNotFound)
	}
	return l.clone(), nil
}

// posting resolves k's adjacency: immutable, zero when k has no links.
func (v *View) posting(k Key) posting { return v.store().posting(k, v.lsn) }

// LinksOf returns copies of all links incident to k, outgoing first.
func (v *View) LinksOf(k Key) []*Link {
	var out []*Link
	v.EachLinkOf(k, func(l *Link) bool {
		out = append(out, l.clone())
		return true
	})
	return out
}

// EachLinkOf invokes fn for every link incident to k, outgoing first, until
// fn returns false.
func (v *View) EachLinkOf(k Key, fn func(*Link) bool) {
	p := v.posting(k)
	for _, links := range [2][]*Link{p.out, p.in} {
		for _, l := range links {
			if !fn(l) {
				return
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Configurations and workspaces

// GetConfiguration returns a copy of a stored configuration.
func (v *View) GetConfiguration(name string) (*Configuration, error) {
	c, ok := v.store().configs.at(name, v.lsn)
	if !ok {
		return nil, fmt.Errorf("configuration %q: %w", name, ErrNotFound)
	}
	return c.clone(), nil
}

// GetWorkspace returns a copy of the named workspace.
func (v *View) GetWorkspace(name string) (*Workspace, error) {
	w, ok := v.store().workspaces.at(name, v.lsn)
	if !ok {
		return nil, fmt.Errorf("workspace %q: %w", name, ErrNotFound)
	}
	return w.clone(), nil
}

// ---------------------------------------------------------------------------
// Iteration and enumeration

// EachOID invokes fn for every OID, in unspecified order, until fn returns
// false.  The *OID is reused across calls: fn must not retain it, though it
// may retain Props (immutable).
func (v *View) EachOID(fn func(*OID) bool) {
	var o OID
	v.store().oids.each(v.lsn, func(k Key, x oidVal) bool {
		o = OID{Key: k, Seq: x.seq, Props: x.props}
		return fn(&o)
	})
}

// EachLatestOID invokes fn for the newest version of every chain, in
// unspecified order, until fn returns false.  The *OID is reused across
// calls; Props may be retained (immutable).
func (v *View) EachLatestOID(fn func(*OID) bool) {
	var o OID
	st := v.store()
	st.chains.each(v.lsn, func(bv BlockView, chain []int) bool {
		return !v.latest(st, bv, chain, &o) || fn(&o)
	})
}

// EachLatestOIDSorted is EachLatestOID in key order: it walks the order
// the store keeps of its chains, so it collects and sorts nothing.
func (v *View) EachLatestOIDSorted(fn func(*OID) bool) {
	var o OID
	st := v.store()
	for _, c := range st.inOrder() {
		if x := c.at(v.lsn); x != nil && !x.del && v.latest(st, c.key, x.val, &o) && !fn(&o) {
			return
		}
	}
}

// latest fills o with the newest version of chain bv, held by st, and
// reports whether that version exists at the view.
func (v *View) latest(st *store, bv BlockView, chain []int, o *OID) bool {
	k := Key{Block: bv.Block, View: bv.View, Version: chain[len(chain)-1]}
	x, ok := st.oids.at(k, v.lsn)
	*o = OID{Key: k, Seq: x.seq, Props: x.props}
	return ok
}

// EachLink invokes fn for every link, in unspecified order, until fn
// returns false.  Link objects are immutable and may be retained.
func (v *View) EachLink(fn func(*Link) bool) {
	v.store().links.each(v.lsn, func(_ LinkID, l *Link) bool { return fn(l) })
}

// eachChain invokes fn for every version chain with its ascending version
// list (immutable; must not be mutated).
func (v *View) eachChain(fn func(bv BlockView, chain []int) bool) {
	v.store().chains.each(v.lsn, fn)
}

// eachConfiguration / eachWorkspace hand out the immutable stored versions.
func (v *View) eachConfiguration(fn func(*Configuration)) {
	v.store().configs.each(v.lsn, func(_ string, c *Configuration) bool { fn(c); return true })
}

func (v *View) eachWorkspace(fn func(*Workspace)) {
	v.store().workspaces.each(v.lsn, func(_ string, w *Workspace) bool { fn(w); return true })
}

// Keys returns every OID key, sorted by block, view, version.
func (v *View) Keys() []Key {
	keys := []Key{}
	v.EachOID(func(o *OID) bool {
		keys = append(keys, o.Key)
		return true
	})
	sortKeys(keys)
	return keys
}

// BlockViews returns every version chain identity, sorted.
func (v *View) BlockViews() []BlockView {
	var bvs []BlockView
	for _, c := range v.store().inOrder() {
		if x := c.at(v.lsn); x != nil && !x.del {
			bvs = append(bvs, c.key)
		}
	}
	return bvs
}

// LinkIDs returns every link ID in ascending order.
func (v *View) LinkIDs() []LinkID {
	var ids []LinkID
	v.EachLink(func(l *Link) bool {
		ids = append(ids, l.ID)
		return true
	})
	slices.Sort(ids)
	return ids
}

// ConfigurationNames lists stored configurations in sorted order.
func (v *View) ConfigurationNames() []string {
	names := []string{}
	v.eachConfiguration(func(c *Configuration) { names = append(names, c.Name) })
	sort.Strings(names)
	return names
}

// WorkspaceNames lists registered workspaces in sorted order.
func (v *View) WorkspaceNames() []string {
	names := []string{}
	v.eachWorkspace(func(w *Workspace) { names = append(names, w.Name) })
	sort.Strings(names)
	return names
}

// Stats summarizes database size.
type Stats struct {
	OIDs           int
	Links          int
	Chains         int
	Configurations int
	Workspaces     int
}

// Stats returns the object counts.
func (v *View) Stats() Stats {
	var s Stats
	v.EachOID(func(*OID) bool { s.OIDs++; return true })
	v.EachLink(func(*Link) bool { s.Links++; return true })
	v.eachChain(func(BlockView, []int) bool { s.Chains++; return true })
	v.eachConfiguration(func(*Configuration) { s.Configurations++ })
	v.eachWorkspace(func(*Workspace) { s.Workspaces++ })
	return s
}

func sortKeys(keys []Key) { slices.SortFunc(keys, Key.Compare) }
