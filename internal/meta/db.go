package meta

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// DB is the DAMOCLES meta-database: an in-memory, concurrency-safe store of
// OIDs, Links, Configurations and workspace bindings.  A DB models one
// project; the paper's project server owns exactly one.
//
// # One store
//
// The database is its version histories (mvcc.go): every object is a
// lock-free history of immutable, LSN-stamped versions, and what it is now
// is its history's head.  A mutation reads the heads of what it changes
// under the locks below, builds the next immutable values, and pushes them
// under its stamp; nothing is ever changed in place.
//
// # Sharding and locking
//
// The writers are lock-striped so concurrent drains stop serializing on
// one mutex.  OIDs, version chains and the adjacency postings are
// partitioned into shards keyed by the hash of the block name — every
// view, version and posting of a block lives on one shard, so the
// single-OID mutators (SetProp, UpdateOID, DelProp, NewVersion) take
// exactly one shard lock.  Link objects live in separate stripes keyed by
// LinkID and are immutable (mutators publish a replacement object, to the
// link table and to both ends' postings).  Configurations and workspaces
// sit on a small control-plane lock; the logical clock and link-ID counter
// are atomics.  NewDBWithShards picks the stripe count — a pure
// performance knob that never changes results.
//
// Multi-shard operations follow one deterministic lock order — control
// plane, then key shards in ascending index, then link stripes in
// ascending index — so cross-shard link mutations cannot deadlock.
// Operations that discover their shard set from a link's endpoints
// (DeleteLink, RetargetLink, the annotation setters) read the link
// optimistically, lock in canonical order, then re-validate object
// identity and retry if it was replaced underneath them.
//
// All mutation goes through DB methods and every read through a View
// (view.go), which takes no lock: Head for point reads, a pinned view
// (ReadView, ReadViewAt) for what reads more than one object — Save, the
// Snapshot* configuration builders, the state scans, the enumerations and
// the graph walks (graphview.go).
type DB struct {
	shards []*dbShard
	mask   uint32

	stripes []sync.Mutex // the link table's writers, by LinkID
	lmask   uint32

	seq      atomic.Int64
	nextLink atomic.Int64

	// appliedLSN is the journal position of the newest record applied via
	// ApplyRecord — on a replication follower, the read-your-LSN horizon a
	// client can wait on before querying.  Zero on a database that has
	// never replayed records.
	appliedLSN atomic.Int64

	// terms is the election-term table (term.go): one TermStart per
	// promotion this database's history has lived through, copy-on-write
	// behind the pointer so handshake validation and Save read it without
	// locks.  nil means the genesis term 1.
	terms atomic.Pointer[termTable]

	// ctl serializes the control plane's writers: configurations and
	// workspaces.
	ctl sync.Mutex

	// rec, when non-nil, receives one Record per committed mutation — the
	// change-capture stream behind the append-only journal.  Emission
	// happens under the locks that serialize the mutation; see record.go.
	rec Recorder

	// MVCC state (mvcc.go): the epoch gate that stamps mutations and pins
	// views.  store is every container; head is the view Head returns;
	// replayAt carries the record LSN being replayed so ApplyRecord's
	// inner mutations stamp with the original numbering.
	mvcc      mvccState
	store     atomic.Pointer[store]
	head      View
	replayAt  atomic.Int64
	replaySeq atomic.Int64

	// attrs keeps one copy of each link attribute set (link.go).
	attrs attrTable

	// in copies out the strings ApplyRecord keeps, and LoadCheckpoint's;
	// both are serialized, and only they use it.
	in interner
}

// dbShard is one stripe of the OIDs, chains and adjacency postings: every
// key of the same-index shardHist hashes to it, and mu serializes their
// writers.
type dbShard struct {
	mu sync.Mutex

	// upd is the OID UpdateOID hands its callback, reused under mu: an
	// argument to an unknown function would otherwise be one heap object
	// per delivery.
	upd OID
}

// DefaultShards is the shard count of NewDB: enough stripes to spread
// concurrent connections' mutations without bloating small databases.
const DefaultShards = 16

// NewDB returns an empty meta-database with DefaultShards shards.
func NewDB() *DB { return NewDBWithShards(DefaultShards) }

// NewDBWithShards returns an empty meta-database striped over n shards
// (rounded up to a power of two, minimum 1).  Shard count is a pure
// performance knob: every query and report returns identical results for
// any n.
func NewDBWithShards(n int) *DB {
	if n < 1 {
		n = 1
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	db := &DB{
		shards:  make([]*dbShard, pow),
		mask:    uint32(pow - 1),
		stripes: make([]sync.Mutex, pow),
		lmask:   uint32(pow - 1),
	}
	for i := range db.shards {
		db.shards[i] = &dbShard{}
	}
	// The header history fills some reclaimEvery entries between two reclaim
	// passes; reserving them once spares the doublings that would get there.
	db.mvcc.meta = make([]metaVer, 0, reclaimEvery)
	db.store.Store(newStore(pow, pow))
	db.head.db, db.head.lsn = db, newest
	db.head.closed.Store(true)
	return db
}

// fnv1a is the FNV-1a hash.  Sharding is by the hash of the block name
// alone: every view and version of a block — and therefore every version
// chain of it, and every rule-posted event between its views — lands on one
// shard.  That keeps the hash off the hot path short and makes a wave's
// intra-block work single-shard.
func fnv1a[S string | []byte](s S) uint32 {
	const prime32 = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * prime32
	}
	return h
}

func (db *DB) shardIndex(block string) uint32 { return fnv1a(block) & db.mask }
func (db *DB) shardOf(k Key) *dbShard         { return db.shards[db.shardIndex(k.Block)] }
func (db *DB) stripeOf(id LinkID) *sync.Mutex { return &db.stripes[uint32(id)&db.lmask] }

// lockShard write-locks block's shard and returns it with its histories.
func (db *DB) lockShard(block string) (*dbShard, *shardHist) {
	i := db.shardIndex(block)
	sh := db.shards[i]
	sh.mu.Lock()
	return sh, db.store.Load().shards[i]
}

// lockPair write-locks the shards of two keys in ascending index order
// (once when they coincide) and returns them.  unlockPair releases in
// reverse.
func (db *DB) lockPair(a, b Key) (sa, sb *dbShard) {
	ia, ib := db.shardIndex(a.Block), db.shardIndex(b.Block)
	sa, sb = db.shards[ia], db.shards[ib]
	switch {
	case ia == ib:
		sa.mu.Lock()
	case ia < ib:
		sa.mu.Lock()
		sb.mu.Lock()
	default:
		sb.mu.Lock()
		sa.mu.Lock()
	}
	return sa, sb
}

func unlockPair(sa, sb *dbShard) {
	sa.mu.Unlock()
	if sb != sa {
		sb.mu.Unlock()
	}
}

// lockAll / unlockAll write-lock every shard then every stripe, in
// ascending index order — the whole-database critical section behind
// pruning and loading.
func (db *DB) lockAll() {
	for _, s := range db.shards {
		s.mu.Lock()
	}
	for i := range db.stripes {
		db.stripes[i].Lock()
	}
}

func (db *DB) unlockAll() {
	for i := len(db.stripes) - 1; i >= 0; i-- {
		db.stripes[i].Unlock()
	}
	for i := len(db.shards) - 1; i >= 0; i-- {
		db.shards[i].mu.Unlock()
	}
}

// tick advances and returns the logical clock.
func (db *DB) tick() int64 { return db.seq.Add(1) }

// Seq returns the current logical time: the Seq of the most recently created
// object.
func (db *DB) Seq() int64 { return db.seq.Load() }

// ---------------------------------------------------------------------------
// OIDs and version chains

// NewVersion creates the next version of (block, view) and returns its key.
// The first version of a chain is 1.  Properties start empty; the run-time
// engine applies BluePrint template rules on top.  It only allocates the
// version and the seq — a refused name allocates neither — and installs
// through insertOIDLocked like a replayed record does.
func (db *DB) NewVersion(block, view string) (Key, error) {
	if err := ValidateName(block); err != nil {
		return Key{}, fmt.Errorf("block: %w", err)
	}
	if err := ValidateName(view); err != nil {
		return Key{}, fmt.Errorf("view: %w", err)
	}
	sh, h := db.lockShard(block)
	defer sh.mu.Unlock()
	k := Key{Block: block, View: view, Version: 1}
	if chain, ok := h.chains.at(k.BV(), newest); ok {
		k.Version = chain[len(chain)-1] + 1
	}
	if err := db.insertOIDLocked(h, k, db.tick()); err != nil {
		return Key{}, err
	}
	return k, nil
}

// PruneVersions removes all but the newest keep versions of (block, view)
// from the database, along with every link incident to the removed OIDs —
// the archival purge a long-running project performs on validated history
// (cf. Silva et al., "Protection and Versioning for OCT", DAC 1989, which
// the paper cites).  Version numbering is preserved: the chain keeps
// counting from its highest version.  It returns the number of OIDs
// removed.  keep must be at least 1.
//
// Pruning locks the whole database (incident links may land on any shard).
func (db *DB) PruneVersions(block, view string, keep int) (int, error) {
	if keep < 1 {
		return 0, fmt.Errorf("prune %s.%s: keep %d: %w", block, view, keep, ErrBadVersion)
	}
	db.lockAll()
	defer db.unlockAll()
	h := db.head.shard(block)
	bv := BlockView{Block: block, View: view}
	chain, ok := h.chains.at(bv, newest)
	if !ok {
		return 0, fmt.Errorf("prune %s.%s: %w", block, view, ErrNotFound)
	}
	if len(chain) <= keep {
		return 0, nil
	}
	drop := chain[:len(chain)-keep]
	// The links incident to a dropped OID go with it, out of the link table
	// and out of both ends' postings — a dropped OID's own postings hold
	// nothing else, so they empty themselves.
	gone := make(map[LinkID]bool)
	next := make(map[Key]posting) // the postings that change
	strike := func(out bool, end Key, id LinkID) {
		p, seen := next[end]
		if !seen {
			p = db.head.shard(end.Block).links(end, newest)
		}
		*p.side(out) = without(*p.side(out), id)
		next[end] = p
	}
	for _, v := range drop {
		p := h.links(Key{Block: block, View: view, Version: v}, newest)
		for _, l := range slices.Concat(p.out, p.in) {
			if !gone[l.ID] {
				gone[l.ID] = true
				strike(true, l.From, l.ID)
				strike(false, l.To, l.ID)
			}
		}
	}
	s := db.beginMut(OpPrune, 0, func() []string {
		return []string{block, view, strconv.Itoa(keep)}
	})
	for _, v := range drop {
		h.oids.push(Key{Block: block, View: view, Version: v}, s, oidVal{}, true)
	}
	for id := range gone {
		db.head.stripe(id).links.push(id, s, nil, true)
	}
	for k, p := range next {
		db.head.shard(k.Block).put(k, s, p)
	}
	h.chains.push(bv, s, slices.Clone(chain[len(chain)-keep:]), false)
	db.endMut(s)
	return len(drop), nil
}

// SetProp sets a property on an OID.  Setting the value it already has
// changes nothing and emits nothing.
func (db *DB) SetProp(k Key, name, value string) error {
	if err := ValidateName(name); err != nil {
		return fmt.Errorf("property: %w", err)
	}
	sh, h := db.lockShard(k.Block)
	defer sh.mu.Unlock()
	x, err := h.oid(k, newest)
	if err != nil {
		return err
	}
	if old, had := x.props[name]; had && old == value {
		return nil
	}
	props := make(map[string]string, len(x.props)+1)
	maps.Copy(props, x.props)
	props[name] = value
	s := db.beginMut(OpUpdate, 0, func() []string {
		return []string{k.String(), "1", name, value}
	})
	h.oids.push(k, s, oidVal{seq: x.seq, props: props}, false)
	db.endMut(s)
	return nil
}

// UpdateOID runs fn on the OID under the owning shard's write lock.  It is
// the batched read-modify-write path of the run-time engine: one
// delivery's property assignments and continuous re-evaluations read and
// write Props in a single lock round-trip instead of one GetProp/SetProp
// pair each — and, under sharding, deliveries to OIDs on different shards
// update concurrently.  fn may read and mutate o.Props directly but must
// not retain o or the map and must not call DB mutators (which would
// deadlock).  Property names written by fn must satisfy ValidateName; the
// caller validates because fn has no error channel.
//
// fn works on the shard's scratch OID, filled from the newest version's
// property map; the map is diffed against that version after fn, and the
// net change journaled and published — one copy of the scratch map — as one
// update.  An fn that changes nothing emits nothing and allocates nothing.
func (db *DB) UpdateOID(k Key, fn func(o *OID)) error {
	sh, h := db.lockShard(k.Block)
	defer sh.mu.Unlock()
	x, err := h.oid(k, newest)
	if err != nil {
		return err
	}
	o, before := &sh.upd, x.props
	if o.Props == nil {
		o.Props = make(map[string]string)
	}
	clear(o.Props)
	maps.Copy(o.Props, before)
	o.Key, o.Seq = k, x.seq
	fn(o)
	o.Key = Key{} // k may be a replayed record's bytes, which are not ours to keep
	// As many entries as before, each as before, is the same map.  Only a
	// recorder wants the diff spelled out; without one — a replay, an
	// unjournaled database — it is enough to know there is one.
	recording, changed := db.rec != nil, len(o.Props) != len(before)
	var sets map[string]string
	if recording || !changed {
		for n, v := range o.Props {
			if ov, had := before[n]; !had || ov != v {
				if changed = true; !recording {
					break
				}
				if sets == nil {
					sets = make(map[string]string)
				}
				sets[n] = v
			}
		}
	}
	if !changed {
		return nil
	}
	var dels []string
	if recording {
		for n := range before {
			if _, still := o.Props[n]; !still {
				dels = append(dels, n)
			}
		}
	}
	// The version's map is made at its own size, not cloned at the size
	// the scratch map has grown to; nil when empty (nil map reads are free).
	var props map[string]string
	if len(o.Props) > 0 {
		props = make(map[string]string, len(o.Props))
		maps.Copy(props, o.Props)
	}
	s := db.beginMut(OpUpdate, 0, func() []string {
		return propArgs([]string{k.String()}, sets, dels)
	})
	h.oids.push(k, s, oidVal{seq: x.seq, props: props}, false)
	db.endMut(s)
	return nil
}

// DelProp removes a property from an OID.  Removing an absent property is a
// no-op.
func (db *DB) DelProp(k Key, name string) error {
	sh, h := db.lockShard(k.Block)
	defer sh.mu.Unlock()
	x, err := h.oid(k, newest)
	if err != nil {
		return err
	}
	if _, had := x.props[name]; !had {
		return nil
	}
	var props map[string]string
	if len(x.props) > 1 {
		props = maps.Clone(x.props)
		delete(props, name)
	}
	s := db.beginMut(OpUpdate, 0, func() []string {
		return []string{k.String(), "0", name}
	})
	h.oids.push(k, s, oidVal{seq: x.seq, props: props}, false)
	db.endMut(s)
	return nil
}

// ---------------------------------------------------------------------------
// Links

// AddLink inserts a link between two existing OIDs and returns its ID.
// Class-specific invariants are checked (a use link must not cross view
// types).  propagates may be nil, in any order and repeated; template and
// props may be empty.  Neither list nor map is kept: the link shares the one
// copy of its attributes the database holds (attrTable).  It only allocates
// the ID and the seq — after lockLinkEnds' checks, so a refused link
// allocates neither — and installs like a replayed record does.
func (db *DB) AddLink(class LinkClass, from, to Key, template string, propagates []string, props map[string]string) (LinkID, error) {
	l := &Link{Class: class, From: from, To: to, Template: template}
	l.Propagates, l.Props = db.attrs.intern(propagates, nil, props)
	sf, st, err := db.lockLinkEnds(l)
	if err != nil {
		return 0, err
	}
	defer unlockPair(sf, st)
	l.ID = LinkID(db.nextLink.Add(1))
	l.Seq = db.tick()
	if err := db.installLinkLocked(l); err != nil {
		return 0, err
	}
	return l.ID, nil
}

// snapshotLink reads the current (immutable) link object, nil when there
// is none.  DeleteLink and the link mutators read it optimistically to
// discover which shards to lock, then re-read it under the stripe lock to
// verify the object is still current.
func (db *DB) snapshotLink(id LinkID) *Link {
	l, _ := db.head.stripe(id).links.at(id, newest)
	return l
}

// DeleteLink removes a link.
func (db *DB) DeleteLink(id LinkID) error {
	for {
		l := db.snapshotLink(id)
		if l == nil {
			return fmt.Errorf("link %d: %w", id, ErrNotFound)
		}
		sf, st := db.lockPair(l.From, l.To)
		stripe := db.stripeOf(id)
		stripe.Lock()
		if db.snapshotLink(id) != l {
			// The link vanished or was replaced between the optimistic read
			// and the locks; retry against the new object.
			stripe.Unlock()
			unlockPair(sf, st)
			continue
		}
		fh, th := db.head.shard(l.From.Block), db.head.shard(l.To.Block)
		s := db.beginMut(OpDelLink, 0, func() []string {
			return []string{strconv.FormatInt(int64(id), 10)}
		})
		db.head.stripe(id).links.push(id, s, nil, true)
		fh.post(true, l.From, s, without(fh.links(l.From, newest).out, id))
		th.post(false, l.To, s, without(th.links(l.To, newest).in, id))
		db.endMut(s)
		stripe.Unlock()
		unlockPair(sf, st)
		return nil
	}
}

// RetargetLink moves one endpoint of a link from oldEnd to newEnd.  It
// implements the link "shifting" of Figure 3: when a new version of an OID
// is created, move-mode links are shifted from the previous version to the
// new one.  oldEnd must currently be an endpoint of the link.
func (db *DB) RetargetLink(id LinkID, oldEnd, newEnd Key) error {
	for {
		l := db.snapshotLink(id)
		if l == nil {
			return fmt.Errorf("link %d: %w", id, ErrNotFound)
		}
		from, to := l.From, l.To
		if oldEnd != from && oldEnd != to {
			return fmt.Errorf("link %d: %v is not an endpoint: %w", id, oldEnd, ErrBadLink)
		}
		// Build and validate the replacement object before taking locks;
		// links are immutable once published, so shifting installs a copy
		// (which keeps sharing the attributes: they do not change).
		moved := l.copy()
		kept, out := to, oldEnd == from // the end that stays, and which end moves
		if out {
			moved.From = newEnd
		} else {
			moved.To, kept = newEnd, from
		}
		if err := moved.validate(); err != nil {
			return err
		}
		// Lock the shards of every involved key in canonical order.
		locked := db.lockShardSet([]uint32{
			db.shardIndex(from.Block),
			db.shardIndex(to.Block),
			db.shardIndex(newEnd.Block),
		})
		stripe := db.stripeOf(id)
		stripe.Lock()
		if db.snapshotLink(id) != l {
			stripe.Unlock()
			db.unlockShardSet(locked)
			continue // replaced underneath us; retry
		}
		oh, nh, kh := db.head.shard(oldEnd.Block), db.head.shard(newEnd.Block), db.head.shard(kept.Block)
		if _, ok := nh.oids.at(newEnd, newest); !ok {
			stripe.Unlock()
			db.unlockShardSet(locked)
			return fmt.Errorf("retarget to %v: %w", newEnd, ErrNotFound)
		}
		s := db.beginMut(OpRetarget, 0, func() []string {
			return []string{strconv.FormatInt(int64(id), 10), oldEnd.String(), newEnd.String()}
		})
		db.head.stripe(id).links.push(id, s, moved, false)
		// Three postings change: the one the link left, the one it joined,
		// and the unmoved end's (its member is the replacement object now).
		oh.post(out, oldEnd, s, without(oh.links(oldEnd, newest).of(out), id))
		nh.post(out, newEnd, s, with(nh.links(newEnd, newest).of(out), moved))
		kh.post(!out, kept, s, replaced(kh.links(kept, newest).of(!out), moved))
		db.endMut(s)
		stripe.Unlock()
		db.unlockShardSet(locked)
		return nil
	}
}

// lockShardSet write-locks the distinct shards of the given indexes in
// ascending order and returns the sorted distinct index list for unlocking.
func (db *DB) lockShardSet(idx []uint32) []uint32 {
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	out := idx[:0]
	var last uint32
	for i, v := range idx {
		if i > 0 && v == last {
			continue
		}
		db.shards[v].mu.Lock()
		out = append(out, v)
		last = v
	}
	return out
}

func (db *DB) unlockShardSet(idx []uint32) {
	for i := len(idx) - 1; i >= 0; i-- {
		db.shards[idx[i]].mu.Unlock()
	}
}

// SetLinkProp sets an annotation property on a link.
func (db *DB) SetLinkProp(id LinkID, name, value string) error {
	return db.replaceLink(id, OpLinkUpdate, func(nl *Link) {
		nl.Props = cloneProps(nl.Props)
		nl.Props[name] = value
	}, func(*Link) []string {
		return []string{strconv.FormatInt(int64(id), 10), "1", name, value}
	})
}

// SetLinkPropagates replaces the PROPAGATE set of a link.
func (db *DB) SetLinkPropagates(id LinkID, events []string) error {
	return db.replaceLink(id, OpPropagates, func(nl *Link) {
		nl.Propagates = slices.Clone(events)
		slices.Sort(nl.Propagates)
		nl.Propagates = slices.Compact(nl.Propagates)
	}, func(nl *Link) []string {
		return append([]string{strconv.FormatInt(int64(id), 10)}, nl.Propagates...)
	})
}

// replaceLink publishes a mutated copy of a link: links are immutable once
// published, so annotation edits copy the object, apply mutate — which
// replaces what it changes, the attributes being shared — and push the copy
// to the link table and to both ends' postings under the endpoint shard
// locks.  Retries if the link is replaced concurrently.  args builds the
// arguments of the op record describing the installed object; it runs
// inside the critical section.
func (db *DB) replaceLink(id LinkID, op string, mutate func(nl *Link), args func(nl *Link) []string) error {
	for {
		l := db.snapshotLink(id)
		if l == nil {
			return fmt.Errorf("link %d: %w", id, ErrNotFound)
		}
		nl := l.copy()
		mutate(nl)
		sf, st := db.lockPair(l.From, l.To)
		stripe := db.stripeOf(id)
		stripe.Lock()
		if db.snapshotLink(id) != l {
			stripe.Unlock()
			unlockPair(sf, st)
			continue
		}
		fh, th := db.head.shard(l.From.Block), db.head.shard(l.To.Block)
		s := db.beginMut(op, 0, func() []string { return args(nl) })
		db.head.stripe(id).links.push(id, s, nl, false)
		fh.post(true, l.From, s, replaced(fh.links(l.From, newest).out, nl))
		th.post(false, l.To, s, replaced(th.links(l.To, newest).in, nl))
		db.endMut(s)
		stripe.Unlock()
		unlockPair(sf, st)
		return nil
	}
}
