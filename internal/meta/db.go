package meta

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// DB is the DAMOCLES meta-database: an in-memory, concurrency-safe store of
// OIDs, Links, Configurations and workspace bindings.  A DB models one
// project; the paper's project server owns exactly one.
//
// # Sharding and locking
//
// The hot maps are lock-striped so concurrent drains, queries and state
// reports stop serializing on one mutex.  OIDs, version chains and the
// adjacency indexes are partitioned into shards keyed by the hash of the
// block name — every view, version and adjacency list of a block lives on
// one shard, so the single-OID hot paths (HasOID, GetProp, UpdateOID,
// WithOID, Latest, Predecessor, EachLinkOf) take exactly one shard lock.
// Link objects live in separate stripes keyed by LinkID and are immutable
// once published (mutators install a replacement object), which is what
// lets link walks read them under the shard lock alone.  Configurations
// and workspaces sit on a small control-plane lock; the logical clock and
// link-ID counter are atomics.  NewDBWithShards picks the stripe count —
// a pure performance knob that never changes results.
//
// Multi-shard operations follow one deterministic lock order — control
// plane, then key shards in ascending index, then link stripes in
// ascending index — so cross-shard link walks (graph traversals,
// snapshots, pruning) cannot deadlock.  Operations that discover their
// shard set from a link's endpoints (DeleteLink, RetargetLink, the
// annotation setters) snapshot the link optimistically, lock in canonical
// order, then re-validate object identity and retry if it was replaced
// underneath them.
//
// All mutation goes through DB methods.  The single-object read accessors
// are the write path reading its own writes: they return deep copies (safe
// to retain) or, for WithOID and EachLinkOf, expose internal objects under
// the owning shard lock — those callbacks must not retain or mutate what
// they are handed and must not call DB methods (which would deadlock).
//
// Whole-database reads — Save, the Snapshot* configuration builders, the
// state scans, and the graph walks (Reachable, Dependents, Equivalents,
// Resolve; see graphview.go for the versioned reachability index behind
// them) — go through a View (mvcc.go): every database publishes
// LSN-stamped versions from construction, and a view pinned at one stamp
// reads them lock-free and never pauses writers.  PruneVersions
// write-locks everything.
type DB struct {
	shards []*dbShard
	mask   uint32

	stripes []*linkStripe
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

	// ctl guards the control plane: configurations and workspaces.
	ctl        sync.RWMutex
	configs    map[string]*Configuration
	workspaces map[string]*Workspace

	// rec, when non-nil, receives one Record per committed mutation — the
	// change-capture stream behind the append-only journal.  Emission
	// happens under the locks that serialize the mutation; see record.go.
	rec Recorder

	// MVCC state (mvcc.go): every mutation publishes immutable
	// LSN-stamped versions and readers pin lock-free point-in-time
	// views.  ctlH holds the control plane's histories;
	// replayAt carries the record LSN being replayed so ApplyRecord's
	// inner mutations stamp with the original numbering.
	mvcc      mvccState
	ctlH      atomic.Pointer[ctlHist]
	replayAt  atomic.Int64
	replaySeq atomic.Int64
}

// dbShard holds one stripe of the OID/chain/adjacency maps.  Every key in
// all four maps hashes to this shard.
type dbShard struct {
	mu       sync.RWMutex
	oids     map[Key]*OID
	chains   map[BlockView][]int
	outLinks map[Key][]linkRef
	inLinks  map[Key][]linkRef

	// hist is the shard's MVCC version store; the container is replaced
	// wholesale on RestoreFrom so pinned views survive a re-base.
	hist atomic.Pointer[shardHist]
}

// linkRef pairs a link ID with its current object in the adjacency lists,
// so link walks resolve links under the shard lock alone — no stripe
// round-trip per link on the propagation hot path.
//
// Link objects are immutable once published: every mutation (SetLinkProp,
// SetLinkPropagates, RetargetLink) installs a replacement object in the
// stripe map and in both endpoints' adjacency refs while holding the
// endpoint shard locks and the stripe lock.  Readers therefore never see a
// link change underneath them, only an older or newer complete object.
type linkRef struct {
	id LinkID
	l  *Link
}

// linkStripe holds one stripe of the link table, keyed by LinkID.
type linkStripe struct {
	mu    sync.RWMutex
	links map[LinkID]*Link

	hist atomic.Pointer[stripeHist]
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
		shards:     make([]*dbShard, pow),
		mask:       uint32(pow - 1),
		stripes:    make([]*linkStripe, pow),
		lmask:      uint32(pow - 1),
		configs:    make(map[string]*Configuration),
		workspaces: make(map[string]*Workspace),
	}
	for i := range db.shards {
		db.shards[i] = &dbShard{
			oids:     make(map[Key]*OID),
			chains:   make(map[BlockView][]int),
			outLinks: make(map[Key][]linkRef),
			inLinks:  make(map[Key][]linkRef),
		}
		db.shards[i].hist.Store(&shardHist{})
	}
	for i := range db.stripes {
		db.stripes[i] = &linkStripe{links: make(map[LinkID]*Link)}
		db.stripes[i].hist.Store(&stripeHist{})
	}
	db.ctlH.Store(&ctlHist{})
	return db
}

// blockHash is FNV-1a over the block name.  Sharding is by block alone:
// every view and version of a block — and therefore every version chain of
// it, and every rule-posted event between its views — lands on one shard.
// That keeps the hash off the hot path short and makes a wave's intra-block
// work single-shard.
func blockHash(block string) uint32 {
	const prime32 = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(block); i++ {
		h = (h ^ uint32(block[i])) * prime32
	}
	return h
}

func (db *DB) shardIndex(block string) uint32 { return blockHash(block) & db.mask }
func (db *DB) shardOf(k Key) *dbShard         { return db.shards[db.shardIndex(k.Block)] }
func (db *DB) stripeOf(id LinkID) *linkStripe { return db.stripes[uint32(id)&db.lmask] }

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
	for _, s := range db.stripes {
		s.mu.Lock()
	}
}

func (db *DB) unlockAll() {
	for i := len(db.stripes) - 1; i >= 0; i-- {
		db.stripes[i].mu.Unlock()
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
	sh := db.shards[db.shardIndex(block)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	k := Key{Block: block, View: view, Version: 1}
	if chain := sh.chains[k.BV()]; len(chain) > 0 {
		k.Version = chain[len(chain)-1] + 1
	}
	if err := db.insertOIDLocked(sh, k, db.tick()); err != nil {
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
	sh := db.shards[db.shardIndex(block)]
	bv := BlockView{Block: block, View: view}
	chain := sh.chains[bv]
	if len(chain) == 0 {
		return 0, fmt.Errorf("prune %s.%s: %w", block, view, ErrNotFound)
	}
	if len(chain) <= keep {
		return 0, nil
	}
	drop := chain[:len(chain)-keep]
	var removedLinks []LinkID
	outTouched := make(map[Key]bool)
	inTouched := make(map[Key]bool)
	for _, v := range drop {
		k := Key{Block: block, View: view, Version: v}
		// Remove incident links first.
		for _, r := range append(append([]linkRef(nil), sh.outLinks[k]...), sh.inLinks[k]...) {
			st := db.stripeOf(r.id)
			l, ok := st.links[r.id]
			if !ok {
				continue
			}
			delete(st.links, r.id)
			fs, ts := db.shardOf(l.From), db.shardOf(l.To)
			fs.outLinks[l.From] = removeRef(fs.outLinks[l.From], r.id)
			ts.inLinks[l.To] = removeRef(ts.inLinks[l.To], r.id)
			outTouched[l.From] = true
			inTouched[l.To] = true
			removedLinks = append(removedLinks, r.id)
		}
		delete(sh.outLinks, k)
		delete(sh.inLinks, k)
		delete(sh.oids, k)
		outTouched[k] = true
		inTouched[k] = true
	}
	sh.chains[bv] = append([]int(nil), chain[len(chain)-keep:]...)
	s := db.beginMut(OpPrune, 0, func() []string {
		return []string{block, view, strconv.Itoa(keep)}
	})
	for _, v := range drop {
		db.histOIDPush(sh, Key{Block: block, View: view, Version: v}, s, nil, true)
	}
	for _, id := range removedLinks {
		db.histLinkPushLocked(id, s, nil)
	}
	for k := range outTouched {
		db.histAdjPush(db.shardOf(k), k, s, true)
	}
	for k := range inTouched {
		db.histAdjPush(db.shardOf(k), k, s, false)
	}
	db.histChainPush(sh, bv, s)
	db.endMut(s)
	return len(drop), nil
}

// HasOID reports whether the OID exists.
func (db *DB) HasOID(k Key) bool {
	sh := db.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.oids[k]
	return ok
}

// GetOID returns a deep copy of the OID.
func (db *DB) GetOID(k Key) (*OID, error) {
	sh := db.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	o, ok := sh.oids[k]
	if !ok {
		return nil, fmt.Errorf("oid %v: %w", k, ErrNotFound)
	}
	return o.clone(), nil
}

// Latest returns the key of the newest version of (block, view).
func (db *DB) Latest(block, view string) (Key, error) {
	sh := db.shards[db.shardIndex(block)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chain := sh.chains[BlockView{Block: block, View: view}]
	if len(chain) == 0 {
		return Key{}, fmt.Errorf("no versions of %q.%q: %w", block, view, ErrNotFound)
	}
	return Key{Block: block, View: view, Version: chain[len(chain)-1]}, nil
}

// Versions returns the version numbers of (block, view) in ascending order.
func (db *DB) Versions(block, view string) []int {
	sh := db.shards[db.shardIndex(block)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chain := sh.chains[BlockView{Block: block, View: view}]
	out := make([]int, len(chain))
	copy(out, chain)
	return out
}

// Predecessor returns the key of the version immediately preceding k in its
// chain, or ok=false if k is the first version.  Chains are ascending, so
// the position is found by binary search.
func (db *DB) Predecessor(k Key) (Key, bool) {
	sh := db.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chain := sh.chains[k.BV()]
	i := sort.SearchInts(chain, k.Version)
	if i >= len(chain) || chain[i] != k.Version || i == 0 {
		return Key{}, false
	}
	return Key{Block: k.Block, View: k.View, Version: chain[i-1]}, true
}

// SetProp sets a property on an OID.
func (db *DB) SetProp(k Key, name, value string) error {
	if err := ValidateName(name); err != nil {
		return fmt.Errorf("property: %w", err)
	}
	sh := db.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.oids[k]
	if !ok {
		return fmt.Errorf("oid %v: %w", k, ErrNotFound)
	}
	o.own()
	o.Props[name] = value
	s := db.beginMut(OpUpdate, 0, func() []string {
		return []string{k.String(), "1", name, value}
	})
	db.histOIDPush(sh, k, s, o, false)
	db.endMut(s)
	return nil
}

// WithOID runs fn on the live OID under the owning shard's read lock — a
// batched read path for callers that need several properties at once
// without paying for a deep copy (GetOID) or one lock round-trip per
// GetProp.  fn must not retain or mutate the OID and must not call other DB
// methods.
func (db *DB) WithOID(k Key, fn func(o *OID)) error {
	sh := db.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	o, ok := sh.oids[k]
	if !ok {
		return fmt.Errorf("oid %v: %w", k, ErrNotFound)
	}
	fn(o)
	return nil
}

// UpdateOID runs fn on the live OID under the owning shard's write lock.
// It is the batched read-modify-write path of the run-time engine: one
// delivery's property assignments and continuous re-evaluations read and
// write Props in a single lock round-trip instead of one GetProp/SetProp
// pair each — and, under sharding, deliveries to OIDs on different shards
// update concurrently.  fn may read and mutate o.Props directly but must
// not retain o or the map and must not call other DB methods (which would
// deadlock).  Property names written by fn must satisfy ValidateName; the
// caller validates because fn has no error channel.
//
// The property map is diffed around fn and the net change journaled and
// versioned as one update; an fn that changes nothing emits nothing.  The
// diff runs against the newest published version's map — which always
// mirrors the live map — so no pre-copy is needed.
func (db *DB) UpdateOID(k Key, fn func(o *OID)) error {
	sh := db.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.oids[k]
	if !ok {
		return fmt.Errorf("oid %v: %w", k, ErrNotFound)
	}
	before := db.histOIDPrev(sh, k)
	o.own()
	fn(o)
	// Only a recorder wants the diff spelled out; without one — a replay,
	// an unjournaled database — it is enough to know there is one.
	recording, changed := db.rec != nil, false
	var sets map[string]string
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
	var dels []string
	if recording || !changed {
		for n := range before {
			if _, still := o.Props[n]; !still {
				if changed = true; !recording {
					break
				}
				dels = append(dels, n)
			}
		}
	}
	if !changed {
		return nil
	}
	s := db.beginMut(OpUpdate, 0, func() []string {
		return propArgs([]string{k.String()}, sets, dels)
	})
	db.histOIDPush(sh, k, s, o, false)
	db.endMut(s)
	return nil
}

// GetProp returns a property value of an OID.  Missing properties return
// ("", false, nil); a missing OID is an error.
func (db *DB) GetProp(k Key, name string) (string, bool, error) {
	sh := db.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	o, ok := sh.oids[k]
	if !ok {
		return "", false, fmt.Errorf("oid %v: %w", k, ErrNotFound)
	}
	v, ok := o.Props[name]
	return v, ok, nil
}

// DelProp removes a property from an OID.  Removing an absent property is a
// no-op.
func (db *DB) DelProp(k Key, name string) error {
	sh := db.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.oids[k]
	if !ok {
		return fmt.Errorf("oid %v: %w", k, ErrNotFound)
	}
	if _, had := o.Props[name]; had {
		o.own()
		delete(o.Props, name)
		s := db.beginMut(OpUpdate, 0, func() []string {
			return []string{k.String(), "0", name}
		})
		db.histOIDPush(sh, k, s, o, false)
		db.endMut(s)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Links

// AddLink inserts a link between two existing OIDs and returns its ID.
// Class-specific invariants are checked (a use link must not cross view
// types).  propagates may be nil; template and props may be empty.  It only
// allocates the ID and the seq — after lockLinkEnds' checks, so a refused
// link allocates neither — and installs like a replayed record does.
func (db *DB) AddLink(class LinkClass, from, to Key, template string, propagates []string, props map[string]string) (LinkID, error) {
	l := &Link{
		Class:      class,
		From:       from,
		To:         to,
		Template:   template,
		Props:      make(map[string]string, len(props)),
		Propagates: make(map[string]bool, len(propagates)),
	}
	for k, v := range props {
		l.Props[k] = v
	}
	for _, e := range propagates {
		l.Propagates[e] = true
	}
	sf, st, err := db.lockLinkEnds(l)
	if err != nil {
		return 0, err
	}
	defer unlockPair(sf, st)
	l.ID = LinkID(db.nextLink.Add(1))
	l.Seq = db.tick()
	if err := db.installLinkLocked(sf, st, l); err != nil {
		return 0, err
	}
	return l.ID, nil
}

// GetLink returns a deep copy of the link.
func (db *DB) GetLink(id LinkID) (*Link, error) {
	st := db.stripeOf(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	l, ok := st.links[id]
	if !ok {
		return nil, fmt.Errorf("link %d: %w", id, ErrNotFound)
	}
	return l.clone(), nil
}

// snapshotLink reads the current (immutable) link object optimistically,
// under the stripe read lock only.  DeleteLink and the mutators use it to
// discover which shards to lock, then verify the object is still current
// (pointer identity) once the locks are held.
func (db *DB) snapshotLink(id LinkID) *Link {
	st := db.stripeOf(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.links[id]
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
		stripe.mu.Lock()
		if stripe.links[id] != l {
			// The link vanished or was replaced between the optimistic read
			// and the locks; retry against the new object.
			stripe.mu.Unlock()
			unlockPair(sf, st)
			continue
		}
		delete(stripe.links, id)
		sf.outLinks[l.From] = removeRef(sf.outLinks[l.From], id)
		st.inLinks[l.To] = removeRef(st.inLinks[l.To], id)
		s := db.beginMut(OpDelLink, 0, func() []string {
			return []string{strconv.FormatInt(int64(id), 10)}
		})
		db.histLinkPushLocked(id, s, nil)
		db.histAdjPush(sf, l.From, s, true)
		db.histAdjPush(st, l.To, s, false)
		db.endMut(s)
		stripe.mu.Unlock()
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
		// links are immutable once published, so shifting installs a copy.
		moved := l.clone()
		if oldEnd == from {
			moved.From = newEnd
		} else {
			moved.To = newEnd
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
		stripe.mu.Lock()
		if stripe.links[id] != l {
			stripe.mu.Unlock()
			db.unlockShardSet(locked)
			continue // replaced underneath us; retry
		}
		ns := db.shardOf(newEnd)
		if _, ok := ns.oids[newEnd]; !ok {
			stripe.mu.Unlock()
			db.unlockShardSet(locked)
			return fmt.Errorf("retarget to %v: %w", newEnd, ErrNotFound)
		}
		stripe.links[id] = moved
		os := db.shardOf(oldEnd)
		if oldEnd == from {
			os.outLinks[oldEnd] = removeRef(os.outLinks[oldEnd], id)
			ns.outLinks[newEnd] = append(ns.outLinks[newEnd], linkRef{id: id, l: moved})
			replaceRef(db.shardOf(to).inLinks[to], id, moved)
		} else {
			os.inLinks[oldEnd] = removeRef(os.inLinks[oldEnd], id)
			ns.inLinks[newEnd] = append(ns.inLinks[newEnd], linkRef{id: id, l: moved})
			replaceRef(db.shardOf(from).outLinks[from], id, moved)
		}
		s := db.beginMut(OpRetarget, 0, func() []string {
			return []string{strconv.FormatInt(int64(id), 10), oldEnd.String(), newEnd.String()}
		})
		db.histLinkPushLocked(id, s, moved)
		// Three postings change: the list the link left, the list it
		// joined, and the unmoved end's list (its refs now carry the
		// replacement object).
		if oldEnd == from {
			db.histAdjPush(os, oldEnd, s, true)
			db.histAdjPush(ns, newEnd, s, true)
			db.histAdjPush(db.shardOf(to), to, s, false)
		} else {
			db.histAdjPush(os, oldEnd, s, false)
			db.histAdjPush(ns, newEnd, s, false)
			db.histAdjPush(db.shardOf(from), from, s, true)
		}
		db.endMut(s)
		stripe.mu.Unlock()
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
		nl.Props[name] = value
	}, func(*Link) []string {
		return []string{strconv.FormatInt(int64(id), 10), "1", name, value}
	})
}

// SetLinkPropagates replaces the PROPAGATE set of a link.
func (db *DB) SetLinkPropagates(id LinkID, events []string) error {
	return db.replaceLink(id, OpPropagates, func(nl *Link) {
		nl.Propagates = make(map[string]bool, len(events))
		for _, e := range events {
			nl.Propagates[e] = true
		}
	}, func(nl *Link) []string {
		return append([]string{strconv.FormatInt(int64(id), 10)}, nl.PropagateList()...)
	})
}

// replaceLink installs a mutated copy of a link: links are immutable once
// published, so in-place annotation edits clone the object, apply mutate,
// and swap the clone into the stripe map and both adjacency refs under the
// endpoint shard locks.  Retries if the link is replaced concurrently.
// args builds the arguments of the op record describing the installed
// object; it runs inside the critical section.
func (db *DB) replaceLink(id LinkID, op string, mutate func(nl *Link), args func(nl *Link) []string) error {
	for {
		l := db.snapshotLink(id)
		if l == nil {
			return fmt.Errorf("link %d: %w", id, ErrNotFound)
		}
		nl := l.clone()
		mutate(nl)
		sf, st := db.lockPair(l.From, l.To)
		stripe := db.stripeOf(id)
		stripe.mu.Lock()
		if stripe.links[id] != l {
			stripe.mu.Unlock()
			unlockPair(sf, st)
			continue
		}
		stripe.links[id] = nl
		replaceRef(sf.outLinks[l.From], id, nl)
		replaceRef(st.inLinks[l.To], id, nl)
		s := db.beginMut(op, 0, func() []string { return args(nl) })
		db.histLinkPushLocked(id, s, nl)
		db.histAdjPush(sf, l.From, s, true)
		db.histAdjPush(st, l.To, s, false)
		db.endMut(s)
		stripe.mu.Unlock()
		unlockPair(sf, st)
		return nil
	}
}

// LinksFrom returns copies of all links whose From endpoint is k.
func (db *DB) LinksFrom(k Key) []*Link {
	sh := db.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return cloneLinks(nil, sh.outLinks[k])
}

// LinksTo returns copies of all links whose To endpoint is k.
func (db *DB) LinksTo(k Key) []*Link {
	sh := db.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return cloneLinks(nil, sh.inLinks[k])
}

// LinksOf returns copies of all links incident to k, in either direction.
func (db *DB) LinksOf(k Key) []*Link {
	sh := db.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := cloneLinks(nil, sh.outLinks[k])
	return cloneLinks(out, sh.inLinks[k])
}

// cloneLinks appends deep copies of the referenced links to dst.  Callers
// hold the adjacency owner's shard lock; the refs carry the immutable link
// objects, so no stripe locks are needed.
func cloneLinks(dst []*Link, refs []linkRef) []*Link {
	if len(refs) == 0 {
		return dst
	}
	if dst == nil {
		dst = make([]*Link, 0, len(refs))
	}
	for _, r := range refs {
		dst = append(dst, r.l.clone())
	}
	return dst
}

// EachLinkOf invokes fn for every link incident to k, outgoing first, under
// the owning shard's read lock.  fn must not retain or mutate the link and
// must not call other DB methods.  Returning false stops the iteration.
func (db *DB) EachLinkOf(k Key, fn func(*Link) bool) {
	sh := db.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, r := range sh.outLinks[k] {
		if !fn(r.l) {
			return
		}
	}
	for _, r := range sh.inLinks[k] {
		if !fn(r.l) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Enumeration and statistics

// Keys returns every OID key, sorted by block, view, version.
func (db *DB) Keys() []Key {
	keys := make([]Key, 0, db.countOIDs())
	for _, sh := range db.shards {
		sh.mu.RLock()
		for k := range sh.oids {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	sortKeys(keys)
	return keys
}

func (db *DB) countOIDs() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		n += len(sh.oids)
		sh.mu.RUnlock()
	}
	return n
}

// BlockViews returns every version chain identity, sorted.
func (db *DB) BlockViews() []BlockView {
	var bvs []BlockView
	for _, sh := range db.shards {
		sh.mu.RLock()
		for bv := range sh.chains {
			bvs = append(bvs, bv)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(bvs, func(i, j int) bool {
		if bvs[i].Block != bvs[j].Block {
			return bvs[i].Block < bvs[j].Block
		}
		return bvs[i].View < bvs[j].View
	})
	return bvs
}

// LinkIDs returns every link ID in ascending order.
func (db *DB) LinkIDs() []LinkID {
	var ids []LinkID
	for _, st := range db.stripes {
		st.mu.RLock()
		for id := range st.links {
			ids = append(ids, id)
		}
		st.mu.RUnlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Stats summarizes database size.
type Stats struct {
	OIDs           int
	Links          int
	Chains         int
	Configurations int
	Workspaces     int
}

// Stats returns current object counts.
func (db *DB) Stats() Stats {
	var s Stats
	for _, sh := range db.shards {
		sh.mu.RLock()
		s.OIDs += len(sh.oids)
		s.Chains += len(sh.chains)
		sh.mu.RUnlock()
	}
	for _, st := range db.stripes {
		st.mu.RLock()
		s.Links += len(st.links)
		st.mu.RUnlock()
	}
	db.ctl.RLock()
	s.Configurations = len(db.configs)
	s.Workspaces = len(db.workspaces)
	db.ctl.RUnlock()
	return s
}

func removeRef(refs []linkRef, id LinkID) []linkRef {
	for i, r := range refs {
		if r.id == id {
			return append(refs[:i], refs[i+1:]...)
		}
	}
	return refs
}

// replaceRef points the ref for id at the replacement link object.  Callers
// hold the owning shard's write lock.
func replaceRef(refs []linkRef, id LinkID, nl *Link) {
	for i, r := range refs {
		if r.id == id {
			refs[i].l = nl
			return
		}
	}
}

func sortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
}
