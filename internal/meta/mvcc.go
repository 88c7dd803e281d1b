package meta

// LSN-keyed MVCC read epochs.
//
// The version histories are the database: every object — an OID's
// property set, a version chain, an adjacency posting, a link, a
// configuration, a workspace — is one lock-free history of immutable
// versions, newest first, and what the object is now is its history's
// head.  There is no other container.
//
// Every committed mutation carries a stamp: the journal LSN of its record
// when a Recorder is attached, a database-local epoch counter otherwise,
// and the original record's LSN during replay.  A mutation reads the heads
// of what it changes under the writer lock (DB.mu), builds the next
// immutable values, and pushes them under its stamp.
//
// A View (view.go) pinned at one stamp resolves every read against the
// versions at or below it; the head asks the same resolver for the newest.
// Pinning takes one small mutex (the epoch gate, never the writer lock)
// and reading takes no locks at all: version nodes are immutable once
// published and reached through atomic pointers, so point reads, snapshots,
// state reports and follower read-your-LSN queries proceed while writers
// keep committing — the paper's single-writer pause points become
// wait-free reads.
//
// # The epoch gate
//
// Stamps are assigned under the gate mutex, in increasing order, and a
// mutation's stamp stays "in flight" until its versions are installed
// (mutators install while still holding the writer lock, then retire the
// stamp).  One writer at a time means one stamp in flight at most, always
// the epoch.  A view must never pin at or above a stamp still in flight —
// it would read the old version now and a newer one on a re-read, tearing
// byte-stability — so ReadView and ReadViewAt wait (briefly: an in-flight
// mutation is already past its journal append) until it has installed.
// The wait is for installs only, never for the writer lock, and writers
// are never blocked.
//
// # Reclamation
//
// Version histories are trimmed by an amortized background pass: every
// reclaimEvery stamps, the mutation crossing the boundary spawns one
// reclaim goroutine that cuts each history down to its newest version at
// or below the reclaim floor — the oldest pinned view, or the stable
// epoch when nothing is pinned — and deletes histories that are tombstone
// at every retained stamp.  The floor becomes the new horizon: ReadViewAt
// below it reports ErrViewReclaimed and callers fall back to a current
// view.  Trimming takes the writer lock once per table, briefly (a
// writer-side cost); readers are never blocked.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrViewReclaimed reports a ReadViewAt position older than the retained
// version horizon (reclaimed, or below the position the database was
// loaded, recovered or re-based at).
var ErrViewReclaimed = errors.New("meta: view lsn below the retained version horizon")

// reclaimEvery is the stamp interval between amortized reclaim passes.
const reclaimEvery = 1024

// ver is one immutable version of an object, valid from its stamp until
// the next version's.  val and del are never written after publication;
// next is atomically cut during reclamation but only below every pinned
// view, so readers never traverse a severed link.
type ver[T any] struct {
	lsn  int64
	val  T
	del  bool
	next atomic.Pointer[ver[T]]
}

// hist is a lock-free-readable version list, newest first: the history half
// of a table entry.  Writers are serialized by the writer lock; readers only
// load atomic pointers.
type hist[T any] struct {
	head atomic.Pointer[ver[T]]
}

// push publishes a new version.  Callers hold the writer lock.
func (h *hist[T]) push(lsn int64, val T, del bool) {
	v := &ver[T]{lsn: lsn, val: val, del: del}
	v.next.Store(h.head.Load())
	h.head.Store(v)
}

// at returns the newest version at or below lsn, or nil if the object did
// not exist yet.
func (h *hist[T]) at(lsn int64) *ver[T] {
	for v := h.head.Load(); v != nil; v = v.next.Load() {
		if v.lsn <= lsn {
			return v
		}
	}
	return nil
}

// trim cuts versions older than the newest one at or below floor and
// reports whether the history is dead — deleted at every retained stamp —
// so the caller can drop it entirely.  Callers hold the writer lock.
func (h *hist[T]) trim(floor int64) bool {
	base := h.at(floor)
	if base != nil {
		base.next.Store(nil)
	}
	head := h.head.Load()
	return head != nil && head == base && head.del
}

// newest, as the position of a read, resolves to the head of every history:
// the database as it is now.
const newest = math.MaxInt64

// table is the histories of one kind of object, by key — the only
// container the database has: open addressing, linear probing, over an
// array of pointers to entries that is published whole.  An entry is its
// key and its history; it never moves out of a published array except when
// trim publishes one without it, so a probe that meets an empty slot has
// seen every entry of its key.  Readers load the array and probe, with no
// lock; push and trim are serialized by the writer lock, and only they
// write.
type table[K tableKey, T any] struct {
	slots atomic.Pointer[slots[K, T]]
	n     int // entries in the published array
	// gen counts the changes to the set of entries: one per entry added or
	// array published without some.  It moves after the array it counts is
	// published, so a reader that sees a count sees that array or a newer one.
	gen atomic.Uint64
}

// entry is one object: its key and its history.
type entry[K tableKey, T any] struct {
	key K
	hist[T]
}

// slots is one published array: a power of two at most ¾ full, probed from
// the slot the top bits of a key's hash name.
type slots[K tableKey, T any] struct {
	shift uint // 64 − log2(len(e))
	e     []atomic.Pointer[entry[K, T]]
}

// tableKey is the kinds of key the database's tables have.
type tableKey interface {
	Key | BlockView | LinkID | string
}

// hashKey is a key's hash, compiled per kind: FNV-1a of its strings, its
// numbers as they are, finished so that every bit reaches the top bits a
// slot is picked by.
func hashKey[K tableKey](key K) uint64 {
	var h uint64
	switch k := any(key).(type) {
	case Key:
		h = uint64(fnv1a(k.Block))<<32 | uint64(fnv1a(k.View)^uint32(k.Version))
	case BlockView:
		h = uint64(fnv1a(k.Block))<<32 | uint64(fnv1a(k.View))
	case LinkID:
		h = uint64(k)
	case string:
		h = uint64(fnv1a(k))
	}
	// The finalizer of MurmurHash3's 64-bit variant.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func newSlots[K tableKey, T any](size int) *slots[K, T] {
	return &slots[K, T]{shift: uint(64 - bits.TrailingZeros(uint(size))), e: make([]atomic.Pointer[entry[K, T]], size)}
}

// find probes for key's slot: the one holding its entry, or the empty one
// where its entry would go.
func (s *slots[K, T]) find(key K) *atomic.Pointer[entry[K, T]] {
	mask := uint64(len(s.e) - 1)
	for i := hashKey(key) >> s.shift; ; i = (i + 1) & mask {
		if e := s.e[i].Load(); e == nil || e.key == key {
			return &s.e[i]
		}
	}
}

// array is the published array's slots, none before the first push.
func (t *table[K, T]) array() []atomic.Pointer[entry[K, T]] {
	if s := t.slots.Load(); s != nil {
		return s.e
	}
	return nil
}

// entry returns key's entry, nil when there is none.
func (t *table[K, T]) entry(key K) *entry[K, T] {
	if s := t.slots.Load(); s != nil {
		return s.find(key).Load()
	}
	return nil
}

// at is the one resolver: the value of key's newest version at or below
// lsn, ok=false when there is none or it is a tombstone.  Values are
// immutable; callers must not mutate what they are handed.
func (t *table[K, T]) at(key K, lsn int64) (val T, ok bool) {
	if e := t.entry(key); e != nil {
		if x := e.at(lsn); x != nil && !x.del {
			return x.val, true
		}
	}
	return val, false
}

// push publishes key's next version under stamp s (a tombstone with del),
// between the mutation's beginMut and endMut.  A key without an entry gets
// one, in an array grown first when the entry would fill it past ¾.
func (t *table[K, T]) push(key K, s int64, val T, del bool) {
	e := t.entry(key)
	if e == nil {
		e = &entry[K, T]{key: key}
		if 4*(t.n+1) > 3*len(t.array()) {
			t.publish(max(8, 2*len(t.array())), nil)
		}
		t.slots.Load().find(key).Store(e)
		t.n++
		t.gen.Add(1)
	}
	e.push(s, val, del)
}

// publish replaces the array with one of size slots holding the entries keep
// admits (all of them when keep is nil).
func (t *table[K, T]) publish(size int, keep func(*entry[K, T]) bool) {
	next, n := newSlots[K, T](size), 0
	sl := t.array()
	for i := range sl {
		if e := sl[i].Load(); e != nil && (keep == nil || keep(e)) {
			next.find(e.key).Store(e)
			n++
		}
	}
	t.slots.Store(next)
	if n < t.n {
		t.gen.Add(1)
	}
	t.n = n
}

// each invokes fn for every key live at lsn, in unspecified order, until
// fn returns false, and reports whether it ran to the end.
func (t *table[K, T]) each(lsn int64, fn func(K, T) bool) bool {
	sl := t.array()
	for i := range sl {
		if e := sl[i].Load(); e != nil {
			if x := e.at(lsn); x != nil && !x.del && !fn(e.key, x.val) {
				return false
			}
		}
	}
	return true
}

// trim cuts every history at floor and, when some are dead — deleted at
// every retained stamp — publishes an array without them, at most half full.
// (A history's trim is idempotent: asking again is how publish tells.)
func (t *table[K, T]) trim(floor int64) {
	dead := 0
	sl := t.array()
	for i := range sl {
		if e := sl[i].Load(); e != nil && e.trim(floor) {
			dead++
		}
	}
	if dead > 0 {
		size := 8
		for size < 2*(t.n-dead) {
			size *= 2
		}
		t.publish(size, func(e *entry[K, T]) bool { return !e.trim(floor) })
	}
}

// oidVal is the versioned payload of an OID: its creation stamp and its
// property set, the one copy every version of equal properties shares
// (attrTable).
type oidVal struct {
	seq   int64
	props Props
}

// store is every container of the database, behind DB.store: one table per
// kind of object.  RestoreFrom (snapshot re-bootstrap) replaces it
// wholesale, so a pinned view captures the pointer at pin time and stays
// consistent across a re-base; writers load it under the writer lock.
//
// adj is the reachability index: per key, the links that leave it and the
// links that arrive, one immutable posting per stamp at which the key's
// incident link set (or a member object) changed, so a walk resolves each
// visited key with one lookup and a closure query costs O(closure), not
// O(graph).  Link objects are immutable, so the postings share them with
// the link table; a posting empty on both sides is a tombstone — "no links"
// and "never had links" read alike, and reclamation drops it.
type store struct {
	oids       table[Key, oidVal]
	chains     table[BlockView, []int] // ascending, never empty
	adj        table[Key, posting]
	links      table[LinkID, *Link]
	configs    table[string, *Configuration]
	workspaces table[string, *Workspace]
	order      atomic.Pointer[chainOrder]
}

// trimmer is a table of any kind, as a reclaim pass sees it.
type trimmer interface{ trim(floor int64) }

// numTables is the number of tables a store has.
const numTables = 6

// table returns the store's i-th table.
func (s *store) table(i int) trimmer {
	return [numTables]trimmer{&s.oids, &s.chains, &s.adj, &s.links, &s.configs, &s.workspaces}[i]
}

// chainOrder is every version chain of a store in key order, shared by
// every view of the store: the one sorted scan sorts nothing.  gen is the
// chain table's generation read before the entries were collected, so a
// chain added or dropped since makes it stale.
type chainOrder struct {
	gen    uint64
	chains []*entry[BlockView, []int]
}

// inOrder returns the store's chains in key order, rebuilding the order
// first when the chain table has added or dropped an entry since it was
// built.  A view can walk it whatever writers do meanwhile: every chain
// live at a pinned stamp was installed before the pin, and an entry leaves
// a table only when trim finds it dead below the horizon, so the order
// holds every chain the view can see; one it cannot see resolves to nil.
func (s *store) inOrder() []*entry[BlockView, []int] {
	gen := s.chains.gen.Load()
	if o := s.order.Load(); o != nil && o.gen == gen {
		return o.chains
	}
	var chains []*entry[BlockView, []int]
	sl := s.chains.array()
	for i := range sl {
		if e := sl[i].Load(); e != nil {
			chains = append(chains, e)
		}
	}
	slices.SortFunc(chains, func(a, b *entry[BlockView, []int]) int {
		return cmp.Or(strings.Compare(a.key.Block, b.key.Block), strings.Compare(a.key.View, b.key.View))
	})
	s.order.Store(&chainOrder{gen: gen, chains: chains})
	return chains
}

// posting is a key's adjacency: the links with From == key and the links
// with To == key, in the order they were added; nil when there are none.
type posting struct {
	out, in []*Link
}

// side is the out or the in half, to replace; of is the same half, to read.
func (p *posting) side(out bool) *[]*Link {
	if out {
		return &p.out
	}
	return &p.in
}

func (p posting) of(out bool) []*Link { return *p.side(out) }

// oid resolves the OID k at lsn.
func (s *store) oid(k Key, lsn int64) (oidVal, error) {
	x, ok := s.oids.at(k, lsn)
	if !ok {
		return x, fmt.Errorf("oid %v: %w", k, ErrNotFound)
	}
	return x, nil
}

// posting resolves k's posting at lsn, zero when it has no links.
func (s *store) posting(k Key, lsn int64) posting {
	p, _ := s.adj.at(k, lsn)
	return p
}

// put publishes k's next posting.
func (s *store) put(k Key, stamp int64, p posting) {
	s.adj.push(k, stamp, p, p.out == nil && p.in == nil)
}

// post publishes k's next posting: the newest, with one side replaced.
func (s *store) post(out bool, k Key, stamp int64, links []*Link) {
	p := s.posting(k, newest)
	if len(links) == 0 {
		links = nil
	}
	*p.side(out) = links
	s.put(k, stamp, p)
}

// metaVer records the database header values as of one stamp: the logical
// clock observed at emission (exactly the Seq the journal record carries)
// and the next_link counter, which together make a view's checkpoint clock
// byte-identical to a replay-to-LSN one.
type metaVer struct {
	lsn      int64
	seq      int64
	nextLink int64
}

// mvccState is the per-DB MVCC bookkeeping: the epoch (highest mutation
// stamp), the horizon (lowest pinnable stamp), and the gate tracking the
// in-flight stamp, pinned views and the header history.
type mvccState struct {
	epoch   atomic.Int64
	horizon atomic.Int64

	mu           sync.Mutex
	inflight     int64         // the stamp still installing, 0 when none
	doneCh       chan struct{} // created by waiters, closed on each retire
	pins         map[int64]int // pinned stamp -> view count
	meta         []metaVer     // sorted by lsn
	reclaiming   bool
	sinceReclaim int64
}

// stableLocked returns the newest stamp at or below which every mutation
// has fully installed its versions.
func (m *mvccState) stableLocked() int64 {
	if m.inflight > 0 {
		return m.inflight - 1
	}
	return m.epoch.Load()
}

// metaAtLocked resolves the header (seq, next_link) as of lsn.
func (m *mvccState) metaAtLocked(lsn int64) (seq, nextLink int64) {
	i := sort.Search(len(m.meta), func(i int) bool { return m.meta[i].lsn > lsn })
	if i == 0 {
		return 0, 0
	}
	return m.meta[i-1].seq, m.meta[i-1].nextLink
}

// beginMut is the single commit point of every mutation: it emits the
// journal record (when a Recorder is attached), assigns the mutation's
// MVCC stamp, and registers the stamp as in flight.  It must be called
// under the writer lock, after every check that can refuse it and every
// read of the heads it builds on: nothing has changed yet, and from here
// the mutation cannot fail.  args builds the record argument list and is
// only invoked when a Recorder is attached.  The header entry records the
// next_link counter as it stands: a mutation that creates a link has
// already raised it to the link's ID under the writer lock.  Stamps rise on
// every path — the journal's LSNs, the epoch counter, a replayed stream
// above the horizon — so appending keeps the header history in stamp
// order.  The caller must push the versions that are the mutation under
// the returned stamp and then call endMut.
func (db *DB) beginMut(op string, args func() []string) int64 {
	// Build the record arguments before taking the gate mutex: the writer
	// lock already makes them consistent, and readers pinning a view must
	// not wait for the formatting.
	rec := db.recorder()
	var a []string
	if rec != nil {
		a = args()
	}
	m := &db.mvcc
	m.mu.Lock()
	seq := db.seq.Load()
	var s int64
	if r := db.replayAt.Load(); r > 0 {
		// Replay: stamp with the original record's LSN — and its Seq —
		// so a recovered or follower database keys its versions by the
		// primary's numbering and its view headers match the primary's
		// byte for byte (the local clock is only floored after the apply).
		// No journal path replays with a Recorder attached; one that is
		// still sees the record, its returned LSN unused.
		s = r
		if rs := db.replaySeq.Load(); rs > seq {
			seq = rs
		}
		if rec != nil {
			rec.Record(Record{Seq: seq, Op: op, Args: a})
		}
	} else if rec != nil {
		s = rec.Record(Record{Seq: seq, Op: op, Args: a})
	} else {
		s = m.epoch.Load() + 1
	}
	if s > m.epoch.Load() {
		m.epoch.Store(s)
	}
	m.meta = append(m.meta, metaVer{lsn: s, seq: seq, nextLink: db.nextLink.Load()})
	m.inflight = s
	m.mu.Unlock()
	return s
}

// endMut retires the in-flight stamp after its versions are installed and
// occasionally kicks the amortized reclaim pass.
func (db *DB) endMut() {
	m := &db.mvcc
	m.mu.Lock()
	m.inflight = 0
	if m.doneCh != nil {
		close(m.doneCh)
		m.doneCh = nil
	}
	m.sinceReclaim++
	kick := m.sinceReclaim >= reclaimEvery && !m.reclaiming
	if kick {
		m.reclaiming = true
		m.sinceReclaim = 0
	}
	m.mu.Unlock()
	if kick {
		go db.reclaimPass()
	}
}

// SealVersions makes lsn, the journal position a recovery reached, the
// applied position and the version horizon: the epoch rises to it and every
// history is trimmed, in place, to its newest version.  Journal recovery
// ends with it — the snapshot it started from holds nothing older than
// itself, so no view may pin below what was recovered, and a snapshot with
// no record after it advanced the database without an ApplyRecord.  The
// database must not be shared with writers yet.
func (db *DB) SealVersions(lsn int64) {
	floor(&db.appliedLSN, lsn)
	m := &db.mvcc
	m.mu.Lock()
	if a := db.appliedLSN.Load(); a > m.epoch.Load() {
		m.epoch.Store(a)
	}
	m.mu.Unlock()
	db.ReclaimVersions()
}

// rebaseLocked makes s the epoch and the horizon, under the header the
// database carries now: what a load and RestoreFrom end with, once the
// content stamped at or below s is in place.  Callers hold the gate mutex
// and no mutation is in flight.
func (db *DB) rebaseLocked(s int64) {
	m := &db.mvcc
	m.epoch.Store(s)
	m.horizon.Store(s)
	m.meta = append(m.meta[:0], metaVer{lsn: s, seq: db.seq.Load(), nextLink: db.nextLink.Load()})
}

// Chains and postings are immutable once pushed: a mutation builds the
// next one from the head.

// with returns s followed by v in a slice of its own, exactly that long.
func with[T any](s []T, v T) []T {
	next := make([]T, len(s)+1)
	next[copy(next, s)] = v
	return next
}

// without returns the posting less link id, nil when that empties it.
func without(p []*Link, id LinkID) []*Link {
	i := slices.IndexFunc(p, func(l *Link) bool { return l.ID == id })
	switch {
	case i < 0:
		return p
	case len(p) == 1:
		return nil
	}
	return append(append(make([]*Link, 0, len(p)-1), p[:i]...), p[i+1:]...)
}

// replaced returns the posting with nl where the link it replaces was.
func replaced(p []*Link, nl *Link) []*Link {
	next := slices.Clone(p)
	for i, l := range next {
		if l.ID == nl.ID {
			next[i] = nl
		}
	}
	return next
}

// ---------------------------------------------------------------------------
// Reclamation

// reclaimPass runs one amortized reclaim and clears the in-progress flag.
func (db *DB) reclaimPass() {
	db.ReclaimVersions()
	db.mvcc.mu.Lock()
	db.mvcc.reclaiming = false
	db.mvcc.mu.Unlock()
}

// ReclaimVersions trims every version history down to its newest version
// at or below the reclaim floor — the oldest pinned view, or the stable
// epoch when nothing is pinned — and advances the horizon to the floor.
// It runs automatically every reclaimEvery stamps; exported for tests and
// for operators forcing a trim.  Readers are never blocked; writers wait
// at most one table's trim.
func (db *DB) ReclaimVersions() {
	m := &db.mvcc
	m.mu.Lock()
	floor := m.stableLocked()
	for l := range m.pins {
		if l < floor {
			floor = l
		}
	}
	if h := m.horizon.Load(); floor > h {
		m.horizon.Store(floor)
	} else {
		floor = h
	}
	if i := sort.Search(len(m.meta), func(i int) bool { return m.meta[i].lsn > floor }); i > 1 {
		m.meta = append(m.meta[:0], m.meta[i-1:]...)
	}
	m.mu.Unlock()

	// One table at a time, the store reloaded each time: RestoreFrom may
	// have replaced it.
	for i := range numTables {
		db.mu.Lock()
		db.store.Load().table(i).trim(floor)
		db.mu.Unlock()
	}
}

// VersionHorizon returns the oldest stamp a view may still pin.
func (db *DB) VersionHorizon() int64 { return db.mvcc.horizon.Load() }
