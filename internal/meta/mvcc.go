package meta

// LSN-keyed MVCC read epochs.
//
// Every committed mutation of the meta-database carries a stamp: the
// journal LSN of its record when a Recorder is attached, a database-local
// epoch counter otherwise, and the original record's LSN during replay.
// Each mutation publishes an immutable version of every object it changed
// — OID property maps, version chains, link objects, configurations,
// workspaces — into lock-free version histories, stamped with that LSN.
// A database versions from construction: there is no unversioned mode.
//
// A View (ReadView / ReadViewAt) pins one stamp and resolves every read
// against the versions at or below it.  Pinning takes one small mutex
// (the epoch gate, never a shard lock) and reading takes no locks at all:
// version nodes are immutable once published and reached through atomic
// pointers, so snapshots, state reports and follower read-your-LSN queries
// proceed while writers keep committing — the paper's single-writer pause
// points become wait-free reads.
//
// # The epoch gate
//
// Stamps are assigned under the gate mutex, in monotonically increasing
// order, and a mutation's stamp stays "in flight" until its versions are
// installed (mutators install while still holding the locks that
// serialize the mutation, then retire the stamp).  A view must never pin
// a stamp with an earlier mutation still in flight — it would read the
// old version now and a newer one on a re-read, tearing byte-stability —
// so ReadView and ReadViewAt wait (briefly: an in-flight mutation is
// already past its journal append) until everything at or below the
// pinned position has installed.  The wait is for installs only, never
// for writer lock acquisition, and writers are never blocked.
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
// view.  Trimming takes each shard/stripe lock briefly (a writer-side
// cost); readers are never blocked.

import (
	"errors"
	"fmt"
	"sort"
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

// hist is a lock-free-readable version list, newest first.  Writers are
// serialized by the lock owning the object (shard, stripe or control
// plane); readers only load atomic pointers.
type hist[T any] struct {
	head atomic.Pointer[ver[T]]
}

// push publishes a new version.  Callers hold the owning lock.
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
// so the caller can drop it entirely.  Callers hold the owning lock.
func (h *hist[T]) trim(floor int64) bool {
	base := h.at(floor)
	if base != nil {
		base.next.Store(nil)
	}
	head := h.head.Load()
	return head != nil && head == base && head.del
}

// oidVal is the versioned payload of an OID: its creation stamp and an
// immutable property map (nil when empty).
type oidVal struct {
	seq   int64
	props map[string]string
}

// shardHist holds one shard's version histories.  The containers are
// replaced wholesale on RestoreFrom (snapshot re-bootstrap), so views
// capture the pointers at pin time and stay consistent across a re-base.
//
// out and in are the versioned reachability index: per-key adjacency
// postings, one immutable []*Link per stamp at which the key's incident
// link set changed.  Graph walks at a view resolve each visited key with
// one index lookup instead of scanning every link stripe, so a closure
// query costs O(closure), not O(graph).  Link objects are immutable, so
// the postings share them with the stripe histories.
type shardHist struct {
	oids   sync.Map // Key -> *hist[oidVal]
	chains sync.Map // BlockView -> *hist[[]int]
	out    sync.Map // Key -> *hist[[]*Link] (links with From == key)
	in     sync.Map // Key -> *hist[[]*Link] (links with To == key)
}

// stripeHist holds one link stripe's version histories.
type stripeHist struct {
	links sync.Map // LinkID -> *hist[*Link]
}

// ctlHist holds the control plane's version histories.
type ctlHist struct {
	configs    sync.Map // string -> *hist[*Configuration]
	workspaces sync.Map // string -> *hist[*Workspace]
}

// gateSlot is one in-flight stamp.
type gateSlot struct {
	s    int64
	done bool
}

// metaVer records the database header values as of one stamp: the logical
// clock observed at emission (exactly the Seq the journal record carries)
// and the highest link ID allocated so far (cumulative), which together
// make a view's Save header byte-identical to a replay-to-LSN Save.
type metaVer struct {
	lsn     int64
	seq     int64
	linkMax int64 // link ID created by this mutation, 0 otherwise
	linkCum int64 // running max of linkMax up to and including this entry
}

// mvccState is the per-DB MVCC bookkeeping: the epoch (highest mutation
// stamp), the horizon (lowest pinnable stamp), and the gate tracking
// in-flight stamps, pinned views and the header history.
type mvccState struct {
	epoch   atomic.Int64
	horizon atomic.Int64

	mu           sync.Mutex
	inflight     []gateSlot
	doneCh       chan struct{} // created by waiters, closed on each retire
	pins         map[int64]int // pinned stamp -> view count
	meta         []metaVer     // sorted by lsn
	reclaiming   bool
	sinceReclaim int64
}

// beginLocked registers an in-flight stamp.  Stamps arrive in increasing
// order on every live path; the sorted insert tolerates replay overlap.
func (m *mvccState) beginLocked(s int64) {
	i := len(m.inflight)
	for i > 0 && m.inflight[i-1].s > s {
		i--
	}
	m.inflight = append(m.inflight, gateSlot{})
	copy(m.inflight[i+1:], m.inflight[i:])
	m.inflight[i] = gateSlot{s: s}
}

// doneLocked retires a stamp and pops the completed prefix.
func (m *mvccState) doneLocked(s int64) {
	for i := range m.inflight {
		if m.inflight[i].s == s {
			m.inflight[i].done = true
			break
		}
	}
	n := 0
	for n < len(m.inflight) && m.inflight[n].done {
		n++
	}
	if n > 0 {
		m.inflight = append(m.inflight[:0], m.inflight[n:]...)
	}
}

// stableLocked returns the newest stamp at or below which every mutation
// has fully installed its versions.
func (m *mvccState) stableLocked() int64 {
	if len(m.inflight) > 0 {
		return m.inflight[0].s - 1
	}
	return m.epoch.Load()
}

// metaPushLocked inserts a header entry in stamp order and restores the
// cumulative link-ID maximum from the insertion point on.
func (m *mvccState) metaPushLocked(e metaVer) {
	i := len(m.meta)
	for i > 0 && m.meta[i-1].lsn > e.lsn {
		i--
	}
	m.meta = append(m.meta, metaVer{})
	copy(m.meta[i+1:], m.meta[i:])
	m.meta[i] = e
	for j := i; j < len(m.meta); j++ {
		cum := m.meta[j].linkMax
		if j > 0 && m.meta[j-1].linkCum > cum {
			cum = m.meta[j-1].linkCum
		}
		m.meta[j].linkCum = cum
	}
}

// metaAtLocked resolves the Save header (seq, next_link) as of lsn.
func (m *mvccState) metaAtLocked(lsn int64) (seq, nextLink int64) {
	i := sort.Search(len(m.meta), func(i int) bool { return m.meta[i].lsn > lsn })
	if i == 0 {
		return 0, 0
	}
	return m.meta[i-1].seq, m.meta[i-1].linkCum
}

// beginMut is the single commit point of every mutation: it emits the
// journal record (when a Recorder is attached), assigns the mutation's
// MVCC stamp, and registers the stamp as in flight.  It must be called
// while the locks serializing the mutation are held, after the live maps
// reflect the change.  args builds the record argument list and is only
// invoked when a Recorder is attached.  linkID names a link created by
// this mutation (0 otherwise) so views can reconstruct the next_link
// counter.  The caller must install its version-history entries under the
// returned stamp and then call endMut.
func (db *DB) beginMut(op string, linkID int64, args func() []string) int64 {
	// Build the record arguments before taking the gate mutex: the
	// caller's object locks already make the snapshot consistent, and
	// the sorting/formatting inside the arg builders must not serialize
	// every shard's write hot path through the one global gate.
	var a []string
	if db.rec != nil {
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
		// A Recorder, if attached, still sees the re-emission.
		s = r
		if rs := db.replaySeq.Load(); rs > seq {
			seq = rs
		}
		if db.rec != nil {
			db.rec.Record(Record{Seq: seq, Op: op, Args: a})
		}
	} else if db.rec != nil {
		s = db.rec.Record(Record{Seq: seq, Op: op, Args: a})
	} else {
		s = m.epoch.Load() + 1
	}
	if s > m.epoch.Load() {
		m.epoch.Store(s)
	}
	m.metaPushLocked(metaVer{lsn: s, seq: seq, linkMax: linkID})
	m.beginLocked(s)
	m.mu.Unlock()
	return s
}

// endMut retires a mutation's stamp after its versions are installed and
// occasionally kicks the amortized reclaim pass.
func (db *DB) endMut(s int64) {
	m := &db.mvcc
	m.mu.Lock()
	m.doneLocked(s)
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

// SealVersions makes the applied journal position the version horizon: the
// epoch rises to it and every history is trimmed, in place, to its newest
// version.  Journal recovery ends with it — the snapshot it started from
// holds nothing older than itself, so no view may pin below what was
// recovered.  The database must not be shared with writers yet.
func (db *DB) SealVersions() {
	m := &db.mvcc
	m.mu.Lock()
	if a := db.appliedLSN.Load(); a > m.epoch.Load() {
		m.epoch.Store(a)
	}
	m.mu.Unlock()
	db.ReclaimVersions()
}

// genesisLocked rebuilds every version history from the live maps, as one
// version per object stamped s, and resets the gate to that horizon.
// Callers hold the control-plane lock and every shard and stripe lock, so
// no mutation is in flight.  The gate mutex is additionally held across
// the container swap: view pinning goes through it, so a reader racing a
// follower re-bootstrap can never capture a torn mix of old and new
// per-shard containers under the new epoch.
func (db *DB) genesisLocked(s int64) {
	m := &db.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch.Store(s)
	m.horizon.Store(s)
	m.inflight = m.inflight[:0]
	m.meta = append(m.meta[:0], metaVer{
		lsn: s, seq: db.seq.Load(),
		linkMax: db.nextLink.Load(), linkCum: db.nextLink.Load(),
	})
	for _, sh := range db.shards {
		h := &shardHist{}
		for k, o := range sh.oids {
			// No copy: the version shares the live map until the OID's
			// next mutation takes its own (OID.own).
			o.shared = true
			oh := &hist[oidVal]{}
			oh.push(s, oidVal{seq: o.Seq, props: o.Props}, false)
			h.oids.Store(k, oh)
		}
		for bv, chain := range sh.chains {
			chh := &hist[[]int]{}
			chh.push(s, append([]int(nil), chain...), false)
			h.chains.Store(bv, chh)
		}
		for k, refs := range sh.outLinks {
			if len(refs) > 0 {
				ah := &hist[[]*Link]{}
				ah.push(s, refLinks(refs), false)
				h.out.Store(k, ah)
			}
		}
		for k, refs := range sh.inLinks {
			if len(refs) > 0 {
				ah := &hist[[]*Link]{}
				ah.push(s, refLinks(refs), false)
				h.in.Store(k, ah)
			}
		}
		sh.hist.Store(h)
	}
	for _, st := range db.stripes {
		h := &stripeHist{}
		for id, l := range st.links {
			lh := &hist[*Link]{}
			lh.push(s, l, false)
			h.links.Store(id, lh)
		}
		st.hist.Store(h)
	}
	ch := &ctlHist{}
	for name, c := range db.configs {
		x := &hist[*Configuration]{}
		x.push(s, c, false)
		ch.configs.Store(name, x)
	}
	for name, w := range db.workspaces {
		x := &hist[*Workspace]{}
		x.push(s, w.clone(), false)
		ch.workspaces.Store(name, x)
	}
	db.ctlH.Store(ch)
}

// copyProps returns an immutable snapshot of a property map, nil when
// empty (nil map reads are free and well-defined).
func copyProps(props map[string]string) map[string]string {
	if len(props) == 0 {
		return nil
	}
	c := make(map[string]string, len(props))
	for k, v := range props {
		c[k] = v
	}
	return c
}

// ---------------------------------------------------------------------------
// Version-install helpers.  All run while the lock owning the object is
// held, between beginMut and endMut.

// histOIDPush publishes an OID version (or, with del, a tombstone).
func (db *DB) histOIDPush(sh *dbShard, k Key, s int64, o *OID, del bool) {
	h := sh.hist.Load()
	hi, ok := h.oids.Load(k)
	if !ok {
		hi, _ = h.oids.LoadOrStore(k, &hist[oidVal]{})
	}
	if del {
		hi.(*hist[oidVal]).push(s, oidVal{}, true)
		return
	}
	hi.(*hist[oidVal]).push(s, oidVal{seq: o.Seq, props: copyProps(o.Props)}, false)
}

// histOIDPrev returns the newest published property map of an OID — it
// always mirrors the live map, so UpdateOID can diff against it without a
// pre-copy.
func (db *DB) histOIDPrev(sh *dbShard, k Key) map[string]string {
	if hi, ok := sh.hist.Load().oids.Load(k); ok {
		if x := hi.(*hist[oidVal]).head.Load(); x != nil && !x.del {
			return x.val.props
		}
	}
	return nil
}

// histChainPush publishes the current version list of a chain.
func (db *DB) histChainPush(sh *dbShard, bv BlockView, s int64) {
	h := sh.hist.Load()
	hi, ok := h.chains.Load(bv)
	if !ok {
		hi, _ = h.chains.LoadOrStore(bv, &hist[[]int]{})
	}
	hi.(*hist[[]int]).push(s, append([]int(nil), sh.chains[bv]...), false)
}

// refLinks snapshots an adjacency ref list as an immutable link slice
// (nil when empty, so an empty posting reads like an absent one).
func refLinks(refs []linkRef) []*Link {
	if len(refs) == 0 {
		return nil
	}
	out := make([]*Link, len(refs))
	for i, r := range refs {
		out[i] = r.l
	}
	return out
}

// histAdjPush publishes the current adjacency posting of k — the
// reachability index's incremental update.  Every link mutation calls it
// for each endpoint whose incident set (or a member object) changed,
// while holding that endpoint's shard lock, so a view walk resolves
// adjacency with one lookup instead of a whole-graph link scan.  An empty
// posting is pushed as a tombstone: "no links" and "never had links" read
// identically, and reclamation can drop dead postings.
func (db *DB) histAdjPush(sh *dbShard, k Key, s int64, out bool) {
	h := sh.hist.Load()
	m, refs := &h.in, sh.inLinks[k]
	if out {
		m, refs = &h.out, sh.outLinks[k]
	}
	hi, ok := m.Load(k)
	if !ok {
		if len(refs) == 0 {
			return // nothing indexed and nothing to index
		}
		hi, _ = m.LoadOrStore(k, &hist[[]*Link]{})
	}
	links := refLinks(refs)
	hi.(*hist[[]*Link]).push(s, links, links == nil)
}

// histLinkPushLocked publishes a link version (nil = deleted).  Callers
// hold the owning stripe's lock.
func (db *DB) histLinkPushLocked(id LinkID, s int64, l *Link) {
	h := db.stripeOf(id).hist.Load()
	hi, ok := h.links.Load(id)
	if !ok {
		hi, _ = h.links.LoadOrStore(id, &hist[*Link]{})
	}
	hi.(*hist[*Link]).push(s, l, l == nil)
}

// histConfigPushLocked publishes a configuration version (nil = deleted).
// Callers hold the control-plane lock.
func (db *DB) histConfigPushLocked(name string, s int64, c *Configuration) {
	h := db.ctlH.Load()
	hi, ok := h.configs.Load(name)
	if !ok {
		hi, _ = h.configs.LoadOrStore(name, &hist[*Configuration]{})
	}
	hi.(*hist[*Configuration]).push(s, c, c == nil)
}

// histWorkspacePushLocked publishes a workspace version.  w must be a
// private snapshot (clone) the live side will never mutate.  Callers hold
// the control-plane lock.
func (db *DB) histWorkspacePushLocked(name string, s int64, w *Workspace) {
	h := db.ctlH.Load()
	hi, ok := h.workspaces.Load(name)
	if !ok {
		hi, _ = h.workspaces.LoadOrStore(name, &hist[*Workspace]{})
	}
	hi.(*hist[*Workspace]).push(s, w, false)
}

// ---------------------------------------------------------------------------
// Views

// View is a consistent point-in-time read of the whole database, pinned
// at one stamp (journal LSN on a journaled database).  Reads take no
// locks: they resolve immutable versions through atomic pointers, so a
// view is byte-stable — re-reading it always yields identical results —
// while writers keep committing.  Close releases the pin so reclamation
// can trim behind it; a view left open only delays reclamation, never
// correctness.
type View struct {
	db       *DB
	lsn      int64
	seq      int64
	nextLink int64
	shards   []*shardHist
	stripes  []*stripeHist
	ctl      *ctlHist
	closed   atomic.Bool
}

// ReadView pins a view at the current epoch — the newest assigned
// mutation stamp — waiting (briefly) for any older mutation still
// installing its versions, so a write that committed before the call is
// always visible (read-your-writes).  The wait is only ever for mutations
// already past their journal append (installs run in microseconds); it
// never blocks on writer lock acquisition and never blocks writers.
func (db *DB) ReadView() *View {
	m := &db.mvcc
	m.mu.Lock()
	for {
		e := m.epoch.Load()
		for len(m.inflight) > 0 && m.inflight[0].s <= e {
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
// for in-flight mutations at or below lsn to finish installing, and
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
		if len(m.inflight) == 0 || m.inflight[0].s > lsn {
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

// pinLocked registers a pin and captures the history containers.  Callers
// hold the gate mutex.
func (db *DB) pinLocked(l int64) *View {
	m := &db.mvcc
	if m.pins == nil {
		m.pins = make(map[int64]int)
	}
	m.pins[l]++
	seq, nl := m.metaAtLocked(l)
	v := &View{
		db: db, lsn: l, seq: seq, nextLink: nl,
		shards:  make([]*shardHist, len(db.shards)),
		stripes: make([]*stripeHist, len(db.stripes)),
		ctl:     db.ctlH.Load(),
	}
	for i, sh := range db.shards {
		v.shards[i] = sh.hist.Load()
	}
	for i, st := range db.stripes {
		v.stripes[i] = st.hist.Load()
	}
	return v
}

// Close releases the view's pin.  Idempotent.
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

// oidAt resolves an OID's version at the view, nil when absent/deleted.
func (v *View) oidAt(k Key) *ver[oidVal] {
	hi, ok := v.shards[v.db.shardIndex(k.Block)].oids.Load(k)
	if !ok {
		return nil
	}
	x := hi.(*hist[oidVal]).at(v.lsn)
	if x == nil || x.del {
		return nil
	}
	return x
}

// HasOID reports whether the OID exists at the view.
func (v *View) HasOID(k Key) bool { return v.oidAt(k) != nil }

// GetOID returns the OID as of the view.  Props is the view's immutable
// version map (possibly nil): callers may retain it but must not mutate.
func (v *View) GetOID(k Key) (*OID, error) {
	x := v.oidAt(k)
	if x == nil {
		return nil, fmt.Errorf("oid %v: %w", k, ErrNotFound)
	}
	return &OID{Key: k, Seq: x.val.seq, Props: x.val.props}, nil
}

// Latest returns the newest version of (block, view) at the view.
func (v *View) Latest(block, view string) (Key, bool) {
	bv := BlockView{Block: block, View: view}
	hi, ok := v.shards[v.db.shardIndex(block)].chains.Load(bv)
	if !ok {
		return Key{}, false
	}
	x := hi.(*hist[[]int]).at(v.lsn)
	if x == nil || x.del || len(x.val) == 0 {
		return Key{}, false
	}
	return Key{Block: block, View: view, Version: x.val[len(x.val)-1]}, true
}

// EachOID invokes fn for every OID live at the view, in unspecified
// order, until fn returns false.  The *OID is reused across calls: fn
// must not retain it, though it may retain Props (immutable).
func (v *View) EachOID(fn func(*OID) bool) {
	var o OID
	for _, h := range v.shards {
		cont := true
		h.oids.Range(func(key, hv any) bool {
			x := hv.(*hist[oidVal]).at(v.lsn)
			if x == nil || x.del {
				return true
			}
			o = OID{Key: key.(Key), Seq: x.val.seq, Props: x.val.props}
			cont = fn(&o)
			return cont
		})
		if !cont {
			return
		}
	}
}

// EachLatestOID invokes fn for the newest version of every chain live at
// the view, in unspecified order, until fn returns false.  The *OID is
// reused across calls; Props may be retained (immutable).
func (v *View) EachLatestOID(fn func(*OID) bool) {
	var o OID
	for i, h := range v.shards {
		oids := &v.shards[i].oids
		cont := true
		h.chains.Range(func(key, hv any) bool {
			x := hv.(*hist[[]int]).at(v.lsn)
			if x == nil || x.del || len(x.val) == 0 {
				return true
			}
			bv := key.(BlockView)
			k := Key{Block: bv.Block, View: bv.View, Version: x.val[len(x.val)-1]}
			hi, ok := oids.Load(k)
			if !ok {
				return true
			}
			ox := hi.(*hist[oidVal]).at(v.lsn)
			if ox == nil || ox.del {
				return true
			}
			o = OID{Key: k, Seq: ox.val.seq, Props: ox.val.props}
			cont = fn(&o)
			return cont
		})
		if !cont {
			return
		}
	}
}

// EachLink invokes fn for every link live at the view, in unspecified
// order, until fn returns false.  Link objects are immutable and may be
// retained.
func (v *View) EachLink(fn func(*Link) bool) {
	for _, h := range v.stripes {
		cont := true
		h.links.Range(func(_, hv any) bool {
			x := hv.(*hist[*Link]).at(v.lsn)
			if x == nil || x.del {
				return true
			}
			cont = fn(x.val)
			return cont
		})
		if !cont {
			return
		}
	}
}

// eachChain invokes fn for every version chain live at the view with its
// ascending version list (immutable; must not be mutated).
func (v *View) eachChain(fn func(bv BlockView, chain []int) bool) {
	for _, h := range v.shards {
		cont := true
		h.chains.Range(func(key, hv any) bool {
			x := hv.(*hist[[]int]).at(v.lsn)
			if x == nil || x.del || len(x.val) == 0 {
				return true
			}
			cont = fn(key.(BlockView), x.val)
			return cont
		})
		if !cont {
			return
		}
	}
}

// eachConfiguration / eachWorkspace feed the view Save path; the objects
// handed out are the immutable stored versions.
func (v *View) eachConfiguration(fn func(*Configuration)) {
	v.ctl.configs.Range(func(_, hv any) bool {
		if x := hv.(*hist[*Configuration]).at(v.lsn); x != nil && !x.del {
			fn(x.val)
		}
		return true
	})
}

func (v *View) eachWorkspace(fn func(*Workspace)) {
	v.ctl.workspaces.Range(func(_, hv any) bool {
		if x := hv.(*hist[*Workspace]).at(v.lsn); x != nil && !x.del {
			fn(x.val)
		}
		return true
	})
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
// at most one shard's trim.
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

	for _, sh := range db.shards {
		sh.mu.Lock()
		h := sh.hist.Load()
		h.oids.Range(func(key, hv any) bool {
			if hv.(*hist[oidVal]).trim(floor) {
				h.oids.Delete(key)
			}
			return true
		})
		h.chains.Range(func(key, hv any) bool {
			if hv.(*hist[[]int]).trim(floor) {
				h.chains.Delete(key)
			}
			return true
		})
		h.out.Range(func(key, hv any) bool {
			if hv.(*hist[[]*Link]).trim(floor) {
				h.out.Delete(key)
			}
			return true
		})
		h.in.Range(func(key, hv any) bool {
			if hv.(*hist[[]*Link]).trim(floor) {
				h.in.Delete(key)
			}
			return true
		})
		sh.mu.Unlock()
	}
	for _, st := range db.stripes {
		st.mu.Lock()
		h := st.hist.Load()
		h.links.Range(func(key, hv any) bool {
			if hv.(*hist[*Link]).trim(floor) {
				h.links.Delete(key)
			}
			return true
		})
		st.mu.Unlock()
	}
	db.ctl.Lock()
	h := db.ctlH.Load()
	h.configs.Range(func(key, hv any) bool {
		if hv.(*hist[*Configuration]).trim(floor) {
			h.configs.Delete(key)
		}
		return true
	})
	h.workspaces.Range(func(key, hv any) bool {
		if hv.(*hist[*Workspace]).trim(floor) {
			h.workspaces.Delete(key)
		}
		return true
	})
	db.ctl.Unlock()
}

// VersionHorizon returns the oldest stamp a view may still pin.
func (db *DB) VersionHorizon() int64 { return db.mvcc.horizon.Load() }
