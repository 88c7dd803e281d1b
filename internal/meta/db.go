package meta

import (
	"fmt"
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
// under the writer lock below, builds the next immutable values, and
// pushes them under its stamp; nothing is ever changed in place.
//
// # One writer
//
// The database has one writer at a time, as the paper's engine delivers
// one event at a time: every mutation holds mu from its first check through
// its last push, so at most one stamp is ever in flight.  Readers take no
// lock at all.  The store is one table per kind of object — OIDs, version
// chains, adjacency postings, links, configurations, workspaces — and a
// reclaim pass holds mu for one table at a time.  The logical clock and the
// link-ID counter are atomics, read without mu.
//
// All mutation goes through DB methods and every read through a View
// (view.go), which takes no lock: Head for point reads, a pinned view
// (ReadView, ReadViewAt) for what reads more than one object — Checkpoint, the
// Snapshot* configuration builders, the state scans, the enumerations and
// the graph walks (graphview.go).
type DB struct {
	// mu serializes the writers: every mutation, RestoreFrom, the graph
	// audit and each table of a reclaim pass.  It is never held across
	// I/O: the Recorder only buffers.
	mu sync.Mutex

	// upd is the property map UpdateOID hands its callback, reused under mu
	// (scratch).
	upd map[string]string

	seq      atomic.Int64
	nextLink atomic.Int64

	// appliedLSN is the journal position of the newest record applied via
	// ApplyRecord — on a replication follower, the read-your-LSN horizon a
	// client can wait on before querying.  Zero on a database that has
	// never replayed records.
	appliedLSN atomic.Int64

	// terms is the election-term table (term.go): one TermStart per
	// promotion this database's history has lived through, copy-on-write
	// behind the pointer so handshake validation and checkpoints read it
	// without locks.  nil means the genesis term 1.
	terms atomic.Pointer[termTable]

	// rec, when set, receives one Record per committed mutation — the
	// change-capture stream behind the append-only journal — and the
	// engine's events.  An atomic: RecordEvent reads it without mu, and a
	// promotion sets it under a live engine.
	rec atomic.Pointer[Recorder]

	// MVCC state (mvcc.go): the epoch gate that stamps mutations and pins
	// views.  store is every container; head is the view Head returns;
	// replayAt carries the record LSN being replayed so ApplyRecord's
	// inner mutations stamp with the original numbering.
	mvcc      mvccState
	store     atomic.Pointer[store]
	head      View
	replayAt  atomic.Int64
	replaySeq atomic.Int64

	// attrs keeps one copy of each link attribute set and OID property set
	// (link.go).
	attrs attrTable

	// in copies out the strings ApplyRecord keeps, and LoadCheckpoint's;
	// both are serialized, and only they use it.
	in interner
}

// scratch returns the scratch property map, holding props.  The caller
// holds mu and keeps nothing of the map: the version it publishes is the
// database's shared copy of the set (attrTable).
func (db *DB) scratch(props Props) map[string]string {
	if db.upd == nil {
		db.upd = make(map[string]string)
	}
	clear(db.upd)
	props.Each(func(n, v string) bool {
		db.upd[n] = v
		return true
	})
	return db.upd
}

// NewDB returns an empty meta-database.
func NewDB() *DB {
	db := &DB{}
	// The header history fills some reclaimEvery entries between two reclaim
	// passes; reserving them once spares the doublings that would get there.
	db.mvcc.meta = make([]metaVer, 0, reclaimEvery)
	db.store.Store(&store{})
	db.head.db, db.head.lsn = db, newest
	db.head.closed.Store(true)
	return db
}

// fnv1a is the FNV-1a hash: of the names a table's key holds (hashKey) and
// of the strings an interner keeps.
func fnv1a[S string | []byte](s S) uint32 {
	const prime32 = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * prime32
	}
	return h
}

// lock takes mu and returns the store a mutation writes.
func (db *DB) lock() *store {
	db.mu.Lock()
	return db.store.Load()
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
	st := db.lock()
	defer db.mu.Unlock()
	k := Key{Block: block, View: view, Version: 1}
	if chain, ok := st.chains.at(k.BV(), newest); ok {
		k.Version = chain[len(chain)-1] + 1
	}
	if err := db.insertOIDLocked(st, k, db.tick()); err != nil {
		return Key{}, err
	}
	return k, nil
}

// SetProp sets a property on an OID.  Setting the value it already has
// changes nothing and emits nothing.
func (db *DB) SetProp(k Key, name, value string) error {
	if err := ValidateName(name); err != nil {
		return fmt.Errorf("property: %w", err)
	}
	return db.editProps(k, []string{name, value}, nil)
}

// UpdateOID runs fn on the OID's properties under mu.  It is the batched
// read-modify-write path of the run-time engine: one delivery's property
// assignments and continuous re-evaluations read and write the properties
// in a single lock round-trip instead of one GetProp/SetProp pair each.  fn
// may read and mutate the map but must not retain it and must not call DB
// mutators (which would deadlock).  Property names written by fn must
// satisfy ValidateName; the caller validates because fn has no error
// channel.
//
// The map is the database's scratch, filled from the newest version's
// properties; after fn it is compared with that version, and a changed set
// is published — the database's shared copy of it (attrTable) — and its
// difference journaled as one update.  An fn that changes nothing emits
// nothing and allocates nothing.
func (db *DB) UpdateOID(k Key, fn func(props map[string]string)) error {
	st := db.lock()
	defer db.mu.Unlock()
	x, err := st.oid(k, newest)
	if err != nil {
		return err
	}
	m := db.scratch(x.props)
	fn(m)
	same, n := true, 0
	x.props.Each(func(name, v string) bool {
		mv, ok := m[name]
		same, n = ok && mv == v, n+1
		return same
	})
	if !same || n != len(m) {
		_, props := db.attrs.editMap(nil, m)
		db.putProps(st, k, x, props)
	}
	return nil
}

// editProps publishes the OID's newest properties with the name/value pairs
// set and the names of dels deleted (attrTable.edit), unless that changes
// nothing.
func (db *DB) editProps(k Key, pairs, dels []string) error {
	st := db.lock()
	defer db.mu.Unlock()
	x, err := st.oid(k, newest)
	if err != nil {
		return err
	}
	_, props := db.attrs.edit(nil, x.props, pairs, dels)
	if props == x.props {
		return nil
	}
	db.putProps(st, k, x, props)
	return nil
}

// putProps publishes props as the next version of the OID k, whose newest
// is x, journaled as the difference from x's properties (propArgs).  The
// caller holds mu.
func (db *DB) putProps(st *store, k Key, x oidVal, props Props) {
	s := db.beginMut(OpUpdate, func() []string { return propArgs(k.String(), x.props, props) })
	st.oids.push(k, s, oidVal{seq: x.seq, props: props}, false)
	db.endMut()
}

// ---------------------------------------------------------------------------
// Links

// AddLink inserts a link between two existing OIDs and returns its ID.
// Class-specific invariants are checked (a use link must not cross view
// types).  propagates may be nil, in any order and repeated; template and
// props may be empty.  Neither list nor map is kept: the link shares the one
// copy of its attributes the database holds (attrTable).  It only allocates
// the ID and the seq — after checkLinkLocked, so a refused link allocates
// neither — and installs like a replayed record does.
func (db *DB) AddLink(class LinkClass, from, to Key, template string, propagates []string, props map[string]string) (LinkID, error) {
	l := &Link{Class: class, From: from, To: to, Template: template}
	l.Propagates, l.Props = db.attrs.editMap(propagates, props)
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkLinkLocked(l); err != nil {
		return 0, err
	}
	l.ID = LinkID(db.nextLink.Add(1))
	l.Seq = db.tick()
	if err := db.installLinkLocked(l); err != nil {
		return 0, err
	}
	return l.ID, nil
}

// RetargetLink moves one endpoint of a link from oldEnd to newEnd.  It
// implements the link "shifting" of Figure 3: when a new version of an OID
// is created, move-mode links are shifted from the previous version to the
// new one.  oldEnd must currently be an endpoint of the link.
func (db *DB) RetargetLink(id LinkID, oldEnd, newEnd Key) error {
	st := db.lock()
	defer db.mu.Unlock()
	l, ok := st.links.at(id, newest)
	if !ok {
		return fmt.Errorf("link %d: %w", id, ErrNotFound)
	}
	if oldEnd != l.From && oldEnd != l.To {
		return fmt.Errorf("link %d: %v is not an endpoint: %w", id, oldEnd, ErrBadLink)
	}
	// Links are immutable once published, so shifting installs a copy
	// (which keeps sharing the attributes: they do not change).
	moved := l.copy()
	kept, out := l.To, oldEnd == l.From // the end that stays, and which end moves
	if out {
		moved.From = newEnd
	} else {
		moved.To, kept = newEnd, l.From
	}
	if err := moved.validate(); err != nil {
		return err
	}
	if _, ok := st.oids.at(newEnd, newest); !ok {
		return fmt.Errorf("retarget to %v: %w", newEnd, ErrNotFound)
	}
	s := db.beginMut(OpRetarget, func() []string {
		return []string{strconv.FormatInt(int64(id), 10), oldEnd.String(), newEnd.String()}
	})
	st.links.push(id, s, moved, false)
	// Three postings change: the one the link left, the one it joined,
	// and the unmoved end's (its member is the replacement object now).
	st.post(out, oldEnd, s, without(st.posting(oldEnd, newest).of(out), id))
	st.post(out, newEnd, s, with(st.posting(newEnd, newest).of(out), moved))
	st.post(!out, kept, s, replaced(st.posting(kept, newest).of(!out), moved))
	db.endMut()
	return nil
}
