package meta

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/wire"
)

// Change capture and replay.  Every committed mutation of the meta-database
// can be described by a Record — a small, order-sensitive description of
// what changed, with absolute values (never increments), so that replaying
// a record stream against a consistent base state reconstructs the exact
// database.  The append-only journal (internal/journal) persists these
// records; ApplyRecord is the replay side.
//
// # Emission ordering
//
// A database with a Recorder attached (SetRecorder) emits each record
// while still holding mu, the writer lock that serializes every mutation:
// the journal order is the order the mutations were applied, so a mutation
// that observes another (a link creation that found its endpoint OID) is
// journaled after the record it depends on.
//
// A mutation calls the Recorder with mu held, RecordEvent with no database
// lock: implementations must be safe for concurrent use, must not call back
// into the DB and should only buffer (the journal writer appends to an
// in-memory buffer and performs file I/O later, at an explicit commit
// point).

// Record ops.  The argument layout of each op is documented on
// ApplyRecord, which is the authoritative decoder.
const (
	OpOID       = "oid"       // insert an OID with explicit seq
	OpUpdate    = "update"    // set/delete properties of an OID
	OpLink      = "link"      // insert a link with explicit id and seq
	OpRetarget  = "retarget"  // move one link endpoint
	OpConfig    = "config"    // install a configuration snapshot
	OpDelConfig = "delconfig" // delete a configuration
	OpWorkspace = "workspace" // register a workspace
	OpBind      = "bind"      // bind an OID path inside a workspace
	OpEvent     = "event"     // audit: a design event entered the engine
	OpTerm      = "term"      // election-term bump: a follower was promoted to primary

	// opClock closes a checkpoint (checkpoint.go) and is found nowhere else.
	opClock = "clock"
)

// Record is one replayable mutation (or, for OpEvent, one audit entry).
// Args carry the op-specific fields as strings in wire-friendly form; keys
// use the block,view,version syntax of ParseKey.
type Record struct {
	// LSN is the journal sequence number, assigned by the log appender at
	// emission time; zero until then.  Recovery uses it to decide which
	// records a snapshot already covers.
	LSN int64

	// Seq is the database logical clock observed at emission.  Replay
	// raises the clock to at least this value, so a recovered database
	// never re-issues logical timestamps that existed before the crash.
	Seq int64

	Op   string
	Args []string
}

// Recorder receives one Record per committed mutation and returns the
// log sequence number it assigned — the journal writer's LSN, which the
// MVCC layer uses as the mutation's version stamp.  See the package
// comment on emission ordering and the locking constraints.
type Recorder interface {
	Record(Record) int64
}

// SetRecorder attaches (or, with nil, detaches) the mutation recorder —
// right after NewDB or recovery replay, before serving, or on a promotion,
// while a journal-less follower's engine is already serving reads.
func (db *DB) SetRecorder(r Recorder) { db.rec.Store(&r) }

// recorder returns the attached recorder, nil when there is none.
func (db *DB) recorder() Recorder {
	if r := db.rec.Load(); r != nil {
		return *r
	}
	return nil
}

// RecordEvent hands the recorder an OpEvent audit record — a design event
// entering the engine — at the current logical clock and returns its LSN,
// 0 when no recorder is attached.  It changes nothing: no MVCC version is
// stamped and no database lock is taken, so the engine emits it under its
// own queue lock, in enqueue order.  args builds the record arguments and
// is only invoked when a recorder is attached.
func (db *DB) RecordEvent(args func() []string) int64 {
	r := db.recorder()
	if r == nil {
		return 0
	}
	return r.Record(Record{Seq: db.Seq(), Op: OpEvent, Args: args()})
}

// argWriter is where an op's encoder writes a record's arguments: as the
// strings of Record.Args, or — with spell set — onto text, each after a
// space and quoted as the journal quotes a payload's fields, which is how a
// checkpoint is written without a string per argument.  One encoder per op
// serves both.
type argWriter struct {
	list  []string
	text  []byte
	spell bool
	key   []byte // a Key's text, being quoted
}

func (a *argWriter) str(s string) {
	if a.spell {
		a.text = wire.AppendQuote(append(a.text, ' '), s)
	} else {
		a.list = append(a.list, s)
	}
}

func (a *argWriter) num(n int64) {
	if a.spell {
		a.text = strconv.AppendInt(append(a.text, ' '), n, 10)
	} else {
		a.list = append(a.list, strconv.FormatInt(n, 10))
	}
}

func (a *argWriter) keyArg(k Key) {
	if a.spell {
		a.key = k.AppendTo(a.key[:0])
		a.text = wire.AppendQuote(append(a.text, ' '), a.key)
	} else {
		a.list = append(a.list, k.String())
	}
}

// props writes a property set as the set part of propArgs: the count, then
// the pairs.
func (a *argWriter) props(p Props) {
	a.num(int64(p.Len()))
	a.pairs(p)
}

// pairs writes a property set's name/value pairs, in name order.
func (a *argWriter) pairs(p Props) {
	p.Each(func(n, v string) bool {
		a.str(n)
		a.str(v)
		return true
	})
}

// propArgs encodes the difference between two property sets as the
// argument tail of OpUpdate, after head: the count of names after sets anew
// or to another value, then those name/value pairs, then the names before
// has and after has not — one merge of the two sorted sets, so that one
// difference always encodes alike.  The result is allocated at exact
// capacity: this sits on the journaled delivery hot path.
func propArgs(head string, before, after Props) []string {
	var setBuf [32]string
	var delBuf [8]string
	sets, dels := setBuf[:0], delBuf[:0]
	for a, b := after.s, before.s; len(a) > 0 || len(b) > 0; {
		var an, av, ar, bn, bv, br string
		if len(a) > 0 {
			an, ar = nextSized(a)
			av, ar = nextSized(ar)
			if n := len(a) - len(ar); n <= len(b) && a[:n] == b[:n] {
				a, b = ar, b[n:] // the same pair, spelled alike
				continue
			}
		}
		if len(b) > 0 {
			bn, br = nextSized(b)
			bv, br = nextSized(br)
		}
		switch {
		case len(b) == 0 || len(a) > 0 && an < bn:
			sets, a = append(sets, an, av), ar
		case len(a) == 0 || bn < an:
			dels, b = append(dels, bn), br
		default:
			if av != bv {
				sets = append(sets, an, av)
			}
			a, b = ar, br
		}
	}
	args := make([]string, 0, 2+len(sets)+len(dels))
	args = append(args, head, strconv.Itoa(len(sets)/2))
	return append(append(args, sets...), dels...)
}

// parsePropArgs decodes the tail produced by propArgs into slices of it:
// the set names and values, in pairs, and the deleted names.
func parsePropArgs(args []string) (sets, dels []string, err error) {
	if len(args) == 0 {
		return nil, nil, fmt.Errorf("missing set count")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 || len(args) < 1+2*n {
		return nil, nil, fmt.Errorf("bad set count %q", args[0])
	}
	return args[1 : 1+2*n], args[1+2*n:], nil
}

// linkArgs encodes a complete link object: id, class, endpoints, template,
// seq, the PROPAGATE set (count-prefixed) and the annotation properties as
// name/value pairs.
func linkArgs(l *Link) []string {
	a := argWriter{list: make([]string, 0, 7+len(l.Propagates)+2*l.Props.Len())}
	a.link(l)
	return a.list
}

func (a *argWriter) link(l *Link) {
	a.num(int64(l.ID))
	a.str(l.Class.String())
	a.keyArg(l.From)
	a.keyArg(l.To)
	a.str(l.Template)
	a.num(l.Seq)
	a.num(int64(len(l.Propagates)))
	for _, e := range l.Propagates {
		a.str(e)
	}
	a.pairs(l.Props)
}

// parseLinkArgs decodes the layout produced by linkArgs, the strings it
// keeps passed through in and the attributes through attrs.
func parseLinkArgs(args []string, in *interner, attrs *attrTable) (*Link, error) {
	if len(args) < 7 {
		return nil, fmt.Errorf("link record wants at least 7 args, got %d", len(args))
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("link id %q: %v", args[0], err)
	}
	class, err := ParseLinkClass(args[1])
	if err != nil {
		return nil, err
	}
	from, err := ParseKey(args[2])
	if err != nil {
		return nil, fmt.Errorf("from: %w", err)
	}
	to, err := ParseKey(args[3])
	if err != nil {
		return nil, fmt.Errorf("to: %w", err)
	}
	seq, err := strconv.ParseInt(args[5], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("link seq %q: %v", args[5], err)
	}
	np, err := strconv.Atoi(args[6])
	if err != nil || np < 0 || len(args) < 7+np {
		return nil, fmt.Errorf("bad propagate count %q", args[6])
	}
	rest := args[7:]
	if (len(rest)-np)%2 != 0 {
		return nil, fmt.Errorf("odd property tail on link %d", id)
	}
	l := &Link{ID: LinkID(id), Class: class, From: in.key(from), To: in.key(to), Template: in.str(args[4]), Seq: seq}
	l.Propagates, l.Props = attrs.edit(rest[:np], Props{}, rest[np:], nil)
	return l, nil
}

// floor raises a counter — the logical clock, the link-ID allocator, the
// applied-LSN marker — to at least v.
func floor(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ApplyRecord replays one captured mutation.  Replay expects the records
// of a journal tail in emission order against the consistent base state
// the matching snapshot restored; a record that contradicts the database
// (an OID that already exists, a link endpoint that does not) is reported
// as an error rather than papered over — journal corruption should fail
// recovery loudly, not produce a silently wrong project.
//
// A database being replayed into has no Recorder attached: recovery
// attaches it afterwards, and a follower appends the primary's frames
// through its journal's ApplyAppend instead.  With one attached, applied
// records are re-emitted like any other mutation, under their own LSNs.
//
// Calls must be serialized (recovery is single-threaded; a follower's
// ApplyAppend holds its apply mutex): the record's LSN is carried to the
// inner mutation so its versions are stamped with the original numbering,
// through a single replay slot.
//
// ApplyRecord keeps no string of r — what the database keeps of it is
// copied out — so r's strings may be the bytes of a buffer the next record
// is read into, and a record of an op that keeps nothing (an event's)
// costs no allocation.  A record of an op other than the Op constants is
// refused as unknown and changes nothing.
func (db *DB) ApplyRecord(r Record) error {
	if r.LSN > 0 {
		db.replayAt.Store(r.LSN)
		db.replaySeq.Store(r.Seq)
		defer func() {
			db.replayAt.Store(0)
			db.replaySeq.Store(0)
		}()
	}
	return db.applyRecord(r)
}

func (db *DB) applyRecord(r Record) error {
	fail := func(err error) error {
		return fmt.Errorf("meta: apply %s record (lsn %d): %w", r.Op, r.LSN, err)
	}
	switch r.Op {
	case OpOID:
		// Args: key, seq.
		if len(r.Args) != 2 {
			return fail(fmt.Errorf("want 2 args, got %d", len(r.Args)))
		}
		k, err := ParseKey(r.Args[0])
		if err != nil {
			return fail(err)
		}
		seq, err := strconv.ParseInt(r.Args[1], 10, 64)
		if err != nil {
			return fail(err)
		}
		if err := db.insertOIDSeq(db.in.key(k), seq); err != nil {
			return fail(err)
		}

	case OpUpdate:
		// Args: key, then the propArgs tail (set count, name/value pairs,
		// deleted names).
		if len(r.Args) < 1 {
			return fail(fmt.Errorf("missing key"))
		}
		k, err := ParseKey(r.Args[0])
		if err != nil {
			return fail(err)
		}
		sets, dels, err := parsePropArgs(r.Args[1:])
		if err != nil {
			return fail(err)
		}
		if err := db.editProps(k, sets, dels); err != nil {
			return fail(err)
		}

	case OpLink:
		l, err := parseLinkArgs(r.Args, &db.in, &db.attrs)
		if err != nil {
			return fail(err)
		}
		if err := db.insertLinkObject(l); err != nil {
			return fail(err)
		}

	case OpRetarget:
		// Args: id, old endpoint, new endpoint.
		if len(r.Args) != 3 {
			return fail(fmt.Errorf("want 3 args, got %d", len(r.Args)))
		}
		id, err := strconv.ParseInt(r.Args[0], 10, 64)
		if err != nil {
			return fail(fmt.Errorf("link id %q: %v", r.Args[0], err))
		}
		oldEnd, err := ParseKey(r.Args[1])
		if err != nil {
			return fail(err)
		}
		newEnd, err := ParseKey(r.Args[2])
		if err != nil {
			return fail(err)
		}
		if err := db.RetargetLink(LinkID(id), oldEnd, db.in.key(newEnd)); err != nil {
			return fail(err)
		}

	case OpConfig:
		// Args: name, seq, oid count, keys, link ids.
		c, err := parseConfigArgs(r.Args, &db.in)
		if err != nil {
			return fail(err)
		}
		if err := db.installConfig(c); err != nil {
			return fail(err)
		}

	case OpDelConfig:
		if len(r.Args) != 1 {
			return fail(fmt.Errorf("want 1 arg, got %d", len(r.Args)))
		}
		if err := db.DeleteConfiguration(r.Args[0]); err != nil {
			return fail(err)
		}

	case OpWorkspace:
		// Args: name, root.
		if len(r.Args) != 2 {
			return fail(fmt.Errorf("want 2 args, got %d", len(r.Args)))
		}
		if err := db.AddWorkspace(db.in.str(r.Args[0]), db.in.str(r.Args[1])); err != nil {
			return fail(err)
		}

	case OpBind:
		// Args: workspace, key, path.
		if len(r.Args) != 3 {
			return fail(fmt.Errorf("want 3 args, got %d", len(r.Args)))
		}
		k, err := ParseKey(r.Args[1])
		if err != nil {
			return fail(err)
		}
		if err := db.BindPath(r.Args[0], db.in.key(k), db.in.str(r.Args[2])); err != nil {
			return fail(err)
		}

	case OpEvent:
		// Audit only: the engine's event stream, not a database mutation.
		// No version is stamped either — a view at an event record's LSN
		// equals the view at the last mutation before it.

	case OpTerm:
		// Args: new term.  Opens a new election term at this record's LSN.
		// The table is LSN-keyed rather than MVCC-versioned: a view filters
		// it by its pinned LSN, so no version stamp is needed.  A bump that
		// does not move the term forward is a record from a forked history
		// — exactly what term fencing exists to catch — and fails loudly.
		if len(r.Args) != 1 {
			return fail(fmt.Errorf("want 1 arg, got %d", len(r.Args)))
		}
		term, err := strconv.ParseInt(r.Args[0], 10, 64)
		if err != nil {
			return fail(err)
		}
		if err := db.applyTermBump(term, r.LSN); err != nil {
			return fail(err)
		}

	default:
		return fail(fmt.Errorf("unknown op"))
	}
	floor(&db.seq, r.Seq)
	floor(&db.appliedLSN, r.LSN)
	return nil
}

// AppliedLSN returns the journal position of the newest record applied via
// ApplyRecord — the follower-side read horizon.  Databases that never
// replayed a record report 0.
func (db *DB) AppliedLSN() int64 { return db.appliedLSN.Load() }

// configArgs encodes a configuration: name, seq, OID count, keys, link ids.
func configArgs(c *Configuration) []string {
	a := argWriter{list: make([]string, 0, 3+len(c.OIDs)+len(c.Links))}
	a.config(c)
	return a.list
}

func (a *argWriter) config(c *Configuration) {
	a.str(c.Name)
	a.num(c.Seq)
	a.num(int64(len(c.OIDs)))
	for _, k := range c.OIDs {
		a.keyArg(k)
	}
	for _, id := range c.Links {
		a.num(int64(id))
	}
}

// parseConfigArgs decodes the layout produced by configArgs, the strings it
// keeps passed through in.
func parseConfigArgs(args []string, in *interner) (*Configuration, error) {
	if len(args) < 3 {
		return nil, fmt.Errorf("config record wants at least 3 args, got %d", len(args))
	}
	seq, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("config seq %q: %v", args[1], err)
	}
	n, err := strconv.Atoi(args[2])
	if err != nil || n < 0 || len(args) < 3+n {
		return nil, fmt.Errorf("bad oid count %q", args[2])
	}
	c := &Configuration{Name: in.str(args[0]), Seq: seq}
	keys, ids := args[3:3+n], args[3+n:]
	if len(keys) > 0 {
		c.OIDs = make([]Key, 0, len(keys))
	}
	for _, ks := range keys {
		k, err := ParseKey(ks)
		if err != nil {
			return nil, err
		}
		c.OIDs = append(c.OIDs, in.key(k))
	}
	if len(ids) > 0 {
		c.Links = make([]LinkID, 0, len(ids))
	}
	for _, s := range ids {
		id, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("config link id %q: %v", s, err)
		}
		c.Links = append(c.Links, LinkID(id))
	}
	return c, nil
}

// insertOIDSeq inserts an OID with an explicit version number and logical
// timestamp — the replay form of NewVersion, which must not advance the
// clock.
func (db *DB) insertOIDSeq(k Key, seq int64) error {
	if err := k.Validate(); err != nil {
		return err
	}
	st := db.lock()
	defer db.mu.Unlock()
	return db.insertOIDLocked(st, k, seq)
}

// insertOIDLocked is the one place a new OID enters the database: its
// first version, the chain's next and the journal record, under mu.  The
// version must be greater than the newest in the chain; gaps are legal
// because a loaded document or checkpoint may carry a chain whose old
// versions an older build pruned.
func (db *DB) insertOIDLocked(st *store, k Key, seq int64) error {
	if _, ok := st.oids.at(k, newest); ok {
		return fmt.Errorf("oid %v: %w", k, ErrExists)
	}
	bv := k.BV()
	chain, _ := st.chains.at(bv, newest)
	if len(chain) > 0 && k.Version <= chain[len(chain)-1] {
		return fmt.Errorf("oid %v: chain is already at version %d: %w",
			k, chain[len(chain)-1], ErrBadVersion)
	}
	s := db.beginMut(OpOID, func() []string {
		return []string{k.String(), strconv.FormatInt(seq, 10)}
	})
	st.oids.push(k, s, oidVal{seq: seq}, false)
	st.chains.push(bv, s, with(chain, k.Version), false)
	db.endMut()
	return nil
}

// checkLinkLocked validates a link and checks that both its ends hold their
// OID.  The caller holds mu.
func (db *DB) checkLinkLocked(l *Link) error {
	if err := l.validate(); err != nil {
		return err
	}
	if !db.head.HasOID(l.From) {
		return fmt.Errorf("link from %v: %w", l.From, ErrNotFound)
	}
	if !db.head.HasOID(l.To) {
		return fmt.Errorf("link to %v: %w", l.To, ErrNotFound)
	}
	return nil
}

// insertLinkObject installs a fully described link — the replay form of
// AddLink, which must keep the recorded id and seq instead of allocating.
func (db *DB) insertLinkObject(l *Link) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkLinkLocked(l); err != nil {
		return err
	}
	return db.installLinkLocked(l)
}

// installLinkLocked is the one place a new link enters the database: the
// link table, both ends' postings and the journal record, under mu, after
// checkLinkLocked.
func (db *DB) installLinkLocked(l *Link) error {
	st := db.store.Load()
	if _, ok := st.links.at(l.ID, newest); ok {
		return fmt.Errorf("link %d: %w", l.ID, ErrExists)
	}
	floor(&db.nextLink, int64(l.ID))
	s := db.beginMut(OpLink, func() []string { return linkArgs(l) })
	st.links.push(l.ID, s, l, false)
	st.post(true, l.From, s, with(st.posting(l.From, newest).out, l))
	st.post(false, l.To, s, with(st.posting(l.To, newest).in, l))
	db.endMut()
	return nil
}

// installConfig is the one place a configuration enters the database,
// under its given name and seq: the whole of the replay form, and the
// install half of the Snapshot* constructors (installNewConfig).
func (db *DB) installConfig(c *Configuration) error {
	if err := ValidateName(c.Name); err != nil {
		return fmt.Errorf("configuration: %w", err)
	}
	st := db.lock()
	defer db.mu.Unlock()
	if _, ok := st.configs.at(c.Name, newest); ok {
		return fmt.Errorf("configuration %q: %w", c.Name, ErrExists)
	}
	s := db.beginMut(OpConfig, func() []string { return configArgs(c) })
	st.configs.push(c.Name, s, c, false)
	db.endMut()
	return nil
}
