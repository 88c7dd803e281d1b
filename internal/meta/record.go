package meta

import (
	"fmt"
	"slices"
	"sort"
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
// while still holding the locks that serialize the mutation it describes.
// Two mutations of the same object are therefore journaled in the order
// they were applied, and a mutation that observes another (a link creation
// that found its endpoint OID) is journaled after the record it depends
// on.  Mutations of unrelated objects may interleave in any order in the
// journal — they commute under replay.
//
// The Recorder is called with the emitting shard/stripe/control locks
// held: implementations must not call back into the DB and should only
// buffer (the journal writer appends to an in-memory buffer and performs
// file I/O later, at an explicit commit point).

// Record ops.  The argument layout of each op is documented on
// ApplyRecord, which is the authoritative decoder.
const (
	OpOID        = "oid"        // insert an OID with explicit seq
	OpUpdate     = "update"     // set/delete properties of an OID
	OpLink       = "link"       // insert a link with explicit id and seq
	OpDelLink    = "dellink"    // delete a link
	OpRetarget   = "retarget"   // move one link endpoint
	OpLinkUpdate = "linkupdate" // set/delete annotation properties of a link
	OpPropagates = "propagates" // replace a link's PROPAGATE set
	OpPrune      = "prune"      // prune old versions of a chain
	OpConfig     = "config"     // install a configuration snapshot
	OpDelConfig  = "delconfig"  // delete a configuration
	OpWorkspace  = "workspace"  // register a workspace
	OpBind       = "bind"       // bind an OID path inside a workspace
	OpEvent      = "event"      // audit: a design event entered the engine
	OpTerm       = "term"       // election-term bump: a follower was promoted to primary

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

// SetRecorder attaches (or, with nil, detaches) the mutation recorder.
// It must be called before the database is shared between goroutines —
// typically right after NewDB or after recovery replay, before serving.
func (db *DB) SetRecorder(r Recorder) { db.rec = r }

// argWriter is where an op's encoder writes a record's arguments: as the
// strings of Record.Args, or — with spell set — onto text, each after a
// space and quoted as the journal quotes a payload's fields, which is how a
// checkpoint is written without a string per argument.  One encoder per op
// serves both.
type argWriter struct {
	list  []string
	text  []byte
	spell bool
	key   []byte   // a Key's text, being quoted
	names []string // sorting space
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

// props writes a property map as the set part of propArgs: the count, then
// the pairs.
func (a *argWriter) props(m map[string]string) {
	a.num(int64(len(m)))
	a.pairs(m)
}

// pairs writes a property map's name/value pairs, sorted by name.
func (a *argWriter) pairs(m map[string]string) {
	a.names = a.names[:0]
	for n := range m {
		a.names = append(a.names, n)
	}
	slices.Sort(a.names)
	for _, n := range a.names {
		a.str(n)
		a.str(m[n])
	}
}

// propArgs encodes a property diff as the argument tail shared by OpUpdate
// and OpLinkUpdate: the set count, then name/value pairs, then deleted
// names.  Pairs and deletions are sorted by name so identical diffs encode
// identically regardless of map iteration order.  The result is allocated
// at exact capacity — this sits on the journaled delivery hot path.
func propArgs(prefix []string, sets map[string]string, dels []string) []string {
	a := argWriter{list: make([]string, 0, len(prefix)+1+2*len(sets)+len(dels))}
	a.list = append(a.list, prefix...)
	a.props(sets)
	sort.Strings(dels)
	return append(a.list, dels...)
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

// applyProps replays a decoded property diff onto a property map, the
// strings it keeps copied out through in.
func applyProps(props map[string]string, sets, dels []string, in *interner) {
	in.fill(props, sets)
	for _, n := range dels {
		delete(props, n)
	}
}

// linkArgs encodes a complete link object: id, class, endpoints, template,
// seq, the PROPAGATE set (count-prefixed) and the annotation properties as
// name/value pairs.
func linkArgs(l *Link) []string {
	a := argWriter{list: make([]string, 0, 7+len(l.Propagates)+2*len(l.Props))}
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
	l.Propagates, l.Props = attrs.intern(rest[:np], rest[np:], nil)
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
// A database being replayed into normally has no Recorder attached (the
// journal attaches it after recovery); with one attached, applied records
// are re-emitted like any other mutation, which is the desired behavior
// for a follower mirroring a leader's stream.
//
// Calls must be serialized (recovery is single-threaded; a follower's
// ApplyAppend holds its apply mutex): the record's LSN is carried to the
// inner mutation so its versions are stamped with the original numbering,
// through a single replay slot.
//
// ApplyRecord keeps no string of r — what the database keeps of it is
// copied out — so r's strings may be the bytes of a buffer the next record
// is read into, and a record of an op that keeps nothing (an event's)
// costs no allocation.  A Recorder, if attached, is handed r.Args as they
// are for the re-emission of a link update.
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
		err = db.UpdateOID(k, func(o *OID) { applyProps(o.Props, sets, dels, &db.in) })
		if err != nil {
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

	case OpDelLink:
		id, err := parseLinkID(r.Args)
		if err != nil {
			return fail(err)
		}
		if err := db.DeleteLink(id); err != nil {
			return fail(err)
		}

	case OpRetarget:
		// Args: id, old endpoint, new endpoint.
		if len(r.Args) != 3 {
			return fail(fmt.Errorf("want 3 args, got %d", len(r.Args)))
		}
		id, err := parseLinkID(r.Args[:1])
		if err != nil {
			return fail(err)
		}
		oldEnd, err := ParseKey(r.Args[1])
		if err != nil {
			return fail(err)
		}
		newEnd, err := ParseKey(r.Args[2])
		if err != nil {
			return fail(err)
		}
		if err := db.RetargetLink(id, oldEnd, db.in.key(newEnd)); err != nil {
			return fail(err)
		}

	case OpLinkUpdate:
		// Args: id, then the propArgs tail.
		if len(r.Args) < 1 {
			return fail(fmt.Errorf("missing link id"))
		}
		id, err := parseLinkID(r.Args[:1])
		if err != nil {
			return fail(err)
		}
		sets, dels, err := parsePropArgs(r.Args[1:])
		if err != nil {
			return fail(err)
		}
		err = db.replaceLink(id, OpLinkUpdate, func(nl *Link) {
			nl.Props = cloneProps(nl.Props)
			applyProps(nl.Props, sets, dels, &db.in)
		}, func(*Link) []string { return r.Args })
		if err != nil {
			return fail(err)
		}

	case OpPropagates:
		// Args: id, event names.
		if len(r.Args) < 1 {
			return fail(fmt.Errorf("missing link id"))
		}
		id, err := parseLinkID(r.Args[:1])
		if err != nil {
			return fail(err)
		}
		events := make([]string, len(r.Args)-1)
		for i, e := range r.Args[1:] {
			events[i] = db.in.str(e)
		}
		if err := db.SetLinkPropagates(id, events); err != nil {
			return fail(err)
		}

	case OpPrune:
		// Args: block, view, keep.
		if len(r.Args) != 3 {
			return fail(fmt.Errorf("want 3 args, got %d", len(r.Args)))
		}
		keep, err := strconv.Atoi(r.Args[2])
		if err != nil {
			return fail(err)
		}
		if _, err := db.PruneVersions(r.Args[0], r.Args[1], keep); err != nil {
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

func parseLinkID(args []string) (LinkID, error) {
	if len(args) < 1 {
		return 0, fmt.Errorf("missing link id")
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("link id %q: %v", args[0], err)
	}
	return LinkID(id), nil
}

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
	sh, h := db.lockShard(k.Block)
	defer sh.mu.Unlock()
	return db.insertOIDLocked(h, k, seq)
}

// insertOIDLocked is the one place a new OID enters the database: its
// first version, the chain's next and the journal record, under the lock of
// h's shard.  The version must be greater than the newest in the chain;
// gaps are legal because old versions may have been pruned (see
// PruneVersions).
func (db *DB) insertOIDLocked(h *shardHist, k Key, seq int64) error {
	if _, ok := h.oids.at(k, newest); ok {
		return fmt.Errorf("oid %v: %w", k, ErrExists)
	}
	bv := k.BV()
	chain, _ := h.chains.at(bv, newest)
	if len(chain) > 0 && k.Version <= chain[len(chain)-1] {
		return fmt.Errorf("oid %v: chain is already at version %d: %w",
			k, chain[len(chain)-1], ErrBadVersion)
	}
	s := db.beginMut(OpOID, 0, func() []string {
		return []string{k.String(), strconv.FormatInt(seq, 10)}
	})
	h.oids.push(k, s, oidVal{seq: seq}, false)
	h.chains.push(bv, s, with(chain, k.Version), false)
	db.endMut(s)
	return nil
}

// lockLinkEnds validates a link and locks its endpoints' shards, both of
// which must hold their OID; on error nothing stays locked.
func (db *DB) lockLinkEnds(l *Link) (sf, st *dbShard, err error) {
	if err := l.validate(); err != nil {
		return nil, nil, err
	}
	sf, st = db.lockPair(l.From, l.To)
	if !db.head.HasOID(l.From) {
		err = fmt.Errorf("link from %v: %w", l.From, ErrNotFound)
	} else if !db.head.HasOID(l.To) {
		err = fmt.Errorf("link to %v: %w", l.To, ErrNotFound)
	}
	if err != nil {
		unlockPair(sf, st)
		return nil, nil, err
	}
	return sf, st, nil
}

// insertLinkObject installs a fully described link — the replay form of
// AddLink, which must keep the recorded id and seq instead of allocating.
func (db *DB) insertLinkObject(l *Link) error {
	sf, st, err := db.lockLinkEnds(l)
	if err != nil {
		return err
	}
	defer unlockPair(sf, st)
	return db.installLinkLocked(l)
}

// installLinkLocked is the one place a new link enters the database: the
// link table, both ends' postings and the journal record, under the
// endpoint shard locks lockLinkEnds took.
func (db *DB) installLinkLocked(l *Link) error {
	stripe := db.stripeOf(l.ID)
	stripe.Lock()
	defer stripe.Unlock()
	links := &db.head.stripe(l.ID).links
	if _, ok := links.at(l.ID, newest); ok {
		return fmt.Errorf("link %d: %w", l.ID, ErrExists)
	}
	floor(&db.nextLink, int64(l.ID))
	fh, th := db.head.shard(l.From.Block), db.head.shard(l.To.Block)
	s := db.beginMut(OpLink, int64(l.ID), func() []string { return linkArgs(l) })
	links.push(l.ID, s, l, false)
	fh.post(true, l.From, s, with(fh.links(l.From, newest).out, l))
	th.post(false, l.To, s, with(th.links(l.To, newest).in, l))
	db.endMut(s)
	return nil
}

// installConfig is the one place a configuration enters the database,
// under its given name and seq: the whole of the replay form, and the
// install half of the Snapshot* constructors (installNewConfig).
func (db *DB) installConfig(c *Configuration) error {
	if err := ValidateName(c.Name); err != nil {
		return fmt.Errorf("configuration: %w", err)
	}
	db.ctl.Lock()
	defer db.ctl.Unlock()
	h := db.store.Load().ctl
	if _, ok := h.configs.at(c.Name, newest); ok {
		return fmt.Errorf("configuration %q: %w", c.Name, ErrExists)
	}
	s := db.beginMut(OpConfig, 0, func() []string { return configArgs(c) })
	h.configs.push(c.Name, s, c, false)
	db.endMut(s)
	return nil
}
