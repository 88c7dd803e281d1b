package meta

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// A checkpoint is the database as a run of the journal's own records — one
// per object of a pinned view, in canonical order — which the journal frames
// (internal/journal), writes behind the write path and recovers from:
//
//	term      <term>                               each promotion, at the LSN it began
//	oid       <key> <seq> [<n> <name> <value>...]  by key, with its properties
//	link      (linkArgs)                           by ID
//	config    (configArgs)                         by name
//	workspace <name> <root> [<key> <path>...]      by name, with its bindings
//	clock     <next_link>                          the clocks, and the end
//
// Every record but a term's carries the view's LSN, and every one its
// clock as Seq: two nodes at one LSN write the same bytes.  The forms that
// extend a record of the log — an OID's properties, a workspace's bindings,
// the clock — are read here only, never replayed (a binding may name a
// pruned OID, which a bind replay refuses).  The clock comes last, so that
// a checkpoint cut short at a record boundary is not a smaller database.

// snapshot is what a checkpoint and the JSON document (persist.go) hold:
// the clocks, the term table and the objects.
type snapshot struct {
	seq, nextLink int64
	terms         []TermStart
	oids          []OID
	links         []*Link
	configs       []*Configuration
	workspaces    []*Workspace
}

// snapshot collects the view, in canonical order.
func (v *View) snapshot() *snapshot {
	s := &snapshot{seq: v.seq, nextLink: v.nextLink, terms: v.db.termsUpTo(v.lsn)}
	v.EachOID(func(o *OID) bool {
		s.oids = append(s.oids, *o)
		return true
	})
	v.EachLink(func(l *Link) bool {
		s.links = append(s.links, l)
		return true
	})
	v.eachConfiguration(func(c *Configuration) { s.configs = append(s.configs, c) })
	v.eachWorkspace(func(ws *Workspace) { s.workspaces = append(s.workspaces, ws) })
	slices.SortFunc(s.oids, func(a, b OID) int { return a.Key.Compare(b.Key) })
	slices.SortFunc(s.links, func(a, b *Link) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(s.configs, func(a, b *Configuration) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(s.workspaces, func(a, b *Workspace) int { return strings.Compare(a.Name, b.Name) })
	return s
}

// Checkpoint hands emit the view's checkpoint a record at a time: its LSN,
// Seq and op in head, and its arguments spelled, each after a space, into a
// buffer reused from record to record — good until emit returns, whose first
// error ends the checkpoint and is Checkpoint's.  No lock is taken; v must
// be a pinned view.
func (v *View) Checkpoint(emit func(head Record, args []byte) error) error {
	s := v.snapshot()
	a := argWriter{spell: true, text: make([]byte, 0, 512), key: make([]byte, 0, 64), names: make([]string, 0, 16)}
	var err error
	put := func(lsn int64, op string, args func()) {
		if err == nil {
			a.text = a.text[:0]
			args()
			err = emit(Record{LSN: lsn, Seq: s.seq, Op: op}, a.text)
		}
	}
	for _, ts := range s.terms {
		put(ts.LSN, OpTerm, func() { a.num(ts.Term) })
	}
	for i := range s.oids {
		o := &s.oids[i]
		put(v.lsn, OpOID, func() {
			a.keyArg(o.Key)
			a.num(o.Seq)
			if len(o.Props) > 0 {
				a.props(o.Props)
			}
		})
	}
	for _, l := range s.links {
		put(v.lsn, OpLink, func() { a.link(l) })
	}
	for _, c := range s.configs {
		put(v.lsn, OpConfig, func() { a.config(c) })
	}
	var bound []Key
	for _, ws := range s.workspaces {
		put(v.lsn, OpWorkspace, func() {
			a.str(ws.Name)
			a.str(ws.Root)
			bound = bound[:0]
			for k := range ws.paths {
				bound = append(bound, k)
			}
			slices.SortFunc(bound, Key.Compare)
			for _, k := range bound {
				a.keyArg(k)
				a.str(ws.paths[k])
			}
		})
	}
	put(v.lsn, opClock, func() { a.num(s.nextLink) })
	return err
}

// LoadCheckpoint rebuilds a database from a checkpoint: records calls add
// with each of its records, in order, and returns add's first error.  A
// record a checkpoint does not hold or out of the order the install needs —
// terms first, OIDs by key, the clock last — an object the database refuses
// and a checkpoint that ends early are refused.  The database comes back at
// the clock's LSN, which AppliedLSN reports.  add keeps no string of a
// record — an object's are copied out — so a record's may be the bytes of a
// buffer the next one is read into.
func LoadCheckpoint(shards int, records func(add func(Record) error) error) (*DB, error) {
	var s snapshot
	var ins *installer // made at the first record that is not a term's
	lsn := int64(-1)   // the clock's, once it is read
	err := records(func(r Record) error {
		var err error
		switch {
		case lsn >= 0:
			err = errors.New("a record after the clock")
		case r.Op == OpTerm && ins != nil:
			err = errors.New("a term after the objects")
		case r.Op != OpTerm && ins == nil:
			ins, err = newInstaller(shards, s.terms)
		}
		if err == nil {
			err = s.record(r, ins)
		}
		if err != nil {
			return fmt.Errorf("meta: checkpoint: %s record at lsn %d: %w", r.Op, r.LSN, err)
		}
		if r.Op == opClock {
			lsn = r.LSN
		}
		return nil
	})
	switch n := len(s.terms); {
	case err != nil:
	case lsn < 0:
		err = errors.New("meta: checkpoint: ends before its clock record")
	case n > 0 && s.terms[n-1].LSN > lsn:
		err = fmt.Errorf("meta: checkpoint at lsn %d: a term begins at lsn %d", lsn, s.terms[n-1].LSN)
	}
	var db *DB
	if err == nil {
		if db, err = ins.finish(&s); err != nil {
			err = fmt.Errorf("meta: checkpoint: %w", err)
		}
	}
	if err != nil {
		return nil, err
	}
	floor(&db.appliedLSN, lsn)
	return db, nil
}

// record adds one checkpoint record to the snapshot, its OIDs to ins, the
// strings it keeps copied out through the database's interner.
func (s *snapshot) record(r Record, ins *installer) error {
	var in *interner
	if ins != nil {
		in = &ins.db.in
	}
	switch r.Op {
	case OpTerm:
		term, err := oneInt(r.Args)
		s.terms = append(s.terms, TermStart{Term: term, LSN: r.LSN})
		return err

	case OpOID:
		if len(r.Args) < 2 {
			return fmt.Errorf("want at least 2 args, got %d", len(r.Args))
		}
		k, err := ParseKey(r.Args[0])
		if err != nil {
			return err
		}
		o := OID{Key: in.key(k)}
		if o.Seq, err = strconv.ParseInt(r.Args[1], 10, 64); err != nil {
			return err
		}
		if len(r.Args) > 2 {
			sets, dels, err := parsePropArgs(r.Args[2:])
			if err != nil || len(dels) > 0 {
				return fmt.Errorf("oid %v: bad property tail", k)
			}
			o.Props = make(map[string]string, len(sets)/2)
			in.fill(o.Props, sets)
		}
		return ins.oid(&o)

	case OpLink:
		l, err := parseLinkArgs(r.Args, in, &ins.db.attrs)
		if err != nil {
			return err
		}
		s.links = append(s.links, l)

	case OpConfig:
		c, err := parseConfigArgs(r.Args, in)
		if err != nil {
			return err
		}
		s.configs = append(s.configs, c)

	case OpWorkspace:
		if len(r.Args) < 2 || len(r.Args)%2 != 0 {
			return fmt.Errorf("want a name, a root and key/path pairs, got %d args", len(r.Args))
		}
		ws := &Workspace{Name: in.str(r.Args[0]), Root: in.str(r.Args[1]), paths: make(map[Key]string, len(r.Args)/2-1)}
		for i := 2; i < len(r.Args); i += 2 {
			k, err := ParseKey(r.Args[i])
			if err != nil {
				return fmt.Errorf("workspace %q: %w", ws.Name, err)
			}
			ws.paths[in.key(k)] = in.str(r.Args[i+1])
		}
		s.workspaces = append(s.workspaces, ws)

	case opClock:
		s.seq = r.Seq
		var err error
		s.nextLink, err = oneInt(r.Args)
		return err

	default:
		return errors.New("not a record of a checkpoint")
	}
	return nil
}

// oneInt parses a record's only argument, an integer.
func oneInt(args []string) (int64, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("want 1 arg, got %d", len(args))
	}
	return strconv.ParseInt(args[0], 10, 64)
}

const (
	// internBytes is the longest string an interner keeps one copy of, and
	// internSlots the size of its table.
	internBytes = 32
	internSlots = 512
)

// interner copies out the strings a checkpoint's objects and a replayed
// record's keep, and keeps one copy of each short one — the names a
// checkpoint repeats thousands of times — in a table that neither grows nor
// is searched: a string lives in the slot its hash picks.
type interner struct {
	slots [internSlots]string
}

func (in *interner) str(s string) string {
	if len(s) > internBytes {
		return strings.Clone(s)
	}
	slot := &in.slots[fnv1a(s)%internSlots]
	if *slot != s {
		*slot = strings.Clone(s)
	}
	return *slot
}

func (in *interner) key(k Key) Key {
	return Key{Block: in.str(k.Block), View: in.str(k.View), Version: k.Version}
}

// fill enters name/value pairs into m.
func (in *interner) fill(m map[string]string, pairs []string) {
	for i := 0; i+1 < len(pairs); i += 2 {
		m[in.str(pairs[i])] = in.str(pairs[i+1])
	}
}

// installer enters a snapshot in a new database nobody else holds yet, so
// without locks: the one bulk install of both formats.  Each object is the
// first version of its history, stamped at the newest term start so that a
// view pinned there has the whole term table.  OIDs come in key order, so
// that each chain is one ascending run, pushed once, and a duplicate comes
// next to its first; each posting is built once.
type installer struct {
	db    *DB
	stamp int64
	prev  Key   // the last OID
	chain []int // the versions of prev's chain so far
}

func newInstaller(shards int, terms []TermStart) (*installer, error) {
	ins := &installer{db: NewDBWithShards(shards)}
	if n := len(terms); n > 0 {
		ins.stamp = terms[n-1].LSN
	}
	return ins, ins.db.setTermStarts(terms)
}

func (ins *installer) oid(o *OID) error {
	if err := o.Key.Validate(); err != nil {
		return fmt.Errorf("oid: %w", err)
	}
	if !ins.prev.IsZero() {
		switch c := o.Key.Compare(ins.prev); {
		case c == 0:
			// Refused: a duplicate's properties must never silently
			// overwrite the first occurrence's.
			return fmt.Errorf("duplicate oid %v: %w", o.Key, ErrExists)
		case c < 0:
			return fmt.Errorf("oid %v after %v: out of order", o.Key, ins.prev)
		}
		if o.Key.BV() != ins.prev.BV() {
			ins.endChain()
		}
	}
	ins.db.head.shard(o.Key.Block).oids.push(o.Key, ins.stamp, oidVal{seq: o.Seq, props: o.Props}, false)
	ins.chain = append(ins.chain, o.Key.Version)
	ins.prev = o.Key
	return nil
}

// endChain pushes the chain of the OIDs entered since the last.
func (ins *installer) endChain() {
	if len(ins.chain) > 0 {
		ins.db.head.shard(ins.prev.Block).chains.push(ins.prev.BV(), ins.stamp, slices.Clone(ins.chain), false)
		ins.chain = ins.chain[:0]
	}
}

// install enters the whole snapshot: a JSON document's, whose links'
// attributes it interns.
func (s *snapshot) install(shards int) (*DB, error) {
	ins, err := newInstaller(shards, s.terms)
	slices.SortFunc(s.oids, func(a, b OID) int { return a.Key.Compare(b.Key) })
	for _, l := range s.links {
		l.Propagates, l.Props = ins.db.attrs.intern(l.Propagates, nil, l.Props)
	}
	for i := 0; err == nil && i < len(s.oids); i++ {
		err = ins.oid(&s.oids[i])
	}
	if err != nil {
		return nil, err
	}
	return ins.finish(s)
}

// finish enters the rest of a snapshot whose OIDs are in.
func (ins *installer) finish(s *snapshot) (*DB, error) {
	ins.endChain()
	db, stamp := ins.db, ins.stamp
	slices.SortFunc(s.links, func(a, b *Link) int { return cmp.Compare(a.ID, b.ID) })
	for i, l := range s.links {
		err := l.validate()
		switch {
		case i > 0 && s.links[i-1].ID == l.ID:
			err = ErrExists
		case err != nil:
		case !db.head.HasOID(l.From):
			err = fmt.Errorf("from %v: %w", l.From, ErrNotFound)
		case !db.head.HasOID(l.To):
			err = fmt.Errorf("to %v: %w", l.To, ErrNotFound)
		}
		if err != nil {
			return nil, fmt.Errorf("link %d: %w", l.ID, err)
		}
		db.head.stripe(l.ID).links.push(l.ID, stamp, l, false)
	}
	// The postings, one push each: a key's links are one run of the links
	// sorted by From and one of the links sorted by To, and the stable sorts
	// keep each run in ID order.
	byFrom, byTo := s.links, slices.Clone(s.links)
	slices.SortStableFunc(byFrom, func(a, b *Link) int { return a.From.Compare(b.From) })
	slices.SortStableFunc(byTo, func(a, b *Link) int { return a.To.Compare(b.To) })
	// cut takes the leading links whose end is k off the list, in a slice
	// of their own, nil when there are none.
	cut := func(links []*Link, end func(*Link) Key, k Key) (run, rest []*Link) {
		n := 0
		for n < len(links) && end(links[n]) == k {
			n++
		}
		if n == 0 {
			return nil, links
		}
		return slices.Clone(links[:n]), links[n:]
	}
	for from, to := byFrom, byTo; len(from)+len(to) > 0; {
		var k Key
		if len(to) == 0 || len(from) > 0 && from[0].From.Compare(to[0].To) <= 0 {
			k = from[0].From
		} else {
			k = to[0].To
		}
		var p posting
		p.out, from = cut(from, func(l *Link) Key { return l.From }, k)
		p.in, to = cut(to, func(l *Link) Key { return l.To }, k)
		db.head.shard(k.Block).put(k, stamp, p)
	}
	ctl := db.store.Load().ctl
	for _, c := range s.configs {
		if _, ok := ctl.configs.at(c.Name, stamp); ok {
			return nil, fmt.Errorf("duplicate configuration %q: %w", c.Name, ErrExists)
		}
		ctl.configs.push(c.Name, stamp, c, false)
	}
	for _, ws := range s.workspaces {
		if _, ok := ctl.workspaces.at(ws.Name, stamp); ok {
			return nil, fmt.Errorf("duplicate workspace %q: %w", ws.Name, ErrExists)
		}
		ctl.workspaces.push(ws.Name, stamp, ws, false)
	}
	db.seq.Store(s.seq)
	db.nextLink.Store(s.nextLink)
	db.mvcc.mu.Lock()
	db.rebaseLocked(stamp)
	db.mvcc.mu.Unlock()
	return db, nil
}
