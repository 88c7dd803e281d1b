package meta

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// JSON persistence of the meta-database.  The on-disk form is a plain,
// human-inspectable document; load rebuilds all indexes.  Version chains
// are reconstructed from the OID set in ascending order; gaps left by
// PruneVersions are preserved.  The types below describe the document to
// the decoder; it is written by the streaming encoder in snapenc.go.

type dbJSON struct {
	Seq        int64           `json:"seq"`
	NextLink   int64           `json:"next_link"`
	OIDs       []oidJSON       `json:"oids"`
	Links      []linkJSON      `json:"links"`
	Configs    []configJSON    `json:"configurations,omitempty"`
	Workspaces []workspaceJSON `json:"workspaces,omitempty"`

	// Terms is the election-term history (term.go), one entry per
	// promotion, ascending.  omitempty keeps documents from databases that
	// never lived through a promotion byte-identical to the pre-term
	// format.
	Terms []termJSON `json:"terms,omitempty"`
}

type termJSON struct {
	Term int64 `json:"term"`
	LSN  int64 `json:"lsn"`
}

type oidJSON struct {
	Block   string            `json:"block"`
	View    string            `json:"view"`
	Version int               `json:"version"`
	Seq     int64             `json:"seq"`
	Props   map[string]string `json:"props,omitempty"`
}

type linkJSON struct {
	ID         int64             `json:"id"`
	Class      string            `json:"class"`
	From       string            `json:"from"`
	To         string            `json:"to"`
	Template   string            `json:"template,omitempty"`
	Propagates []string          `json:"propagates,omitempty"`
	Props      map[string]string `json:"props,omitempty"`
	Seq        int64             `json:"seq"`
}

type configJSON struct {
	Name  string   `json:"name"`
	Seq   int64    `json:"seq"`
	OIDs  []string `json:"oids"`
	Links []int64  `json:"links"`
}

type workspaceJSON struct {
	Name  string            `json:"name"`
	Root  string            `json:"root"`
	Paths map[string]string `json:"paths,omitempty"`
}

// Save writes the whole meta-database as indented JSON, collected from a
// pinned read view: no lock of any kind is held during collection or
// encoding, and writers proceed throughout.
func (db *DB) Save(w io.Writer) error {
	v := db.ReadView()
	defer v.Close()
	return v.SaveTo(w)
}

// SaveTo writes the database exactly as it stood at the view's LSN, in
// the same canonical JSON form as Save — byte-identical to what replaying
// the journal up to that LSN and saving would produce.  No locks are
// taken; writers proceed throughout.  The document is streamed: w receives
// it a buffer of some 32 KiB at a time.
func (v *View) SaveTo(w io.Writer) error {
	// The term table is LSN-keyed rather than versioned: filtering it by
	// the view's pin reproduces exactly what replaying up to that LSN
	// would have accumulated.
	doc := snapDoc{seq: v.seq, nextLink: v.nextLink, terms: v.db.termsUpTo(v.lsn)}
	v.EachOID(func(o *OID) bool {
		doc.oids = append(doc.oids, oidRow{key: o.Key, seq: o.Seq, props: o.Props})
		return true
	})
	v.EachLink(func(l *Link) bool {
		doc.links = append(doc.links, l)
		return true
	})
	v.eachConfiguration(func(c *Configuration) { doc.configs = append(doc.configs, c) })
	v.eachWorkspace(func(ws *Workspace) { doc.workspaces = append(doc.workspaces, ws) })
	return doc.encode(w)
}

// Load reads a database previously written by Save and returns a fresh DB
// with all indexes rebuilt and the loaded content as its version genesis.
func Load(r io.Reader) (*DB, error) { return LoadShards(r, DefaultShards) }

// LoadShards is Load with an explicit shard count for the rebuilt DB —
// shard count is a performance knob the document deliberately does not
// record, so recovery paths that tune it pick it here.
func LoadShards(r io.Reader, shards int) (*DB, error) {
	var doc dbJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("meta: decode: %w", err)
	}
	db := NewDBWithShards(shards)

	// OIDs must be inserted in version order per chain.
	sort.Slice(doc.OIDs, func(i, j int) bool {
		a, b := doc.OIDs[i], doc.OIDs[j]
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.View != b.View {
			return a.View < b.View
		}
		return a.Version < b.Version
	})
	for i, oj := range doc.OIDs {
		k := Key{Block: oj.Block, View: oj.View, Version: oj.Version}
		if i > 0 {
			// The sort puts duplicates side by side.  Reject them: the
			// duplicate's properties must never silently overwrite the
			// first occurrence's.
			p := doc.OIDs[i-1]
			if p.Block == oj.Block && p.View == oj.View && p.Version == oj.Version {
				return nil, fmt.Errorf("meta: load: duplicate oid %v in document: %w", k, ErrExists)
			}
		}
		if err := k.Validate(); err != nil {
			return nil, fmt.Errorf("meta: load oid: %w", err)
		}
		// The maps are filled directly — the sort makes every chain
		// ascending — and captured once below, not published per object.
		// The decoder's property map is nobody else's: it becomes the
		// live one.
		o := &OID{Key: k, Seq: oj.Seq, Props: oj.Props}
		if o.Props == nil {
			o.Props = make(map[string]string)
		}
		sh, bv := db.shardOf(k), k.BV()
		sh.oids[k] = o
		sh.chains[bv] = append(sh.chains[bv], k.Version)
	}

	sort.Slice(doc.Links, func(i, j int) bool { return doc.Links[i].ID < doc.Links[j].ID })
	for _, lj := range doc.Links {
		class, err := ParseLinkClass(lj.Class)
		if err != nil {
			return nil, fmt.Errorf("meta: load link %d: %w", lj.ID, err)
		}
		from, err := ParseKey(lj.From)
		if err != nil {
			return nil, fmt.Errorf("meta: load link %d: %w", lj.ID, err)
		}
		to, err := ParseKey(lj.To)
		if err != nil {
			return nil, fmt.Errorf("meta: load link %d: %w", lj.ID, err)
		}
		l := &Link{
			ID:         LinkID(lj.ID),
			Class:      class,
			From:       from,
			To:         to,
			Template:   lj.Template,
			Seq:        lj.Seq,
			Props:      make(map[string]string, len(lj.Props)),
			Propagates: make(map[string]bool, len(lj.Propagates)),
		}
		for k, v := range lj.Props {
			l.Props[k] = v
		}
		for _, e := range lj.Propagates {
			l.Propagates[e] = true
		}
		if err := l.validate(); err != nil {
			return nil, fmt.Errorf("meta: load link %d: %w", lj.ID, err)
		}
		stripe := db.stripeOf(l.ID)
		if _, ok := stripe.links[l.ID]; ok {
			return nil, fmt.Errorf("meta: load link %d: %w", lj.ID, ErrExists)
		}
		fs, ts := db.shardOf(from), db.shardOf(to)
		if _, ok := fs.oids[from]; !ok {
			return nil, fmt.Errorf("meta: load link %d: from %v: %w", lj.ID, from, ErrNotFound)
		}
		if _, ok := ts.oids[to]; !ok {
			return nil, fmt.Errorf("meta: load link %d: to %v: %w", lj.ID, to, ErrNotFound)
		}
		stripe.links[l.ID] = l
		fs.outLinks[from] = append(fs.outLinks[from], linkRef{id: l.ID, l: l})
		ts.inLinks[to] = append(ts.inLinks[to], linkRef{id: l.ID, l: l})
		if len(l.Propagates) > 0 {
			db.unionBlocks(from.Block, to.Block)
		}
	}

	for _, cj := range doc.Configs {
		if _, ok := db.configs[cj.Name]; ok {
			return nil, fmt.Errorf("meta: load: duplicate configuration %q in document: %w", cj.Name, ErrExists)
		}
		c := &Configuration{Name: cj.Name, Seq: cj.Seq}
		for _, ks := range cj.OIDs {
			k, err := ParseKey(ks)
			if err != nil {
				return nil, fmt.Errorf("meta: load configuration %q: %w", cj.Name, err)
			}
			c.OIDs = append(c.OIDs, k)
		}
		for _, id := range cj.Links {
			c.Links = append(c.Links, LinkID(id))
		}
		db.configs[c.Name] = c
	}

	for _, wj := range doc.Workspaces {
		if _, ok := db.workspaces[wj.Name]; ok {
			return nil, fmt.Errorf("meta: load: duplicate workspace %q in document: %w", wj.Name, ErrExists)
		}
		ws := &Workspace{Name: wj.Name, Root: wj.Root, paths: make(map[Key]string, len(wj.Paths))}
		for ks, p := range wj.Paths {
			k, err := ParseKey(ks)
			if err != nil {
				return nil, fmt.Errorf("meta: load workspace %q: %w", wj.Name, err)
			}
			ws.paths[k] = p
		}
		db.workspaces[ws.Name] = ws
	}

	if len(doc.Terms) > 0 {
		starts := make([]TermStart, len(doc.Terms))
		for i, tj := range doc.Terms {
			starts[i] = TermStart{Term: tj.Term, LSN: tj.LSN}
		}
		if err := db.setTermStarts(starts); err != nil {
			return nil, fmt.Errorf("meta: load: %w", err)
		}
	}

	db.seq.Store(doc.Seq)
	db.nextLink.Store(doc.NextLink)
	// The loaded content is the genesis (nobody else sees db yet: no
	// locks).  A document that lived through a promotion is stamped at its
	// newest term start, so that the view pinned there carries the whole
	// term table.
	var stamp int64
	if t := db.loadTerms(); len(t) > 0 {
		stamp = t[len(t)-1].LSN
	}
	db.genesisLocked(stamp)
	return db, nil
}

// RestoreFrom atomically replaces the database's entire contents with
// src's, in place — the follower-side snapshot re-bootstrap path: engines
// and servers hold the *DB pointer, so re-basing on a primary snapshot
// must swap the guts rather than the pointer.  lsn is the journal
// position the restored document covers: the version histories are
// rebuilt from the new content at that stamp (views pinned before the
// re-base captured the old containers and stay consistent; the horizon
// jumps to lsn).  src must have the same shard count (both
// sides of a bootstrap build it from the same Options) and must not be
// used afterwards: db adopts its maps.
func (db *DB) RestoreFrom(src *DB, lsn int64) error {
	if len(db.shards) != len(src.shards) || len(db.stripes) != len(src.stripes) {
		return fmt.Errorf("meta: restore: shard count mismatch (%d vs %d)",
			len(db.shards), len(src.shards))
	}
	db.ctl.Lock()
	db.lockAll()
	for i, sh := range db.shards {
		s := src.shards[i]
		sh.oids, sh.chains, sh.outLinks, sh.inLinks = s.oids, s.chains, s.outLinks, s.inLinks
	}
	for i, st := range db.stripes {
		st.links = src.stripes[i].links
	}
	db.configs = src.configs
	db.workspaces = src.workspaces
	db.seq.Store(src.seq.Load())
	db.nextLink.Store(src.nextLink.Load())
	// Adopt the source's term history wholesale: a bootstrap document from
	// a post-promotion primary carries bumps the stale follower never saw,
	// and forgetting them would leave this replica unable to fence the
	// deposed primary's tail.
	db.storeTerms(src.loadTerms())
	db.genesisLocked(lsn)
	db.unlockAll()
	db.ctl.Unlock()
	db.compMu.Lock()
	db.comp = src.comp
	db.compMu.Unlock()
	// Cached component roots are stale regardless of content overlap; the
	// bump is ordered after the swap so a racing reader that cached a new
	// root under the old generation revalidates on its next check.
	db.compGen.Add(1)
	return nil
}
