package meta

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The reflection persistence the streaming encoder (snapenc.go) and decoder
// (snapdec.go) replaced, kept as their oracle: the types that described the
// document to encoding/json, and Load as it was — the whole document decoded
// into a dbJSON, then sorted and installed.  snapenc_test.go holds the
// encoding half.

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

// oracleLoad is LoadShards as it was before the streaming decoder.
func oracleLoad(r io.Reader, shards int) (*DB, error) {
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
