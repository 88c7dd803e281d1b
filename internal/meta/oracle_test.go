package meta

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
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

// oracleLoad is LoadShards as it was before the streaming decoder: the
// document decoded by reflection and turned into objects here, then
// entered through the one install path.  What does not parse is reported
// where Load always reported it, by the install.
func oracleLoad(r io.Reader, shards int) (*DB, error) {
	var doc dbJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("meta: decode: %w", err)
	}
	d := &snapDec{seq: doc.Seq, nextLink: doc.NextLink}
	for _, oj := range doc.OIDs {
		d.oids = append(d.oids, &OID{
			Key: Key{Block: oj.Block, View: oj.View, Version: oj.Version}, Seq: oj.Seq, Props: oj.Props,
		})
	}
	for _, lj := range doc.Links {
		class, classErr := ParseLinkClass(lj.Class)
		from, fromErr := ParseKey(lj.From)
		to, toErr := ParseKey(lj.To)
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
		d.defect(l, cmp.Or(classErr, fromErr, toErr))
		d.links = append(d.links, l)
	}
	for _, cj := range doc.Configs {
		c := &Configuration{Name: cj.Name, Seq: cj.Seq}
		for _, ks := range cj.OIDs {
			k, err := ParseKey(ks)
			d.defect(c, err)
			c.OIDs = append(c.OIDs, k)
		}
		for _, id := range cj.Links {
			c.Links = append(c.Links, LinkID(id))
		}
		d.configs = append(d.configs, c)
	}
	for _, wj := range doc.Workspaces {
		ws := &Workspace{Name: wj.Name, Root: wj.Root, paths: make(map[Key]string, len(wj.Paths))}
		for ks, p := range wj.Paths {
			k, err := ParseKey(ks)
			d.defect(ws, err)
			ws.paths[k] = p
		}
		d.workspaces = append(d.workspaces, ws)
	}
	for _, tj := range doc.Terms {
		d.terms = append(d.terms, TermStart{Term: tj.Term, LSN: tj.LSN})
	}
	db := NewDBWithShards(shards)
	if err := d.install(db); err != nil {
		return nil, err
	}
	return db, nil
}
