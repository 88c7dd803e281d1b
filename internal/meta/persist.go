package meta

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
)

// The JSON document of the meta-database, written and read by
// encoding/json: the export and audit format (LoadDB, the byte-identity
// contracts of the tests) and the snapshot format before checkpoints
// (checkpoint.go), which only the journal's offline upgrade still reads —
// no node links either end of it.  Chains, postings and the clocks' history
// are not in it: Load rebuilds them, each object the first version of its
// history; gaps PruneVersions left in a chain are kept.

type dbJSON struct {
	Seq        int64           `json:"seq"`
	NextLink   int64           `json:"next_link"`
	OIDs       []oidJSON       `json:"oids"`
	Links      []linkJSON      `json:"links"`
	Configs    []configJSON    `json:"configurations,omitempty"`
	Workspaces []workspaceJSON `json:"workspaces,omitempty"`

	// Terms is the election-term history (term.go), one entry per
	// promotion, ascending.  omitempty keeps documents from databases that
	// never lived through a promotion byte-identical to the pre-term format.
	Terms []TermStart `json:"terms,omitempty"`
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

// SaveTo writes the database exactly as it stood at the view's LSN, in the
// same canonical JSON form as Save — byte-identical to what replaying the
// journal up to that LSN and saving would produce.  No locks are taken;
// writers proceed throughout.  v must be a pinned view: the head is neither
// one cut nor has a header.
func (v *View) SaveTo(w io.Writer) error { return v.snapshot().save(w) }

// save writes the snapshot, in canonical order, as the JSON document.
func (s *snapshot) save(w io.Writer) error {
	doc := dbJSON{Seq: s.seq, NextLink: s.nextLink, Terms: s.terms}
	for _, o := range s.oids {
		oj := oidJSON{Block: o.Key.Block, View: o.Key.View, Version: o.Key.Version, Seq: o.Seq}
		if len(o.Props) > 0 {
			oj.Props = o.Props
		}
		doc.OIDs = append(doc.OIDs, oj)
	}
	for _, l := range s.links {
		lj := linkJSON{ID: int64(l.ID), Class: l.Class.String(), From: l.From.String(), To: l.To.String(),
			Template: l.Template, Propagates: l.Propagates, Seq: l.Seq}
		if len(l.Props) > 0 {
			lj.Props = l.Props
		}
		doc.Links = append(doc.Links, lj)
	}
	for _, c := range s.configs {
		cj := configJSON{Name: c.Name, Seq: c.Seq}
		for _, k := range c.OIDs {
			cj.OIDs = append(cj.OIDs, k.String())
		}
		for _, id := range c.Links {
			cj.Links = append(cj.Links, int64(id))
		}
		doc.Configs = append(doc.Configs, cj)
	}
	for _, ws := range s.workspaces {
		wj := workspaceJSON{Name: ws.Name, Root: ws.Root}
		for k, p := range ws.paths {
			if wj.Paths == nil {
				wj.Paths = make(map[string]string, len(ws.paths))
			}
			wj.Paths[k.String()] = p
		}
		doc.Workspaces = append(doc.Workspaces, wj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Load reads a database previously written by Save and returns a fresh DB
// whose every object's first version is the loaded one.
func Load(r io.Reader) (*DB, error) { return LoadShards(r, DefaultShards) }

// LoadShards is Load with an explicit shard count for the rebuilt DB —
// shard count is a performance knob the document deliberately does not
// record, so recovery paths that tune it pick it here.
//
// It accepts what encoding/json accepts into the document's types: any
// member order and whitespace, null for any value, members the format does
// not know, property maps in which the last of a repeated name wins (their
// names are data, not format).  It refuses, beyond that, what Unmarshal lets
// through and a damaged document would load as another database by: a
// document that is not one object, anything but whitespace after it, a
// known member given twice in one object, and a member whose name matches a
// known one only when case is folded.
func LoadShards(r io.Reader, shards int) (*DB, error) {
	raw, err := io.ReadAll(r)
	if err == nil {
		err = strict(raw)
	}
	var doc dbJSON
	if err == nil {
		err = json.Unmarshal(raw, &doc)
	}
	if err != nil {
		return nil, fmt.Errorf("meta: decode: %w", err)
	}
	s, err := doc.snapshot()
	var db *DB
	if err == nil {
		db, err = s.install(shards)
	}
	if err != nil {
		return nil, fmt.Errorf("meta: load: %w", err)
	}
	return db, nil
}

// strict walks a document's tokens for the refusals of LoadShards: the
// objects of the format — the document and the elements of its arrays —
// member by member, every other value skipped whole.
func strict(doc []byte) error {
	dec := json.NewDecoder(bytes.NewReader(doc))
	bad := func(format string, args ...any) error {
		return fmt.Errorf(format+" at offset %d", append(args, dec.InputOffset())...)
	}
	if rest := bytes.TrimLeft(doc, " \t\r\n"); len(rest) == 0 || rest[0] != '{' {
		return bad("%.1q where the document's '{' should be", rest)
	}
	token := func() (json.Token, error) {
		tok, err := dec.Token()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return tok, err
	}
	var skip json.RawMessage
	// value reads one value, of the type its member decodes into.
	var value func(t reflect.Type) error
	value = func(t reflect.Type) error {
		if t == nil || t.Kind() != reflect.Struct && (t.Kind() != reflect.Slice || t.Elem().Kind() != reflect.Struct) {
			return dec.Decode(&skip)
		}
		tok, err := token()
		if delim, _ := tok.(json.Delim); err != nil || delim != '[' && delim != '{' {
			return err // a scalar, for Unmarshal to judge
		}
		var seen []string
		for dec.More() {
			var vt reflect.Type
			if tok == json.Delim('[') && t.Kind() == reflect.Slice {
				vt = t.Elem()
			} else if tok == json.Delim('{') {
				name, err := token()
				if err != nil {
					return err
				}
				if vt, err = member(t, name.(string), &seen); err != nil {
					return bad("%v", err)
				}
			}
			if err := value(vt); err != nil {
				return err
			}
		}
		_, err = token() // the closing bracket
		return err
	}
	if err := value(reflect.TypeFor[dbJSON]()); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return bad("data after the document")
	}
	return nil
}

// member returns the type of t's member name — nil when t is no struct of
// the format or has no such member — and notes it in seen.
func member(t reflect.Type, name string, seen *[]string) (reflect.Type, error) {
	for i := 0; t != nil && t.Kind() == reflect.Struct && i < t.NumField(); i++ {
		known, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		switch {
		case known == name && slices.Contains(*seen, name):
			return nil, fmt.Errorf("member %q given twice", name)
		case known == name:
			*seen = append(*seen, name)
			return t.Field(i).Type, nil
		case strings.EqualFold(known, name):
			return nil, fmt.Errorf("member %q: the format spells it %q", name, known)
		}
	}
	return nil, nil
}

// snapshot is the document's content, its keys parsed.
func (doc *dbJSON) snapshot() (*snapshot, error) {
	s := &snapshot{seq: doc.Seq, nextLink: doc.NextLink, terms: doc.Terms}
	for _, o := range doc.OIDs {
		s.oids = append(s.oids, OID{Key: Key{Block: o.Block, View: o.View, Version: o.Version}, Seq: o.Seq, Props: o.Props})
	}
	for _, lj := range doc.Links {
		class, classErr := ParseLinkClass(lj.Class)
		from, fromErr := ParseKey(lj.From)
		to, toErr := ParseKey(lj.To)
		if err := cmp.Or(classErr, fromErr, toErr); err != nil {
			return nil, fmt.Errorf("link %d: %w", lj.ID, err)
		}
		s.links = append(s.links, &Link{ID: LinkID(lj.ID), Class: class, From: from, To: to, Template: lj.Template, Seq: lj.Seq,
			Props: lj.Props, Propagates: lj.Propagates})
	}
	for _, cj := range doc.Configs {
		c := &Configuration{Name: cj.Name, Seq: cj.Seq}
		for _, ks := range cj.OIDs {
			k, err := ParseKey(ks)
			if err != nil {
				return nil, fmt.Errorf("configuration %q: %w", cj.Name, err)
			}
			c.OIDs = append(c.OIDs, k)
		}
		for _, id := range cj.Links {
			c.Links = append(c.Links, LinkID(id))
		}
		s.configs = append(s.configs, c)
	}
	for _, wj := range doc.Workspaces {
		ws := &Workspace{Name: wj.Name, Root: wj.Root, paths: make(map[Key]string, len(wj.Paths))}
		for ks, p := range wj.Paths {
			k, err := ParseKey(ks)
			if err != nil {
				return nil, fmt.Errorf("workspace %q: %w", wj.Name, err)
			}
			ws.paths[k] = p
		}
		s.workspaces = append(s.workspaces, ws)
	}
	return s, nil
}

// RestoreFrom atomically replaces the database's entire contents with
// src's, in place — the follower-side snapshot re-bootstrap path: engines
// and servers hold the *DB pointer, so re-basing on a primary snapshot
// must swap the guts rather than the pointer.  lsn is the journal
// position the restored snapshot covers, and becomes the horizon and the
// applied position; views pinned before the re-base captured the old
// containers and keep reading the old content; the head reads the new ones
// from its next read on.  src must have the same shard count (both sides of
// a bootstrap build it from the same Options), hold nothing stamped beyond
// lsn (a loaded snapshot is stamped at its newest term start at most), and
// must not be used afterwards: db adopts its containers.
func (db *DB) RestoreFrom(src *DB, lsn int64) error {
	if len(db.shards) != len(src.shards) || len(db.stripes) != len(src.stripes) {
		return fmt.Errorf("meta: restore: shard count mismatch (%d vs %d)",
			len(db.shards), len(src.shards))
	}
	if e := src.mvcc.epoch.Load(); e > lsn {
		return fmt.Errorf("meta: restore: source is at stamp %d, beyond lsn %d", e, lsn)
	}
	db.ctl.Lock()
	db.lockAll()
	db.seq.Store(src.seq.Load())
	db.nextLink.Store(src.nextLink.Load())
	// Adopt the source's term history wholesale: a bootstrap snapshot from
	// a post-promotion primary carries bumps the stale follower never saw,
	// and forgetting them would leave this replica unable to fence the
	// deposed primary's tail.
	db.storeTerms(src.loadTerms())
	// The gate mutex is held across the swap: view pinning goes through it,
	// so a reader racing the re-bootstrap can never capture a torn mix of
	// old and new containers under the new epoch.
	db.mvcc.mu.Lock()
	db.store.Store(src.store.Load())
	db.rebaseLocked(lsn)
	db.mvcc.mu.Unlock()
	db.unlockAll()
	db.ctl.Unlock()
	floor(&db.appliedLSN, lsn)
	return nil
}
