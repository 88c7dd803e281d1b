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

// The JSON document of the meta-database: the snapshot format before
// checkpoints (checkpoint.go), read by encoding/json.  Nothing writes it any
// more; the journal's offline upgrade (`dquery upgrade`) is its one reader,
// and no node links it.  Chains, postings and the clocks' history are not in
// it: LoadDocument rebuilds them, each object the first version of its
// history; gaps in a chain (an older build pruned versions) are kept.

type dbJSON struct {
	Seq        int64           `json:"seq"`
	NextLink   int64           `json:"next_link"`
	OIDs       []oidJSON       `json:"oids"`
	Links      []linkJSON      `json:"links"`
	Configs    []configJSON    `json:"configurations,omitempty"`
	Workspaces []workspaceJSON `json:"workspaces,omitempty"`

	// Terms is the election-term history (term.go), one entry per
	// promotion, ascending; documents from before election terms have none.
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

// LoadDocument reads a JSON document and returns a fresh DB whose every
// object's first version is the loaded one.
//
// It accepts what encoding/json accepts into the document's types: any
// member order and whitespace, null for any value, members the format does
// not know, property maps in which the last of a repeated name wins (their
// names are data, not format).  It refuses, beyond that, what Unmarshal lets
// through and a damaged document would load as another database by: a
// document that is not one object, anything but whitespace after it, a
// known member given twice in one object, and a member whose name matches a
// known one only when case is folded.
func LoadDocument(r io.Reader) (*DB, error) {
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
	ins, err := newInstaller(doc.Terms)
	var s *snapshot
	if err == nil {
		s, err = doc.snapshot(&ins.db.attrs)
	}
	var db *DB
	if err == nil {
		db, err = s.install(ins)
	}
	if err != nil {
		return nil, fmt.Errorf("meta: load: %w", err)
	}
	return db, nil
}

// strict walks a document's tokens for the refusals of LoadDocument: the
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

// snapshot is the document's content, its keys parsed and its attribute
// sets interned in attrs.
func (doc *dbJSON) snapshot(attrs *attrTable) (*snapshot, error) {
	s := &snapshot{seq: doc.Seq, nextLink: doc.NextLink, terms: doc.Terms}
	for _, o := range doc.OIDs {
		_, props := attrs.editMap(nil, o.Props)
		s.oids = append(s.oids, OID{Key: Key{Block: o.Block, View: o.View, Version: o.Version}, Seq: o.Seq, Props: props})
	}
	for _, lj := range doc.Links {
		class, classErr := ParseLinkClass(lj.Class)
		from, fromErr := ParseKey(lj.From)
		to, toErr := ParseKey(lj.To)
		if err := cmp.Or(classErr, fromErr, toErr); err != nil {
			return nil, fmt.Errorf("link %d: %w", lj.ID, err)
		}
		l := &Link{ID: LinkID(lj.ID), Class: class, From: from, To: to, Template: lj.Template, Seq: lj.Seq}
		l.Propagates, l.Props = attrs.editMap(lj.Propagates, lj.Props)
		s.links = append(s.links, l)
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
// from its next read on.  src must hold nothing stamped beyond lsn (a
// loaded snapshot is stamped at its newest term start at most), and must
// not be used afterwards: db adopts its containers.
func (db *DB) RestoreFrom(src *DB, lsn int64) error {
	if e := src.mvcc.epoch.Load(); e > lsn {
		return fmt.Errorf("meta: restore: source is at stamp %d, beyond lsn %d", e, lsn)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
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
	floor(&db.appliedLSN, lsn)
	return nil
}
