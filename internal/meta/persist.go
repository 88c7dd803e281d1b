package meta

import (
	"fmt"
	"io"
)

// JSON persistence of the meta-database.  The on-disk form is a plain,
// human-inspectable document; load rebuilds the chains and postings it
// does not record.  Version chains are reconstructed from the OID set in
// ascending order; gaps left by PruneVersions are preserved.  The document is written by the streaming
// encoder in snapenc.go and read by the streaming decoder in snapdec.go.

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
// it a buffer of some 32 KiB at a time.  v must be a pinned view: the head
// is neither one cut nor has a header.
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
// whose every object's first version is the loaded one.
func Load(r io.Reader) (*DB, error) { return LoadShards(r, DefaultShards) }

// LoadShards is Load with an explicit shard count for the rebuilt DB —
// shard count is a performance knob the document deliberately does not
// record, so recovery paths that tune it pick it here.
func LoadShards(r io.Reader, shards int) (*DB, error) {
	d := &snapDec{r: r, buf: make([]byte, snapWindowBytes)}
	if err := d.document(); err != nil {
		return nil, err
	}
	db := NewDBWithShards(shards)
	if err := d.install(db); err != nil {
		return nil, err
	}
	return db, nil
}

// RestoreFrom atomically replaces the database's entire contents with
// src's, in place — the follower-side snapshot re-bootstrap path: engines
// and servers hold the *DB pointer, so re-basing on a primary snapshot
// must swap the guts rather than the pointer.  lsn is the journal
// position the restored document covers, and becomes the horizon; views
// pinned before the re-base captured the old containers and keep reading
// the old content; the head reads the new ones from its next read on.  src
// must have the same shard count (both sides of a bootstrap build it from
// the same Options), hold nothing stamped beyond lsn (a loaded document is
// stamped at its newest term start at most), and must not be used
// afterwards: db adopts its containers.
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
	// Adopt the source's term history wholesale: a bootstrap document from
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
	return nil
}
