package meta

import "fmt"

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
