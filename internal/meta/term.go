package meta

import "fmt"

// Election terms.  Every journaled database carries a term — a monotonic
// epoch counter that fences a deposed primary's divergent tail out of the
// replication plane.  History starts at term 1 (the genesis term, which
// has no table entry); every promotion appends one TermStart recording
// the term it began and the LSN of its term-bump record.  The table is
// part of the database state proper: it rides checkpoints (so snapshots
// carry the full term history to bootstrapped followers) and is keyed by
// LSN, so a point-in-time view filters it exactly like every other
// versioned fact.
//
// The table is stored copy-on-write behind an atomic pointer: appends are
// already serialized by the apply paths (recovery replay, a follower's
// ApplyAppend, promotion — all single-threaded or under the journal's
// apply mutex), while reads (checkpoints, replication handshake validation)
// stay lock-free.

// TermStart records the beginning of one term: the term number and the
// LSN of the term-bump record that opened it.  Records with LSN ≥ LSN
// and below the next entry's LSN belong to Term.
type TermStart struct {
	Term int64 `json:"term"`
	LSN  int64 `json:"lsn"`
}

// termTable is the immutable slice behind DB.terms; entries are strictly
// increasing in both Term and LSN.
type termTable []TermStart

// CurrentTerm returns the database's election term: the newest term-bump
// applied, or 1 — the genesis term — when none ever was.
func (db *DB) CurrentTerm() int64 {
	if t := db.loadTerms(); len(t) > 0 {
		return t[len(t)-1].Term
	}
	return 1
}

// FirstTermStartAfter returns the LSN of the oldest term-bump record that
// opened a term greater than term, and whether one exists.  It is the
// divergence bound of the replication handshake: a follower whose history
// ends in term T may resume below this LSN (its records are shared
// history) and must be refused at or beyond it (its records were written
// by a deposed primary after this lineage moved on).
func (db *DB) FirstTermStartAfter(term int64) (int64, bool) {
	for _, ts := range db.loadTerms() {
		if ts.Term > term {
			return ts.LSN, true
		}
	}
	return 0, false
}

// applyTermBump appends a term start to the table, validating that terms
// only ever move forward — a bump that does not exceed the current term
// is a record from a forked history and must fail loudly.
func (db *DB) applyTermBump(term, lsn int64) error {
	cur := db.loadTerms()
	if last := db.CurrentTerm(); term <= last {
		return fmt.Errorf("term %d does not exceed current term %d", term, last)
	}
	if len(cur) > 0 && lsn <= cur[len(cur)-1].LSN {
		return fmt.Errorf("term %d start lsn %d not beyond previous start %d", term, lsn, cur[len(cur)-1].LSN)
	}
	next := make(termTable, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = TermStart{Term: term, LSN: lsn}
	db.storeTerms(next)
	return nil
}

// termsUpTo returns the table entries with start LSN ≤ lsn — the term
// history as it stood at that journal position, feeding View.Checkpoint so
// a point-in-time snapshot equals what replay-up-to would produce.
func (db *DB) termsUpTo(lsn int64) termTable {
	t := db.loadTerms()
	n := len(t)
	for n > 0 && t[n-1].LSN > lsn {
		n--
	}
	return t[:n]
}

// setTermStarts installs a term table wholesale — the path of both loads.
// Entries must be strictly increasing in both fields.
func (db *DB) setTermStarts(starts []TermStart) error {
	for i := range starts {
		if starts[i].Term < 2 || starts[i].LSN < 1 {
			return fmt.Errorf("invalid term start %+v", starts[i])
		}
		if i > 0 && (starts[i].Term <= starts[i-1].Term || starts[i].LSN <= starts[i-1].LSN) {
			return fmt.Errorf("term starts not strictly increasing: %+v after %+v", starts[i], starts[i-1])
		}
	}
	t := make(termTable, len(starts))
	copy(t, starts)
	db.storeTerms(t)
	return nil
}

func (db *DB) loadTerms() termTable {
	if p := db.terms.Load(); p != nil {
		return *p
	}
	return nil
}

func (db *DB) storeTerms(t termTable) { db.terms.Store(&t) }
