package server

import (
	"fmt"
	"sync"
	"time"
)

// quorum tracks per-follower replication progress on a primary: every
// FOLLOW connection registers itself, and each "ACK <lsn>" line it sends
// upstream raises its mark.  Writers wait until n distinct followers'
// marks cover a given LSN.  Progress is keyed by connection, not by
// follower identity — a reconnecting follower counts as a fresh, empty
// mark until it re-acknowledges, which can only make the gate stricter,
// never let a stale mark satisfy it.
type quorum struct {
	n       int
	timeout time.Duration

	mu    sync.Mutex
	next  int64           // connection id allocator
	marks map[int64]int64 // connection id → highest acked LSN
	advCh chan struct{}   // closed+replaced on every mark change
}

func newQuorum(n int, timeout time.Duration) *quorum {
	return &quorum{n: n, timeout: timeout, marks: make(map[int64]int64), advCh: make(chan struct{})}
}

// register adds a follower connection and returns its id.
func (q *quorum) register() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.next++
	id := q.next
	q.marks[id] = 0
	return id
}

// unregister drops a departed follower connection.  Waiters are woken:
// a quorum that can no longer form should run into its timeout promptly
// rather than sleep the full window on a dead channel set.
func (q *quorum) unregister(id int64) {
	q.mu.Lock()
	delete(q.marks, id)
	q.wakeLocked()
	q.mu.Unlock()
}

// ack raises one follower's mark.  Marks only move forward — a duplicate
// or reordered ACK can never lower acknowledged coverage.
func (q *quorum) ack(id, lsn int64) {
	q.mu.Lock()
	if cur, ok := q.marks[id]; ok && lsn > cur {
		q.marks[id] = lsn
		q.wakeLocked()
	}
	q.mu.Unlock()
}

func (q *quorum) wakeLocked() {
	close(q.advCh)
	q.advCh = make(chan struct{})
}

// wait blocks until n follower marks cover lsn, the timeout expires, or
// stop closes (server shutdown).  The returned error's message starts
// with "quorum-timeout" — the wire-visible degradation marker clients
// key on — and states that the write itself is durable.
func (q *quorum) wait(lsn int64, stop <-chan struct{}) error {
	timer := time.NewTimer(q.timeout)
	defer timer.Stop()
	for {
		q.mu.Lock()
		got := 0
		for _, m := range q.marks {
			if m >= lsn {
				got++
			}
		}
		ch := q.advCh
		q.mu.Unlock()
		if got >= q.n {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("quorum-timeout: lsn %d acknowledged by %d/%d followers within %v (write is committed locally, not lost)",
				lsn, got, q.n, q.timeout)
		case <-stop:
			return fmt.Errorf("quorum-timeout: server shutting down with lsn %d acknowledged by %d/%d followers (write is committed locally, not lost)",
				lsn, got, q.n)
		}
	}
}
