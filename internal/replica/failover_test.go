package replica_test

// Failover: the three-node promote/fence/quorum tests.  A promotable
// node here carries the full daemon wiring of `damocles -follow` — the
// replication loop, a read-only server that chains FOLLOW from the node's
// own journal, and the PROMOTE hook that flips the process into a primary — so every test
// exercises the real wire path, including the PROMOTE verb itself.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/replica"
	"repro/internal/server"
)

// pnode is a standalone journaled primary with crash-style teardown the
// tests control (the shared cluster harness owns its own lifecycle).
type pnode struct {
	t       *testing.T
	dir     string
	w       *journal.Writer
	db      *meta.DB
	eng     *engine.Engine
	srv     *server.Server
	addr    string
	stopped bool
}

func startPrimary(t *testing.T, dir string, opt journal.Options, srvOpts ...server.Option) *pnode {
	t.Helper()
	w, db, err := journal.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(db, testBlueprint(t), engine.WithJournal(w))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, append([]server.Option{server.WithJournal(w)}, srvOpts...)...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &pnode{t: t, dir: dir, w: w, db: db, eng: eng, srv: srv, addr: addr}
	t.Cleanup(p.crash)
	return p
}

// crash kills the primary abruptly: connections drop, the uncommitted
// buffer is lost, no final snapshot — what SIGKILL leaves behind.
func (p *pnode) crash() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.srv.Close()
	p.w.Abort()
}

// quiesce drains and commits, returning the settled LSN.
func (p *pnode) quiesce() int64 {
	p.t.Helper()
	if err := p.eng.Drain(); err != nil {
		p.t.Fatal(err)
	}
	if err := p.w.Commit(); err != nil {
		p.t.Fatal(err)
	}
	return p.w.LastLSN()
}

// fnode is a promotable follower node: replica loop + read-only server
// chaining FOLLOW and the promotion hook, as the daemon wires
// them.
type fnode struct {
	t       *testing.T
	dir     string
	fol     *replica.Follower
	eng     *engine.Engine
	srv     *server.Server
	addr    string
	stopped bool
}

func startNode(t *testing.T, dir, upstream string, jopt journal.Options, opts ...replica.Option) *fnode {
	t.Helper()
	if jopt.SnapshotEvery == 0 {
		jopt.SnapshotEvery = -1
	}
	fol, err := replica.Start(dir, upstream, jopt, opts...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(fol.DB(), testBlueprint(t))
	if err != nil {
		fol.Abort()
		t.Fatal(err)
	}
	hook := func() (server.Promotion, error) {
		term, lsn, err := fol.Promote()
		if err != nil {
			return server.Promotion{}, err
		}
		return server.Promotion{Journal: fol.Writer(), Term: term, LSN: lsn}, nil
	}
	srv := server.New(eng, server.WithReadOnly(fol), server.WithPromote(hook))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fol.Abort()
		t.Fatal(err)
	}
	n := &fnode{t: t, dir: dir, fol: fol, eng: eng, srv: srv, addr: addr}
	t.Cleanup(n.stop)
	return n
}

func (n *fnode) stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.srv.Close()
	n.fol.Abort()
}

// quiesce settles a PROMOTED node: drains its engine and commits the
// journal it took over at promotion.
func (n *fnode) quiesce() int64 {
	n.t.Helper()
	if err := n.eng.Drain(); err != nil {
		n.t.Fatal(err)
	}
	if err := n.fol.Writer().Commit(); err != nil {
		n.t.Fatal(err)
	}
	return n.fol.Writer().LastLSN()
}

func waitApplied(t *testing.T, n *fnode, lsn int64) {
	t.Helper()
	if at, err := n.fol.WaitApplied(lsn, 20*time.Second); err != nil {
		t.Fatalf("node %s stuck at lsn %d waiting for %d: %v (terminal: %v)", n.addr, at, lsn, err, n.fol.Err())
	}
}

func dialT(t *testing.T, addr string) *server.Client {
	t.Helper()
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// deadAddr is a loopback port nothing listens on: Repoint targets it to
// cut a follower off without stopping the node.
const deadAddr = "127.0.0.1:1"

// TestFailoverPromoteAndFence is the failover acceptance path in-process:
// shared history to two followers, an unreplicated tail on the primary,
// primary crash, PROMOTE over the wire, the survivor re-pointed at the
// new primary, and the revived old primary fenced off by its divergent
// term-1 tail.
func TestFailoverPromoteAndFence(t *testing.T) {
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1})
	pc := dialT(t, p.addr)
	a := startNode(t, t.TempDir(), p.addr, journal.Options{})
	b := startNode(t, t.TempDir(), p.addr, journal.Options{})

	for i := 0; i < 6; i++ {
		if _, err := pc.Create(fmt.Sprintf("SHARED%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	shared := p.quiesce()
	waitApplied(t, a, shared)
	waitApplied(t, b, shared)

	// Cut both replicas off, then write a tail only the primary has: the
	// writes the failover will sacrifice (they were never acked past the
	// primary, and no quorum was configured).
	a.fol.Repoint(deadAddr)
	b.fol.Repoint(deadAddr)
	for i := 0; i < 3; i++ {
		if _, err := pc.Create(fmt.Sprintf("DOOMED%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	divergent := p.quiesce()
	if divergent <= shared {
		t.Fatalf("divergent lsn %d did not pass shared %d", divergent, shared)
	}
	p.crash()

	// Promote A through the wire verb, exactly as `damocles -promote` does.
	ac := dialT(t, a.addr)
	term, bump, err := ac.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if term != 2 || bump != shared+1 {
		t.Fatalf("Promote = term %d bump %d, want term 2 bump %d", term, bump, shared+1)
	}
	if ri, err := ac.Role(); err != nil || ri.Role != "primary" || ri.Term != 2 {
		t.Fatalf("post-promotion ROLE = %+v, %v, want primary at term 2", ri, err)
	}
	// A double PROMOTE is refused: the node is a primary now.
	if _, _, err := ac.Promote(); err == nil || !strings.Contains(err.Error(), "already a primary") {
		t.Fatalf("second PROMOTE = %v, want an already-a-primary refusal", err)
	}
	// The promoted node accepts writes under the new term, and its engine
	// journals through the database the promotion attached the journal to:
	// a POST's event record is in the log.
	k, err := ac.Create("NEWLINE", "HDL_model")
	if err != nil {
		t.Fatalf("promoted node refused a write: %v", err)
	}
	if err := ac.PostEvent("hdl_sim", "down", k, "good"); err != nil {
		t.Fatalf("promoted node refused a POST: %v", err)
	}
	newLSN := a.quiesce()
	event, found := fmt.Sprintf(" event hdl_sim down %s ", k), false
	for _, f := range segmentFrames(t, a.dir) {
		found = found || bytes.Contains(f, []byte(event))
	}
	if !found {
		t.Errorf("no frame of the promoted node's log holds %q", event)
	}

	// The surviving follower re-pointed at the new primary converges on
	// the new lineage, term bump included.
	b.fol.Repoint(a.addr)
	waitApplied(t, b, newLSN)
	if got := b.fol.Term(); got != 2 {
		t.Fatalf("re-pointed follower term %d, want 2", got)
	}
	if av, bv := dbText(t, a.fol.DB()), dbText(t, b.fol.DB()); !bytes.Equal(av, bv) {
		t.Fatalf("survivor diverged from the new primary:\n--- new primary\n%s\n--- survivor\n%s", av, bv)
	}

	// The revived old primary, restarted as a follower of A, announces a
	// term-1 position inside the new lineage — its unreplicated tail —
	// and must be refused terminally, not silently merged.
	ghost, err := replica.Start(p.dir, a.addr, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ghost.Abort()
	deadline := time.Now().Add(15 * time.Second)
	for ghost.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("deposed primary was never fenced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(ghost.Err().Error(), "divergent tail") {
		t.Fatalf("deposed primary stopped with %v, want the divergent-tail fence", ghost.Err())
	}
	if got := ghost.AppliedLSN(); got != divergent {
		t.Fatalf("deposed primary's position moved to %d, want the untouched %d", got, divergent)
	}
}

// TestFollowerChainingConverges: a leaf following a mid-tree follower
// (P → A → B) converges byte-identically through the chain, and
// re-pointing the leaf straight at the primary keeps it converging.
func TestFollowerChainingConverges(t *testing.T) {
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1})
	pc := dialT(t, p.addr)
	a := startNode(t, t.TempDir(), p.addr, journal.Options{})
	b := startNode(t, t.TempDir(), a.addr, journal.Options{}) // follows the follower

	var keys []meta.Key
	for i := 0; i < 10; i++ {
		k, err := pc.Create(fmt.Sprintf("CHAIN%d", i), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if err := pc.PostEvent("ckin", "up", k, "x"); err != nil {
			t.Fatal(err)
		}
	}
	lsn := p.quiesce()
	waitApplied(t, a, lsn)
	waitApplied(t, b, lsn)
	prim := dbText(t, p.db)
	if got := dbText(t, a.fol.DB()); !bytes.Equal(prim, got) {
		t.Fatal("mid-tree follower diverged from the primary")
	}
	if got := dbText(t, b.fol.DB()); !bytes.Equal(prim, got) {
		t.Fatal("leaf follower diverged through the chain")
	}
	// The relay never promises more than the mid-tree node has applied.
	if wm, ap := b.fol.Watermark(), a.fol.AppliedLSN(); wm > ap {
		t.Fatalf("leaf watermark %d passed the mid-tree applied lsn %d", wm, ap)
	}

	// Re-point the leaf from mid-tree to the primary; it must converge on
	// the continued stream without re-applying or skipping history.
	b.fol.Repoint(p.addr)
	for _, k := range keys {
		if err := pc.PostEvent("hdl_sim", "down", k, "good"); err != nil {
			t.Fatal(err)
		}
	}
	lsn = p.quiesce()
	waitApplied(t, b, lsn)
	if got := dbText(t, b.fol.DB()); !bytes.Equal(dbText(t, p.db), got) {
		t.Fatal("re-pointed leaf diverged from the primary")
	}
	if err := b.fol.Err(); err != nil {
		t.Fatalf("leaf reported a terminal error after re-pointing: %v", err)
	}
}

// TestQuorumAckDegradation: with -ack 1 and no follower, a write commits
// locally but degrades to an explicit quorum-timeout error; with a
// follower attached it is acknowledged normally; after the follower dies
// the degradation returns — and no write is ever lost.
func TestQuorumAckDegradation(t *testing.T) {
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1},
		server.WithQuorum(1, 2*time.Second))
	pc := dialT(t, p.addr)

	// No follower: the ack must degrade loudly, never block forever.
	_, err := pc.Create("LONE", "HDL_model")
	if err == nil || !strings.Contains(err.Error(), "quorum-timeout") {
		t.Fatalf("unreplicated write = %v, want a quorum-timeout degradation", err)
	}
	// ...but the write is committed locally all the same.
	if !p.db.Head().HasOID(meta.Key{Block: "LONE", View: "HDL_model", Version: 1}) {
		t.Fatal("quorum-timeout lost the locally committed write")
	}
	if p.w.CommittedLSN() < p.w.LastLSN() {
		t.Fatalf("lsn %d not committed (watermark %d)", p.w.LastLSN(), p.w.CommittedLSN())
	}

	// A follower attaching restores the quorum: the same write shape now
	// acknowledges cleanly once the follower's ack covers it.
	a := startNode(t, t.TempDir(), p.addr, journal.Options{})
	waitApplied(t, a, p.w.LastLSN())
	if _, err := pc.Create("QUORATE", "HDL_model"); err != nil {
		t.Fatalf("replicated write failed its quorum: %v", err)
	}
	waitApplied(t, a, p.w.LastLSN())
	if st := a.fol.Stats(); st.Acks == 0 {
		t.Fatalf("follower sent no acks: %+v", st)
	}

	// Kill the follower: writes degrade again, still without loss.
	a.stop()
	_, err = pc.Create("DEGRADED", "HDL_model")
	if err == nil || !strings.Contains(err.Error(), "quorum-timeout") {
		t.Fatalf("write after follower death = %v, want a quorum-timeout degradation", err)
	}
	if !p.db.Head().HasOID(meta.Key{Block: "DEGRADED", View: "HDL_model", Version: 1}) {
		t.Fatal("post-degradation write lost")
	}
}

// TestRoleVerb: ROLE reports role/term/applied/watermark in one line on
// both sides of the replication boundary, and PROMOTE against a node
// without a hook is a clean refusal.
func TestRoleVerb(t *testing.T) {
	c := newCluster(t, journal.Options{SnapshotEvery: -1})
	c.startFollower()
	pc := c.dial(c.paddr)
	defer pc.Close()
	if _, err := pc.Create("R", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	lsn := c.catchUp()

	ri, err := pc.Role()
	if err != nil {
		t.Fatal(err)
	}
	if ri.Role != "primary" || ri.Term != 1 || ri.Applied != lsn || ri.Watermark != lsn {
		t.Fatalf("primary ROLE = %+v, want primary term 1 at lsn %d", ri, lsn)
	}
	fc := c.dial(c.faddr)
	defer fc.Close()
	fi, err := fc.Role()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Role != "follower" || fi.Term != 1 || fi.Applied != lsn {
		t.Fatalf("follower ROLE = %+v, want follower term 1 applied %d", fi, lsn)
	}
	// The harness follower has no promotion hook: PROMOTE must refuse,
	// and the node must stay a read-only follower.
	if _, _, err := fc.Promote(); err == nil || !strings.Contains(err.Error(), "no promotion hook") {
		t.Fatalf("hookless PROMOTE = %v, want a no-hook refusal", err)
	}
	if _, err := fc.Create("STILL_RO", "HDL_model"); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower accepted a write after failed PROMOTE: %v", err)
	}
	// PROMOTE against a primary is refused too.
	if _, _, err := pc.Promote(); err == nil || !strings.Contains(err.Error(), "already a primary") {
		t.Fatalf("primary PROMOTE = %v, want an already-a-primary refusal", err)
	}
}

// TestFollowerBackoffAndStats: a follower facing a dead upstream retries
// under its configured backoff (counting failures), then recovers the
// moment it is re-pointed at a live primary — and its counters tell the
// story.
func TestFollowerBackoffAndStats(t *testing.T) {
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1})
	pc := dialT(t, p.addr)
	for i := 0; i < 3; i++ {
		if _, err := pc.Create(fmt.Sprintf("BK%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	lsn := p.quiesce()

	fol, err := replica.Start(t.TempDir(), deadAddr, journal.Options{},
		replica.WithBackoff(2*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Abort()
	deadline := time.Now().Add(10 * time.Second)
	for fol.Stats().Failures < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("follower not retrying against a dead upstream: %+v", fol.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if fol.Err() != nil {
		t.Fatalf("dial failures must not be terminal: %v", fol.Err())
	}

	fol.Repoint(p.addr)
	if at, err := fol.WaitApplied(lsn, 20*time.Second); err != nil {
		t.Fatalf("re-pointed follower stuck at %d: %v (terminal: %v)", at, err, fol.Err())
	}
	// The ack follows the apply it acknowledges: wait for it.
	for deadline = time.Now().Add(10 * time.Second); fol.Stats().Acks == 0 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	st := fol.Stats()
	if st.Connects < 1 || st.Records != lsn || st.Bootstraps != 0 || st.Acks == 0 {
		t.Fatalf("stats after recovery = %+v, want ≥1 connect, %d records, 0 bootstraps, ≥1 ack", st, lsn)
	}
}

// TestTailerCompactionDuringPromotion is the promotion/compaction race:
// a chained follower stays attached across a term bump while the new
// primary takes writes and compacts its history in the same window, and
// a cold follower bootstrapping from the compacted post-promotion journal
// still converges — snapshot-carried term table included.
func TestTailerCompactionDuringPromotion(t *testing.T) {
	p := startPrimary(t, t.TempDir(), journal.Options{SegmentBytes: 256, SnapshotEvery: -1})
	pc := dialT(t, p.addr)
	a := startNode(t, t.TempDir(), p.addr, journal.Options{SegmentBytes: 256})
	b := startNode(t, t.TempDir(), a.addr, journal.Options{}) // chained; attached through the bump

	for i := 0; i < 8; i++ {
		if _, err := pc.Create(fmt.Sprintf("PRE%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	lsn := p.quiesce()
	waitApplied(t, a, lsn)
	waitApplied(t, b, lsn)
	p.crash()

	ac := dialT(t, a.addr)
	if _, _, err := ac.Promote(); err != nil {
		t.Fatal(err)
	}

	// Post-promotion writes race snapshots/compaction on the new primary
	// while B's tailer is live on its journal.
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		wc := dialT(t, a.addr)
		for i := 0; i < 24; i++ {
			if _, err := wc.Create(fmt.Sprintf("POST%d", i), "HDL_model"); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if err := a.fol.Writer().Snapshot(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	final := a.quiesce()
	// One more compaction so the cold follower's FOLLOW 0 predates every
	// retained segment and must be answered with a snapshot frame.
	if err := a.fol.Writer().Snapshot(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, b, final)
	if err := b.fol.Err(); err != nil {
		t.Fatalf("chained follower died across the promotion window: %v", err)
	}
	if got := b.fol.Term(); got != 2 {
		t.Fatalf("chained follower term %d after the bump, want 2", got)
	}

	// Cold bootstrap from the compacted post-promotion journal.
	cn := startNode(t, t.TempDir(), a.addr, journal.Options{})
	waitApplied(t, cn, final)
	if st := cn.fol.Stats(); st.Bootstraps == 0 {
		t.Fatalf("cold follower replayed records instead of bootstrapping: %+v", st)
	}
	if got := cn.fol.Term(); got != 2 {
		t.Fatalf("bootstrapped follower term %d, want 2 (term table not carried by the snapshot)", got)
	}
	av := dbText(t, a.fol.DB())
	if got := dbText(t, b.fol.DB()); !bytes.Equal(av, got) {
		t.Fatal("chained follower diverged across promotion + compaction")
	}
	if got := dbText(t, cn.fol.DB()); !bytes.Equal(av, got) {
		t.Fatal("cold-bootstrapped follower diverged from the promoted primary")
	}
}
