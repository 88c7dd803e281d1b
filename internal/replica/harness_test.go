package replica_test

// The deterministic two-node replication harness: an in-process primary
// (journaled engine + server with a FOLLOW endpoint) and a follower
// (replica.Follower + read-only server), both on loopback TCP — the full
// wire path, no mocks.  The harness drives primary traffic, kills and
// restarts the follower at arbitrary LSNs (Abort simulates a crash: the
// uncommitted buffer is lost, the persisted applied position survives),
// and asserts convergence: the caught-up follower's canonical Save output
// is byte-identical to the primary's, and follower REPORT at the same LSN
// matches primary REPORT.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/replica"
	"repro/internal/server"
)

// cluster is one primary + one (restartable) follower.
type cluster struct {
	t      *testing.T
	shards int

	primDir string
	pw      *journal.Writer
	pdb     *meta.DB
	eng     *engine.Engine
	psrv    *server.Server
	paddr   string

	folDir string
	fol    *replica.Follower
	fsrv   *server.Server
	faddr  string
}

func testBlueprint(t *testing.T) *bpl.Blueprint {
	t.Helper()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// newCluster starts the primary; the follower starts separately so tests
// control when it first attaches (cold vs warm).
func newCluster(t *testing.T, shards int, opt journal.Options) *cluster {
	t.Helper()
	opt.Shards = shards
	c := &cluster{t: t, shards: shards, primDir: t.TempDir(), folDir: t.TempDir()}

	var err error
	c.pw, c.pdb, err = journal.Open(c.primDir, opt)
	if err != nil {
		t.Fatal(err)
	}
	c.eng, err = engine.New(c.pdb, testBlueprint(t), engine.WithJournal(c.pw))
	if err != nil {
		t.Fatal(err)
	}
	c.psrv = server.New(c.eng, server.WithJournal(c.pw))
	c.paddr, err = c.psrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if c.fol != nil {
			c.fsrv.Close()
			c.fol.Abort()
		}
		c.psrv.Close()
		c.pw.Close()
	})
	return c
}

// startFollower attaches (or re-attaches) the follower to the primary and
// serves its replicated database read-only.
func (c *cluster) startFollower() {
	c.t.Helper()
	if c.fol != nil {
		c.t.Fatal("follower already running")
	}
	fol, err := replica.Start(c.folDir, c.paddr, journal.Options{Shards: c.shards})
	if err != nil {
		c.t.Fatal(err)
	}
	eng, err := engine.New(fol.DB(), testBlueprint(c.t))
	if err != nil {
		c.t.Fatal(err)
	}
	srv := server.New(eng, server.WithReadOnly(fol))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		c.t.Fatal(err)
	}
	c.fol, c.fsrv, c.faddr = fol, srv, addr
}

// killFollower tears the follower down abruptly: the server drops its
// connections and the replication loop aborts without flushing, exactly
// what a crash leaves behind.
func (c *cluster) killFollower() {
	c.t.Helper()
	if c.fol == nil {
		c.t.Fatal("no follower to kill")
	}
	c.fsrv.Close()
	c.fol.Abort()
	c.fol, c.fsrv, c.faddr = nil, nil, ""
}

func (c *cluster) restartFollower() {
	c.killFollower()
	c.startFollower()
}

// catchUp quiesces the primary (drain + commit), waits for the follower
// to apply everything, and returns the converged LSN.
func (c *cluster) catchUp() int64 {
	c.t.Helper()
	if err := c.eng.Drain(); err != nil {
		c.t.Fatal(err)
	}
	if err := c.pw.Commit(); err != nil {
		c.t.Fatal(err)
	}
	lsn := c.pw.LastLSN()
	if at, err := c.fol.WaitApplied(lsn, 15*time.Second); err != nil {
		c.t.Fatalf("follower stuck at lsn %d waiting for %d: %v (follower err: %v)", at, lsn, err, c.fol.Err())
	}
	return lsn
}

func saveBytes(t *testing.T, db *meta.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertConverged is the harness's core assertion: byte-identical
// canonical Save output, and identical REPORT bodies at the same LSN
// through both servers' wire paths.
func (c *cluster) assertConverged() {
	c.t.Helper()
	lsn := c.catchUp()

	prim := saveBytes(c.t, c.pdb)
	foll := saveBytes(c.t, c.fol.DB())
	if !bytes.Equal(prim, foll) {
		c.t.Fatalf("follower Save differs from primary at lsn %d:\n--- primary\n%s\n--- follower\n%s", lsn, prim, foll)
	}

	pc := c.dial(c.paddr)
	defer pc.Close()
	fc := c.dial(c.faddr)
	defer fc.Close()
	pr, err := pc.ReportAt(lsn)
	if err != nil {
		c.t.Fatal(err)
	}
	fr, err := fc.ReportAt(lsn)
	if err != nil {
		c.t.Fatal(err)
	}
	if strings.Join(pr, "\n") != strings.Join(fr, "\n") {
		c.t.Fatalf("REPORT mismatch at lsn %d:\n--- primary\n%s\n--- follower\n%s",
			lsn, strings.Join(pr, "\n"), strings.Join(fr, "\n"))
	}
}

func (c *cluster) dial(addr string) *server.Client {
	c.t.Helper()
	cl, err := server.Dial(addr)
	if err != nil {
		c.t.Fatal(err)
	}
	return cl
}

// TestTwoNodeFollowerReplication is the acceptance path: wire traffic on
// the primary, follower killed and restarted at arbitrary points, then
// convergence — byte-identical Save, identical REPORT at the same LSN —
// and the follower refusing writes throughout.
func TestTwoNodeFollowerReplication(t *testing.T) {
	c := newCluster(t, 4, journal.Options{SegmentBytes: 2048, SnapshotEvery: -1})
	c.startFollower()

	pc := c.dial(c.paddr)
	defer pc.Close()
	pc.User = "yves"

	blocks := []string{"CPU", "ALU", "REG", "IO", "FPU"}
	var keys []meta.Key
	for i, b := range blocks {
		k, err := pc.Create(b, "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if err := pc.PostEvent("ckin", "up", k, "initial"); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := pc.Link("derive", keys[i-1], k); err != nil {
				t.Fatal(err)
			}
		}
		// Kill/restart the follower at scattered LSNs, mid-stream.
		switch i {
		case 1:
			c.restartFollower()
		case 3:
			c.killFollower()
		}
		if c.fol == nil && i == 4 {
			c.startFollower()
		}
	}
	for _, k := range keys {
		if err := pc.PostEvent("hdl_sim", "down", k, "good"); err != nil {
			t.Fatal(err)
		}
	}
	c.assertConverged()

	// The follower must refuse every mutating verb.
	fc := c.dial(c.faddr)
	defer fc.Close()
	if _, err := fc.Create("ROGUE", "HDL_model"); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower accepted CREATE: %v", err)
	}
	if err := fc.PostEvent("ckin", "up", keys[0]); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower accepted POST: %v", err)
	}
	if err := fc.Link("use", keys[0], keys[1]); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower accepted LINK: %v", err)
	}
	if _, err := fc.Snapshot("cfg", "*"); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower accepted SNAPSHOT: %v", err)
	}
	// Reads still work, and LSN reports the applied position.
	lsn, err := fc.LSN()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != c.pw.LastLSN() {
		t.Fatalf("follower LSN %d, primary at %d", lsn, c.pw.LastLSN())
	}

	// More traffic after the refusals: the replica keeps converging.
	for i := 0; i < 8; i++ {
		k, err := pc.Create(fmt.Sprintf("LATE%d", i), "SCHEMA")
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.PostEvent("ckin", "up", k, "late"); err != nil {
			t.Fatal(err)
		}
	}
	c.assertConverged()
}

// TestFollowerStaleRebootstrap: a follower left so far behind that the
// primary has snapshotted and compacted past its position must re-base on
// the shipped snapshot (FOLLOW answers with a snapshot frame) and still
// converge byte-identically.
func TestFollowerStaleRebootstrap(t *testing.T) {
	c := newCluster(t, 4, journal.Options{SegmentBytes: 512, SnapshotEvery: -1})
	c.startFollower()

	pc := c.dial(c.paddr)
	defer pc.Close()
	for i := 0; i < 4; i++ {
		if _, err := pc.Create(fmt.Sprintf("EARLY%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	c.assertConverged()
	c.killFollower()

	// Advance the primary well past the follower and compact its history.
	for i := 0; i < 20; i++ {
		k, err := pc.Create(fmt.Sprintf("MID%d", i), "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.PostEvent("ckin", "up", k, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.pw.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if c.pw.SnapshotLSN() <= 4 {
		t.Fatalf("primary snapshot lsn %d did not pass the follower's position", c.pw.SnapshotLSN())
	}

	c.startFollower()
	c.assertConverged()
	if got := c.fol.DB().Head().Stats().OIDs; got != 24 {
		t.Fatalf("re-bootstrapped follower has %d oids, want 24", got)
	}
}

// TestQuickFollowerConvergence is the replication property test: for a
// randomized op program with mid-stream follower kills and restarts, the
// caught-up follower's canonical Save output equals the primary's —
// byte-identical — at 1, 4 and 64 shards.  It reuses the op-program shape
// of the journal's persistence-equivalence quick test, driven against the
// journaled primary database directly so every mutation kind appears in
// the stream.
func TestQuickFollowerConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a TCP cluster per case")
	}
	for _, shards := range []int{1, 4, 64} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Deterministic program bytes: a fixed-seed PRNG unrolled by
			// case index, so failures replay exactly.
			for caseNo := 0; caseNo < 3; caseNo++ {
				ops := make([]byte, 180)
				x := uint32(2463534242 + caseNo*977 + shards)
				for i := range ops {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					ops[i] = byte(x)
				}
				runFollowerProgram(t, shards, ops)
			}
		})
	}
}

// runFollowerProgram interprets ops as a mutation program against the
// primary's database (tiny segments so rotation, snapshots and follower
// restarts all trigger), then asserts convergence.
func runFollowerProgram(t *testing.T, shards int, ops []byte) {
	t.Helper()
	c := newCluster(t, shards, journal.Options{SegmentBytes: 512, SnapshotEvery: -1})
	c.startFollower()
	db, w := c.pdb, c.pw

	blocks := []string{"cpu", "alu", "reg", "io"}
	views := []string{"HDL_model", "SCHEMA", "netlist"}
	events := [][]string{nil, {"ckin"}, {"ckin", "outofdate"}}
	var keys []meta.Key
	var links []meta.LinkID
	names := 0

	pick := func(b byte, n int) int { return int(b) % n }
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		switch op % 14 {
		case 0, 1: // create a version (common)
			k, err := db.NewVersion(blocks[pick(a, len(blocks))], views[pick(b, len(views))])
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		case 2:
			if len(keys) > 0 {
				k := keys[pick(a, len(keys))]
				if err := db.SetProp(k, "p"+fmt.Sprint(b%4), fmt.Sprint(b)); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			if len(keys) > 0 {
				k := keys[pick(a, len(keys))]
				err := db.UpdateOID(k, func(o *meta.OID) {
					o.Props["batch"] = fmt.Sprint(a)
					delete(o.Props, "p"+fmt.Sprint(b%4))
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if len(keys) > 1 {
				from, to := keys[pick(a, len(keys))], keys[pick(b, len(keys))]
				if id, err := db.AddLink(meta.DeriveLink, from, to, "", events[pick(a^b, len(events))], nil); err == nil {
					links = append(links, id)
				}
			}
		case 5:
			if len(links) > 0 {
				if err := db.SetLinkProp(links[pick(a, len(links))], "TYPE", "equivalence"); err != nil {
					t.Fatal(err)
				}
			}
		case 6:
			if len(links) > 0 {
				j := pick(a, len(links))
				if err := db.DeleteLink(links[j]); err != nil {
					t.Fatal(err)
				}
				links = append(links[:j], links[j+1:]...)
			}
		case 7:
			if len(links) > 0 && len(keys) > 0 {
				id := links[pick(a, len(links))]
				if l, err := db.Head().GetLink(id); err == nil {
					_ = db.RetargetLink(id, l.From, keys[pick(b, len(keys))])
				}
			}
		case 8:
			names++
			if _, err := db.SnapshotQuery(fmt.Sprintf("cfg%d", names), func(o *meta.OID) bool {
				return o.Key.Version%2 == int(a)%2
			}); err != nil {
				t.Fatal(err)
			}
		case 9:
			names++
			ws := fmt.Sprintf("ws%d", names)
			if err := db.AddWorkspace(ws, "/data"); err != nil {
				t.Fatal(err)
			}
			if len(keys) > 0 {
				if err := db.BindPath(ws, keys[pick(a, len(keys))], "some/path"); err != nil {
					t.Fatal(err)
				}
			}
		case 10:
			if len(keys) > 0 {
				k := keys[pick(a, len(keys))]
				if _, err := db.PruneVersions(k.Block, k.View, 1+int(b)%2); err != nil {
					t.Fatal(err)
				}
				keys = liveKeys(db, keys)
				links = liveLinks(db, links)
			}
		case 11:
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if a%3 == 0 {
				if err := w.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		case 12: // kill the follower mid-stream at an arbitrary LSN
			if c.fol != nil {
				c.killFollower()
			}
		case 13: // ...and bring it back
			if c.fol == nil {
				c.startFollower()
			}
		}
	}
	if c.fol == nil {
		c.startFollower()
	}
	c.assertConverged()
}

func liveKeys(db *meta.DB, keys []meta.Key) []meta.Key {
	out := keys[:0]
	for _, k := range keys {
		if db.Head().HasOID(k) {
			out = append(out, k)
		}
	}
	return out
}

func liveLinks(db *meta.DB, links []meta.LinkID) []meta.LinkID {
	out := links[:0]
	for _, id := range links {
		if _, err := db.Head().GetLink(id); err == nil {
			out = append(out, id)
		}
	}
	return out
}

// TestFollowerReadYourLSN: a write acknowledged by the primary at LSN n
// is visible in a follower REPORT gated on n — the read-your-writes
// contract across the primary/follower boundary over the real wire path.
func TestFollowerReadYourLSN(t *testing.T) {
	c := newCluster(t, 4, journal.Options{SnapshotEvery: -1})
	c.startFollower()

	pc := c.dial(c.paddr)
	defer pc.Close()
	k, err := pc.Create("RYW", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.PostEvent("ckin", "up", k, "v1"); err != nil {
		t.Fatal(err)
	}
	lsn, err := pc.LSN()
	if err != nil {
		t.Fatal(err)
	}
	fc := c.dial(c.faddr)
	defer fc.Close()
	rows, err := fc.ReportAt(lsn) // waits server-side for the replica to reach lsn
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if strings.HasPrefix(r, "RYW,") {
			found = true
		}
	}
	if !found {
		t.Fatalf("follower REPORT at lsn %d is missing the acknowledged row:\n%s", lsn, strings.Join(rows, "\n"))
	}

	// A horizon the replica cannot have reached yet times out loudly
	// rather than serving stale data.
	if _, err := c.fol.WaitApplied(lsn+1000, 50*time.Millisecond); err == nil {
		t.Fatal("WaitApplied at an unreachable lsn should fail")
	}
}
