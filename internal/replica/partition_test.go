package replica_test

// The partition chaos suite: every test here drives the replication
// stack through netfault blackholes — silence, not resets — and asserts
// the liveness contract the half-open link used to break: a blackholed
// follower declares its stream dead within the stall window (while ROLE
// admits the data's age), reconnects resume at the exact LSN, a primary
// isolated from every follower degrades instead of losing acked writes,
// an asymmetric partition is told apart from a dead link, PROMOTE works
// mid-partition, and a deposed primary's divergent tail is fenced at
// the FOLLOW handshake the moment the network heals.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/netfault"
	"repro/internal/replica"
	"repro/internal/server"
)

// fastPing is the primaries' idle-stream ping cadence in these tests.
var fastPing = server.WithFollowPing(50 * time.Millisecond)

// fastLink scales the follower's dead-link detector and reconnect
// ladder to test time; upstream pings must tick several times per stall
// window (the tests pair it with fastPing).
func fastLink(stall time.Duration) []replica.Option {
	return []replica.Option{
		replica.WithStallTimeout(stall),
		replica.WithBackoff(10*time.Millisecond, 50*time.Millisecond),
	}
}

// waitStalls blocks until the follower's stall counter reaches want and
// returns how long detection took; the caller asserts the bound.
func waitStalls(t *testing.T, f *replica.Follower, want int64, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for f.Stats().Stalls < want {
		if time.Since(start) > within {
			t.Fatalf("stall never detected within %v: %+v", within, f.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Since(start)
}

// TestStallDetectorHalfOpenLink is the half-open FOLLOW regression: a
// blackhole silences an idle stream without closing it (TCP keeps the
// connection "established" for minutes), the follower must declare it
// dead within 2x the stall timeout, count the stall, keep serving reads
// while admitting their age, and — after heal — resume at the exact LSN
// with no bootstrap and no record applied twice.
func TestStallDetectorHalfOpenLink(t *testing.T) {
	const stall = 600 * time.Millisecond
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1}, fastPing)
	pc := dialT(t, p.addr)

	proxy, err := netfault.NewProxy(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	a := startNode(t, t.TempDir(), proxy.Addr(), journal.Options{}, fastLink(stall)...)

	for i := 0; i < 3; i++ {
		if _, err := pc.Create(fmt.Sprintf("PRE%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	lsn := p.quiesce()
	waitApplied(t, a, lsn)

	// Silence, not a close: the kernel on both ends still believes in
	// this connection.  Only the stall detector can tell the truth.
	proxy.Blackhole()
	detect := waitStalls(t, a.fol, 1, 10*time.Second)
	if detect > 2*stall {
		t.Fatalf("half-open link detected after %v, want within 2x stall timeout (%v)", detect, 2*stall)
	}
	if err := a.fol.Err(); err != nil {
		t.Fatalf("a stall must reconnect, not kill the loop: %v", err)
	}

	// The partitioned follower keeps serving, but its reads confess how
	// old they are — locally and through the ROLE verb.
	if d, known := a.fol.Staleness(); !known || d < stall/2 {
		t.Fatalf("staleness = %v (known=%v) after a %v-old blackhole", d, known, detect)
	}
	ri, err := dialT(t, a.addr).Role()
	if err != nil {
		t.Fatal(err)
	}
	if ri.Role != "follower" || !ri.HasStaleness || ri.Staleness <= 0 {
		t.Fatalf("partitioned follower ROLE = %+v, want follower with growing staleness", ri)
	}

	proxy.Heal()
	for i := 0; i < 3; i++ {
		if _, err := pc.Create(fmt.Sprintf("POST%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	lsn2 := p.quiesce()
	waitApplied(t, a, lsn2)
	// Exact-LSN resume: the stall committed the applied tail, so the
	// reconnect re-fetches nothing — every record applied exactly once,
	// and no snapshot re-base was needed.
	st := a.fol.Stats()
	if st.Bootstraps != 0 || st.Records != lsn2 {
		t.Fatalf("resume was not exact: %+v, want 0 bootstraps and exactly %d records", st, lsn2)
	}
	if st.Stalls < 1 {
		t.Fatalf("stall not counted: %+v", st)
	}
	if got := saveBytes(t, a.fol.DB()); !bytes.Equal(saveBytes(t, p.db), got) {
		t.Fatal("follower diverged across the half-open link")
	}
}

// TestIdleStreamPingsKeepFollowerFresh: pings are what make silence
// meaningful.  A completely idle — but healthy — stream must ride
// through many stall windows with zero stalls, zero reconnects, and a
// staleness that keeps snapping back under the ping cadence.
func TestIdleStreamPingsKeepFollowerFresh(t *testing.T) {
	const stall = 400 * time.Millisecond
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1}, fastPing)
	pc := dialT(t, p.addr)
	a := startNode(t, t.TempDir(), p.addr, journal.Options{}, fastLink(stall)...)

	if _, err := pc.Create("IDLE", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	lsn := p.quiesce()
	waitApplied(t, a, lsn)

	time.Sleep(3 * stall) // three full stall windows of pure idleness
	st := a.fol.Stats()
	if st.Stalls != 0 || st.Connects != 1 {
		t.Fatalf("idle pinged stream churned: %+v, want 0 stalls on the first connection", st)
	}
	if d, known := a.fol.Staleness(); !known || d > stall {
		t.Fatalf("staleness = %v (known=%v) on an idle pinged stream, want fresh under %v", d, known, stall)
	}
	if wm := a.fol.Watermark(); wm != lsn {
		t.Fatalf("ping did not carry the watermark: %d, want %d", wm, lsn)
	}

	// The staleness field is a follower statement: a primary's ROLE
	// never carries it (its data is current by definition).
	if ri, err := pc.Role(); err != nil || ri.HasStaleness {
		t.Fatalf("primary ROLE = %+v (%v), want no staleness field", ri, err)
	}
	fi, err := dialT(t, a.addr).Role()
	if err != nil {
		t.Fatal(err)
	}
	if !fi.HasStaleness || fi.Staleness > stall {
		t.Fatalf("idle follower ROLE = %+v, want staleness under %v", fi, stall)
	}
}

// TestPartitionPrimaryIsolatedFromBothFollowers is the split the
// quorum machinery exists for: the primary alone on its side of the
// partition, both followers on the other.  Acked writes (quorum 1)
// survive everywhere; writes during the partition degrade loudly and
// are the sacrifice; a follower promoted on the majority side takes
// over at the next term; and when the network heals, the deposed
// primary's divergent tail is refused at the FOLLOW handshake — and
// the two survivors are byte-identical.
func TestPartitionPrimaryIsolatedFromBothFollowers(t *testing.T) {
	const stall = 500 * time.Millisecond
	nn := netfault.NewNet()
	defer nn.Close()

	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1},
		server.WithQuorum(1, 400*time.Millisecond), fastPing)
	pc := dialT(t, p.addr)

	addrA, err := nn.Connect("a", "p", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := nn.Connect("b", "p", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	a := startNode(t, t.TempDir(), addrA, journal.Options{}, fastLink(stall)...)
	b := startNode(t, t.TempDir(), addrB, journal.Options{}, fastLink(stall)...)

	// The acked epoch: with two live followers, quorum-1 writes are
	// acknowledged cleanly.  These are the writes that must survive.
	var acked []meta.Key
	for i := 0; i < 5; i++ {
		k, err := pc.Create(fmt.Sprintf("ACKED%d", i), "HDL_model")
		if err != nil {
			t.Fatalf("acked write %d failed with live followers: %v", i, err)
		}
		acked = append(acked, k)
	}
	shared := p.quiesce()
	waitApplied(t, a, shared)
	waitApplied(t, b, shared)

	// The split: the primary can reach no follower, and vice versa.
	nn.Partition("a", "p")
	nn.Partition("b", "p")

	// The doomed epoch: every write on the minority side degrades to a
	// quorum-timeout — committed locally, never acknowledged, and
	// therefore fair game for the failover to discard.
	for i := 0; i < 2; i++ {
		_, err := pc.Create(fmt.Sprintf("DOOMED%d", i), "HDL_model")
		if err == nil || !strings.Contains(err.Error(), "quorum-timeout") {
			t.Fatalf("isolated-primary write = %v, want a quorum-timeout degradation", err)
		}
	}
	divergent := p.quiesce()
	if divergent <= shared {
		t.Fatalf("divergent lsn %d did not pass shared %d", divergent, shared)
	}

	// Both followers notice their dead links and stay read-only: one
	// writable node per term, even mid-split.
	waitStalls(t, a.fol, 1, 10*time.Second)
	waitStalls(t, b.fol, 1, 10*time.Second)
	if _, err := dialT(t, a.addr).Create("ROGUE", "HDL_model"); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("partitioned follower accepted a write: %v", err)
	}

	// Failover on the majority side; the old primary dies isolated.
	p.crash()
	ac := dialT(t, a.addr)
	term, bump, err := ac.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if term != 2 || bump != shared+1 {
		t.Fatalf("Promote = term %d bump %d, want term 2 bump %d", term, bump, shared+1)
	}
	if _, err := ac.Create("NEWERA", "HDL_model"); err != nil {
		t.Fatalf("promoted node refused a write: %v", err)
	}
	post := a.quiesce()

	// The survivor re-points at the new primary — through its own
	// faultable link — and still exactly one node per term is writable.
	addrBA, err := nn.Connect("b", "a", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	b.fol.Repoint(addrBA)
	waitApplied(t, b, post)
	if got := b.fol.Term(); got != 2 {
		t.Fatalf("survivor term %d after repoint, want 2", got)
	}
	if _, err := dialT(t, b.addr).Create("ROGUE2", "HDL_model"); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower of the new primary accepted a write: %v", err)
	}
	if ri, err := ac.Role(); err != nil || ri.Role != "primary" || ri.Term != 2 {
		t.Fatalf("new primary ROLE = %+v (%v), want primary at term 2", ri, err)
	}

	// Heal, then revive the deposed primary as a follower of the new
	// one: its term-1 tail past the promotion point must be fenced at
	// the handshake — refused terminally, never silently merged.
	nn.HealAll()
	addrPA, err := nn.Connect("p", "a", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	ghost, err := replica.Start(p.dir, addrPA, journal.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ghost.Abort()
	deadline := time.Now().Add(15 * time.Second)
	for ghost.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("deposed primary was never fenced after heal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(ghost.Err().Error(), "divergent tail") {
		t.Fatalf("deposed primary stopped with %v, want the divergent-tail fence", ghost.Err())
	}
	if got := ghost.AppliedLSN(); got != divergent {
		t.Fatalf("fenced ghost's position moved to %d, want the untouched %d", got, divergent)
	}

	// Zero acked-write loss, and byte-identical survivors.
	for _, k := range acked {
		if !a.fol.DB().Head().HasOID(k) || !b.fol.DB().Head().HasOID(k) {
			t.Fatalf("acked write %v lost across the failover", k)
		}
	}
	if av, bv := saveBytes(t, a.fol.DB()), saveBytes(t, b.fol.DB()); !bytes.Equal(av, bv) {
		t.Fatal("survivors diverged after heal")
	}
}

// TestAsymmetricPartitionAckLoss: only the follower→primary direction
// is lost (the A→B-only partition).  Records and pings still flow down,
// so the follower stays fresh and never stalls — but the primary's
// quorum acks vanish and its writes degrade.  The two failure modes
// must stay distinguishable: dead link on one side, ack starvation on
// the other.
func TestAsymmetricPartitionAckLoss(t *testing.T) {
	const stall = 500 * time.Millisecond
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1},
		server.WithQuorum(1, 300*time.Millisecond), fastPing)
	pc := dialT(t, p.addr)

	proxy, err := netfault.NewProxy(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	a := startNode(t, t.TempDir(), proxy.Addr(), journal.Options{}, fastLink(stall)...)

	if _, err := pc.Create("PRE", "HDL_model"); err != nil {
		t.Fatalf("acked write with a live follower: %v", err)
	}

	// Lose only the uplink: the follower's acks (and nothing else).
	proxy.BlackholeDir(netfault.Up)
	if _, err := pc.Create("UNACKED", "HDL_model"); err == nil || !strings.Contains(err.Error(), "quorum-timeout") {
		t.Fatalf("ack-starved write = %v, want a quorum-timeout degradation", err)
	}
	// ...but the record still reached the follower: the downlink lives.
	waitApplied(t, a, p.w.LastLSN())
	st := a.fol.Stats()
	if st.Stalls != 0 {
		t.Fatalf("follower stalled on a live downlink: %+v", st)
	}
	if d, known := a.fol.Staleness(); !known || d > stall {
		t.Fatalf("staleness = %v (known=%v) with records flowing, want fresh", d, known)
	}

	// Heal: the parked acks drain and quorum service resumes.
	proxy.Heal()
	healed := false
	for i := 0; i < 10 && !healed; i++ {
		_, err := pc.Create(fmt.Sprintf("HEAL%d", i), "HDL_model")
		healed = err == nil
	}
	if !healed {
		t.Fatal("writes never re-acked after the uplink healed")
	}
}

// TestAsymmetricPartitionDownlinkStalls is the mirror image: the
// primary→follower direction goes dark while the follower's own bytes
// still flow.  From the follower's seat this is indistinguishable from
// a dead link — and must be treated as one: stall, tear down, retry
// (each handshake dies on the same silence), then converge on heal.
func TestAsymmetricPartitionDownlinkStalls(t *testing.T) {
	const stall = 400 * time.Millisecond
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1}, fastPing)
	pc := dialT(t, p.addr)

	proxy, err := netfault.NewProxy(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	a := startNode(t, t.TempDir(), proxy.Addr(), journal.Options{}, fastLink(stall)...)

	if _, err := pc.Create("DOWN0", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	lsn := p.quiesce()
	waitApplied(t, a, lsn)

	proxy.BlackholeDir(netfault.Down)
	detect := waitStalls(t, a.fol, 1, 10*time.Second)
	if detect > 2*stall {
		t.Fatalf("dark downlink detected after %v, want within 2x stall timeout (%v)", detect, 2*stall)
	}
	if err := a.fol.Err(); err != nil {
		t.Fatalf("downlink stall must not be terminal: %v", err)
	}

	proxy.Heal()
	if _, err := pc.Create("DOWN1", "HDL_model"); err != nil {
		t.Fatal(err)
	}
	lsn2 := p.quiesce()
	waitApplied(t, a, lsn2)
	if got := saveBytes(t, a.fol.DB()); !bytes.Equal(saveBytes(t, p.db), got) {
		t.Fatal("follower diverged across the asymmetric partition")
	}
	if err := a.fol.Err(); err != nil {
		t.Fatalf("follower terminal after heal: %v", err)
	}
}

// TestPromoteDuringPartition: the operator promotes the survivor while
// its upstream link is blackholed — the exact moment failovers happen.
// The promotion must not wait out a dial parked on the dead address
// (Repoint/halt cancel it), the split-brain window must keep the two
// writable nodes in different terms, and the deposed primary's
// partition-era tail must be fenced after heal.
func TestPromoteDuringPartition(t *testing.T) {
	const stall = 400 * time.Millisecond
	p := startPrimary(t, t.TempDir(), journal.Options{SnapshotEvery: -1}, fastPing)
	pc := dialT(t, p.addr)

	proxy, err := netfault.NewProxy(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	a := startNode(t, t.TempDir(), proxy.Addr(), journal.Options{}, fastLink(stall)...)

	for i := 0; i < 4; i++ {
		if _, err := pc.Create(fmt.Sprintf("SHARED%d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	shared := p.quiesce()
	waitApplied(t, a, shared)

	// Partition, and wait until the follower is provably mid-reconnect
	// against the blackhole before promoting through it.
	proxy.Blackhole()
	waitStalls(t, a.fol, 1, 10*time.Second)

	ac := dialT(t, a.addr)
	start := time.Now()
	term, bump, err := ac.Promote()
	if took := time.Since(start); err != nil || took > 3*time.Second {
		t.Fatalf("Promote mid-partition took %v (%v), must not wait out a blackholed dial", took, err)
	}
	if term != 2 || bump != shared+1 {
		t.Fatalf("Promote = term %d bump %d, want term 2 bump %d", term, bump, shared+1)
	}

	// The split-brain window: both sides are writable — in different
	// terms, which is exactly what makes the later fence decidable.
	if _, err := pc.Create("OLDSIDE", "HDL_model"); err != nil {
		t.Fatalf("old primary refused a write on its own side: %v", err)
	}
	if _, err := ac.Create("NEWSIDE", "HDL_model"); err != nil {
		t.Fatalf("promoted node refused a write: %v", err)
	}
	divergent := p.quiesce()
	pri, err := pc.Role()
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ac.Role()
	if err != nil {
		t.Fatal(err)
	}
	if pri.Role != "primary" || ari.Role != "primary" || pri.Term != 1 || ari.Term != 2 {
		t.Fatalf("split-brain roles = %+v / %+v, want primaries at terms 1 and 2", pri, ari)
	}

	// Heal, depose the old primary, and re-attach it: the tail it wrote
	// during the partition is exactly what the handshake must refuse.
	proxy.Heal()
	p.crash()
	ghost, err := replica.Start(p.dir, a.addr, journal.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ghost.Abort()
	deadline := time.Now().Add(15 * time.Second)
	for ghost.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("deposed primary was never fenced after heal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(ghost.Err().Error(), "divergent tail") {
		t.Fatalf("deposed primary stopped with %v, want the divergent-tail fence", ghost.Err())
	}
	if got := ghost.AppliedLSN(); got != divergent {
		t.Fatalf("fenced ghost's position moved to %d, want the untouched %d", got, divergent)
	}
}
