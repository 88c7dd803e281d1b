package netfault

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections and echoes every byte back.
func echoServer(t *testing.T) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

func dialEcho(t *testing.T, d Dialer, addr string) net.Conn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return c
}

func roundTrip(t *testing.T, c net.Conn, msg string) string {
	t.Helper()
	if _, err := c.Write([]byte(msg)); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	return string(buf)
}

func TestPassthroughAndCounts(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	d, inj := NewFaultDialer(Plan{})
	c := dialEcho(t, d, addr)
	defer c.Close()
	if got := roundTrip(t, c, "hello"); got != "hello" {
		t.Fatalf("echo = %q", got)
	}
	if inj.Count(OpDial) != 1 || inj.Count(OpWrite) != 1 || inj.Count(OpRead) == 0 {
		t.Fatalf("counts = %v", inj.Counts())
	}
	if fired := inj.Fired(); len(fired) != 0 {
		t.Fatalf("zero plan fired %v", fired)
	}
}

func TestNthReadFaultOnceAndSticky(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	d, inj := NewFaultDialer(SingleFault(OpRead, 2, nil))
	c := dialEcho(t, d, addr)
	defer c.Close()
	if got := roundTrip(t, c, "a"); got != "a" {
		t.Fatalf("first echo = %q", got)
	}
	if _, err := c.Write([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd read err = %v, want ErrInjected", err)
	}
	// Non-sticky: the third read succeeds (the echoed "b" is waiting).
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil || buf[0] != 'b' {
		t.Fatalf("3rd read = %q, %v", buf, err)
	}
	if len(inj.Fired()) != 1 {
		t.Fatalf("fired = %v", inj.Fired())
	}

	ds, _ := NewFaultDialer(StickyFault(OpWrite, 1, nil))
	cs := dialEcho(t, ds, addr)
	defer cs.Close()
	for i := 0; i < 3; i++ {
		if _, err := cs.Write([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("sticky write %d err = %v", i, err)
		}
	}
}

func TestAddrFilter(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	d, _ := NewFaultDialer(Plan{Faults: []Fault{{Op: OpDial, Addr: "no-such-host", Sticky: true}}})
	c := dialEcho(t, d, addr) // filter does not match: dial succeeds
	c.Close()
}

func TestBlackholeConn(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	d, _ := NewFaultDialer(Plan{Faults: []Fault{
		{Op: OpRead, Nth: 1, Blackhole: true},
		{Op: OpWrite, Nth: 1, Blackhole: true},
	}})
	c := dialEcho(t, d, addr)
	defer c.Close()
	// Blackholed write: reports success, nothing arrives.
	if n, err := c.Write([]byte("vanish")); n != 6 || err != nil {
		t.Fatalf("blackholed write = %d, %v", n, err)
	}
	// Blackholed read with a deadline: times out like a real silent peer.
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("blackholed read err = %v, want timeout", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatalf("blackholed read returned too early")
	}
}

func TestBlackholeDial(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	d, _ := NewFaultDialer(Plan{Faults: []Fault{{Op: OpDial, Nth: 1, Blackhole: true}}})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := d.DialContext(ctx, "tcp", addr); err == nil {
		t.Fatal("blackholed dial succeeded")
	}
}

func TestLatencyShaping(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	d, _ := NewFaultDialer(Plan{Faults: []Fault{
		{Op: OpWrite, Nth: 1, LatencyOnly: true, Latency: 30 * time.Millisecond},
	}})
	c := dialEcho(t, d, addr)
	defer c.Close()
	start := time.Now()
	if got := roundTrip(t, c, "slow"); got != "slow" {
		t.Fatalf("echo = %q", got)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("latency fault did not delay the write")
	}
}

func TestProxyRelayAndBlackholeHeal(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := roundTripT(t, c, "through"); got != "through" {
		t.Fatalf("proxied echo = %q", got)
	}

	// Partition: bytes written during the blackhole are held, not lost.
	p.Blackhole()
	if _, err := c.Write([]byte("parked")); err != nil {
		t.Fatalf("write into blackhole: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(80 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read during blackhole returned data")
	}
	c.SetReadDeadline(time.Time{})

	p.Heal()
	buf := make([]byte, 6)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "parked" {
		t.Fatalf("post-heal read = %q, %v — held bytes lost", buf, err)
	}
}

func TestProxyAsymmetricBlackhole(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundTripT(t, c, "warm")

	// Down blackholed: our bytes reach the echo server (Up flows), its
	// replies vanish.
	p.BlackholeDir(Down)
	if _, err := c.Write([]byte("oneway")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(80 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("reply crossed a blackholed downlink")
	}
	c.SetReadDeadline(time.Time{})
	p.Heal()
	buf := make([]byte, 6)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "oneway" {
		t.Fatalf("post-heal read = %q, %v", buf, err)
	}
}

func TestProxyDropAfter(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.DropAfter(Up, 2)
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundTripT(t, c, "one") // chunk 1 forwarded
	c.Write([]byte("two"))  // chunk 2 trips the drop
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived the drop trigger")
	}
}

// TestProxyCorruptAfter: the armed byte — the fifth downstream, the "y" of
// the second echo — arrives with one bit flipped, every other byte as it
// was sent, and the trigger fires once.
func TestProxyCorruptAfter(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.CorruptAfter(Down, 5)
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, echo := range [][2]string{{"abc", "abc"}, {"xyz", "xxz"}, {"xyz", "xyz"}} {
		if got := roundTripT(t, c, echo[0]); got != echo[1] {
			t.Fatalf("echo of %q = %q, want %q", echo[0], got, echo[1])
		}
	}
}

func TestProxyBlackholedDialUnserviced(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Blackhole()
	// The TCP connect itself succeeds (local listener) but nothing
	// answers — the dialing side's handshake deadline is the only out.
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("hello?"))
	c.SetReadDeadline(time.Now().Add(80 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("blackholed proxy serviced a new connection")
	}
}

func TestNetPartitionScripting(t *testing.T) {
	addrA, stopA := echoServer(t)
	defer stopA()
	addrB, stopB := echoServer(t)
	defer stopB()

	nw := NewNet()
	defer nw.Close()
	abAddr, err := nw.Connect("a", "b", addrB)
	if err != nil {
		t.Fatal(err)
	}
	baAddr, err := nw.Connect("b", "a", addrA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Connect("a", "b", addrB); err == nil {
		t.Fatal("duplicate Connect accepted")
	}

	ab, err := net.Dial("tcp", abAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ab.Close()
	ba, err := net.Dial("tcp", baAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Close()
	roundTripT(t, ab, "a->b")
	roundTripT(t, ba, "b->a")

	// Full partition: both pair links fall silent.
	nw.Partition("a", "b")
	for _, c := range []net.Conn{ab, ba} {
		c.Write([]byte("x"))
		c.SetReadDeadline(time.Now().Add(60 * time.Millisecond))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatal("byte crossed a full partition")
		}
		c.SetReadDeadline(time.Time{})
	}
	nw.Heal("a", "b")
	drainN(t, ab, 1)
	drainN(t, ba, 1)

	// Asymmetric a→b loss: a's requests toward b vanish, but b's own
	// requests toward a (and a's replies to them) still flow.
	nw.PartitionDir("a", "b")
	ab.Write([]byte("lost"))
	ab.SetReadDeadline(time.Now().Add(60 * time.Millisecond))
	if _, err := ab.Read(make([]byte, 1)); err == nil {
		t.Fatal("a->b byte crossed an asymmetric partition")
	}
	ab.SetReadDeadline(time.Time{})
	// Note b→a replies on the reverse relay carry a→b data too (Down on
	// proxy b->a is a-to-b flow), so only the b→a request direction is
	// guaranteed: b's bytes still reach a's echo server and return.
	if nw.Proxy("b", "a").Blackholed(Up) {
		t.Fatal("asymmetric partition silenced the reverse uplink")
	}
	nw.HealAll()
	drainN(t, ab, 4)
	if got := roundTripT(t, ba, "alive"); got != "alive" {
		t.Fatalf("reverse path broken after heal: %q", got)
	}
}

// roundTripT is roundTrip with a read deadline so a proxy bug hangs the
// test visibly rather than forever.
func roundTripT(t *testing.T, c net.Conn, msg string) string {
	t.Helper()
	if _, err := c.Write([]byte(msg)); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	return string(buf)
}

// drainN reads exactly n held-over bytes after a heal.
func drainN(t *testing.T, c net.Conn, n int) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	if _, err := io.ReadFull(c, make([]byte, n)); err != nil {
		t.Fatalf("drain %d: %v", n, err)
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Op: OpRead, Nth: 3, Sticky: true, Addr: "7077", Latency: time.Millisecond}
	s := f.String()
	for _, want := range []string{"read#3", "sticky", "addr~7077"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
