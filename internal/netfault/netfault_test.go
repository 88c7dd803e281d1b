package netfault

import (
	"io"
	"net"
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
	nw.HealAll()
	drainN(t, ab, 1)
	drainN(t, ba, 1)
	if got := roundTripT(t, ba, "alive"); got != "alive" {
		t.Fatalf("reverse path broken after heal: %q", got)
	}
}

// roundTripT writes msg and reads its echo, under a read deadline so a
// proxy bug fails the test visibly rather than hanging it forever.
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
