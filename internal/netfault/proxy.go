// Package netfault is the network half of the test suites' fault
// injection, the sibling of faultfs: where faultfs models a disk that lies,
// netfault models a network that lies — the silent half-open link after a
// partition, where packets vanish and neither end is told, and a bit flipped
// in flight.  Its one instrument is the Proxy, an in-process TCP relay
// between two real endpoints with independently faultable directions, and
// Net scripts partitions between named nodes over a set of them.  The
// processes under test stay unmodified: they dial the proxy's address
// instead of the target's.  Nothing a node is built from imports it.
package netfault

import (
	"fmt"
	"net"
	"sort"
	"sync"
)

// Direction names one side of a proxied connection.
type Direction int

const (
	// Up is the dialing side's traffic toward the target.
	Up Direction = iota
	// Down is the target's traffic back toward the dialer.
	Down
)

func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Proxy is an in-process TCP relay with independently faultable
// directions — the partition instrument.  It listens on a loopback
// port; connections accepted there are forwarded byte-for-byte to the
// target address until a fault says otherwise:
//
//   - Blackhole parks the pump without closing anything: the sender's
//     writes land in kernel buffers and report success, the receiver
//     sees pure silence — the half-open link.  Data read but not yet
//     forwarded when the blackhole lands is held and delivered intact
//     on Heal, so a healed stream is contiguous, exactly like a routed
//     network coming back.
//   - CorruptAfter flips one bit of the Nth forwarded byte in that
//     direction — damage in flight that only the receiver's own checksum
//     can catch.
//
// New connections arriving while Up is blackholed are accepted (the
// listener is local; SYN/ACK always works) but never serviced — the
// dialing side's handshake deadline is what kills them, as with a real
// partition past the first hop.
type Proxy struct {
	target string
	ln     net.Listener

	mu     sync.Mutex
	links  map[*link]struct{}
	closed bool

	up, down *dirState
	done     chan struct{}
	wg       sync.WaitGroup
}

// dirState is one direction's fault state.
type dirState struct {
	mu        sync.Mutex
	blackhole bool
	healed    chan struct{} // replaced on blackhole, closed on heal
	corruptAt int64         // flip a bit of this 1-based forwarded byte; 0 = never
	bytes     int64         // bytes forwarded in this direction, across all links
}

// NewProxy starts a relay toward target on an ephemeral loopback port.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netfault: proxy listen: %w", err)
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		links:  map[*link]struct{}{},
		up:     &dirState{healed: make(chan struct{})},
		down:   &dirState{healed: make(chan struct{})},
		done:   make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address to dial instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) dir(d Direction) *dirState {
	if d == Up {
		return p.up
	}
	return p.down
}

// CorruptAfter arms a one-bit flip of the nth byte forwarded in d
// (1-based, counted across all connections; 0 disarms).
func (p *Proxy) CorruptAfter(d Direction, nth int64) {
	st := p.dir(d)
	st.mu.Lock()
	st.corruptAt = nth
	st.mu.Unlock()
}

// Blackhole silences both directions — the full partition.
func (p *Proxy) Blackhole() {
	p.BlackholeDir(Up)
	p.BlackholeDir(Down)
}

// BlackholeDir silences one direction — the asymmetric partition:
// packets that way vanish, the other way still flows.
func (p *Proxy) BlackholeDir(d Direction) {
	st := p.dir(d)
	st.mu.Lock()
	if !st.blackhole {
		st.blackhole = true
		st.healed = make(chan struct{})
	}
	st.mu.Unlock()
}

// Heal lifts every blackhole; parked pumps resume mid-stream with the
// bytes they were holding.
func (p *Proxy) Heal() {
	for _, st := range [...]*dirState{p.up, p.down} {
		st.mu.Lock()
		if st.blackhole {
			st.blackhole = false
			close(st.healed)
		}
		st.mu.Unlock()
	}
}

// dropConns abruptly closes every live proxied connection.
func (p *Proxy) dropConns() {
	p.mu.Lock()
	ls := make([]*link, 0, len(p.links))
	for l := range p.links {
		ls = append(ls, l)
	}
	p.mu.Unlock()
	for _, l := range ls {
		l.close()
	}
}

// Close stops the listener and severs every link.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	err := p.ln.Close()
	p.dropConns()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.serve(c)
	}
}

// serve connects one accepted conn to the target and starts its pumps.
// If Up is blackholed the dial is withheld: the conn sits accepted and
// silent until heal (then serviced normally) or proxy close.
func (p *Proxy) serve(c net.Conn) {
	defer p.wg.Done()
	if !p.up.waitClear(p.done) {
		c.Close()
		return
	}
	t, err := net.Dial("tcp", p.target)
	if err != nil {
		c.Close()
		return
	}
	l := &link{a: c, b: t, done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		l.close()
		return
	}
	p.links[l] = struct{}{}
	p.mu.Unlock()
	p.wg.Add(2)
	go p.pump(l, c, t, p.up)
	go p.pump(l, t, c, p.down)
	<-l.done
	p.mu.Lock()
	delete(p.links, l)
	p.mu.Unlock()
}

// pump forwards src→dst chunks, applying the direction's fault state to
// each.  A blackhole parks it — before the read when possible, holding
// an already-read chunk otherwise — so no byte is ever dropped or
// reordered, only delayed until heal.
func (p *Proxy) pump(l *link, src, dst net.Conn, st *dirState) {
	defer p.wg.Done()
	defer l.close()
	buf := make([]byte, 32*1024)
	for {
		if !st.waitClear(l.done) {
			return
		}
		n, err := src.Read(buf)
		if n > 0 {
			if flip := st.admit(n); flip >= 0 {
				buf[flip] ^= 1
			}
			// A blackhole that landed during the read parks us here with
			// the chunk in hand; it goes out on heal, preserving stream
			// contiguity.
			if !st.waitClear(l.done) {
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// waitClear blocks while the direction is blackholed; false means the
// link (or proxy) closed while parked.
func (st *dirState) waitClear(done <-chan struct{}) bool {
	for {
		st.mu.Lock()
		bh, ch := st.blackhole, st.healed
		st.mu.Unlock()
		if !bh {
			return true
		}
		select {
		case <-ch:
		case <-done:
			return false
		}
	}
}

// admit counts one forwarded chunk of n bytes and returns the index in it
// of the byte whose bit the corrupt trigger flips, or -1.
func (st *dirState) admit(n int) (flip int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	flip = -1
	if st.corruptAt > 0 && st.corruptAt <= st.bytes+int64(n) {
		flip = int(max(st.corruptAt-st.bytes-1, 0))
		st.corruptAt = 0
	}
	st.bytes += int64(n)
	return flip
}

// link is one proxied connection pair.
type link struct {
	a, b net.Conn
	once sync.Once
	done chan struct{}
}

func (l *link) close() {
	l.once.Do(func() {
		l.a.Close()
		l.b.Close()
		close(l.done)
	})
}

// Net scripts partitions between named nodes: each ordered pair
// (from, to) that should be faultable gets a Proxy in front of to's
// real address, and from is configured to dial the proxy instead.
// Partition and HealAll then operate on names, not ports.
type Net struct {
	mu      sync.Mutex
	proxies map[[2]string]*Proxy
}

// NewNet makes an empty registry.
func NewNet() *Net { return &Net{proxies: map[[2]string]*Proxy{}} }

// Connect routes from→to traffic through a new proxy in front of
// target (to's real listen address) and returns the address from
// should dial.  Connecting the same pair twice is an error — the
// registry would otherwise silently orphan the first proxy's state.
func (n *Net) Connect(from, to, target string) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := [2]string{from, to}
	if _, dup := n.proxies[key]; dup {
		return "", fmt.Errorf("netfault: pair %s->%s already connected", from, to)
	}
	p, err := NewProxy(target)
	if err != nil {
		return "", err
	}
	n.proxies[key] = p
	return p.Addr(), nil
}

// Partition blackholes every byte between a and b, both orders, both
// directions — the full split.  Pairs never connected are skipped:
// traffic that does not flow through a proxy cannot be partitioned,
// and asking for it is a harness wiring bug surfaced by the tests'
// own assertions, not here.
func (n *Net) Partition(a, b string) {
	for _, p := range n.pairProxies(a, b) {
		p.Blackhole()
	}
}

// HealAll lifts every blackhole in the registry.
func (n *Net) HealAll() {
	n.mu.Lock()
	ps := make([]*Proxy, 0, len(n.proxies))
	for _, p := range n.proxies {
		ps = append(ps, p)
	}
	n.mu.Unlock()
	for _, p := range ps {
		p.Heal()
	}
}

// Close tears down every proxy, in deterministic order.
func (n *Net) Close() {
	n.mu.Lock()
	keys := make([][2]string, 0, len(n.proxies))
	for k := range n.proxies {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	ps := make([]*Proxy, 0, len(keys))
	for _, k := range keys {
		ps = append(ps, n.proxies[k])
	}
	n.proxies = map[[2]string]*Proxy{}
	n.mu.Unlock()
	for _, p := range ps {
		p.Close()
	}
}

func (n *Net) pairProxies(a, b string) []*Proxy {
	n.mu.Lock()
	defer n.mu.Unlock()
	var ps []*Proxy
	for _, key := range [][2]string{{a, b}, {b, a}} {
		if p := n.proxies[key]; p != nil {
			ps = append(ps, p)
		}
	}
	return ps
}
