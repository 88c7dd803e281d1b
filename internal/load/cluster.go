package load

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	"repro/internal/netfault"
	"repro/internal/server"
)

// Proc is one spawned damocles process with its scanned stderr, so the
// harness can wait for the line that names its bound address.
type Proc struct {
	Cmd  *exec.Cmd
	Addr string

	mu    sync.Mutex
	lines []string
	eof   bool
}

var servingLineRE = regexp.MustCompile(`serving on (\S+)`)

// spawnProc launches bin with args and scans its stderr.
func spawnProc(bin string, args []string) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("load: start %s: %w", bin, err)
	}
	p := &Proc{Cmd: cmd}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
		p.mu.Lock()
		p.eof = true
		p.mu.Unlock()
	}()
	return p, nil
}

// waitFor polls the scanned stderr for the first match of re, returning
// its submatches (nil on timeout or process exit).
func (p *Proc) waitFor(re *regexp.Regexp, timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	seen := 0
	for {
		p.mu.Lock()
		for ; seen < len(p.lines); seen++ {
			if m := re.FindStringSubmatch(p.lines[seen]); m != nil {
				p.mu.Unlock()
				return m
			}
		}
		eof := p.eof
		p.mu.Unlock()
		if eof || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Output returns the accumulated stderr, for diagnostics.
func (p *Proc) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := ""
	for _, l := range p.lines {
		out += l + "\n"
	}
	return out
}

// Kill SIGKILLs the process and reaps it.
func (p *Proc) Kill() {
	if p.Cmd.Process != nil && p.Cmd.ProcessState == nil {
		p.Cmd.Process.Kill()
		p.Cmd.Wait()
	}
}

// ClusterOpts configures StartCluster.
type ClusterOpts struct {
	// Followers is the read-replica count (0: primary only).
	Followers int

	// Ack gates primary writes on this many follower watermarks
	// (damocles -ack); 0 disables the quorum gate.
	Ack int

	// ProxyFollowers routes every follower's upstream connection through
	// an in-process netfault proxy, so the harness can blackhole a
	// replication link (PartitionFollower) without touching the process.
	ProxyFollowers bool

	// StallTimeout, when positive, is passed to followers as
	// -stall-timeout: how long a silent stream lives before the follower
	// declares the link dead.  Partition runs scale it down so detection
	// fits the measurement window.
	StallTimeout time.Duration

	// PingInterval, when positive, is passed to every node as
	// -follow-ping: the idle-stream liveness cadence.
	PingInterval time.Duration

	// Logf receives harness progress lines (nil: silent).
	Logf func(format string, args ...any)
}

// Cluster is a real damocles fleet under harness control: one primary,
// N followers, all spawned from the same binary with their own journal
// directories under one temporary directory.
type Cluster struct {
	Bin       string
	Primary   *Proc
	Followers []*Proc

	// Proxies[i] fronts Followers[i]'s upstream link when the cluster
	// was started with ProxyFollowers; nil entries otherwise.
	Proxies []*netfault.Proxy

	dir  string
	logf func(format string, args ...any)
}

// StartCluster spawns a journaled primary plus opts.Followers followers
// and waits until every node serves.
func StartCluster(bin string, opts ClusterOpts) (*Cluster, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir, err := os.MkdirTemp("", "loadgen-cluster-")
	if err != nil {
		return nil, err
	}
	c := &Cluster{Bin: bin, dir: dir, logf: logf}
	pdir := filepath.Join(dir, "primary")
	args := []string{"-addr", "127.0.0.1:0", "-journal", pdir}
	if opts.Ack > 0 {
		args = append(args, "-ack", strconv.Itoa(opts.Ack))
	}
	if opts.PingInterval > 0 {
		args = append(args, "-follow-ping", opts.PingInterval.String())
	}
	prim, err := c.startServing(args)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("load: primary: %w", err)
	}
	c.Primary = prim
	logf("primary serving on %s (journal %s)", prim.Addr, pdir)
	for i := 0; i < opts.Followers; i++ {
		fdir := filepath.Join(dir, fmt.Sprintf("follower%d", i))
		upstream := prim.Addr
		var px *netfault.Proxy
		if opts.ProxyFollowers {
			px, err = netfault.NewProxy(prim.Addr)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("load: follower %d proxy: %w", i, err)
			}
			upstream = px.Addr()
		}
		fargs := []string{"-addr", "127.0.0.1:0", "-journal", fdir, "-follow", upstream}
		if opts.StallTimeout > 0 {
			fargs = append(fargs, "-stall-timeout", opts.StallTimeout.String())
		}
		if opts.PingInterval > 0 {
			fargs = append(fargs, "-follow-ping", opts.PingInterval.String())
		}
		fol, err := c.startServing(fargs)
		if err != nil {
			if px != nil {
				px.Close()
			}
			c.Close()
			return nil, fmt.Errorf("load: follower %d: %w", i, err)
		}
		c.Followers = append(c.Followers, fol)
		c.Proxies = append(c.Proxies, px)
		if px != nil {
			logf("follower %d serving on %s (journal %s, upstream via proxy %s)", i, fol.Addr, fdir, px.Addr())
		} else {
			logf("follower %d serving on %s (journal %s)", i, fol.Addr, fdir)
		}
	}
	return c, nil
}

// PartitionFollower blackholes follower i's replication link: both
// directions go silent without any connection closing — the half-open
// partition the liveness contract exists for.
func (c *Cluster) PartitionFollower(i int) error {
	if i < 0 || i >= len(c.Proxies) || c.Proxies[i] == nil {
		return fmt.Errorf("load: follower %d has no proxy (start the cluster with ProxyFollowers)", i)
	}
	c.logf("partition: blackholing follower %d's replication link", i)
	c.Proxies[i].Blackhole()
	return nil
}

// HealFollower lifts follower i's blackhole; parked bytes drain and the
// link resumes.
func (c *Cluster) HealFollower(i int) error {
	if i < 0 || i >= len(c.Proxies) || c.Proxies[i] == nil {
		return fmt.Errorf("load: follower %d has no proxy", i)
	}
	c.logf("partition: healing follower %d's replication link", i)
	c.Proxies[i].Heal()
	return nil
}

func (c *Cluster) startServing(args []string) (*Proc, error) {
	p, err := spawnProc(c.Bin, args)
	if err != nil {
		return nil, err
	}
	m := p.waitFor(servingLineRE, 20*time.Second)
	if m == nil {
		p.Kill()
		return nil, fmt.Errorf("node did not start serving:\n%s", p.Output())
	}
	p.Addr = m[1]
	return p, nil
}

// FollowerAddrs lists the follower serving addresses.
func (c *Cluster) FollowerAddrs() []string {
	addrs := make([]string, len(c.Followers))
	for i, f := range c.Followers {
		addrs[i] = f.Addr
	}
	return addrs
}

// Close kills every node, tears down the proxies, and removes the
// journal directories.
func (c *Cluster) Close() {
	if c.Primary != nil {
		c.Primary.Kill()
	}
	for _, f := range c.Followers {
		f.Kill()
	}
	for _, px := range c.Proxies {
		if px != nil {
			px.Close()
		}
	}
	os.RemoveAll(c.dir)
}

// appliedOf asks a node's ROLE for its applied LSN (-1 when unreachable).
func appliedOf(addr string) int64 {
	cl, err := server.DialTimeout(addr, 2*time.Second, 2*time.Second)
	if err != nil {
		return -1
	}
	defer cl.Hangup()
	ri, err := cl.Role()
	if err != nil {
		return -1
	}
	return ri.Applied
}

// BuildDamocles compiles the daemon into dir (or a temp dir when empty)
// and returns the binary path — how `loadgen -spawn` and the spawned-cluster
// test get the binary they run.
func BuildDamocles(dir string) (string, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	bin := filepath.Join(dir, fmt.Sprintf("damocles-load-%d", os.Getpid()))
	// Build by import path, not directory, so this works from any cwd
	// inside the module (tests run in their package directory).
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/damocles")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("load: go build repro/cmd/damocles: %v\n%s", err, out)
	}
	return bin, nil
}
