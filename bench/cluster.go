package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// sandbox owns everything a run leaves outside its own memory: the scratch
// directory under <root>/.bench_build and every spawned damocles.  Cleanup
// kills the processes and removes the directory; it runs on normal exit,
// on a failed run, and on SIGINT/SIGTERM, so nothing leaks into a later
// test or benchmark run.
type sandbox struct {
	root string // repository root
	dir  string // scratch directory of this run
	bin  string // built damocles

	mu    sync.Mutex
	procs map[*proc]bool
	dirs  int
}

func newSandbox(root string) (*sandbox, error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	sb := &sandbox{root: root, dir: dir, procs: map[*proc]bool{}}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		sb.cleanup()
		os.Exit(130)
	}()
	return sb, nil
}

// buildServer compiles cmd/damocles from the checkout's source.  The time
// is not part of setup_s.
func (sb *sandbox) buildServer() error {
	sb.bin = filepath.Join(sb.root, ".bench_build", "damocles")
	cmd := exec.Command("go", "build", "-o", sb.bin, "./cmd/damocles")
	cmd.Dir = sb.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/damocles: %v\n%s", err, out)
	}
	return nil
}

func (sb *sandbox) cleanup() {
	sb.mu.Lock()
	procs := make([]*proc, 0, len(sb.procs))
	for p := range sb.procs {
		procs = append(procs, p)
	}
	sb.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(sb.dir)
}

// newDir returns a fresh journal directory path (not yet created: damocles
// creates it).
func (sb *sandbox) newDir(name string) string {
	sb.mu.Lock()
	sb.dirs++
	n := sb.dirs
	sb.mu.Unlock()
	return filepath.Join(sb.dir, name+"-"+strconv.Itoa(n))
}

// proc is one spawned damocles.
type proc struct {
	sb      *sandbox
	cmd     *exec.Cmd
	addr    string
	tail    *tailBuf
	serving chan string   // receives the bound address once
	done    chan struct{} // closed when stderr hits EOF, i.e. the process ended
	reaped  atomic.Bool
}

// tailBuf keeps the last few stderr lines for diagnostics.
type tailBuf struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuf) add(line string) {
	t.mu.Lock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
	t.mu.Unlock()
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// spawn starts damocles with args and returns once it logs the address it
// serves on, so a restart is timed by an event, not by polling.
func (sb *sandbox) spawn(args ...string) (*proc, error) {
	cmd := exec.Command(sb.bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{sb: sb, cmd: cmd, tail: &tailBuf{}, serving: make(chan string, 1), done: make(chan struct{})}
	sb.mu.Lock()
	err = cmd.Start()
	if err == nil {
		sb.procs[p] = true
	}
	sb.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("start damocles: %w", err)
	}
	go p.scan(stderr)
	select {
	case p.addr = <-p.serving:
		return p, nil
	case <-p.done:
		p.kill()
		return nil, fmt.Errorf("damocles %v exited before serving:\n%s", args, p.tail)
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("damocles %v not serving after 30s:\n%s", args, p.tail)
	}
}

func (p *proc) scan(r io.Reader) {
	defer close(p.done)
	sc := bufio.NewScanner(r)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		p.tail.add(line)
		if i := strings.Index(line, "serving on "); i >= 0 && !announced {
			announced = true
			p.serving <- strings.TrimSpace(line[i+len("serving on "):])
		}
	}
}

// kill SIGKILLs the process, waits for it, and forgets it.
func (p *proc) kill() {
	if p.reaped.Swap(true) {
		return
	}
	p.cmd.Process.Kill()
	<-p.done
	p.cmd.Wait()
	p.sb.mu.Lock()
	delete(p.sb.procs, p)
	p.sb.mu.Unlock()
}

// cpuTime reads utime+stime of a live process from /proc.
func (p *proc) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line, in clock ticks of 10 ms.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procField returns the value of the "key:" line of /proc/<pid>/<file>.
func (p *proc) procField(file, key string) (string, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", p.cmd.Process.Pid, file))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no %s in /proc/<pid>/%s", key, file)
}

// diskBytes reads write_bytes from /proc/<pid>/io: the bytes the process
// has caused to be sent to the storage layer — journal segments and
// snapshots, not socket writes.
func (p *proc) diskBytes() (int64, error) {
	v, err := p.procField("io", "write_bytes")
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(v, 10, 64)
}

// peakRSSMB reads VmHWM, the peak resident set, from /proc/<pid>/status.
func (p *proc) peakRSSMB() (float64, error) {
	v, err := p.procField("status", "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
	return kb / 1024, err
}

// countConn counts the bytes that cross the client socket.
type countConn struct {
	net.Conn
	sent, recv *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// opTimeout bounds one request round trip: a hung server fails the run
// instead of hanging it.
const opTimeout = 30 * time.Second

// dial connects a client whose socket traffic is added to sent/recv.
func dial(addr string, sent, recv *atomic.Int64) (*server.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return server.NewClient(countConn{conn, sent, recv}, opTimeout), nil
}
