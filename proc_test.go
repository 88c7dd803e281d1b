package repro

// The one process helper of the root tests that run the damocles binary:
// build it once, spawn it, wait for the log lines it prints (bound address,
// applied lsn, shutdown confirmations), ask a node its ROLE, and kill or
// SIGTERM it.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// binDir is the directory buildDamocles builds into, "" until it has run;
// TestMain removes it.
var binDir string

// buildDamocles compiles the daemon once per test binary.
var buildDamocles = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "damocles-crash-*")
	if err != nil {
		return "", err
	}
	binDir = dir
	bin := filepath.Join(dir, "damocles")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/damocles").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// TestMain runs the root tests and removes the daemon they built.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

var (
	servingRE    = regexp.MustCompile(`serving on (\S+)`)
	appliedLSNRE = regexp.MustCompile(`following \S+ from applied lsn (\d+)`)
)

// proc is a spawned damocles process with its accumulated stderr, so
// tests can wait for arbitrary log lines.
type proc struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string

	mu    sync.Mutex
	lines []string
	eof   chan struct{} // closed once the stderr reader has read everything
}

// startProc launches the binary with the given arguments and waits until
// it logs its serving address.
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := spawnProc(t, bin, args...)
	m := p.waitFor(servingRE, 15*time.Second)
	if m == nil {
		p.kill()
		t.Fatalf("damocles did not start serving:\n%s", p.output())
	}
	p.addr = m[1]
	return p
}

// spawnProc launches the binary without waiting for anything; the test's
// cleanup kills it.
func spawnProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{t: t, cmd: cmd, eof: make(chan struct{})}
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
	}()
	t.Cleanup(p.kill)
	return p
}

// waitFor polls the accumulated stderr for the first line matching re and
// returns its submatches (nil on timeout).
func (p *proc) waitFor(re *regexp.Regexp, timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	seen := 0
	for {
		eof := false
		select {
		case <-p.eof: // observed before the scan, so the scan sees every line
			eof = true
		default:
		}
		p.mu.Lock()
		for ; seen < len(p.lines); seen++ {
			if m := re.FindStringSubmatch(p.lines[seen]); m != nil {
				p.mu.Unlock()
				return m
			}
		}
		p.mu.Unlock()
		if eof || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// kill SIGKILLs the process and reaps it; a no-op once it has been reaped.
func (p *proc) kill() {
	if p.cmd.Process != nil && p.cmd.ProcessState == nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// sigterm sends SIGTERM and waits for a clean (exit 0) shutdown.
func (p *proc) sigterm() {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.t.Fatal(err)
	}
	// Wait closes the stderr pipe under the reader: let it reach the end
	// first — the process closing its side — or the closing log lines the
	// callers look for are lost.
	select {
	case <-p.eof:
	case <-time.After(30 * time.Second):
		p.t.Fatalf("no exit within 30s of SIGTERM:\n%s", p.output())
	}
	if err := p.cmd.Wait(); err != nil {
		p.t.Fatalf("graceful shutdown exited dirty: %v\n%s", err, p.output())
	}
}

// roleOf asks a node for its ROLE line.
func roleOf(t *testing.T, addr string) server.RoleInfo {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ri, err := c.Role()
	if err != nil {
		t.Fatal(err)
	}
	return ri
}
