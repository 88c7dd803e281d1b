package repro

// Crash-recovery acceptance test: a real damocles process with -journal,
// killed with SIGKILL mid-traffic, must restart into the exact state it
// had acknowledged — the REPORT for the settled traffic is identical
// before and after the crash.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/server"
)

func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	bin, err := buildDamocles()
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()

	prim := startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", jdir)
	c, err := server.Dial(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	c.User = "yves"

	// Settled phase: build a small project, sync, record the REPORT.
	// Every response arrived after the journal commit, so all of this is
	// durable by the protocol's own contract.
	settled := map[string]bool{}
	for _, block := range []string{"CPU", "ALU", "REG"} {
		k, err := c.Create(block, "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		settled[k.Block] = true
		if err := c.PostEvent("ckin", "up", k, "initial"); err != nil {
			t.Fatal(err)
		}
		if err := c.PostEvent("hdl_sim", "down", k, "good"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	before, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("empty pre-crash report")
	}

	// Mid-traffic phase: keep hammering DIFFERENT blocks from a second
	// connection while SIGKILL lands, so the crash interrupts live writes
	// without disturbing the settled rows.
	c2, err := server.Dial(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	c2.User = "marc"
	trafficDone := make(chan struct{})
	go func() {
		defer close(trafficDone)
		for i := 0; ; i++ {
			k, err := c2.Create(fmt.Sprintf("SCRATCH%d", i), "HDL_model")
			if err != nil {
				return // connection died: the kill landed
			}
			if err := c2.PostEvent("ckin", "up", k, "mid-crash"); err != nil {
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the traffic get going
	prim.kill()
	<-trafficDone

	// Restart on the same journal and compare the settled rows.
	c3, err := server.Dial(startProc(t, bin, "-addr", "127.0.0.1:0", "-journal", jdir).addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	after, err := c3.Report()
	if err != nil {
		t.Fatal(err)
	}
	var afterSettled []string
	for _, row := range after {
		if settled[strings.SplitN(row, ",", 2)[0]] {
			afterSettled = append(afterSettled, row)
		}
	}
	if got, want := strings.Join(afterSettled, "\n"), strings.Join(before, "\n"); got != want {
		t.Errorf("settled REPORT rows changed across SIGKILL:\n--- before crash\n%s\n--- after recovery\n%s", want, got)
	}

	// Every mid-crash checkin the server ACKNOWLEDGED must also have
	// survived: in the default synchronous mode the drain (and with it
	// the journal commit) completes before the POST response is written.
	// The interrupted tail may have created the OID without its ack; the
	// row may exist, but an acknowledged row may not be missing.
	scratch := 0
	for _, row := range after {
		if strings.HasPrefix(row, "SCRATCH") {
			scratch++
		}
	}
	t.Logf("recovered %d settled rows, %d mid-crash scratch rows", len(afterSettled), scratch)
}

// TestDamoclesRefusesOlderDirectory: damocles refuses to start without
// -journal, and on a directory an older build wrote (the JSON-snapshot
// fixture of internal/journal) it exits naming `dquery upgrade`, leaving the
// directory as it was; `dquery upgrade` converts it to one that recovers to
// what the older build recovered it to, and a second run changes nothing.
func TestDamoclesRefusesOlderDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	bin, err := buildDamocles()
	if err != nil {
		t.Fatal(err)
	}
	dquery := filepath.Join(t.TempDir(), "dquery")
	if out, err := exec.Command("go", "build", "-o", dquery, "./cmd/dquery").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const fixture = "internal/journal/testdata/v1journal"
	dir := t.TempDir()
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), data, 0o666)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	files := func() string {
		var all []string
		now, _ := os.ReadDir(dir)
		for _, e := range now {
			data, _ := os.ReadFile(filepath.Join(dir, e.Name()))
			all = append(all, e.Name(), string(data))
		}
		return strings.Join(all, "\x00")
	}
	before := files()

	for want, args := range map[string][]string{
		"`dquery upgrade <dir>`":   {"-addr", "127.0.0.1:0", "-journal", dir},
		"-journal DIR is required": {"-addr", "127.0.0.1:0"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		if err == nil || !strings.Contains(string(out), want) {
			t.Errorf("damocles %s: %v, want a non-zero exit naming %s:\n%s", strings.Join(args, " "), err, want, out)
		}
	}
	if files() != before {
		t.Fatal("the refused directory was changed")
	}

	out, err := exec.Command(dquery, "upgrade", dir).CombinedOutput()
	if err != nil || !strings.Contains(string(out), `converted ["snapshot-`) {
		t.Fatalf("dquery upgrade: %v\n%s", err, out)
	}
	doc, err := os.ReadFile(fixture + ".save")
	if err != nil {
		t.Fatal(err)
	}
	saved, err := meta.LoadDocument(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := replayText(t, dir)
	if golden := dbText(t, saved); !bytes.Equal(got, golden) {
		t.Errorf("upgraded, the directory recovers to\n%s\nwant\n%s", got, golden)
	}
	if out, err := exec.Command(dquery, "upgrade", dir).CombinedOutput(); err != nil || !strings.Contains(string(out), "converted []") {
		t.Errorf("a second dquery upgrade: %v\n%s", err, out)
	}
}
