package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/wire"
)

// BATCH verb: many events, one round-trip, one drain.

func batchServerKeys(t *testing.T, s *Server, blocks ...string) []meta.Key {
	t.Helper()
	keys := make([]meta.Key, 0, len(blocks))
	for _, b := range blocks {
		k, err := s.Engine().CreateOID(b, "HDL_model", "tess")
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := s.Engine().Drain(); err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestBatchPostsAllAndDrainsOnce(t *testing.T) {
	s, addr := startServer(t)
	keys := batchServerKeys(t, s, "alu", "reg", "shifter")
	c := dial(t, addr)

	items := make([]wire.BatchItem, len(keys))
	for i, k := range keys {
		items[i] = wire.BatchItem{Event: "hdl_sim", Dir: "down", OID: k.String(),
			Args: []string{"good result " + k.Block}}
	}
	posted, err := c.PostBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if posted != len(keys) {
		t.Fatalf("posted %d, want %d", posted, len(keys))
	}
	for _, k := range keys {
		v, ok, err := s.Engine().DB().Head().GetProp(k, "sim_result")
		if err != nil || !ok {
			t.Fatalf("%v sim_result missing (%v)", k, err)
		}
		if v != "good result "+k.Block {
			t.Errorf("%v sim_result = %q", k, v)
		}
	}
}

func TestBatchReportsBadItemsAndPostsTheRest(t *testing.T) {
	s, addr := startServer(t)
	keys := batchServerKeys(t, s, "alu")
	c := dial(t, addr)

	items := []wire.BatchItem{
		{Event: "hdl_sim", Dir: "down", OID: keys[0].String(), Args: []string{"good"}},
		{Event: "hdl_sim", Dir: "sideways", OID: keys[0].String()},          // bad direction
		{Event: "hdl_sim", Dir: "down", OID: "missing,HDL_model,1"},         // unknown OID
		{Event: "hdl_sim", Dir: "down", OID: keys[0].String() + ",garbage"}, // bad key
	}
	posted, err := c.PostBatch(items)
	if err == nil {
		t.Fatal("batch with bad items reported no error")
	}
	if posted != 1 {
		t.Fatalf("posted %d, want 1", posted)
	}
	// The good item still went through.
	if v, _, _ := s.Engine().DB().Head().GetProp(keys[0], "sim_result"); v != "good" {
		t.Errorf("good item not applied: sim_result=%q", v)
	}
}

func TestBatchQuotingRoundTrip(t *testing.T) {
	// Arguments with spaces, quotes and escapes survive the nested framing.
	s, addr := startServer(t)
	keys := batchServerKeys(t, s, "alu")
	c := dial(t, addr)

	nasty := `4 errors: "stuck\at zero"` + "\tand\nmore"
	if _, err := c.PostBatch([]wire.BatchItem{
		{Event: "hdl_sim", Dir: "down", OID: keys[0].String(), Args: []string{nasty}},
	}); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Engine().DB().Head().GetProp(keys[0], "sim_result"); v != nasty {
		t.Errorf("sim_result = %q, want %q", v, nasty)
	}
}

func TestBatchHandleResponseShape(t *testing.T) {
	s, _ := startServer(t)
	keys := batchServerKeys(t, s, "alu")
	resp := s.Handle(wire.Request{Verb: wire.VerbBatch, Args: []string{
		wire.BatchItem{Event: "hdl_sim", Dir: "down", OID: keys[0].String(), Args: []string{"good"}}.Encode(),
	}})
	if !resp.OK {
		t.Fatalf("BATCH failed: %s", resp.Detail)
	}
	if !strings.HasPrefix(resp.Detail, "posted 1/1") {
		t.Errorf("detail = %q", resp.Detail)
	}
	if len(resp.Body) != 1 || !strings.HasPrefix(resp.Body[0], "0 ok") {
		t.Errorf("body = %v", resp.Body)
	}
	if resp := s.Handle(wire.Request{Verb: wire.VerbBatch}); resp.OK {
		t.Error("empty BATCH accepted")
	}
}

// TestLongLinesOverSocket: a request line many times the connection's read
// buffer is served whole, and one past maxLineBytes closes the connection
// without being executed.
func TestLongLinesOverSocket(t *testing.T) {
	s, addr := startServer(t)
	k := batchServerKeys(t, s, "alu")[0]
	c := dial(t, addr)

	items := make([]wire.BatchItem, MaxBatchItems)
	line := len("BATCH")
	for i := range items {
		items[i] = wire.BatchItem{Event: "hdl_sim", Dir: "down", OID: k.String(),
			Args: []string{fmt.Sprintf("good-%d", i)}}
		line += 1 + len(wire.Quote(items[i].Encode()))
	}
	if line <= 100<<10 {
		t.Fatalf("BATCH line of %d bytes, want more than 100 KB", line)
	}
	posted, err := c.PostBatch(items)
	if err != nil || posted != MaxBatchItems {
		t.Fatalf("BATCH of %d bytes posted %d, %v", line, posted, err)
	}
	last := fmt.Sprintf("good-%d", MaxBatchItems-1)
	if v, _, _ := s.Engine().DB().Head().GetProp(k, "sim_result"); v != last {
		t.Fatalf("sim_result = %q, want %q", v, last)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server may close before the whole line is written: the write's
	// error is expected.
	go fmt.Fprintf(conn, "POST hdl_sim down %s %s\n", k, strings.Repeat("x", maxLineBytes))
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := io.ReadAll(conn)
	if len(resp) != 0 {
		t.Errorf("oversized line answered %.80q", resp)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection still open after an oversized line")
	}
	if v, _, _ := s.Engine().DB().Head().GetProp(k, "sim_result"); v != last {
		t.Errorf("oversized POST executed: sim_result = %q", v)
	}
}
