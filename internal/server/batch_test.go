package server

import (
	"strings"
	"testing"

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
