package server

// Tests for the shed/refusal counter export and the BPSWAP verb: the
// counters exist so a load generator's client-side error accounting can
// be reconciled exactly against the server's own refusal tallies.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

func TestStatsExportsCounters(t *testing.T) {
	_, addr := startServerWith(t, WithLimits(Limits{MaxBatchItems: 2}))
	c := dial(t, addr)
	kv, err := c.StatsKV()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"oids", "posted", "conns_shed", "inflight_shed",
		"readonly_refused", "degraded_refused", "batch_oversize", "panics"} {
		if _, ok := kv[key]; !ok {
			t.Errorf("STATS missing %q (have %v)", key, kv)
		}
	}
	if kv["batch_oversize"] != 0 {
		t.Fatalf("fresh server batch_oversize=%d", kv["batch_oversize"])
	}
	// An oversize BATCH is refused and counted.
	k, err := c.Create("cnt", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	items := make([]wire.BatchItem, 3)
	for i := range items {
		items[i] = wire.BatchItem{Event: "ckin", Dir: "down", OID: k.String()}
	}
	if _, err := c.PostBatch(items); err == nil {
		t.Fatal("oversize batch accepted")
	}
	kv, err = c.StatsKV()
	if err != nil {
		t.Fatal(err)
	}
	if kv["batch_oversize"] != 1 {
		t.Errorf("batch_oversize=%d after one refusal", kv["batch_oversize"])
	}
}

func TestBPSwapInstallsBlueprint(t *testing.T) {
	_, addr := startServerWith(t)
	c := dial(t, addr)
	src, err := c.Blueprint()
	if err != nil {
		t.Fatal(err)
	}
	// Swapping the server's own canonical source round-trips: the
	// printed form must parse and install.
	if err := c.SwapBlueprint(src); err != nil {
		t.Fatalf("self-swap: %v", err)
	}
	// A distinct blueprint really replaces the policy.
	alt := "blueprint alt\nview V\n    property ready default false\n    when ckin do ready = true done\nendview\nendblueprint\n"
	if err := c.SwapBlueprint(alt); err != nil {
		t.Fatalf("alt swap: %v", err)
	}
	after, err := c.Blueprint()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after, "alt") {
		t.Errorf("blueprint after swap:\n%s", after)
	}
	// Events keep flowing under the new policy.
	k, err := c.Create("postswap", "V")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PostEvent("ckin", "down", k); err != nil {
		t.Fatal(err)
	}
}

func TestBPSwapRejectsGarbage(t *testing.T) {
	_, addr := startServerWith(t)
	c := dial(t, addr)
	before, err := c.Blueprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SwapBlueprint("when in doubt, mumble"); err == nil {
		t.Fatal("garbage source accepted")
	}
	if err := c.SwapBlueprint(""); err == nil {
		t.Fatal("empty source accepted")
	}
	after, err := c.Blueprint()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Error("failed swap changed the installed blueprint")
	}
}

// TestBPSwapRefusalNamesTheDiagnostic: a blueprint that parses but fails
// analysis is refused with the analyzer's first error, not a bare "has
// errors", and the old policy stays installed.
func TestBPSwapRefusalNamesTheDiagnostic(t *testing.T) {
	s := newTestServer(t)
	before := s.Handle(wire.Request{Verb: wire.VerbBlueprint})
	src := "blueprint dup\nview v\n    property p default a\n    property p default b\nendview\nendblueprint\n"
	resp := s.Handle(wire.Request{Verb: wire.VerbBPSwap, Args: []string{src}})
	if resp.OK {
		t.Fatal("blueprint with a duplicate property installed")
	}
	if want := `duplicate property "p"`; !strings.Contains(resp.Detail, want) {
		t.Errorf("refusal %q does not carry the diagnostic %q", resp.Detail, want)
	}
	after := s.Handle(wire.Request{Verb: wire.VerbBlueprint})
	if after.Detail != before.Detail || !slices.Equal(after.Body, before.Body) {
		t.Errorf("refused swap changed the installed blueprint: %q -> %q", before.Detail, after.Detail)
	}
}
