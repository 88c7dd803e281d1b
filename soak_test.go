package repro

// Soak test: the "soak" load scenario — sustained mixed open-loop
// traffic (check-in batches, report/gap storms, workspace churn,
// blueprint swaps) driven by the internal/load harness against an
// in-process server, then the full invariant audit: exact
// client/server accounting reconciliation, unbroken version chains,
// and a persistence round trip.  The workload is the same declarative
// spec cmd/loadgen runs (load.Preset("soak")), so the soak and the
// harness cannot drift apart.  Skipped with -short.

import (
	"bytes"
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/meta"
	"repro/internal/server"
)

func TestSoakWorkloadWithServer(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	bp, err := bpl.LoadBlueprint("")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	spec, err := load.Preset("soak")
	if err != nil {
		t.Fatal(err)
	}
	r := &load.Runner{Spec: spec, Primary: addr, Logf: t.Logf}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The open-loop contract: every intended arrival was dispatched (the
	// backlog never overflowed) and every dispatched op completed.
	if res.Dropped != 0 {
		t.Errorf("dropped %d arrivals", res.Dropped)
	}
	if res.Dispatched != res.Arrivals {
		t.Errorf("dispatched %d of %d arrivals", res.Dispatched, res.Arrivals)
	}
	if res.Completed != res.Dispatched {
		t.Errorf("completed %d of %d dispatched", res.Completed, res.Dispatched)
	}
	if res.ErrorsAll != 0 {
		t.Fatalf("soak saw %d op errors (kinds: %v)", res.ErrorsAll, res.ErrorKinds)
	}
	for _, class := range []string{load.OpCheckin, load.OpChurn, load.OpReport, load.OpStorm, load.OpState, load.OpSwap} {
		op := res.Ops[class]
		if op == nil || op.Count == 0 {
			t.Errorf("op class %q never ran", class)
		}
	}

	// Exact accounting reconciliation, loadgen-side vs server-side: the
	// pool plus one OID per churn op is every OID the server should hold,
	// one link per churn op is every link, and none of the shed/refusal
	// counters may have fired on an unloaded-enough in-process run.
	churn := res.Ops[load.OpChurn].Count
	if want := int64(res.Spec.Blocks) + churn; res.Server["oids"] != want {
		t.Errorf("server oids=%d, loadgen accounting says %d (pool %d + churn %d)",
			res.Server["oids"], want, res.Spec.Blocks, churn)
	}
	if res.Server["links"] != churn {
		t.Errorf("server links=%d, churn created %d", res.Server["links"], churn)
	}
	for _, counter := range []string{"conns_shed", "inflight_shed", "readonly_refused", "degraded_refused", "batch_oversize", "panics"} {
		if v, ok := res.Server[counter]; !ok {
			t.Errorf("STATS missing counter %q", counter)
		} else if v != 0 {
			t.Errorf("server %s=%d on a clean soak", counter, v)
		}
	}
	// Every checkin batch posts exactly Batch events.
	if want := res.Ops[load.OpCheckin].Count * int64(res.Spec.Batch); res.Server["posted"] < want {
		t.Errorf("server posted=%d < %d checkin events", res.Server["posted"], want)
	}

	db := eng.DB()
	stats := db.Head().Stats()
	// No chain ever skips or repeats versions (pruning never ran here).
	for _, bv := range db.Head().BlockViews() {
		vs := db.Head().Versions(bv.Block, bv.View)
		for i, v := range vs {
			if v != i+1 {
				t.Fatalf("chain %v broken: %v", bv, vs)
			}
		}
	}
	// Engine accounting is self-consistent.
	es := eng.Stats()
	if es.Deliveries < es.Posted {
		t.Errorf("deliveries %d < posted %d", es.Deliveries, es.Posted)
	}
	if es.OIDsCreated != int64(stats.OIDs) {
		t.Errorf("engine created %d, database holds %d", es.OIDsCreated, stats.OIDs)
	}

	// Full persistence round trip of the soaked database.
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Head().Stats() != stats {
		t.Errorf("reload stats differ: %+v vs %+v", db2.Head().Stats(), stats)
	}
	rep1 := Report(db, eng.Blueprint())
	rep2 := Report(db2, eng.Blueprint())
	if len(rep1) != len(rep2) {
		t.Fatalf("report sizes differ: %d vs %d", len(rep1), len(rep2))
	}
	for i := range rep1 {
		if rep1[i].Key != rep2[i].Key || rep1[i].Ready != rep2[i].Ready {
			t.Errorf("report row %d differs: %+v vs %+v", i, rep1[i], rep2[i])
		}
	}
}
