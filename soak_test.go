package repro

// Soak test: 1,800 ops of mixed traffic — check-in batches, REPORT/GAP
// storms, workspace churn, point reads and blueprint swaps — sent
// closed-loop from eight connections to an in-process server, then the full
// invariant audit: exact client/server accounting reconciliation, unbroken
// version chains, and a persistence round trip.  Skipped with -short.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/server"
	"repro/internal/wire"
)

const (
	soakSeed    = 20240612
	soakOps     = 1800
	soakClients = 8
	soakBlocks  = 20 // the pool the check-ins, churn links and point reads pick from
	soakBatch   = 6  // events per check-in BATCH
)

// soakMix weighs the op classes; the weights add up to 100.
var soakMix = []struct {
	class  string
	weight int
}{{"checkin", 35}, {"report", 8}, {"storm", 12}, {"churn", 30}, {"swap", 1}, {"state", 14}}

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

	setup, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Hangup()
	pool := make([]meta.Key, soakBlocks)
	for i := range pool {
		if pool[i], err = setup.Create(fmt.Sprintf("soakblk%02d", i), "HDL_model"); err != nil {
			t.Fatal(err)
		}
	}
	bpSrc, err := setup.Blueprint()
	if err != nil {
		t.Fatal(err)
	}

	// The op sequence is drawn from the seed, so every run sends the same
	// ops; which connection sends which is up to the scheduler.
	ops := make([]string, soakOps)
	count := map[string]int64{}
	rng := rand.New(rand.NewSource(soakSeed))
	for i := range ops {
		r := rng.Intn(100)
		for _, m := range soakMix {
			if r -= m.weight; r < 0 {
				ops[i] = m.class
				break
			}
		}
		count[ops[i]]++
	}
	for _, m := range soakMix {
		if count[m.class] == 0 {
			t.Fatalf("the op sequence has no %s", m.class)
		}
	}
	do := func(cl *server.Client, rng *rand.Rand, i int) error {
		key := func() meta.Key { return pool[rng.Intn(len(pool))] }
		var err error
		switch ops[i] {
		case "checkin":
			items := make([]wire.BatchItem, soakBatch)
			for j := range items {
				items[j] = wire.BatchItem{Event: "ckin", Dir: "down", OID: key().String()}
			}
			_, err = cl.PostBatch(items)
		case "churn":
			var k meta.Key
			if k, err = cl.Create(fmt.Sprintf("soak%04d", i), "HDL_model"); err == nil {
				err = cl.Link("derive", k, key())
			}
		case "swap":
			err = cl.SwapBlueprint(bpSrc)
		case "report":
			_, err = cl.Report()
		case "storm":
			if i%2 == 0 {
				_, err = cl.Report()
			} else {
				_, err = cl.Gap()
			}
		case "state":
			_, err = cl.State(key())
		}
		return err
	}

	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < soakClients; c++ {
		rng := rand.New(rand.NewSource(soakSeed + int64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := server.Dial(addr)
			if err != nil {
				t.Error(err)
			} else {
				defer cl.Hangup()
			}
			// After its first error a connection only drains the queue.
			for i := range next {
				if err == nil {
					if err = do(cl, rng, i); err != nil {
						t.Errorf("op %d (%s): %v", i, ops[i], err)
					}
				}
			}
		}()
	}
	for i := range ops {
		next <- i
	}
	close(next)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("%d ops from %d connections in %v: %v", soakOps, soakClients, time.Since(start).Round(time.Millisecond), count)

	// Exact accounting reconciliation, client side vs server side: the pool
	// plus one OID per churn op is every OID the server should hold, one
	// link per churn op is every link, and none of the shed/refusal counters
	// may have fired on an unloaded-enough in-process run.
	if err := setup.Sync(); err != nil {
		t.Fatal(err)
	}
	kv, err := setup.StatsKV()
	if err != nil {
		t.Fatal(err)
	}
	churn := count["churn"]
	if want := soakBlocks + churn; kv["oids"] != want {
		t.Errorf("server oids=%d, the client's accounting says %d (pool %d + churn %d)", kv["oids"], want, soakBlocks, churn)
	}
	if kv["links"] != churn {
		t.Errorf("server links=%d, churn created %d", kv["links"], churn)
	}
	for _, counter := range []string{"conns_shed", "readonly_refused", "degraded_refused", "batch_oversize", "panics"} {
		if v, ok := kv[counter]; !ok {
			t.Errorf("STATS missing counter %q", counter)
		} else if v != 0 {
			t.Errorf("server %s=%d on a clean soak", counter, v)
		}
	}
	// Every checkin batch posts exactly soakBatch events.
	if want := count["checkin"] * soakBatch; kv["posted"] < want {
		t.Errorf("server posted=%d < %d checkin events", kv["posted"], want)
	}

	db := eng.DB()
	stats := db.Head().Stats()
	// No chain ever skips or repeats versions.
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
	db2 := checkpointRoundTrip(t, db)
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
