// Command loadgen is the open-loop load harness for damocles: it spawns a
// real cluster — a journaled primary and followers — drives a preset
// mixed-op scenario against it at a fixed arrival rate, measures
// per-op-class latency from the intended arrival times (coordinated
// omission is measured, not hidden), samples replication lag, and writes
// the result as a LOAD json.  With -partition it blackholes a follower's
// replication link mid-run (through a netfault proxy — both directions
// silent, nothing closed), audits that the dark follower keeps admitting
// its staleness, and after the heal measures the catch-up, the write-SLO
// recovery, and convergence; a failed audit exits non-zero.  -gate compares
// two LOAD json documents, and -facts prints the runner facts.  See
// docs/LOAD.md.
//
// Usage:
//
//	loadgen -spawn -followers 1 -ack 1 -preset smoke -out LOAD_pr.json
//	loadgen -spawn -followers 1 -ack 1 -preset smoke -partition -out LOAD_partition.json
//	loadgen -gate -base LOAD_base.json -pr LOAD_pr.json -limit 40
//	loadgen -facts
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/load"
)

func main() {
	var (
		spawn     = flag.Bool("spawn", false, "spawn a fresh cluster (primary + followers) for the run")
		followers = flag.Int("followers", 0, "follower count of the spawned cluster")
		ack       = flag.Int("ack", 0, "quorum acks for the spawned primary (damocles -ack)")
		preset    = flag.String("preset", "smoke", "built-in scenario: smoke, soak")
		out       = flag.String("out", "", "output path of the LOAD json")
		partition = flag.Bool("partition", false, "blackhole a follower's replication link mid-run and audit liveness (needs followers)")

		gate  = flag.Bool("gate", false, "gate mode: compare -pr against -base instead of running load")
		base  = flag.String("base", "", "gate mode: baseline LOAD json")
		pr    = flag.String("pr", "", "gate mode: candidate LOAD json")
		limit = flag.Float64("limit", 40, "gate mode: allowed p99 regression percent")

		facts = flag.Bool("facts", false, "print the runner facts JSON (gomaxprocs/numcpu/affinity) and exit")
	)
	flag.Parse()
	log.SetFlags(0)

	if *facts {
		data, _ := json.Marshal(load.RunnerFacts())
		fmt.Println(string(data))
		return
	}
	if *gate {
		os.Exit(runGate(*base, *pr, *limit))
	}
	if !*spawn || *out == "" {
		log.Fatal("loadgen: need -spawn and -out (try -spawn -preset smoke -out LOAD.json)")
	}
	if *partition && *followers == 0 {
		log.Fatal("loadgen: -partition needs at least one follower")
	}

	if err := run(*preset, *followers, *ack, *partition, *out); err != nil {
		log.Fatal("loadgen: ", err)
	}
}

// run spawns the cluster, drives the preset against it, writes the LOAD
// json to out and returns the partition audit's failure, if any — after
// the cluster is torn down, so a failed audit leaves no process behind.
func run(preset string, followers, ack int, partition bool, out string) error {
	spec, err := load.Preset(preset)
	if err != nil {
		return err
	}
	log.Printf("building damocles...")
	bin, err := load.BuildDamocles("")
	if err != nil {
		return err
	}
	defer os.Remove(bin)
	opts := load.ClusterOpts{Followers: followers, Ack: ack, Logf: log.Printf}
	if partition {
		// Short stall timeout and fast pings so the liveness machinery
		// exercises visibly inside a short run: the dark follower must
		// notice the silence, admit staleness, and reconnect fast once
		// the link heals.
		opts.ProxyFollowers = true
		opts.StallTimeout = 1500 * time.Millisecond
		opts.PingInterval = 250 * time.Millisecond
	}
	cluster, err := load.StartCluster(bin, opts)
	if err != nil {
		return err
	}
	defer cluster.Close()

	r := &load.Runner{Spec: spec, Primary: cluster.Primary.Addr, Followers: cluster.FollowerAddrs(), Logf: log.Printf}
	if partition {
		r.Partition = &load.PartitionPlan{
			Cluster:    cluster,
			Follower:   0,
			StartAfter: spec.Duration.D / 4,
			Dark:       spec.Duration.D / 4,
		}
		log.Printf("partition armed: follower 0 goes dark at +%v for %v", spec.Duration.D/4, spec.Duration.D/4)
	}

	res, err := r.Run()
	if err != nil {
		return err
	}
	res.Stamp()
	if err := res.WriteJSON(out); err != nil {
		return err
	}
	printSummary(res, out)

	if pt := res.Partition; pt != nil && pt.Enabled {
		switch {
		case !pt.StalenessSeen:
			return errors.New("dark follower served reads without admitting staleness")
		case !pt.Recovered:
			return errors.New("follower never caught the primary after the heal")
		case !pt.Converged:
			return errors.New("fleet did not converge after the heal")
		}
	}
	return nil
}

func printSummary(res *load.Result, path string) {
	fmt.Printf("scenario %s: %d arrivals, %d completed, %d dropped, %d errors in %.1fs\n",
		res.Name, res.Arrivals, res.Completed, res.Dropped, res.ErrorsAll, res.WallS)
	for _, class := range sortedClasses(res) {
		op := res.Ops[class]
		fmt.Printf("  %-8s n=%-6d err=%-4d p50=%7.2fms p99=%7.2fms p99.9=%7.2fms max=%7.1fms %.0f ops/s\n",
			class, op.Count, op.Errors, op.P50Ms, op.P99Ms, op.P999Ms, op.MaxMs, op.Throughput)
	}
	if rep := res.Replication; rep != nil && rep.Samples > 0 {
		fmt.Printf("  replication: follower lag p50=%d p99=%d max=%d LSNs, journal lag p99=%d (n=%d)\n",
			rep.FollowerLagP50, rep.FollowerLagP99, rep.FollowerLagMax, rep.JournalLagP99, rep.Samples)
	}
	if pt := res.Partition; pt != nil && pt.Enabled {
		fmt.Printf("  partition: dark@%.0fms for %.0fms staleness(max)=%.0fms catchup=%.0fms slo-recovery=%.0fms recovered=%v converged=%v\n",
			pt.StartAtMs, pt.DarkMs, pt.MaxStalenessMs, pt.CatchupMs, pt.SLORecoveryMs, pt.Recovered, pt.Converged)
	}
	for _, v := range res.SLOViolations {
		fmt.Printf("  SLO VIOLATION: %s\n", v)
	}
	fmt.Printf("wrote %s\n", path)
}

func sortedClasses(res *load.Result) []string {
	classes := make([]string, 0, len(res.Ops))
	for c := range res.Ops {
		classes = append(classes, c)
	}
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	return classes
}

// runGate compares a candidate run against a baseline run from the same
// machine: for every op class present in both with enough samples, the
// candidate p99 must stay within limit percent of the baseline (and
// regressions under an absolute 2ms floor never fail — scheduler jitter
// on tiny latencies is not a regression).  Returns the process exit code.
func runGate(basePath, prPath string, limitPct float64) int {
	if basePath == "" || prPath == "" {
		log.Print("loadgen: -gate wants -base and -pr")
		return 2
	}
	baseRes, err := load.ReadResult(basePath)
	if err != nil {
		log.Print(err)
		return 2
	}
	prRes, err := load.ReadResult(prPath)
	if err != nil {
		log.Print(err)
		return 2
	}
	const minSamples = 50
	const absFloorMs = 2.0
	failed := false
	checked := 0
	for _, class := range sortedClasses(baseRes) {
		b, p := baseRes.Ops[class], prRes.Ops[class]
		if p == nil || b.Count < minSamples || p.Count < minSamples {
			continue
		}
		checked++
		allowed := b.P99Ms * (1 + limitPct/100)
		verdict := "ok"
		if p.P99Ms > allowed && p.P99Ms-b.P99Ms > absFloorMs {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-8s p99 base=%7.2fms pr=%7.2fms allowed=%7.2fms %s\n",
			class, b.P99Ms, p.P99Ms, allowed, verdict)
	}
	if prRes.Dropped > baseRes.Dropped && prRes.Dropped > prRes.Arrivals/100 {
		fmt.Printf("drops    base=%d pr=%d (>1%% of arrivals) REGRESSION\n", baseRes.Dropped, prRes.Dropped)
		failed = true
	}
	if checked == 0 {
		log.Print("loadgen: gate compared no op classes (sample counts too low?)")
		return 2
	}
	if failed {
		fmt.Println("load gate: FAIL")
		return 1
	}
	fmt.Println("load gate: PASS")
	return 0
}
