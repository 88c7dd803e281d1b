package flow

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/meta"
	"repro/internal/wrapper"
)

// Workload drives a wrapper session with a seeded random stream of designer
// activities over a set of blocks — the synthetic stand-in for a design
// team working on a project.  Activities respect the flow: stale or
// unverified inputs make wrappers refuse, and the workload then performs
// the repair a designer would (re-simulate, re-netlist, ...), so the event
// traffic reaching the BluePrint is realistic.
type Workload struct {
	Seed   int64
	Blocks int
	Steps  int

	// EditDefectRate is the chance (0..100) that an HDL edit introduces
	// defects.
	EditDefectRate int
}

// WorkloadStats summarizes a run.
type WorkloadStats struct {
	Edits       int
	Sims        int
	Syntheses   int
	Netlists    int
	NetlistSims int
	Placements  int
	DRCRuns     int
	LVSRuns     int
	Refusals    int // wrapper permission denials encountered (and repaired)
}

// String renders the stats for reports.
func (w WorkloadStats) String() string {
	return fmt.Sprintf("edits=%d sims=%d synth=%d netlists=%d nlsims=%d place=%d drc=%d lvs=%d refusals=%d",
		w.Edits, w.Sims, w.Syntheses, w.Netlists, w.NetlistSims, w.Placements, w.DRCRuns, w.LVSRuns, w.Refusals)
}

// Run executes the workload.  The session's engine must be loaded with the
// EDTC_example blueprint (or a compatible one declaring the same views).
func (w Workload) Run(sess *wrapper.Session) (WorkloadStats, error) {
	if w.Blocks < 1 || w.Steps < 1 {
		return WorkloadStats{}, fmt.Errorf("flow: bad workload %+v", w)
	}
	rng := rand.New(rand.NewSource(w.Seed))
	var stats WorkloadStats

	lib, err := sess.InstallLibrary("stdlib")
	if err != nil {
		return stats, err
	}

	blocks := make([]string, w.Blocks)
	for i := range blocks {
		blocks[i] = fmt.Sprintf("blk%02d", i)
	}

	// ensureGoodModel gets a block to the simulated-good state.
	ensureGoodModel := func(block string) (meta.Key, error) {
		head := sess.Eng.DB().Head()
		if k, err := head.Latest(block, "HDL_model"); err == nil {
			if v, _, _ := head.GetProp(k, "sim_result"); v == "good" {
				return k, nil
			}
			// Re-simulate; if the data is defective, fix it first.
			if res, err := sess.RunHDLSim(k); err == nil && res == "good" {
				stats.Sims++
				return k, nil
			}
			stats.Refusals++
		}
		k, err := sess.CheckinHDL(block, 20+rng.Intn(200), 0)
		if err != nil {
			return meta.Key{}, err
		}
		stats.Edits++
		if _, err := sess.RunHDLSim(k); err != nil {
			return meta.Key{}, err
		}
		stats.Sims++
		return k, nil
	}

	for step := 0; step < w.Steps; step++ {
		block := blocks[rng.Intn(len(blocks))]
		head := sess.Eng.DB().Head()
		switch rng.Intn(8) {
		case 0, 1: // edit the model
			defects := 0
			if rng.Intn(100) < w.EditDefectRate {
				defects = rng.Intn(5) + 1
			}
			if _, err := sess.CheckinHDL(block, 20+rng.Intn(200), defects); err != nil {
				return stats, err
			}
			stats.Edits++
		case 2: // simulate the model
			k, err := head.Latest(block, "HDL_model")
			if err != nil {
				continue
			}
			if _, err := sess.RunHDLSim(k); err != nil {
				return stats, err
			}
			stats.Sims++
		case 3: // synthesize
			hdl, err := ensureGoodModel(block)
			if err != nil {
				return stats, err
			}
			if _, err := sess.Synthesize(hdl, lib); err != nil {
				if errors.Is(err, wrapper.ErrStale) || errors.Is(err, wrapper.ErrNotReady) {
					stats.Refusals++
					continue
				}
				return stats, err
			}
			stats.Syntheses++
		case 4: // netlist
			sch, err := head.Latest(block, "schematic")
			if err != nil {
				continue
			}
			if _, err := sess.RunNetlister(sch); err != nil {
				if errors.Is(err, wrapper.ErrStale) {
					stats.Refusals++
					continue
				}
				return stats, err
			}
			stats.Netlists++
		case 5: // simulate the netlist
			nl, err := head.Latest(block, "netlist")
			if err != nil {
				continue
			}
			if _, err := sess.RunNetlistSim(nl); err != nil {
				if errors.Is(err, wrapper.ErrStale) {
					stats.Refusals++
					continue
				}
				return stats, err
			}
			stats.NetlistSims++
		case 6: // place & route
			nl, err := head.Latest(block, "netlist")
			if err != nil {
				continue
			}
			if _, err := sess.PlaceRoute(nl); err != nil {
				if errors.Is(err, wrapper.ErrStale) || errors.Is(err, wrapper.ErrNotReady) {
					stats.Refusals++
					continue
				}
				return stats, err
			}
			stats.Placements++
		case 7: // verification on the latest layout
			lay, err := head.Latest(block, "layout")
			if err != nil {
				continue
			}
			if _, err := sess.RunDRC(lay); err != nil {
				return stats, err
			}
			stats.DRCRuns++
			if nl, err := head.Latest(block, "netlist"); err == nil {
				if _, err := sess.RunLVS(lay, nl); err != nil {
					return stats, err
				}
				stats.LVSRuns++
			}
		}
	}
	return stats, nil
}
