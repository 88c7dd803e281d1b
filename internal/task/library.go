package task

import (
	"fmt"

	"repro/internal/wrapper"
)

// Standard task library: the design activities of the paper's example
// flow packaged as reusable tasks.

// VerifyModel simulates a block's HDL model and requires a good result.
func VerifyModel(block string) Task {
	return Task{
		Name: "verify_" + block,
		Steps: []Step{
			{
				Name: "simulate",
				Run: func(s *wrapper.Session) error {
					k, err := s.Eng.DB().Head().Latest(block, "HDL_model")
					if err != nil {
						return err
					}
					res, err := s.RunHDLSim(k)
					if err != nil {
						return err
					}
					if res != "good" {
						return fmt.Errorf("simulation failed: %s", res)
					}
					return nil
				},
			},
		},
	}
}

// ImplementBlock carries a verified model through synthesis, netlisting
// and netlist simulation — the front half of Figure 4's flow, with the
// task-level state requirements the paper's conclusion gestures at.
func ImplementBlock(block, library string) Task {
	return Task{
		Name: "implement_" + block,
		Steps: []Step{
			{
				Name: "synthesize",
				Require: []Requirement{
					{Block: block, View: "HDL_model", Prop: "sim_result", Want: "good"},
					{Block: block, View: "HDL_model", Prop: "uptodate", Want: "true"},
				},
				Run: func(s *wrapper.Session) error {
					hdl, err := s.Eng.DB().Head().Latest(block, "HDL_model")
					if err != nil {
						return err
					}
					lib, err := s.Eng.DB().Head().Latest(library, "synth_lib")
					if err != nil {
						return err
					}
					_, err = s.Synthesize(hdl, lib)
					return err
				},
			},
			{
				Name: "netlist",
				Require: []Requirement{
					{Block: block, View: "schematic", Prop: "uptodate", Want: "true"},
				},
				Run: func(s *wrapper.Session) error {
					sch, err := s.Eng.DB().Head().Latest(block, "schematic")
					if err != nil {
						return err
					}
					_, err = s.RunNetlister(sch)
					return err
				},
			},
			{
				Name: "simulate_netlist",
				Require: []Requirement{
					{Block: block, View: "netlist", Prop: "uptodate", Want: "true"},
				},
				Run: func(s *wrapper.Session) error {
					nl, err := s.Eng.DB().Head().Latest(block, "netlist")
					if err != nil {
						return err
					}
					res, err := s.RunNetlistSim(nl)
					if err != nil {
						return err
					}
					if res != "good" {
						return fmt.Errorf("netlist simulation failed: %s", res)
					}
					return nil
				},
			},
		},
	}
}

// PhysicalSignoff carries a simulated netlist through placement, DRC and
// LVS — the back half of the flow.
func PhysicalSignoff(block string) Task {
	return Task{
		Name: "signoff_" + block,
		Steps: []Step{
			{
				Name: "place_route",
				Require: []Requirement{
					{Block: block, View: "netlist", Prop: "sim_result", Want: "good"},
					{Block: block, View: "netlist", Prop: "uptodate", Want: "true"},
				},
				Run: func(s *wrapper.Session) error {
					nl, err := s.Eng.DB().Head().Latest(block, "netlist")
					if err != nil {
						return err
					}
					_, err = s.PlaceRoute(nl)
					return err
				},
			},
			{
				Name: "drc",
				Run: func(s *wrapper.Session) error {
					lay, err := s.Eng.DB().Head().Latest(block, "layout")
					if err != nil {
						return err
					}
					res, err := s.RunDRC(lay)
					if err != nil {
						return err
					}
					if res != "good" {
						// One repair attempt, as a designer would.
						if err := s.FixLayout(lay); err != nil {
							return err
						}
						if res, err = s.RunDRC(lay); err != nil {
							return err
						}
						if res != "good" {
							return fmt.Errorf("drc still failing: %s", res)
						}
					}
					return nil
				},
			},
			{
				Name: "lvs",
				Run: func(s *wrapper.Session) error {
					lay, err := s.Eng.DB().Head().Latest(block, "layout")
					if err != nil {
						return err
					}
					nl, err := s.Eng.DB().Head().Latest(block, "netlist")
					if err != nil {
						return err
					}
					res, err := s.RunLVS(lay, nl)
					if err != nil {
						return err
					}
					if res != "is_equiv" {
						return fmt.Errorf("lvs mismatch: %s", res)
					}
					return nil
				},
			},
		},
	}
}
