// Package wrapper implements the wrapper programs of sections 3.1 and 3.3
// of the paper.  "The invocation of the tools is encapsulated into shell
// scripts called wrapper programs" which post event messages to the
// BluePrint; and "Tool scheduling is implemented by the wrapper programs.
// The program queries the meta-database, requesting the permission to
// access data and to run the tool.  The permission is given based on the
// state of the input data."
//
// A Session binds the run-time engine (meta-database side) to the simulated
// tool suite (design-data side).  Each wrapper method performs the three
// wrapper duties: permission query, tool run, event posting.
package wrapper

import (
	"errors"
	"fmt"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/meta"
	"repro/internal/tools"
)

// ErrStale reports that a wrapper refused to run because its input data is
// not up to date — the paper's example: "prior to running a simulation, the
// wrapper makes sure that the input netlist is up to date".
var ErrStale = errors.New("wrapper: input data is not up to date")

// ErrNotReady reports that an input fails a required-state check other
// than freshness (e.g. synthesizing an unverified HDL model).
var ErrNotReady = errors.New("wrapper: input data does not meet required state")

// Session is a designer's working context: engine, workspace, identity.
type Session struct {
	Eng   *engine.Engine
	Suite *tools.Suite
	User  string

	// Workspace, when set, names a registered meta.Workspace; every OID
	// the session checks in gets its design-data path bound there, tying
	// the meta-database to the repository as DAMOCLES does.
	Workspace string
}

// NewSession creates a session.
func NewSession(eng *engine.Engine, suite *tools.Suite, user string) *Session {
	return &Session{Eng: eng, Suite: suite, User: user}
}

// UseWorkspace registers (or reuses) a workspace in the meta-database and
// makes the session bind checked-in data into it.
func (s *Session) UseWorkspace(name, root string) error {
	err := s.Eng.DB().AddWorkspace(name, root)
	if err != nil && !errors.Is(err, meta.ErrExists) {
		return err
	}
	s.Workspace = name
	return nil
}

// bindPath records the storage location of an OID's design data in the
// session workspace, if one is configured.
func (s *Session) bindPath(k meta.Key) error {
	if s.Workspace == "" {
		return nil
	}
	path := fmt.Sprintf("%s/%s/v%d", k.Block, k.View, k.Version)
	return s.Eng.DB().BindPath(s.Workspace, k, path)
}

// ---------------------------------------------------------------------------
// Permission queries (section 3.3)

// RequireUpToDate checks the uptodate property of an input OID.
func (s *Session) RequireUpToDate(k meta.Key) error {
	v, ok, err := s.Eng.DB().GetProp(k, "uptodate")
	if err != nil {
		return err
	}
	if !ok || v != "true" {
		return fmt.Errorf("%w: %v (uptodate=%q)", ErrStale, k, v)
	}
	return nil
}

// RequireProp checks that a property of an input OID has the wanted value.
func (s *Session) RequireProp(k meta.Key, name, want string) error {
	v, _, err := s.Eng.DB().GetProp(k, name)
	if err != nil {
		return err
	}
	if v != want {
		return fmt.Errorf("%w: %v (%s=%q, want %q)", ErrNotReady, k, name, v, want)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Primary-data wrappers

// CheckinHDL creates a new HDL model version with the given content and
// checks it in.
func (s *Session) CheckinHDL(block string, gates, defects int) (meta.Key, error) {
	k, err := s.Eng.CreateOID(block, "HDL_model", s.User)
	if err != nil {
		return meta.Key{}, err
	}
	s.Suite.WriteHDL(k, gates, defects)
	if err := s.checkin(k); err != nil {
		return meta.Key{}, err
	}
	return k, nil
}

// InstallLibrary registers a new synthesis library version and checks it
// in, which invalidates dependents through the depend_on links.
func (s *Session) InstallLibrary(block string) (meta.Key, error) {
	k, err := s.Eng.CreateOID(block, "synth_lib", s.User)
	if err != nil {
		return meta.Key{}, err
	}
	s.Suite.InstallLibrary(k)
	if err := s.checkin(k); err != nil {
		return meta.Key{}, err
	}
	return k, nil
}

// checkin binds the data location, posts the ckin event and drains.
func (s *Session) checkin(k meta.Key) error {
	return s.checkinVia(k, s.Eng.PostAndDrain)
}

// checkinVia binds the data location and hands the ckin event to post.
func (s *Session) checkinVia(k meta.Key, post func(engine.Event) error) error {
	if err := s.bindPath(k); err != nil {
		return err
	}
	return post(engine.Event{Name: engine.EventCheckin, Dir: bpl.DirDown, Target: k, User: s.User})
}

// ---------------------------------------------------------------------------
// Tool wrappers

// RunHDLSim simulates an HDL model and posts the interpreted result as an
// hdl_sim event.
func (s *Session) RunHDLSim(k meta.Key) (string, error) {
	res, err := s.Suite.SimulateHDL(k)
	if err != nil {
		return "", err
	}
	err = s.Eng.PostAndDrain(engine.Event{
		Name: "hdl_sim", Dir: bpl.DirDown, Target: k, Args: []string{res}, User: s.User,
	})
	return res, err
}

// Synthesize derives a schematic for the model's block.  Permission: the
// model must be up to date and have passed simulation.  The wrapper creates
// the schematic OID, the derived link from the model, the depend_on link
// from the library, produces the design data and checks the schematic in.
func (s *Session) Synthesize(hdl, lib meta.Key) (meta.Key, error) {
	if err := s.RequireUpToDate(hdl); err != nil {
		return meta.Key{}, err
	}
	if err := s.RequireProp(hdl, "sim_result", "good"); err != nil {
		return meta.Key{}, err
	}
	sch, err := s.Eng.CreateOID(hdl.Block, "schematic", s.User)
	if err != nil {
		return meta.Key{}, err
	}
	if _, err := s.Eng.CreateLink(meta.DeriveLink, hdl, sch); err != nil {
		return meta.Key{}, err
	}
	if _, err := s.Eng.CreateLink(meta.DeriveLink, lib, sch); err != nil {
		return meta.Key{}, err
	}
	if _, err := s.Suite.Synthesize(hdl, lib, sch); err != nil {
		return meta.Key{}, err
	}
	if err := s.checkin(sch); err != nil {
		return meta.Key{}, err
	}
	return sch, nil
}

// AddComponent records that child is a hierarchical component of parent
// (both schematics) with a use link.
func (s *Session) AddComponent(parent, child meta.Key) error {
	_, err := s.Eng.CreateLink(meta.UseLink, parent, child)
	return err
}

// RunNetlister derives a netlist from a schematic.  Permission: the
// schematic must be up to date.
func (s *Session) RunNetlister(sch meta.Key) (meta.Key, error) {
	return s.runNetlister(sch, s.Eng.PostAndDrain)
}

// runNetlister is RunNetlister with the netlist's ckin handed to post.
func (s *Session) runNetlister(sch meta.Key, post func(engine.Event) error) (meta.Key, error) {
	if err := s.RequireUpToDate(sch); err != nil {
		return meta.Key{}, err
	}
	nl, err := s.Eng.CreateOID(sch.Block, "netlist", s.User)
	if err != nil {
		return meta.Key{}, err
	}
	if _, err := s.Eng.CreateLink(meta.DeriveLink, sch, nl); err != nil {
		return meta.Key{}, err
	}
	if _, err := s.Suite.Netlist(sch, nl); err != nil {
		return meta.Key{}, err
	}
	if err := s.checkinVia(nl, post); err != nil {
		return meta.Key{}, err
	}
	return nl, nil
}

// RunNetlistSim simulates a netlist — the paper's permission example: the
// wrapper makes sure the input netlist is up to date before running.  The
// result travels up so the schematic's nl_sim_res is updated through the
// derived link.
func (s *Session) RunNetlistSim(nl meta.Key) (string, error) {
	if err := s.RequireUpToDate(nl); err != nil {
		return "", err
	}
	res, err := s.Suite.SimulateNetlist(nl)
	if err != nil {
		return "", err
	}
	err = s.Eng.PostAndDrain(engine.Event{
		Name: "nl_sim", Dir: bpl.DirUp, Target: nl, Args: []string{res}, User: s.User,
	})
	return res, err
}

// PlaceRoute derives a layout from a netlist and records the equivalence
// link from the block's schematic.  Permission: netlist up to date and
// simulated good.
func (s *Session) PlaceRoute(nl meta.Key) (meta.Key, error) {
	if err := s.RequireUpToDate(nl); err != nil {
		return meta.Key{}, err
	}
	if err := s.RequireProp(nl, "sim_result", "good"); err != nil {
		return meta.Key{}, err
	}
	lay, err := s.Eng.CreateOID(nl.Block, "layout", s.User)
	if err != nil {
		return meta.Key{}, err
	}
	if sch, err := s.Eng.DB().Latest(nl.Block, "schematic"); err == nil {
		if _, err := s.Eng.CreateLink(meta.DeriveLink, sch, lay); err != nil {
			return meta.Key{}, err
		}
	}
	if _, err := s.Suite.PlaceRoute(nl, lay); err != nil {
		return meta.Key{}, err
	}
	if err := s.checkin(lay); err != nil {
		return meta.Key{}, err
	}
	return lay, nil
}

// RunDRC checks a layout and posts the drc event.
func (s *Session) RunDRC(lay meta.Key) (string, error) {
	res, err := s.Suite.DRC(lay)
	if err != nil {
		return "", err
	}
	err = s.Eng.PostAndDrain(engine.Event{
		Name: "drc", Dir: bpl.DirDown, Target: lay, Args: []string{res}, User: s.User,
	})
	return res, err
}

// RunLVS compares layout and netlist and posts the lvs event at the layout.
func (s *Session) RunLVS(lay, nl meta.Key) (string, error) {
	res, err := s.Suite.LVS(lay, nl)
	if err != nil {
		return "", err
	}
	err = s.Eng.PostAndDrain(engine.Event{
		Name: "lvs", Dir: bpl.DirDown, Target: lay, Args: []string{res}, User: s.User,
	})
	return res, err
}

// FixLayout edits the layout to clear DRC violations and checks it in.
func (s *Session) FixLayout(lay meta.Key) error {
	if _, err := s.Suite.FixLayout(lay); err != nil {
		return err
	}
	return s.checkin(lay)
}

// ---------------------------------------------------------------------------
// Automatic tool invocation (section 3.3)

// AutoExecutor returns an executor registry implementing the automatic tool
// invocations the EDTC blueprint requests via exec rules: the "netlister"
// script re-netlists a schematic whenever it is checked in.  Install it on
// the engine with engine.WithExecutor.
func (s *Session) AutoExecutor() *exec.Registry {
	reg := exec.NewRegistry()
	reg.Register("netlister", func(inv exec.Invocation) error {
		if len(inv.Args) == 0 {
			return fmt.Errorf("netlister: missing OID argument")
		}
		sch, err := meta.ParseKey(inv.Args[0])
		if err != nil {
			return err
		}
		// The handler runs on the goroutine that is draining: that drain
		// delivers the ckin once the handler returns, and a Drain from
		// here would wait for itself.  So Post, not PostAndDrain.
		_, err = s.runNetlister(sch, s.Eng.Post)
		return err
	})
	return reg
}
