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

// tracker is the meta-database side of a wrapper program: the four things
// a wrapper asks of the project server.  Session tracks through an engine
// in its own process; Remote through a client connection (Figure 1).
type tracker interface {
	create(block, view string) (meta.Key, error)
	link(class meta.LinkClass, from, to meta.Key) error
	post(event string, dir bpl.Direction, target meta.Key, args ...string) error
	prop(k meta.Key, name string) (value string, ok bool, err error)
}

// ops is the wrapper programs both deployments share — the permission
// queries and the tool wrappers up to netlist simulation — each written
// once over a tracker and the local tool suite.  Session and Remote embed
// it.
type ops struct {
	t tracker

	// Suite is the simulated tool suite: the design data itself, which
	// stays local to the wrapper.
	Suite *tools.Suite
}

// Session is a designer's working context: engine, workspace, identity.
type Session struct {
	ops
	Eng  *engine.Engine
	User string

	// Workspace, when set, names a registered meta.Workspace; every OID
	// the session checks in gets its design-data path bound there, tying
	// the meta-database to the repository as DAMOCLES does.
	Workspace string
}

// NewSession creates a session.
func NewSession(eng *engine.Engine, suite *tools.Suite, user string) *Session {
	s := &Session{Eng: eng, User: user}
	s.ops = ops{t: engineTracker{s, eng.PostAndDrain}, Suite: suite}
	return s
}

// engineTracker tracks through the session's engine.  send is
// Eng.PostAndDrain, or Eng.Post for a wrapper running inside a drain (see
// AutoExecutor).
type engineTracker struct {
	s    *Session
	send func(engine.Event) error
}

func (t engineTracker) create(block, view string) (meta.Key, error) {
	return t.s.Eng.CreateOID(block, view, t.s.User)
}

func (t engineTracker) link(class meta.LinkClass, from, to meta.Key) error {
	_, err := t.s.Eng.CreateLink(class, from, to)
	return err
}

// post hands the event to the engine; a check-in first binds the data
// location in the session workspace.
func (t engineTracker) post(event string, dir bpl.Direction, target meta.Key, args ...string) error {
	if event == engine.EventCheckin {
		if err := t.s.bindPath(target); err != nil {
			return err
		}
	}
	return t.send(engine.Event{Name: event, Dir: dir, Target: target, Args: args, User: t.s.User})
}

func (t engineTracker) prop(k meta.Key, name string) (string, bool, error) {
	return t.s.Eng.DB().Head().GetProp(k, name)
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
func (o ops) RequireUpToDate(k meta.Key) error {
	v, ok, err := o.t.prop(k, "uptodate")
	if err != nil {
		return err
	}
	if !ok || v != "true" {
		return fmt.Errorf("%w: %v (uptodate=%q)", ErrStale, k, v)
	}
	return nil
}

// RequireProp checks that a property of an input OID has the wanted value.
func (o ops) RequireProp(k meta.Key, name, want string) error {
	v, _, err := o.t.prop(k, name)
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
func (o ops) CheckinHDL(block string, gates, defects int) (meta.Key, error) {
	k, err := o.t.create(block, "HDL_model")
	if err != nil {
		return meta.Key{}, err
	}
	o.Suite.WriteHDL(k, gates, defects)
	if err := o.checkin(k); err != nil {
		return meta.Key{}, err
	}
	return k, nil
}

// InstallLibrary registers a new synthesis library version and checks it
// in, which invalidates dependents through the depend_on links.
func (o ops) InstallLibrary(block string) (meta.Key, error) {
	k, err := o.t.create(block, "synth_lib")
	if err != nil {
		return meta.Key{}, err
	}
	o.Suite.InstallLibrary(k)
	if err := o.checkin(k); err != nil {
		return meta.Key{}, err
	}
	return k, nil
}

// checkin posts the ckin event at k.
func (o ops) checkin(k meta.Key) error {
	return o.t.post(engine.EventCheckin, bpl.DirDown, k)
}

// ---------------------------------------------------------------------------
// Tool wrappers

// RunHDLSim simulates an HDL model and posts the interpreted result as an
// hdl_sim event.
func (o ops) RunHDLSim(k meta.Key) (string, error) {
	res, err := o.Suite.SimulateHDL(k)
	if err != nil {
		return "", err
	}
	return res, o.t.post("hdl_sim", bpl.DirDown, k, res)
}

// Synthesize derives a schematic for the model's block.  Permission: the
// model must be up to date and have passed simulation.  The wrapper creates
// the schematic OID, the derived link from the model, the depend_on link
// from the library, produces the design data and checks the schematic in.
func (o ops) Synthesize(hdl, lib meta.Key) (meta.Key, error) {
	if err := o.RequireUpToDate(hdl); err != nil {
		return meta.Key{}, err
	}
	if err := o.RequireProp(hdl, "sim_result", "good"); err != nil {
		return meta.Key{}, err
	}
	sch, err := o.t.create(hdl.Block, "schematic")
	if err != nil {
		return meta.Key{}, err
	}
	if err := o.t.link(meta.DeriveLink, hdl, sch); err != nil {
		return meta.Key{}, err
	}
	if err := o.t.link(meta.DeriveLink, lib, sch); err != nil {
		return meta.Key{}, err
	}
	if _, err := o.Suite.Synthesize(hdl, lib, sch); err != nil {
		return meta.Key{}, err
	}
	if err := o.checkin(sch); err != nil {
		return meta.Key{}, err
	}
	return sch, nil
}

// RunNetlister derives a netlist from a schematic.  Permission: the
// schematic must be up to date.
func (o ops) RunNetlister(sch meta.Key) (meta.Key, error) {
	if err := o.RequireUpToDate(sch); err != nil {
		return meta.Key{}, err
	}
	nl, err := o.t.create(sch.Block, "netlist")
	if err != nil {
		return meta.Key{}, err
	}
	if err := o.t.link(meta.DeriveLink, sch, nl); err != nil {
		return meta.Key{}, err
	}
	if _, err := o.Suite.Netlist(sch, nl); err != nil {
		return meta.Key{}, err
	}
	if err := o.checkin(nl); err != nil {
		return meta.Key{}, err
	}
	return nl, nil
}

// RunNetlistSim simulates a netlist — the paper's permission example: the
// wrapper makes sure the input netlist is up to date before running.  The
// result travels up so the schematic's nl_sim_res is updated through the
// derived link.
func (o ops) RunNetlistSim(nl meta.Key) (string, error) {
	if err := o.RequireUpToDate(nl); err != nil {
		return "", err
	}
	res, err := o.Suite.SimulateNetlist(nl)
	if err != nil {
		return "", err
	}
	return res, o.t.post("nl_sim", bpl.DirUp, nl, res)
}

// ---------------------------------------------------------------------------
// Back-end wrappers (Session only)

// AddComponent records that child is a hierarchical component of parent
// (both schematics) with a use link.
func (s *Session) AddComponent(parent, child meta.Key) error {
	return s.t.link(meta.UseLink, parent, child)
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
	lay, err := s.t.create(nl.Block, "layout")
	if err != nil {
		return meta.Key{}, err
	}
	if sch, err := s.Eng.DB().Head().Latest(nl.Block, "schematic"); err == nil {
		if err := s.t.link(meta.DeriveLink, sch, lay); err != nil {
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
	return res, s.t.post("drc", bpl.DirDown, lay, res)
}

// RunLVS compares layout and netlist and posts the lvs event at the layout.
func (s *Session) RunLVS(lay, nl meta.Key) (string, error) {
	res, err := s.Suite.LVS(lay, nl)
	if err != nil {
		return "", err
	}
	return res, s.t.post("lvs", bpl.DirDown, lay, res)
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
		_, err = ops{t: engineTracker{s, s.Eng.Post}, Suite: s.Suite}.RunNetlister(sch)
		return err
	})
	return reg
}
