// Package repro is the public facade of the DAMOCLES / project BluePrint
// reproduction: a design data flow management system for IC design after
// Mathys, Morgan and Soudagar, "Controlling Change Propagation and Project
// Policies in IC Design" (EDTC 1995).
//
// The system tracks design data (OIDs identified by block, view and
// version), the relationships between them (use and derive links), and the
// project policy (a BluePrint rule file).  Design activities post events;
// the run-time engine executes the policy's run-time rules and propagates
// changes across the meta-data, so the project state is always current and
// queryable.
//
// Quick start:
//
//	proj, err := repro.NewProject(repro.EDTCExample)
//	key, _ := proj.Engine.CreateOID("CPU", "HDL_model", "yves")
//	_ = proj.Engine.PostAndDrain(repro.Event{
//	    Name: "hdl_sim", Dir: repro.DirDown, Target: key, Args: []string{"good"},
//	})
//	report := repro.Report(proj.DB, proj.Blueprint)
//
// The heavy lifting lives in the internal packages: meta (the
// meta-database), bpl (the BluePrint language), engine (the run-time
// engine), state (queries), server (the TCP project server), wrapper and
// tools (wrapper programs over a simulated EDA tool suite), flow (scenario
// and workload generation) and baseline (the NELSIS-style activity-driven
// comparison system).
package repro

import (
	"io"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/meta"
	"repro/internal/state"
)

// Re-exported core types.
type (
	// DB is the DAMOCLES meta-database.
	DB = meta.DB
	// Key identifies an OID: (block, view, version).
	Key = meta.Key
	// Link relates two OIDs.
	Link = meta.Link
	// LinkID addresses a link in the database.
	LinkID = meta.LinkID
	// LinkClass is UseLink or DeriveLink.
	LinkClass = meta.LinkClass
	// Configuration is a lightweight snapshot of database addresses.
	Configuration = meta.Configuration
	// OID is a meta-data object.
	OID = meta.OID

	// Blueprint is a parsed project policy.
	Blueprint = bpl.Blueprint
	// Direction is the propagation direction of an event (up or down).
	Direction = bpl.Direction

	// Engine is the BluePrint run-time engine.
	Engine = engine.Engine
	// Event is a design event message.
	Event = engine.Event
	// EngineOption configures an Engine.
	EngineOption = engine.Option

	// Executor runs exec/notify actions.
	Executor = exec.Executor
	// Invocation is one exec firing.
	Invocation = exec.Invocation

	// OIDState is a per-OID state report.
	OIDState = state.OIDState
)

// Re-exported constants.
const (
	// UseLink marks hierarchy links.
	UseLink = meta.UseLink
	// DeriveLink marks derivation/equivalence/dependency links.
	DeriveLink = meta.DeriveLink
	// DirUp propagates To→From.
	DirUp = bpl.DirUp
	// DirDown propagates From→To.
	DirDown = bpl.DirDown
	// EventCheckin is the conventional promotion event.
	EventCheckin = engine.EventCheckin
	// EventOutOfDate is the conventional invalidation event.
	EventOutOfDate = engine.EventOutOfDate
)

// EDTCExample is the complete BluePrint of section 3.4 of the paper.
const EDTCExample = bpl.EDTCExample

// NewDB returns an empty meta-database.
func NewDB() *DB { return meta.NewDB() }

// NewDBWithShards returns an empty meta-database lock-striped over n
// shards (rounded up to a power of two).  Shard count is a performance
// knob; results are identical for any n.
func NewDBWithShards(n int) *DB { return meta.NewDBWithShards(n) }

// LoadDB reads a database saved with (*DB).Save.
func LoadDB(r io.Reader) (*DB, error) { return meta.Load(r) }

// ParseBlueprint parses BluePrint source.
func ParseBlueprint(src string) (*Blueprint, error) { return bpl.Parse(src) }

// PrintBlueprint renders a blueprint in canonical source form.
func PrintBlueprint(bp *Blueprint) string { return bpl.Print(bp) }

// ParseKey parses the "block,view,version" OID syntax.
func ParseKey(s string) (Key, error) { return meta.ParseKey(s) }

// NewEngine creates a run-time engine over db with the given policy.
func NewEngine(db *DB, bp *Blueprint, opts ...EngineOption) (*Engine, error) {
	return engine.New(db, bp, opts...)
}

// WithExecutor configures the engine's executor for exec and notify rules.
func WithExecutor(x Executor) EngineOption { return engine.WithExecutor(x) }

// WithUser configures the engine's default user.
func WithUser(u string) EngineOption { return engine.WithUser(u) }

// StreamReport hands the state of the latest version of every design
// object to fn, in unspecified order, from a view pinned for the call; see
// state.StreamView for the aliasing contract.
func StreamReport(db *DB, bp *Blueprint, fn func(*OIDState) bool) {
	v := db.ReadView()
	defer v.Close()
	state.StreamView(v, bp, fn)
}

// Report evaluates the state of the latest version of every design object,
// at a view pinned for the call.
func Report(db *DB, bp *Blueprint) []OIDState {
	v := db.ReadView()
	defer v.Close()
	return state.Report(v, bp)
}

// Gap returns only the objects that have not reached their planned state,
// with the blocking conditions.
func Gap(db *DB, bp *Blueprint) []OIDState {
	v := db.ReadView()
	defer v.Close()
	return state.Gap(v, bp)
}

// FormatReport renders a state report as a table.
func FormatReport(report []OIDState) string { return state.Format(report) }

// Project bundles a database, policy and engine — the usual working set.
type Project struct {
	DB        *DB
	Blueprint *Blueprint
	Engine    *Engine
}

// NewProject parses a BluePrint and stands up a fresh database and engine
// behind it.
func NewProject(blueprintSrc string, opts ...EngineOption) (*Project, error) {
	bp, err := bpl.Parse(blueprintSrc)
	if err != nil {
		return nil, err
	}
	db := meta.NewDB()
	eng, err := engine.New(db, bp, opts...)
	if err != nil {
		return nil, err
	}
	return &Project{DB: db, Blueprint: bp, Engine: eng}, nil
}
