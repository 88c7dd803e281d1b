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
// queryable.  The package's Examples tell the paper's stories; the facade
// holds the names they use.
package repro

import (
	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/state"
)

type (
	// Key identifies an OID: (block, view, version).
	Key = meta.Key
	// Event is a design event message.
	Event = engine.Event
)

const (
	// DeriveLink marks derivation/equivalence/dependency links.
	DeriveLink = meta.DeriveLink
	// DirDown propagates From→To.
	DirDown = bpl.DirDown
)

// EDTCExample is the complete BluePrint of section 3.4 of the paper.
const EDTCExample = bpl.EDTCExample

// ParseBlueprint parses BluePrint source.
func ParseBlueprint(src string) (*bpl.Blueprint, error) { return bpl.Parse(src) }

// ParseKey parses the "block,view,version" OID syntax.
func ParseKey(s string) (Key, error) { return meta.ParseKey(s) }

// Report evaluates the state of the latest version of every design object,
// at a view pinned for the call.
func Report(db *meta.DB, bp *bpl.Blueprint) []state.OIDState {
	v := db.ReadView()
	defer v.Close()
	return state.Report(v, bp)
}

// Gap returns only the objects that have not reached their planned state,
// with the blocking conditions.
func Gap(db *meta.DB, bp *bpl.Blueprint) []state.OIDState {
	v := db.ReadView()
	defer v.Close()
	return state.Gap(v, bp)
}

// FormatReport renders a state report as a table.
func FormatReport(report []state.OIDState) string { return state.Format(report) }

// Project bundles a database, policy and engine — the usual working set.
type Project struct {
	DB        *meta.DB
	Blueprint *bpl.Blueprint
	Engine    *engine.Engine
}

// NewProject parses a BluePrint and stands up a fresh database and engine
// behind it.
func NewProject(blueprintSrc string) (*Project, error) {
	bp, err := bpl.Parse(blueprintSrc)
	if err != nil {
		return nil, err
	}
	db := meta.NewDB()
	eng, err := engine.New(db, bp)
	if err != nil {
		return nil, err
	}
	return &Project{DB: db, Blueprint: bp, Engine: eng}, nil
}
