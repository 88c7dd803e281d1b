// Package engine implements the BluePrint run-time engine of section 3 of
// the paper: the event-driven machine that processes design events,
// executes run-time rules, applies template rules to new OIDs and links,
// and propagates events across the meta-data relationships.
//
// Design activities post event messages (name, direction, target OID,
// arguments); the engine queues them and processes them first-in first-out.
// Processing one event on its target OID follows the paper's fixed order:
//
//  1. execute the assign actions of the matching run-time rules,
//  2. re-evaluate all continuous assignments of the OID,
//  3. invoke the scripts of the exec (and notify) actions,
//  4. execute the post actions,
//  5. propagate the event across the OID's links, delivering it to every
//     OID at the other end of a link that propagates this event type in the
//     event's direction — and repeat the whole procedure at each receiver.
//
// # Compiled policy
//
// Loading a blueprint (New, SetBlueprint) compiles it into a bpl.Index: the
// effective rules per (view, event) — pre-partitioned into the phase order
// above — and the effective continuous assignments, property templates and
// link templates per view.  Deliveries resolve policy by map lookup instead
// of re-deriving default-view unions per event.  The blueprint and its
// index are immutable and swapped together behind one atomic pointer;
// Drain captures that pointer once per delivery at dequeue time, so a
// SetBlueprint mid-drain (the paper's policy loosening) governs every
// not-yet-delivered event while never splitting one delivery across two
// policies.
//
// # Concurrency model
//
// The meta-database carries its own lock striping; the engine adds a
// single mutex that guards only the wave queue, the deferred-exec list and
// the drain baton.  Activity counters are per-counter atomics (Stats
// never blocks event processing), and audit tracing is gated by a boolean
// fixed at construction, so an engine built with the default NopTracer
// constructs no trace entries at all — no Key.String formatting, no detail
// strings.
//
// Drain is one loop on the goroutine that called it: take the oldest wave
// (a posted event and its propagation closure), deliver it first-in
// first-out to exhaustion, retire it, take the next — the paper's single
// event queue.  A concurrent call waits for the running drain to retire
// and then retries, so it returns only once a drain of its own has covered
// the caller's events; see Drain.  Nothing runs beside the drain, so the
// order of deliveries is the order of posts whatever GOMAXPROCS is, and
// one connection's long wave delays every other connection's post by its
// length.  Only the drain touches a queued wave: its item queue and visited
// set need no lock and are recycled when the wave retires.
// Delivery phases 1 and 2 batch all property reads and writes of one
// delivery into a single locked round-trip on the database (meta.DB
// UpdateOID).
package engine

import (
	"fmt"
	"strings"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// Well-known event names.  Event names are project conventions, not
// language keywords; these are the ones the paper uses.
const (
	// EventCheckin is posted by wrapper programs when a design object is
	// promoted (checked in) to the project workspace.
	EventCheckin = "ckin"
	// EventCreate is posted by the engine itself after a new OID has been
	// created and its templates applied, so blueprints can hook creations.
	EventCreate = "create"
	// EventOutOfDate is the conventional invalidation event.
	EventOutOfDate = "outofdate"
)

// Event is one design event message, as posted by a wrapper program:
//
//	postEvent ckin up reg,verilog,4 "logic sim passed"
type Event struct {
	// Name is the event type, e.g. "ckin", "outofdate", "hdl_sim".
	Name string
	// Dir is the propagation direction through links.
	Dir bpl.Direction
	// Target is the OID the event is addressed to.
	Target meta.Key
	// Args carries designer information, e.g. the interpretation of
	// simulation results ("good", "4 errors").  Rules read it as $arg.
	Args []string
	// User is the designer on whose behalf the event was posted; rules
	// read it as $user.
	User string
}

// String renders the event in postEvent syntax.
func (e Event) String() string {
	var sb strings.Builder
	sb.WriteString(e.Name)
	sb.WriteByte(' ')
	sb.WriteString(e.Dir.String())
	sb.WriteByte(' ')
	sb.WriteString(e.Target.String())
	for _, a := range e.Args {
		sb.WriteString(" \"")
		sb.WriteString(a)
		sb.WriteByte('"')
	}
	return sb.String()
}

// Validate checks the event is well formed.
func (e Event) Validate() error {
	if e.Name == "" {
		return fmt.Errorf("engine: event with empty name")
	}
	if strings.ContainsAny(e.Name, " \t\r\n\",;") {
		return fmt.Errorf("engine: event name %q contains reserved characters", e.Name)
	}
	if err := e.Target.Validate(); err != nil {
		return fmt.Errorf("engine: event %s: %w", e.Name, err)
	}
	return nil
}

// wave identifies one propagation of one event instance through the link
// graph.  All deliveries of the same wave share a visited set, which
// guarantees termination on cyclic link graphs.
//
// A wave owns its delivery queue.  A poster fills a fresh wave under
// Engine.mu and appends it to the engine's queue; from then on only the
// goroutine that owns the drain touches it — pops items, appends
// propagation continuations — so items, head and visited need no locking.
// Waves are recycled through wavePool, empty, once fully delivered.
type wave struct {
	visited map[meta.Key]bool
	items   []queueItem // FIFO: items[head:] are pending
	head    int
}

// queueItem is one pending delivery.
type queueItem struct {
	ev Event
	// skipRules marks propagate-only deliveries: a "post EVENT dir" action
	// without a target view propagates the event directly from the current
	// OID, without re-running local rules on it.
	skipRules bool
}
