// Package exec abstracts the execution of wrapper scripts by the BluePrint
// run-time engine.  The paper's exec run-time rules invoke shell scripts
// ("when ckin do exec netlister.sh "$OID" done") and its notify rules send
// warnings to users.  In this reproduction the engine delegates both to an
// Executor so tests can record invocations, simulations can route them to
// the simulated EDA tool suite, and deployments can run real commands.
package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Invocation describes one exec rule firing.
type Invocation struct {
	// Script is the expanded first argument of the exec action, e.g.
	// "netlister.sh".
	Script string
	// Args are the remaining expanded arguments.
	Args []string
	// Env resolves a variable of the engine environment as it stood when
	// the rule fired: the built-ins ($oid, $event, $user, $date, ...) and,
	// under any other name, the target OID's property, "" when absent.
	// Later writes do not change what it reads, so an executor may call it
	// at any time, from any goroutine.
	Env func(name string) string
}

// String renders the invocation as a command line.
func (inv Invocation) String() string {
	if len(inv.Args) == 0 {
		return inv.Script
	}
	return inv.Script + " " + strings.Join(inv.Args, " ")
}

// Executor runs exec actions and delivers notify messages.
type Executor interface {
	// Exec runs a script invocation.  A non-nil error is recorded in the
	// engine trace but does not abort event processing — the tracking
	// system is non-obstructive.
	Exec(inv Invocation) error
	// Notify delivers a user-facing message.
	Notify(message string) error
}

// Nop discards all invocations and notifications.
type Nop struct{}

// Exec implements Executor.
func (Nop) Exec(Invocation) error { return nil }

// Notify implements Executor.
func (Nop) Notify(string) error { return nil }

// Recorder remembers every invocation and notification, for tests and
// audit.  It is safe for concurrent use.
type Recorder struct {
	mu            sync.Mutex
	invocations   []Invocation
	notifications []string
}

// Exec implements Executor.
func (r *Recorder) Exec(inv Invocation) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invocations = append(r.invocations, inv)
	return nil
}

// Notify implements Executor.
func (r *Recorder) Notify(msg string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notifications = append(r.notifications, msg)
	return nil
}

// Invocations returns a copy of the recorded invocations in order.
func (r *Recorder) Invocations() []Invocation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Invocation(nil), r.invocations...)
}

// Notifications returns a copy of the recorded notifications in order.
func (r *Recorder) Notifications() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.notifications...)
}

// Scripts returns the recorded script names in order.
func (r *Recorder) Scripts() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.invocations))
	for i, inv := range r.invocations {
		out[i] = inv.Script
	}
	return out
}

// Reset clears the recorder.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invocations = nil
	r.notifications = nil
}

// Registry dispatches script names to registered Go handlers — the
// substitute for the paper's shell wrapper programs.  Unknown scripts are
// an error unless a Fallback is installed.  Registry is safe for concurrent
// use once populated; Register must not race with Exec.
type Registry struct {
	handlers map[string]func(Invocation) error
	notify   func(string) error

	// Fallback handles scripts with no registered handler.
	Fallback func(Invocation) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{handlers: make(map[string]func(Invocation) error)}
}

// Register installs a handler for a script name, replacing any previous
// handler.
func (g *Registry) Register(script string, h func(Invocation) error) {
	g.handlers[script] = h
}

// OnNotify installs the notification sink.
func (g *Registry) OnNotify(h func(string) error) { g.notify = h }

// Scripts lists registered script names in sorted order.
func (g *Registry) Scripts() []string {
	out := make([]string, 0, len(g.handlers))
	for s := range g.handlers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Exec implements Executor.
func (g *Registry) Exec(inv Invocation) error {
	if h, ok := g.handlers[inv.Script]; ok {
		return h(inv)
	}
	if g.Fallback != nil {
		return g.Fallback(inv)
	}
	return fmt.Errorf("exec: no handler for script %q", inv.Script)
}

// Notify implements Executor.
func (g *Registry) Notify(msg string) error {
	if g.notify != nil {
		return g.notify(msg)
	}
	return nil
}

// Tee duplicates invocations and notifications to several executors,
// returning the first error after all have run.  Useful to record while
// simulating.
type Tee []Executor

// Exec implements Executor.
func (t Tee) Exec(inv Invocation) error {
	var first error
	for _, e := range t {
		if err := e.Exec(inv); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Notify implements Executor.
func (t Tee) Notify(msg string) error {
	var first error
	for _, e := range t {
		if err := e.Notify(msg); err != nil && first == nil {
			first = err
		}
	}
	return first
}
