package engine

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// Variable resolution for rules, templates and continuous assignments.
// Built-ins take precedence; any other name reads a property of the target
// OID, live, so phase-1 assignments are visible to phase-2 continuous
// assignments and later phases.
//
// Built-in variables:
//
//	$oid, $OID      target OID as "block,view,version"
//	$block, $view, $version
//	$arg            all event arguments joined with spaces
//	$arg1..$argN    individual event arguments
//	$user           posting designer
//	$owner          target's owner property, falling back to $user
//	$date           current date/time (engine clock), RFC 3339
//	$event, $dir    event name and direction
func (e *Engine) lookupFor(ev Event) bpl.LookupFunc {
	return func(name string) string {
		switch name {
		case "oid", "OID":
			return ev.Target.String()
		case "block":
			return ev.Target.Block
		case "view":
			return ev.Target.View
		case "version":
			return strconv.Itoa(ev.Target.Version)
		case "arg":
			return strings.Join(ev.Args, " ")
		case "user":
			return ev.User
		case "owner":
			if v, ok, _ := e.head.GetProp(ev.Target, meta.PropOwner); ok && v != "" {
				return v
			}
			return ev.User
		case "date":
			return e.clock().Format(time.RFC3339)
		case "event":
			return ev.Name
		case "dir":
			return ev.Dir.String()
		}
		if n, ok := argIndex(name); ok {
			if n >= 1 && n <= len(ev.Args) {
				return ev.Args[n-1]
			}
			return ""
		}
		v, _, _ := e.head.GetProp(ev.Target, name)
		return v
	}
}

// lookupOver resolves the same variables as lookupFor but reads properties
// straight from a live property map instead of through the database.  It is
// used inside the batched phase-1/phase-2 round-trip (meta.DB UpdateOID),
// where the database lock is already held: earlier assignments in the batch
// are visible to later expansions because both touch props directly.
func (e *Engine) lookupOver(ev Event, props map[string]string) bpl.LookupFunc {
	return func(name string) string {
		switch name {
		case "oid", "OID":
			return ev.Target.String()
		case "block":
			return ev.Target.Block
		case "view":
			return ev.Target.View
		case "version":
			return strconv.Itoa(ev.Target.Version)
		case "arg":
			return strings.Join(ev.Args, " ")
		case "user":
			return ev.User
		case "owner":
			if v := props[meta.PropOwner]; v != "" {
				return v
			}
			return ev.User
		case "date":
			return e.clock().Format(time.RFC3339)
		case "event":
			return ev.Name
		case "dir":
			return ev.Dir.String()
		}
		if n, ok := argIndex(name); ok {
			if n >= 1 && n <= len(ev.Args) {
				return ev.Args[n-1]
			}
			return ""
		}
		return props[name]
	}
}

// argIndex parses "argN" names.
func argIndex(name string) (int, bool) {
	if len(name) < 4 || name[:3] != "arg" {
		return 0, false
	}
	n, err := strconv.Atoi(name[3:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// envSnapshot materializes the environment for an exec invocation: the
// built-ins plus every property of the target OID.
func (e *Engine) envSnapshot(ev Event) map[string]string {
	env := map[string]string{
		"oid":     ev.Target.String(),
		"OID":     ev.Target.String(),
		"block":   ev.Target.Block,
		"view":    ev.Target.View,
		"version": strconv.Itoa(ev.Target.Version),
		"arg":     strings.Join(ev.Args, " "),
		"user":    ev.User,
		"event":   ev.Name,
		"dir":     ev.Dir.String(),
		"date":    e.clock().Format(time.RFC3339),
	}
	for i, a := range ev.Args {
		env["arg"+strconv.Itoa(i+1)] = a
	}
	_ = e.head.WithOID(ev.Target, func(o *meta.OID) {
		for name, v := range o.Props {
			if _, exists := env[name]; !exists {
				env[name] = v
			}
		}
		if owner, ok := o.Props[meta.PropOwner]; ok && owner != "" {
			env["owner"] = owner
		} else {
			env["owner"] = ev.User
		}
	})
	return env
}
