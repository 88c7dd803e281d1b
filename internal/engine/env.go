package engine

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/meta"
)

// vars resolves the $variables of rules, templates, continuous assignments
// and exec environments for one delivery.  Built-ins take precedence over a
// property of the same name, and an absent name reads "".  Any other name
// reads a property of the target OID from one of three sources: phases 1–2
// pass the in-flight map they write, so an assignment is visible to the
// continuous assignments after it; phases 3–4 read the target live from
// the head view; an exec keeps the immutable property set its target had
// when the rule fired.
//
// Built-in variables:
//
//	$oid, $OID      target OID as "block,view,version"
//	$block, $view, $version
//	$arg            all event arguments joined with spaces
//	$arg1..$argN    individual event arguments ("" past the last)
//	$user           posting designer
//	$owner          target's owner property, falling back to $user
//	$date           engine clock, RFC 3339; an exec's firing time
//	$event, $dir    event name and direction
//
// The event is held by value: a pointer would move the delivery's event to
// the heap, because a pending exec captures it.
type vars struct {
	ev    Event
	props map[string]string // non-nil: the in-flight properties
	head  *meta.View        // non-nil: the target's properties, read live
	fired meta.Props        // otherwise: the properties an exec captured
	now   func() time.Time  // $date's clock; nil: at
	at    time.Time         // an exec's firing time
	oid   string            // $oid, formatted by its first read
}

// get resolves one variable name.
func (r *vars) get(name string) string {
	switch name {
	case "oid", "OID":
		if r.oid == "" {
			r.oid = r.ev.Target.String()
		}
		return r.oid
	case "block":
		return r.ev.Target.Block
	case "view":
		return r.ev.Target.View
	case "version":
		return strconv.Itoa(r.ev.Target.Version)
	case "arg":
		return strings.Join(r.ev.Args, " ")
	case "user":
		return r.ev.User
	case "owner":
		if v := r.prop(meta.PropOwner); v != "" {
			return v
		}
		return r.ev.User
	case "date":
		if r.now != nil {
			return r.now().Format(time.RFC3339)
		}
		return r.at.Format(time.RFC3339)
	case "event":
		return r.ev.Name
	case "dir":
		return r.ev.Dir.String()
	}
	if n, ok := argIndex(name); ok {
		if n >= 1 && n <= len(r.ev.Args) {
			return r.ev.Args[n-1]
		}
		return ""
	}
	return r.prop(name)
}

// prop reads a property of the target from r's source.
func (r *vars) prop(name string) string {
	if r.head != nil {
		v, _, _ := r.head.GetProp(r.ev.Target, name)
		return v
	}
	if r.props != nil {
		return r.props[name]
	}
	v, _ := r.fired.Get(name)
	return v
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
