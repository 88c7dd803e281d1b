// Package state implements the project-state queries of the paper:
// "Designers can retrieve the state of the project by performing queries.
// Therefore, designers know exactly what data still needs to be modified
// before reaching a planned state in the project."
//
// The package evaluates the blueprint's continuous assignments against a
// view of the meta-database and explains, per OID, which leaf conditions
// hold the design back.
package state

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bpl"
	"repro/internal/meta"
)

// OIDState is the state report for one OID.
type OIDState struct {
	Key meta.Key

	// Ready reports whether every continuous assignment of the OID's view
	// evaluates true.  OIDs of views without continuous assignments are
	// vacuously ready.
	Ready bool

	// Lets holds the value of each continuous assignment by name.
	Lets map[string]bool

	// Reasons lists the failing leaf conditions, with current values, e.g.
	// `($drc_result == good) [$drc_result = "bad"]`.
	Reasons []string

	// Props is the OID's properties.
	Props meta.Props
}

// resolve answers a $reference against one OID; there is no triggering
// event in query context, so only properties and the key built-ins resolve.
func resolve(k meta.Key, props meta.Props, name string) string {
	switch name {
	case "oid", "OID":
		return k.String()
	case "block":
		return k.Block
	case "view":
		return k.View
	case "version":
		return strconv.Itoa(k.Version)
	}
	v, _ := props.Get(name)
	return v
}

// lookupFor binds resolve to an OID snapshot.
func lookupFor(o *meta.OID) bpl.LookupFunc {
	return func(name string) string { return resolve(o.Key, o.Props, name) }
}

// evaluateInto computes the state of one OID against a resolved let slice,
// reusing st's Lets map and Reasons backing array across calls.  With a
// non-nil index, failing lets are explained through the compiled
// explainers; otherwise through one-shot ExplainFailure.  The filled state
// shares o.Props.
func evaluateInto(st *OIDState, lets []*bpl.LetDecl, ix *bpl.Index, o *meta.OID) {
	st.Key = o.Key
	st.Ready = true
	if st.Lets == nil {
		st.Lets = make(map[string]bool, len(lets))
	} else {
		clear(st.Lets)
	}
	st.Reasons = st.Reasons[:0]
	st.Props = o.Props
	lookup := lookupFor(o)
	for _, l := range lets {
		ok := bpl.Eval(l.Expr, lookup)
		st.Lets[l.Name] = ok
		if !ok {
			st.Ready = false
			if ix != nil {
				st.Reasons = ix.Explainer(l).Failures(st.Reasons, l.Name, lookup)
				continue
			}
			for _, r := range bpl.ExplainFailure(l.Expr, lookup) {
				st.Reasons = append(st.Reasons, l.Name+": "+r)
			}
		}
	}
}

// Evaluate computes the state report of a single OID snapshot under bp,
// without the compiled index: the one-shot path, and the oracle the scan's
// rows are tested against.  The returned state shares o.Props.
func Evaluate(bp *bpl.Blueprint, o *meta.OID) OIDState {
	var st OIDState
	evaluateInto(&st, bp.EffectiveLets(o.Key.View), nil, o)
	return st
}

// StreamView evaluates the latest version of every version chain live at
// the pinned view and hands each report to fn, in unspecified order: every
// row is evaluated at exactly the view's LSN, lock-free, and writers
// proceed throughout.  The OIDState is reused between calls and its Reasons
// share one backing array: fn must treat the state as read-only and must
// not retain it past the call; Props is the version's immutable property
// set and may be retained.  Returning false stops the stream.
func StreamView(v *meta.View, bp *bpl.Blueprint, fn func(*OIDState) bool) {
	stream(v.EachLatestOID, bp, fn)
}

// StreamSortedView is StreamView in key order: the stable key-sorted row
// order of the wire format, every row consistent at the view's LSN, zero
// locks held while fn runs.
func StreamSortedView(v *meta.View, bp *bpl.Blueprint, fn func(*OIDState) bool) {
	stream(v.EachLatestOIDSorted, bp, fn)
}

func stream(each func(func(*meta.OID) bool), bp *bpl.Blueprint, fn func(*OIDState) bool) {
	ix := bp.Index()
	var st OIDState
	each(func(o *meta.OID) bool {
		evaluateInto(&st, ix.Lets(o.Key.View), ix, o)
		return fn(&st)
	})
}

// scanScratch is what a sorted scan needs that the next scan can reuse: the
// reasons of the row in hand, and the lookup the scan passes down, bound
// once so that a scan creates no closure for it.  Between scans it holds
// only the reasons' bytes: a parked scratch keeps no property set alive.
type scanScratch struct {
	reasons []byte
	cur     *meta.OID      // what lookup resolves against
	lookup  bpl.LookupFunc // sc.resolve
}

var scanPool = sync.Pool{New: func() any {
	sc := new(scanScratch)
	sc.lookup = sc.resolve
	return sc
}}

func (sc *scanScratch) resolve(name string) string {
	return resolve(sc.cur.Key, sc.cur.Props, name)
}

// ScanSortedView evaluates the latest version of every version chain live
// at v, in key order, and hands fn each row's key, whether it is ready and
// the failing conditions — OIDState.Reasons joined by "; ", empty for a
// ready row.  This is the pass behind the server's REPORT and GAP: it
// holds no lock, fn may block on a slow network writer without stalling
// anything, and it walks the key order the view's store keeps, so a scan
// collects, sorts and allocates nothing per row.  reasons is valid only
// during the call.  Returning false stops the scan.
func ScanSortedView(v *meta.View, bp *bpl.Blueprint, fn func(key meta.Key, ready bool, reasons []byte) bool) {
	ix := bp.Index()
	sc := scanPool.Get().(*scanScratch)
	defer sc.release()
	v.EachLatestOIDSorted(func(o *meta.OID) bool {
		// A local, not the field: appending through the pointer would cost
		// a write barrier per append.
		reasons, ready := sc.explain(sc.reasons[:0], "; ", ix, o)
		sc.reasons = reasons
		if len(reasons) > 0 {
			reasons = reasons[len("; "):]
		}
		return fn(o.Key, ready, reasons)
	})
}

// AppendReasons evaluates the OID o as ScanSortedView evaluates a row —
// through bp's compiled index, with the scan's pooled scratch — and appends
// its failing conditions to dst, each after sep: the one-OID form of the
// scan, behind the server's STATE.  ready reports that none failed.
func AppendReasons(dst []byte, sep string, o *meta.OID, bp *bpl.Blueprint) (_ []byte, ready bool) {
	sc := scanPool.Get().(*scanScratch)
	defer sc.release()
	return sc.explain(dst, sep, bp.Index(), o)
}

// explain appends to dst each condition that holds o back, after sep.
func (sc *scanScratch) explain(dst []byte, sep string, ix *bpl.Index, o *meta.OID) (_ []byte, ready bool) {
	sc.cur = o
	ready = true
	for _, l := range ix.Lets(o.Key.View) {
		if !bpl.Eval(l.Expr, sc.lookup) {
			ready = false
			dst = ix.Explainer(l).AppendFailures(dst, sep, l.Name, sc.lookup)
		}
	}
	return dst, ready
}

// release parks the scratch, holding no OID.
func (sc *scanScratch) release() {
	sc.cur = nil
	scanPool.Put(sc)
}

// Report evaluates the latest version of every version chain live at v
// and returns the reports sorted by key: StreamSortedView's rows, each
// copied out of the reused state.  Property sets are immutable, so the
// returned states share them.
func Report(v *meta.View, bp *bpl.Blueprint) []OIDState {
	return report(v, bp, false)
}

// Gap returns only the reports of OIDs that are not ready — the "what
// still needs to be modified" answer.
func Gap(v *meta.View, bp *bpl.Blueprint) []OIDState {
	return report(v, bp, true)
}

func report(v *meta.View, bp *bpl.Blueprint, gap bool) []OIDState {
	var out []OIDState
	StreamSortedView(v, bp, func(st *OIDState) bool {
		if gap && st.Ready {
			return true
		}
		row := *st
		row.Lets = maps.Clone(st.Lets)
		row.Reasons = append([]string(nil), st.Reasons...)
		out = append(out, row)
		return true
	})
	return out
}

// Format renders a report as a fixed-width table for CLI display.
func Format(report []OIDState) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-30s %-6s %s\n", "OID", "READY", "BLOCKING CONDITIONS")
	for _, st := range report {
		ready := "yes"
		if !st.Ready {
			ready = "no"
		}
		fmt.Fprintf(&sb, "%-30s %-6s %s\n", st.Key.String(), ready, strings.Join(st.Reasons, "; "))
	}
	return sb.String()
}

// Diff compares two stored configurations of the same database and reports
// which OID addresses were added and removed between them — the "state of
// the design hierarchy in a snapshot at each step of the design cycle"
// compared across steps.
type Diff struct {
	Added   []meta.Key
	Removed []meta.Key
	Common  int
}

// DiffConfigurations computes the address-level difference from old to new,
// both as stored at v.
func DiffConfigurations(v *meta.View, oldName, newName string) (Diff, error) {
	oldC, err := v.GetConfiguration(oldName)
	if err != nil {
		return Diff{}, err
	}
	newC, err := v.GetConfiguration(newName)
	if err != nil {
		return Diff{}, err
	}
	var d Diff
	inOld := map[meta.Key]bool{}
	for _, k := range oldC.OIDs {
		inOld[k] = true
	}
	for _, k := range newC.OIDs {
		if inOld[k] {
			d.Common++
		} else {
			d.Added = append(d.Added, k)
		}
	}
	inNew := map[meta.Key]bool{}
	for _, k := range newC.OIDs {
		inNew[k] = true
	}
	for _, k := range oldC.OIDs {
		if !inNew[k] {
			d.Removed = append(d.Removed, k)
		}
	}
	return d, nil
}

// Blocked computes the transitive impact of an out-of-date OID: every
// downstream OID whose chain of links admits the outofdate event.  This is
// the query a project administrator runs before deciding whether to loosen
// the BluePrint.
func Blocked(v *meta.View, origin meta.Key, event string) []meta.Key {
	return v.Dependents(origin, func(l *meta.Link) bool {
		return l.CanPropagate(event)
	})
}
