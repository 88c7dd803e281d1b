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
	"slices"
	"sort"
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

	// Props is a copy of the OID's properties.
	Props map[string]string
}

// resolve answers a $reference against one OID; there is no triggering
// event in query context, so only properties and the key built-ins resolve.
func resolve(k meta.Key, props map[string]string, name string) string {
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
	return props[name]
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
		ok := l.Expr.Eval(lookup)
		st.Lets[l.Name] = ok
		if !ok {
			st.Ready = false
			var reasons []string
			if ix != nil {
				reasons = ix.Explainer(l).Failures(lookup)
			} else {
				reasons = bpl.ExplainFailure(l.Expr, lookup)
			}
			for _, r := range reasons {
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
// not retain it past the call; Props aliases the view's immutable version
// map and may be retained.  Returning false stops the stream.
func StreamView(v *meta.View, bp *bpl.Blueprint, fn func(*OIDState) bool) {
	ix := bp.Index()
	var st OIDState
	v.EachLatestOID(func(o *meta.OID) bool {
		evaluateInto(&st, ix.Lets(o.Key.View), ix, o)
		return fn(&st)
	})
}

// scanRow is one row of a sorted scan: the latest version of a chain and
// that version's immutable property map.
type scanRow struct {
	key   meta.Key
	props map[string]string
}

// scanScratch is everything a sorted scan needs that the next scan can
// reuse: the rows, the reasons of the row in hand, and the two callbacks
// the scan passes down, bound once so that a scan creates no closure.
type scanScratch struct {
	rows    []scanRow
	reasons []byte
	cur     scanRow                // what lookup resolves against
	lookup  bpl.LookupFunc         // sc.resolve
	add     func(o *meta.OID) bool // sc.collect
}

var scanPool = sync.Pool{New: func() any {
	sc := new(scanScratch)
	sc.lookup, sc.add = sc.resolve, sc.collect
	return sc
}}

func (sc *scanScratch) resolve(name string) string {
	return resolve(sc.cur.key, sc.cur.props, name)
}

func (sc *scanScratch) collect(o *meta.OID) bool {
	sc.rows = append(sc.rows, scanRow{key: o.Key, props: o.Props})
	return true
}

// sortedScan is the one sorted scan every key-ordered reader runs: it takes
// a scratch from the pool and fills its rows, in key order, with the latest
// version of every chain live at v.  The caller releases it.
func sortedScan(v *meta.View) *scanScratch {
	sc := scanPool.Get().(*scanScratch)
	v.EachLatestOID(sc.add)
	slices.SortFunc(sc.rows, func(a, b scanRow) int { return a.key.Compare(b.key) })
	return sc
}

// release parks the scratch.  The rows are cleared first: a parked scratch
// must not keep property maps of versions the database has reclaimed.
func (sc *scanScratch) release() {
	clear(sc.rows)
	sc.rows = sc.rows[:0]
	sc.cur = scanRow{}
	scanPool.Put(sc)
}

// ScanSortedView evaluates the latest version of every version chain live
// at v, in key order, and hands fn each row's key, whether it is ready and
// the failing conditions — OIDState.Reasons joined by "; ", empty for a
// ready row.  This is the pass behind the server's REPORT and GAP: it
// holds no lock, fn may block on a slow network writer without stalling
// anything, and a warm scan allocates nothing per row.  reasons is valid
// only during the call.  Returning false stops the scan.
func ScanSortedView(v *meta.View, bp *bpl.Blueprint, fn func(key meta.Key, ready bool, reasons []byte) bool) {
	ix := bp.Index()
	sc := sortedScan(v)
	// A local, not the field: appending through the pointer would cost a
	// write barrier per append.
	reasons := sc.reasons
	defer func() {
		sc.reasons = reasons
		sc.release()
	}()
	for i := range sc.rows {
		sc.cur = sc.rows[i]
		ready := true
		reasons = reasons[:0]
		for _, l := range ix.Lets(sc.cur.key.View) {
			if !l.Expr.Eval(sc.lookup) {
				ready = false
				reasons = ix.Explainer(l).AppendFailures(reasons, l.Name, sc.lookup)
			}
		}
		if !fn(sc.cur.key, ready, reasons) {
			return
		}
	}
}

// StreamSortedView is the sorted scan with each row materialized as an
// OIDState: the stable key-sorted row order of the wire format, every row
// consistent at the view's LSN, zero locks held while fn runs.  The state
// is reused as in StreamView; Props aliases the view's immutable version
// map and may be retained.
func StreamSortedView(v *meta.View, bp *bpl.Blueprint, fn func(*OIDState) bool) {
	ix := bp.Index()
	sc := sortedScan(v)
	defer sc.release()
	var st OIDState
	var o meta.OID
	for _, r := range sc.rows {
		o = meta.OID{Key: r.key, Props: r.props}
		evaluateInto(&st, ix.Lets(r.key.View), ix, &o)
		if !fn(&st) {
			return
		}
	}
}

// Report evaluates the latest version of every version chain live at v
// and returns the reports sorted by key: StreamSortedView's rows, each
// copied out of the reused state.  The version maps are immutable, so the
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

// ViewSummary aggregates readiness per view type.
type ViewSummary struct {
	View  string
	Total int
	Ready int
}

// Summarize groups a report by view.
func Summarize(report []OIDState) []ViewSummary {
	byView := map[string]*ViewSummary{}
	for _, st := range report {
		s := byView[st.Key.View]
		if s == nil {
			s = &ViewSummary{View: st.Key.View}
			byView[st.Key.View] = s
		}
		s.Total++
		if st.Ready {
			s.Ready++
		}
	}
	out := make([]ViewSummary, 0, len(byView))
	for _, s := range byView {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].View < out[j].View })
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
