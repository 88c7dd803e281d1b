package server

// Template application as one act (section 3.2: the BluePrint "finds the
// corresponding view in the BluePrint and attaches properties and Links to
// the new OID"): a CREATE changes each OID it touches in one update, and
// ends where setting each property by itself would have.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/wire"
)

// inheritBP has a copy property, a move property, a plain one, a let over
// them, and move link templates on the schematic.
const inheritBP = `blueprint inherit
view default
    property uptodate default true
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false done
endview
view HDL_model
    property sim_result default bad
    when hdl_sim do sim_result = $arg done
endview
view schematic
    property nl_sim_res default bad copy
    property lvs_res default not_equiv move
    property note default none
    let state = ($nl_sim_res == good) and ($lvs_res == is_equiv) and ($uptodate == true)
    link_from HDL_model move propagates outofdate type derived
    use_link move propagates outofdate
    when nl_sim do nl_sim_res = $arg done
    when lvs do lvs_res = $arg; note = $arg done
endview
endblueprint`

// journalOps returns the op and the first argument of each record w holds
// after LSN after.
func journalOps(t *testing.T, w *journal.Writer, after int64) []string {
	t.Helper()
	tl := w.NewTailer(after)
	defer tl.Close()
	var out []string
	for {
		ev, err := tl.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != journal.FollowRecord {
			return out
		}
		f, err := wire.Tokenize(string(ev.Payload()))
		if err != nil || len(f) < 4 {
			t.Fatalf("record %q: %v", ev.Payload(), err)
		}
		out = append(out, f[2]+" "+f[3])
	}
}

// TestCreateJournalsOneUpdatePerOID: a fresh CREATE of every EDTC view is
// three records — oid, update, event.
func TestCreateJournalsOneUpdatePerOID(t *testing.T) {
	s, w := journaledServer(t, journal.Options{})
	for _, view := range []string{"HDL_model", "synth_lib", "schematic", "netlist", "layout"} {
		before := w.LastLSN()
		k := handleOK(t, s, wire.VerbCreate, "CPU", view).Detail
		want := []string{"oid " + k, "update " + k, "event create"}
		if got := journalOps(t, w, before); !slices.Equal(got, want) {
			t.Errorf("CREATE CPU %s journaled %q, want %q", view, got, want)
		}
	}
}

// TestCreateNextVersionJournal: a second version takes its copy and move
// properties and its move links from the first in one update of each OID
// and one retarget per link.
func TestCreateNextVersionJournal(t *testing.T) {
	s, w := blueprintServer(t, inheritBP, journal.Options{})
	h := handleOK(t, s, wire.VerbCreate, "CPU", "HDL_model").Detail
	s1 := handleOK(t, s, wire.VerbCreate, "CPU", "schematic").Detail
	top := handleOK(t, s, wire.VerbCreate, "TOP", "schematic").Detail
	handleOK(t, s, wire.VerbLink, "derive", h, s1)
	handleOK(t, s, wire.VerbLink, "use", top, s1)
	handleOK(t, s, wire.VerbPost, "lvs", "down", s1, "is_equiv")
	before := w.LastLSN()
	s2 := handleOK(t, s, wire.VerbCreate, "CPU", "schematic").Detail
	want := []string{"oid " + s2, "update " + s1, "update " + s2, "retarget", "retarget", "event create"}
	got := journalOps(t, w, before)
	for i, op := range got {
		if strings.HasPrefix(op, "retarget ") {
			got[i] = "retarget" // without the link's id
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("second version journaled %q, want %q", got, want)
	}
	head := s.eng.DB().Head()
	for _, c := range []struct {
		k, name, want string
		ok            bool
	}{
		{s1, "lvs_res", "", false},
		{s1, "note", "is_equiv", true},
		{s2, "lvs_res", "is_equiv", true},
		{s2, "note", "none", true},
	} {
		k, _ := meta.ParseKey(c.k)
		if v, ok, _ := head.GetProp(k, c.name); v != c.want || ok != c.ok {
			t.Errorf("%s %s = %q (set %v), want %q (set %v)", c.k, c.name, v, ok, c.want, c.ok)
		}
	}
}

// refCreate is CreateOID applied one property at a time, the way it
// journaled before a CREATE was one update per OID: the owner, each
// template value and each continuous assignment's first value set by
// itself, each moved property deleted from the previous version by itself.
// It posts the create event and drains, as CREATE does.  The test
// blueprints' lets read properties only, so a property lookup evaluates
// them.
func refCreate(t *testing.T, eng *engine.Engine, block, view, user string) meta.Key {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	db, ix := eng.DB(), bpl.NewIndex(eng.Blueprint())
	k, err := db.NewVersion(block, view)
	must(err)
	prev, hasPrev := db.Head().Predecessor(k)
	must(db.SetProp(k, meta.PropOwner, user))
	for _, p := range ix.Properties(view) {
		val := p.Default
		if hasPrev && p.Inherit != bpl.InheritNone {
			if pv, ok, _ := db.Head().GetProp(prev, p.Name); ok {
				val = pv
			}
			if p.Inherit == bpl.InheritMove {
				must(db.UpdateOID(prev, func(props map[string]string) { delete(props, p.Name) }))
			}
		}
		must(db.SetProp(k, p.Name, val))
	}
	if hasPrev {
		var links []meta.Link
		for _, l := range db.Head().LinksOf(prev) {
			links = append(links, *l)
		}
		for _, l := range links {
			d, ok := eng.Blueprint().Index().LinkDecl(l.Template)
			if l.Template == "" || !ok {
				continue
			}
			switch d.Inherit {
			case bpl.InheritMove:
				must(db.RetargetLink(l.ID, prev, k))
			case bpl.InheritCopy:
				from, to := l.From, l.To
				if from == prev {
					from = k
				} else {
					to = k
				}
				_, err := db.AddLink(l.Class, from, to, l.Template, l.Propagates, l.Props.Map())
				must(err)
			}
		}
	}
	lookup := func(name string) string {
		v, _, _ := db.Head().GetProp(k, name)
		return v
	}
	for _, l := range ix.Lets(view) {
		val := "false"
		if bpl.Eval(l.Expr, lookup) {
			val = "true"
		}
		must(db.SetProp(k, l.Name, val))
	}
	must(eng.Post(engine.Event{Name: engine.EventCreate, Dir: bpl.DirDown, Target: k, User: user}))
	must(eng.Drain())
	return k
}

// TestCreateEqualsPerPropertyReference: one request sequence — versions
// with copy, move and let properties, move links shifted upstream and
// downstream, rules firing between — served by a server on one side and,
// with every CREATE applied by refCreate, on the other, ends in the same
// properties, REPORT rows and checkpoint, with fewer records.
func TestCreateEqualsPerPropertyReference(t *testing.T) {
	for _, src := range []string{bpl.EDTCExample, inheritBP} {
		s, w := blueprintServer(t, src, journal.Options{})
		ref, refW := blueprintServer(t, src, journal.Options{})
		key := func(block, view string, v int) string {
			return meta.Key{Block: block, View: view, Version: v}.String()
		}
		h1, s1, top := key("CPU", "HDL_model", 1), key("CPU", "schematic", 1), key("TOP", "schematic", 1)
		reqs := []wire.Request{
			{Verb: wire.VerbCreate, Args: []string{"CPU", "HDL_model"}},
			{Verb: wire.VerbCreate, Args: []string{"CPU", "schematic"}},
			{Verb: wire.VerbCreate, Args: []string{"TOP", "schematic"}},
			{Verb: wire.VerbCreate, Args: []string{"CPU", "netlist"}},
			{Verb: wire.VerbCreate, Args: []string{"CPU", "layout"}},
			{Verb: wire.VerbLink, Args: []string{"derive", h1, s1}},
			{Verb: wire.VerbLink, Args: []string{"use", top, s1}},
			{Verb: wire.VerbLink, Args: []string{"derive", s1, key("CPU", "netlist", 1)}},
			{Verb: wire.VerbLink, Args: []string{"derive", s1, key("CPU", "layout", 1)}},
			{Verb: wire.VerbPost, Args: []string{"nl_sim", "down", s1, "good"}},
			{Verb: wire.VerbPost, Args: []string{"lvs", "down", s1, "is_equiv"}},
			{Verb: wire.VerbCreate, Args: []string{"CPU", "schematic"}},
			{Verb: wire.VerbPost, Args: []string{"ckin", "down", h1}},
			{Verb: wire.VerbCreate, Args: []string{"CPU", "schematic"}},
			{Verb: wire.VerbCreate, Args: []string{"CPU", "HDL_model"}},
			{Verb: wire.VerbCreate, Args: []string{"TOP", "schematic"}},
			{Verb: wire.VerbPost, Args: []string{"hdl_sim", "down", key("CPU", "HDL_model", 2), "good"}},
			{Verb: wire.VerbCreate, Args: []string{"CPU", "layout"}},
		}
		for _, req := range reqs {
			req.User = "ann"
			got := s.Handle(req)
			if !got.OK {
				t.Fatalf("%v: %s", req, got.Detail)
			}
			if req.Verb == wire.VerbCreate {
				if k := refCreate(t, ref.eng, req.Args[0], req.Args[1], req.User); k.String() != got.Detail {
					t.Fatalf("%v: reference made %v, server %s", req, k, got.Detail)
				}
			} else if want := ref.Handle(req); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: %v, reference %v", req, got, want)
			}
		}
		got, want := s.Handle(wire.Request{Verb: wire.VerbReport}), ref.Handle(wire.Request{Verb: wire.VerbReport})
		if !got.OK || !reflect.DeepEqual(got, want) {
			t.Errorf("REPORT:\n%v\nreference:\n%v", got, want)
		}
		// The checkpoints, a line per record but for the view's LSN.
		text := func(db *meta.DB) string {
			v := db.ReadView()
			defer v.Close()
			var b strings.Builder
			if err := v.Checkpoint(func(r meta.Record, args []byte) error {
				if r.Op == meta.OpTerm {
					fmt.Fprintf(&b, "@%d ", r.LSN)
				}
				fmt.Fprintf(&b, "%s %d%s\n", r.Op, r.Seq, args)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		if a, b := text(s.eng.DB()), text(ref.eng.DB()); a != b {
			t.Errorf("checkpoint differs from the reference's:\n%s\nreference:\n%s", a, b)
		}
		if n, m := w.LastLSN(), refW.LastLSN(); n >= m {
			t.Errorf("%d records, the reference %d", n, m)
		}
		t.Logf("%d records, per-property reference %d", w.LastLSN(), refW.LastLSN())
	}
}
