package state

import (
	"strings"
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
)

func edtcEngine(t *testing.T) *engine.Engine {
	t.Helper()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func create(t *testing.T, e *engine.Engine, block, view string) meta.Key {
	t.Helper()
	k, err := e.CreateOID(block, view, "tester")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestEvaluateReasons(t *testing.T) {
	e := edtcEngine(t)
	sch := create(t, e, "CPU", "schematic")
	o, err := e.DB().Head().GetOID(sch)
	if err != nil {
		t.Fatal(err)
	}
	st := Evaluate(e.Blueprint(), o)
	if st.Ready {
		t.Error("fresh schematic reported ready")
	}
	if st.Lets["state"] {
		t.Error("state let true at defaults")
	}
	if len(st.Reasons) != 2 {
		t.Errorf("reasons = %v, want the two failing conjuncts", st.Reasons)
	}
	joined := strings.Join(st.Reasons, "\n")
	if !strings.Contains(joined, "nl_sim_res") || !strings.Contains(joined, "lvs_res") {
		t.Errorf("reasons lack property names: %v", st.Reasons)
	}
	if strings.Contains(joined, "uptodate") {
		t.Errorf("passing conjunct reported: %v", st.Reasons)
	}
}

func TestReportLatestOnly(t *testing.T) {
	e := edtcEngine(t)
	create(t, e, "CPU", "schematic")
	v2 := create(t, e, "CPU", "schematic")
	rep := Report(e.DB().Head(), e.Blueprint())
	if len(rep) != 1 {
		t.Fatalf("report entries = %d", len(rep))
	}
	if rep[0].Key != v2 {
		t.Errorf("report key = %v, want latest %v", rep[0].Key, v2)
	}
}

func TestGap(t *testing.T) {
	e := edtcEngine(t)
	db := e.DB()
	sch := create(t, e, "CPU", "schematic")
	create(t, e, "CPU", "HDL_model") // no lets: vacuously ready
	lay := create(t, e, "CPU", "layout")

	gap := Gap(db.Head(), e.Blueprint())
	if len(gap) != 2 {
		t.Fatalf("gap = %d entries, want schematic+layout", len(gap))
	}

	// Satisfy the schematic.
	for name, v := range map[string]string{"nl_sim_res": "good", "lvs_res": "is_equiv"} {
		if err := db.SetProp(sch, name, v); err != nil {
			t.Fatal(err)
		}
	}
	gap = Gap(db.Head(), e.Blueprint())
	if len(gap) != 1 || gap[0].Key != lay {
		t.Errorf("gap after fixing schematic = %+v", gap)
	}
}

func TestFormat(t *testing.T) {
	e := edtcEngine(t)
	create(t, e, "CPU", "schematic")
	out := Format(Report(e.DB().Head(), e.Blueprint()))
	if !strings.Contains(out, "CPU,schematic,1") || !strings.Contains(out, "no") {
		t.Errorf("Format output:\n%s", out)
	}
}

func TestDiffConfigurations(t *testing.T) {
	e := edtcEngine(t)
	db := e.DB()
	a := create(t, e, "CPU", "schematic")
	if _, err := db.SnapshotQuery("before", func(*meta.OID) bool { return true }); err != nil {
		t.Fatal(err)
	}
	b := create(t, e, "REG", "schematic")
	if _, err := db.SnapshotQuery("after", func(*meta.OID) bool { return true }); err != nil {
		t.Fatal(err)
	}
	d, err := DiffConfigurations(db.Head(), "before", "after")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || d.Added[0] != b {
		t.Errorf("Added = %v", d.Added)
	}
	if len(d.Removed) != 0 || d.Common != 1 {
		t.Errorf("diff = %+v", d)
	}
	_ = a
	if _, err := DiffConfigurations(db.Head(), "before", "ghost"); err == nil {
		t.Error("missing configuration accepted")
	}
}

func TestBlocked(t *testing.T) {
	e := edtcEngine(t)
	db := e.DB()
	hdl := create(t, e, "CPU", "HDL_model")
	sch := create(t, e, "CPU", "schematic")
	nl := create(t, e, "CPU", "netlist")
	lay := create(t, e, "CPU", "layout")
	mustLink := func(from, to meta.Key) {
		t.Helper()
		if _, err := e.CreateLink(meta.DeriveLink, from, to); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(hdl, sch)
	mustLink(sch, nl)
	mustLink(sch, lay)
	blocked := Blocked(db.Head(), hdl, "outofdate")
	if len(blocked) != 3 {
		t.Errorf("Blocked = %v, want schematic, netlist, layout", blocked)
	}
	// lvs only crosses the schematic->layout equivalence link.
	lvsBlocked := Blocked(db.Head(), sch, "lvs")
	if len(lvsBlocked) != 1 || lvsBlocked[0] != lay {
		t.Errorf("Blocked(lvs) = %v", lvsBlocked)
	}
}

// TestStreamMatchesReport: the streaming pull API yields exactly the rows
// of the materializing Report, minus the property-map copies.
func TestStreamMatchesReport(t *testing.T) {
	e := edtcEngine(t)
	for _, blk := range []string{"alu", "reg", "shifter"} {
		create(t, e, blk, "schematic")
		create(t, e, blk, "HDL_model")
	}
	rep := Report(e.DB().Head(), e.Blueprint())
	want := map[string]string{}
	for _, st := range rep {
		want[st.Key.String()] = strings.Join(st.Reasons, ";")
	}

	v := e.DB().ReadView()
	defer v.Close()
	seen := map[string]string{}
	ready := 0
	StreamView(v, e.Blueprint(), func(st *OIDState) bool {
		seen[st.Key.String()] = strings.Join(st.Reasons, ";")
		if st.Ready {
			ready++
		}
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("stream yielded %d rows, report %d", len(seen), len(want))
	}
	for k, reasons := range want {
		if seen[k] != reasons {
			t.Errorf("%s: stream reasons %q != report %q", k, seen[k], reasons)
		}
	}
	for _, st := range rep {
		if st.Ready {
			ready--
		}
	}
	if ready != 0 {
		t.Error("ready counts differ between Stream and Report")
	}

	// Early stop is honored.
	calls := 0
	StreamView(v, e.Blueprint(), func(*OIDState) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("stream continued after false: %d calls", calls)
	}
}
