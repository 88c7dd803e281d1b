package bpl

import (
	"reflect"
	"regexp"
	"testing"
)

func mustParse(t *testing.T, src string) *Blueprint {
	t.Helper()
	bp, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return bp
}

func TestParseEDTCExample(t *testing.T) {
	bp := mustParse(t, EDTCExample)
	if bp.Name != "EDTC_example" {
		t.Errorf("Name = %q", bp.Name)
	}
	wantViews := []string{"default", "HDL_model", "synth_lib", "schematic", "netlist", "layout"}
	if got := bp.ViewNames(); !reflect.DeepEqual(got, wantViews) {
		t.Errorf("ViewNames = %v, want %v", got, wantViews)
	}

	dv := bp.DefaultView()
	if dv == nil {
		t.Fatal("no default view")
	}
	if len(dv.Properties) != 1 || dv.Properties[0].Name != "uptodate" || dv.Properties[0].Default != "true" {
		t.Errorf("default view properties = %+v", dv.Properties)
	}
	if len(dv.Rules) != 2 {
		t.Fatalf("default view rules = %d", len(dv.Rules))
	}
	ckin := dv.Rules[0]
	if ckin.Event != "ckin" || len(ckin.Actions) != 2 {
		t.Fatalf("ckin rule = %+v", ckin)
	}
	if a, ok := ckin.Actions[0].(*AssignAction); !ok || a.Prop != "uptodate" || a.Value.Expand(nil) != "true" {
		t.Errorf("ckin action 0 = %+v", ckin.Actions[0])
	}
	if p, ok := ckin.Actions[1].(*PostAction); !ok || p.Event != "outofdate" || p.Dir != DirDown || p.ToView != "" {
		t.Errorf("ckin action 1 = %+v", ckin.Actions[1])
	}

	sch, ok := bp.View("schematic")
	if !ok {
		t.Fatal("no schematic view")
	}
	if len(sch.Properties) != 2 || len(sch.Lets) != 1 || len(sch.Links) != 3 || len(sch.Rules) != 3 {
		t.Fatalf("schematic shape: %d props %d lets %d links %d rules",
			len(sch.Properties), len(sch.Lets), len(sch.Links), len(sch.Rules))
	}
	// link_from HDL_model move propagates outofdate type derived
	l0 := sch.Links[0]
	if l0.Use || l0.FromView != "HDL_model" || l0.Inherit != InheritMove ||
		!reflect.DeepEqual(l0.Propagates, []string{"outofdate"}) || l0.Type != "derived" {
		t.Errorf("schematic link 0 = %+v", l0)
	}
	// link_from synth_lib move propagates outofdate type depend_on
	l1 := sch.Links[1]
	if l1.FromView != "synth_lib" || l1.Inherit != InheritMove || l1.Type != "depend_on" {
		t.Errorf("schematic link 1 = %+v", l1)
	}
	// use_link move propagates outofdate
	l2 := sch.Links[2]
	if !l2.Use || l2.Inherit != InheritMove || !reflect.DeepEqual(l2.Propagates, []string{"outofdate"}) {
		t.Errorf("schematic link 2 = %+v", l2)
	}

	// netlist: link_from schematic propagates nl_sim, outofdate type derived
	nl, _ := bp.View("netlist")
	if got := nl.Links[0].Propagates; !reflect.DeepEqual(got, []string{"nl_sim", "outofdate"}) {
		t.Errorf("netlist propagates = %v", got)
	}

	// synth_lib is declared but empty.
	sl, _ := bp.View("synth_lib")
	if len(sl.Properties)+len(sl.Lets)+len(sl.Links)+len(sl.Rules) != 0 {
		t.Errorf("synth_lib not empty: %+v", sl)
	}

	// layout ckin rule posts lvs up with an argument.
	lay, _ := bp.View("layout")
	var found bool
	for _, r := range lay.RulesFor("ckin") {
		for _, a := range r.Actions {
			if p, ok := a.(*PostAction); ok && p.Event == "lvs" && p.Dir == DirUp && len(p.Args) == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Error("layout ckin post lvs up missing")
	}
}

func TestParseTemplateInterpolation(t *testing.T) {
	bp := mustParse(t, `blueprint b
view v
    when ckin do lvs_res = "$oid changed by $user" done
endview
endblueprint`)
	v, _ := bp.View("v")
	a := v.Rules[0].Actions[0].(*AssignAction)
	got := a.Value.Expand(func(name string) string {
		switch name {
		case "oid":
			return "cpu,schematic,2"
		case "user":
			return "yves"
		}
		return ""
	})
	if got != "cpu,schematic,2 changed by yves" {
		t.Errorf("expansion = %q", got)
	}
	if vars := a.Value.Vars(); !reflect.DeepEqual(vars, []string{"oid", "user"}) {
		t.Errorf("Vars = %v", vars)
	}
}

func TestParseLetExpression(t *testing.T) {
	bp := mustParse(t, `blueprint b
view v
    let state = ($a == good) and not ($b != bad) or $c
endview
endblueprint`)
	v, _ := bp.View("v")
	e := v.Lets[0].Expr
	// Shape: Or(And(Cmp, Not(Cmp)), Bool).
	or, ok := e.(*OrExpr)
	if !ok {
		t.Fatalf("top = %T", e)
	}
	and, ok := or.L.(*AndExpr)
	if !ok {
		t.Fatalf("or.L = %T", or.L)
	}
	if _, ok := and.L.(*CmpExpr); !ok {
		t.Errorf("and.L = %T", and.L)
	}
	if _, ok := and.R.(*NotExpr); !ok {
		t.Errorf("and.R = %T", and.R)
	}
	if _, ok := or.R.(*BoolExpr); !ok {
		t.Errorf("or.R = %T", or.R)
	}

	lookup := func(vals map[string]string) LookupFunc {
		return func(n string) string { return vals[n] }
	}
	if !Eval(e, lookup(map[string]string{"a": "good", "b": "bad", "c": "false"})) {
		t.Error("expected true (left branch)")
	}
	if !Eval(e, lookup(map[string]string{"a": "bad", "b": "bad", "c": "true"})) {
		t.Error("expected true (right branch)")
	}
	if Eval(e, lookup(map[string]string{"a": "bad", "b": "x", "c": "no"})) {
		t.Error("expected false")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no blueprint":       `view v endview`,
		"unclosed blueprint": `blueprint b view v endview`,
		"unclosed view":      `blueprint b view v endblueprint`,
		"bad item":           `blueprint b view v frobnicate endview endblueprint`,
		"prop no default":    `blueprint b view v property p endview endblueprint`,
		"link no propagates": `blueprint b view v link_from x type t endview endblueprint`,
		"rule no done":       `blueprint b view v when e do a = b endview endblueprint`,
		"rule bad dir":       `blueprint b view v when e do post x sideways done endview endblueprint`,
		"exec no args":       `blueprint b view v when e do exec done endview endblueprint`,
		"notify no msg":      `blueprint b view v when e do notify done endview endblueprint`,
		"assign no value":    `blueprint b view v when e do a = ; done endview endblueprint`,
		"cmp of compound":    `blueprint b view v let s = (($a == b) and $c) == d endview endblueprint`,
		"let operand kw":     `blueprint b view v let s = and endview endblueprint`,
		"trailing tokens":    "blueprint b endblueprint extra",
		"let unclosed paren": `blueprint b view v let s = ($a == b endview endblueprint`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parse accepted %q", name, src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("blueprint b\nview v\n  property\nendview\nendblueprint")
	if err == nil {
		t.Fatal("no error")
	}
	if ok, _ := regexp.MatchString(`^\d+:\d+: `, err.Error()); !ok {
		t.Errorf("error lacks line:col position: %v", err)
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	bp := mustParse(t, `blueprint b
view v
    when e do a = b; done
endview
endblueprint`)
	v, _ := bp.View("v")
	if len(v.Rules[0].Actions) != 1 {
		t.Errorf("actions = %+v", v.Rules[0].Actions)
	}
}

func TestParsePostToView(t *testing.T) {
	bp := mustParse(t, `blueprint b
view v
    when checkin do post behavioral_sim_ok down to VerilogNetList done
endview
endblueprint`)
	v, _ := bp.View("v")
	p := v.Rules[0].Actions[0].(*PostAction)
	if p.Event != "behavioral_sim_ok" || p.Dir != DirDown || p.ToView != "VerilogNetList" {
		t.Errorf("post = %+v", p)
	}
}

func TestParsePropertyInheritModes(t *testing.T) {
	bp := mustParse(t, `blueprint b
view GDSII
    property DRC default bad copy
    property hist default none move
    property plain default ok
endview
endblueprint`)
	v, _ := bp.View("GDSII")
	if v.Properties[0].Inherit != InheritCopy {
		t.Errorf("copy not parsed: %+v", v.Properties[0])
	}
	if v.Properties[1].Inherit != InheritMove {
		t.Errorf("move not parsed: %+v", v.Properties[1])
	}
	if v.Properties[2].Inherit != InheritNone {
		t.Errorf("none not parsed: %+v", v.Properties[2])
	}
}

func TestTemplateIDsDeterministic(t *testing.T) {
	bp1 := mustParse(t, EDTCExample)
	bp2 := mustParse(t, EDTCExample)
	v1, _ := bp1.View("schematic")
	v2, _ := bp2.View("schematic")
	for i := range v1.Links {
		if v1.Links[i].TemplateID != v2.Links[i].TemplateID {
			t.Errorf("link %d template IDs differ", i)
		}
		if v1.Links[i].TemplateID == "" {
			t.Errorf("link %d template ID empty", i)
		}
	}
	seen := map[string]bool{}
	for _, l := range v1.Links {
		if seen[l.TemplateID] {
			t.Errorf("duplicate template ID %q", l.TemplateID)
		}
		seen[l.TemplateID] = true
	}
}

func TestParseKeywordAsName(t *testing.T) {
	// "type", "state", "copy" are legal property/view names by context
	// sensitivity.
	bp := mustParse(t, `blueprint b
view type
    property copy default move
    when state do copy = done2 done
endview
endblueprint`)
	v, ok := bp.View("type")
	if !ok {
		t.Fatal("view named 'type' rejected")
	}
	if v.Properties[0].Name != "copy" || v.Properties[0].Default != "move" {
		t.Errorf("property = %+v", v.Properties[0])
	}
}
