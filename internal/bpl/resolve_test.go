package bpl

import (
	"reflect"
	"testing"
)

func TestEffectivePropertiesMerge(t *testing.T) {
	bp := mustParse(t, `blueprint b
view default
    property uptodate default true
    property shared default fromdefault
endview
view v
    property own default x
    property shared default fromview
endview
endblueprint`)
	props := bp.EffectiveProperties("v")
	names := make([]string, len(props))
	for i, p := range props {
		names[i] = p.Name + "=" + p.Default
	}
	want := []string{"uptodate=true", "own=x", "shared=fromview"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("EffectiveProperties = %v, want %v", names, want)
	}
}

func TestEffectivePropertiesUndeclaredView(t *testing.T) {
	bp := mustParse(t, `blueprint b
view default
    property uptodate default true
endview
endblueprint`)
	props := bp.EffectiveProperties("never_declared")
	if len(props) != 1 || props[0].Name != "uptodate" {
		t.Errorf("EffectiveProperties(undeclared) = %+v", props)
	}
}

func TestEffectiveRulesOrder(t *testing.T) {
	bp := mustParse(t, EDTCExample)
	rules := bp.EffectiveRules("schematic", "ckin")
	// default ckin rule first, then the two schematic ckin rules.
	if len(rules) != 3 {
		t.Fatalf("rules = %d", len(rules))
	}
	if _, ok := rules[0].Actions[0].(*AssignAction); !ok {
		t.Errorf("first rule not the default uptodate rule: %+v", rules[0])
	}
	if _, ok := rules[2].Actions[0].(*ExecAction); !ok {
		t.Errorf("last rule not the netlister exec: %+v", rules[2])
	}
}

func TestEffectiveLetsOverride(t *testing.T) {
	bp := mustParse(t, `blueprint b
view default
    let state = ($uptodate == true)
endview
view v
    let state = ($x == ok)
endview
endblueprint`)
	lets := bp.EffectiveLets("v")
	if len(lets) != 1 {
		t.Fatalf("lets = %d", len(lets))
	}
	if got := lets[0].Expr.String(); got != "($x == ok)" {
		t.Errorf("winning let = %s", got)
	}
}

func TestLinkTemplateLookup(t *testing.T) {
	ix := mustParse(t, EDTCExample).Index()
	// use link on schematic.
	d, ok := ix.LinkTemplate(true, "schematic", "schematic")
	if !ok || !d.Use || d.Inherit != InheritMove {
		t.Errorf("use template = %+v %v", d, ok)
	}
	// derive link HDL_model -> schematic.
	d, ok = ix.LinkTemplate(false, "HDL_model", "schematic")
	if !ok || d.Type != "derived" {
		t.Errorf("derive template = %+v %v", d, ok)
	}
	// derive schematic -> layout (equivalence).
	d, ok = ix.LinkTemplate(false, "schematic", "layout")
	if !ok || d.Type != "equivalence" || !reflect.DeepEqual(d.Propagates, []string{"lvs", "outofdate"}) {
		t.Errorf("layout template = %+v %v", d, ok)
	}
	// Unknown combination.
	if _, ok := ix.LinkTemplate(false, "layout", "HDL_model"); ok {
		t.Error("phantom template found")
	}
}

func TestEventsEnumeration(t *testing.T) {
	bp := mustParse(t, EDTCExample)
	evs := bp.Events()
	want := map[string]bool{
		"ckin": true, "outofdate": true, "hdl_sim": true,
		"nl_sim": true, "lvs": true, "drc": true,
	}
	got := map[string]bool{}
	for _, e := range evs {
		got[e] = true
	}
	for e := range want {
		if !got[e] {
			t.Errorf("event %q missing from %v", e, evs)
		}
	}
}
