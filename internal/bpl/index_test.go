package bpl

import (
	"reflect"
	"testing"
)

// indexTestSrc exercises every override dimension: default-view rules, lets
// and properties overridden (and not) by a specific view, plus link
// templates of both classes.
const indexTestSrc = `blueprint idx
view default
    property uptodate default true copy
    property shared default x
    let state = ($uptodate == true)
    let common = ($shared == x)
    when ckin do uptodate = true; post outofdate down done
    when outofdate do uptodate = false done
endview
view schematic
    property shared default y
    let state = ($uptodate == true) and ($drc == good)
    use_link move propagates outofdate
    link_from HDL_model copy propagates outofdate type derived
    when ckin do drc = unknown; notify "ckin $oid"; exec check.sh "$oid" done
    when drc_run do drc = $arg1 done
endview
view HDL_model
endview
endblueprint`

func indexViewsAndEvents(bp *Blueprint) ([]string, []string) {
	views := append(bp.ViewNames(), "undeclared_view")
	events := append(bp.Events(), "no_such_event")
	return views, events
}

func TestIndexMatchesEffectiveResolution(t *testing.T) {
	for _, src := range []string{indexTestSrc, EDTCExample, DSMExample} {
		bp, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		ix := NewIndex(bp)
		views, events := indexViewsAndEvents(bp)
		for _, v := range views {
			if got, want := ix.Lets(v), bp.EffectiveLets(v); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Lets(%q) = %v, want %v", bp.Name, v, got, want)
			}
			if got, want := ix.Properties(v), bp.EffectiveProperties(v); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Properties(%q) = %v, want %v", bp.Name, v, got, want)
			}
			if got, want := ix.Links(v), bp.EffectiveLinks(v); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Links(%q) = %v, want %v", bp.Name, v, got, want)
			}
			for _, ev := range events {
				var got []*Rule
				if p := ix.Program(v, ev); p != nil {
					got = p.Rules
				}
				if want := bp.EffectiveRules(v, ev); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Program(%q, %q).Rules = %v, want %v", bp.Name, v, ev, got, want)
				}
			}
			for _, w := range views {
				for _, use := range []bool{true, false} {
					var wd *LinkDecl
					for _, d := range bp.EffectiveLinks(v) {
						if d.Use == use && (use || d.FromView == w) {
							wd = d
							break
						}
					}
					if gd, gok := ix.LinkTemplate(use, w, v); gd != wd || gok != (wd != nil) {
						t.Errorf("%s: LinkTemplate(%v, %q, %q) = %v,%v want %v",
							bp.Name, use, w, v, gd, gok, wd)
					}
				}
			}
		}
		for _, v := range bp.Views {
			for _, d := range v.Links {
				if got, ok := ix.LinkDecl(d.TemplateID); !ok || got != d {
					t.Errorf("%s: LinkDecl(%q) = %v,%v want %v", bp.Name, d.TemplateID, got, ok, d)
				}
			}
		}
		if d, ok := ix.LinkDecl("no_such_view#0"); ok {
			t.Errorf("%s: LinkDecl of an unknown ID = %v", bp.Name, d)
		}
	}
}

// TestIndexLinkDeclFirstDeclaration: two declarations of one view stamp
// their link templates with the same IDs; the parser admits them (the
// analyzer reports the duplicate view), and LinkDecl resolves an ID to the
// first declaration in view order.
func TestIndexLinkDeclFirstDeclaration(t *testing.T) {
	bp, err := Parse(`blueprint dup
view schematic
    link_from HDL_model move propagates outofdate type first
endview
view schematic
    link_from HDL_model copy propagates outofdate type second
endview
endblueprint`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	first, second := bp.Views[0].Links[0], bp.Views[1].Links[0]
	if first.TemplateID != second.TemplateID {
		t.Fatalf("template IDs %q and %q differ: no duplicate to resolve", first.TemplateID, second.TemplateID)
	}
	if d, ok := bp.Index().LinkDecl(first.TemplateID); !ok || d != first || d.Type != "first" {
		t.Errorf("LinkDecl(%q) = %+v,%v want the first declaration", first.TemplateID, d, ok)
	}
}

func TestIndexProgramPhases(t *testing.T) {
	bp, err := Parse(indexTestSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ix := NewIndex(bp)
	p := ix.Program("schematic", "ckin")
	if p == nil {
		t.Fatal("no program for (schematic, ckin)")
	}
	rules := bp.EffectiveRules("schematic", "ckin")
	if !reflect.DeepEqual(p.Rules, rules) {
		t.Fatalf("Rules = %v, want %v", p.Rules, rules)
	}
	// Re-partition the effective rules by phase and compare.
	var assigns []*AssignAction
	var execs []Action
	var posts []*PostAction
	for _, r := range rules {
		for _, a := range r.Actions {
			switch act := a.(type) {
			case *AssignAction:
				assigns = append(assigns, act)
			case *ExecAction, *NotifyAction:
				execs = append(execs, a)
			case *PostAction:
				posts = append(posts, act)
			}
		}
	}
	if !reflect.DeepEqual(p.Assigns, assigns) {
		t.Errorf("Assigns = %v, want %v", p.Assigns, assigns)
	}
	if !reflect.DeepEqual(p.Execs, execs) {
		t.Errorf("Execs = %v, want %v", p.Execs, execs)
	}
	if !reflect.DeepEqual(p.Posts, posts) {
		t.Errorf("Posts = %v, want %v", p.Posts, posts)
	}
	if got := ix.Program("schematic", "no_such_event"); got != nil {
		t.Errorf("Program for unknown event = %v, want nil", got)
	}
	if got := ix.Program("undeclared_view", "outofdate"); got == nil ||
		!reflect.DeepEqual(got.Rules, bp.EffectiveRules("undeclared_view", "outofdate")) {
		t.Errorf("Program for undeclared view did not fall back to default rules: %v", got)
	}
}
