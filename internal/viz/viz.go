// Package viz renders the design flow and project state visually — the
// "graphical interface to visualize the design state relative to its flow"
// the paper's conclusion announces as work in progress.  Two renderings are
// provided, both deterministic:
//
//   - FlowDOT draws the BluePrint itself: views as nodes, link templates as
//     edges labelled with their TYPE and PROPAGATE sets.  Applied to the
//     EDTC example it regenerates Figure 5 of the paper.
//   - StateDOT draws the meta-database at a pinned view: OIDs as nodes
//     coloured by readiness, link instances as edges.
//
// The output is Graphviz DOT, viewable with any dot(1) renderer.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bpl"
	"repro/internal/meta"
	"repro/internal/state"
)

// FlowDOT renders the blueprint's views and link templates as a DOT graph —
// the BluePrint representation of the design flow (Figure 5).
func FlowDOT(bp *bpl.Blueprint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", bp.Name)
	sb.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"Helvetica\"];\n")
	for _, v := range bp.Views {
		if v.Name == bpl.DefaultViewName {
			continue
		}
		var extras []string
		for _, p := range v.Properties {
			extras = append(extras, p.Name)
		}
		label := v.Name
		if len(extras) > 0 {
			label += "\\n(" + strings.Join(extras, ", ") + ")"
		}
		fmt.Fprintf(&sb, "  %q [label=%q];\n", v.Name, label)
	}
	for _, v := range bp.Views {
		for _, l := range v.Links {
			if l.Use {
				// Hierarchy within the view: a self loop labelled
				// "hierarchy", as Figure 5 draws it.
				fmt.Fprintf(&sb, "  %q -> %q [label=%q, style=dashed];\n",
					v.Name, v.Name, "hierarchy: "+strings.Join(l.Propagates, ","))
				continue
			}
			label := l.Type
			if label == "" {
				label = "derive"
			}
			label += ": " + strings.Join(l.Propagates, ",")
			if l.Inherit != bpl.InheritNone {
				label += " (" + l.Inherit.String() + ")"
			}
			fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", l.FromView, v.Name, label)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// StateDOT renders the meta-database as it stands at v: the latest version
// of every chain, coloured green (ready), red (blocked) or grey (no
// continuous assignments), with link instances as edges.  Nodes and edges
// come from the one view, so the drawing is a state the project was in.
func StateDOT(v *meta.View, bp *bpl.Blueprint) string {
	var sb strings.Builder
	sb.WriteString("digraph project_state {\n")
	sb.WriteString("  rankdir=TB;\n  node [shape=box, style=filled, fontname=\"Helvetica\"];\n")

	inReport := map[meta.Key]bool{}
	state.StreamSortedView(v, bp, func(st *state.OIDState) bool {
		inReport[st.Key] = true
		color := "lightgrey"
		if len(st.Lets) > 0 {
			if st.Ready {
				color = "palegreen"
			} else {
				color = "lightcoral"
			}
		}
		label := st.Key.String()
		if up, ok := st.Props.Get("uptodate"); ok {
			label += "\\nuptodate=" + up
		}
		fmt.Fprintf(&sb, "  %q [label=%q, fillcolor=%q];\n", st.Key.String(), label, color)
		return true
	})

	var links []*meta.Link
	v.EachLink(func(l *meta.Link) bool {
		if inReport[l.From] && inReport[l.To] { // only edges between latest versions
			links = append(links, l)
		}
		return true
	})
	sort.Slice(links, func(i, j int) bool { return links[i].ID < links[j].ID })
	for _, l := range links {
		style := "solid"
		label := l.Type()
		if l.Class == meta.UseLink {
			style = "dashed"
			label = "use"
		}
		fmt.Fprintf(&sb, "  %q -> %q [label=%q, style=%s];\n",
			l.From.String(), l.To.String(), label, style)
	}
	sb.WriteString("}\n")
	return sb.String()
}
