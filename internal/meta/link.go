package meta

import (
	"fmt"
	"slices"
	"strings"
)

// LinkClass distinguishes the two classes of links the paper defines:
// use links, which represent hierarchy within a view, and derive links,
// which represent every other relationship.
type LinkClass uint8

const (
	// UseLink represents hierarchy: the From endpoint is the parent
	// (composite) OID and the To endpoint is a hierarchical component.
	// Both endpoints of a use link must have the same view type.
	UseLink LinkClass = iota

	// DeriveLink represents any non-hierarchical relationship: derivation,
	// equivalence, dependency, composition.  The specific relationship is
	// named by the TYPE property, which the paper notes is "in a way, like
	// comments" — it is not interpreted by the engine.
	DeriveLink
)

// String returns the class name used in the BluePrint language and wire
// protocol.
func (c LinkClass) String() string {
	switch c {
	case UseLink:
		return "use"
	case DeriveLink:
		return "derive"
	default:
		return fmt.Sprintf("LinkClass(%d)", uint8(c))
	}
}

// ParseLinkClass parses "use" or "derive".
func ParseLinkClass(s string) (LinkClass, error) {
	switch strings.ToLower(s) {
	case "use":
		return UseLink, nil
	case "derive":
		return DeriveLink, nil
	default:
		return 0, fmt.Errorf("link class %q: %w", s, ErrBadLink)
	}
}

// Common values of the TYPE property on derive links (section 3.2).
const (
	TypeComposition = "composition" // hierarchical decomposition of data
	TypeEquivalence = "equivalence" // alternative representations of the same data
	TypeDependOn    = "depend_on"   // dependency on a tool version or process file
	TypeDeriveFrom  = "derived"     // a view derived from another view
)

// PropType is the name of the link property that records the relationship
// type of a derive link.
const PropType = "TYPE"

// LinkID identifies a link in the meta-database.  IDs are database
// addresses in the paper's terminology: Configurations store them directly.
type LinkID int64

// Link relates two OIDs.  Events propagate through links: an event moving
// "down" travels From→To, an event moving "up" travels To→From.  For a use
// link, From is the parent and To the child, so "down" descends the design
// hierarchy; for a derive link declared in the BluePrint as
// "link_from A ... " inside view B, From is an OID of view A and To an OID
// of view B, so "down" follows the direction of derivation.
type Link struct {
	ID    LinkID
	Class LinkClass
	From  Key
	To    Key

	// Props holds annotation property/value pairs, e.g. TYPE.
	Props Props

	// Propagates is the PROPAGATE property: the event names allowed to
	// traverse this link, sorted, each once.  An event not in it stops here.
	//
	// A stored link shares Propagates with every link of equal attributes —
	// the links one template stamped (attrTable) — so it may not be changed
	// in place.  A link's attributes are fixed when it is created.
	Propagates []string

	// Template records which BluePrint link template decorated this link,
	// or "" for a raw link created outside any template.  The run-time
	// engine uses it to implement the move/copy version-inheritance of
	// links (Figure 3 of the paper).
	Template string

	// Seq is the logical creation timestamp.
	Seq int64
}

// clone returns a copy with a PROPAGATE list of its own: the caller's to
// change.
func (l *Link) clone() *Link {
	c := l.copy()
	c.Propagates = slices.Clone(l.Propagates)
	return c
}

// copy returns a copy that shares the attributes, for RetargetLink to move
// an endpoint of.
func (l *Link) copy() *Link {
	c := *l
	return &c
}

// CanPropagate reports whether the named event may traverse this link.
func (l *Link) CanPropagate(event string) bool { return slices.Contains(l.Propagates, event) }

// Type returns the TYPE property, or "" if unset.
func (l *Link) Type() string {
	t, _ := l.Props.Get(PropType)
	return t
}

// Other returns the endpoint opposite to k, and whether k is an endpoint at
// all.
func (l *Link) Other(k Key) (Key, bool) {
	switch k {
	case l.From:
		return l.To, true
	case l.To:
		return l.From, true
	default:
		return Key{}, false
	}
}

// validate checks structural invariants of a link before insertion.
func (l *Link) validate() error {
	if err := l.From.Validate(); err != nil {
		return fmt.Errorf("from %v: %w", l.From, err)
	}
	if err := l.To.Validate(); err != nil {
		return fmt.Errorf("to %v: %w", l.To, err)
	}
	if l.From == l.To {
		return fmt.Errorf("self-link on %v: %w", l.From, ErrBadLink)
	}
	if l.Class == UseLink && l.From.View != l.To.View {
		return fmt.Errorf("use link %v -> %v crosses view types: %w", l.From, l.To, ErrBadLink)
	}
	return nil
}
