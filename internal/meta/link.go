package meta

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
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
	Props map[string]string

	// Propagates is the PROPAGATE property: the event names allowed to
	// traverse this link, sorted, each once.  An event not in it stops here.
	//
	// A stored link shares Props and Propagates with every link of equal
	// attributes — the links one template stamped (attrTable) — so neither
	// may be changed in place; the link mutators replace them.
	Propagates []string

	// Template records which BluePrint link template decorated this link,
	// or "" for a raw link created outside any template.  The run-time
	// engine uses it to implement the move/copy version-inheritance of
	// links (Figure 3 of the paper).
	Template string

	// Seq is the logical creation timestamp.
	Seq int64
}

// clone returns a deep copy: the caller's to change.
func (l *Link) clone() *Link {
	c := l.copy()
	c.Props = cloneProps(l.Props)
	c.Propagates = slices.Clone(l.Propagates)
	return c
}

// copy returns a copy that shares the attributes, for a mutator to replace
// what it changes.
func (l *Link) copy() *Link {
	c := *l
	return &c
}

// cloneProps returns a property map of its own, never nil.
func cloneProps(m map[string]string) map[string]string {
	c := make(map[string]string, len(m)+1)
	maps.Copy(c, m)
	return c
}

// CanPropagate reports whether the named event may traverse this link.
func (l *Link) CanPropagate(event string) bool { return slices.Contains(l.Propagates, event) }

// Type returns the TYPE property, or "" if unset.
func (l *Link) Type() string { return l.Props[PropType] }

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

// PropagateList returns the allowed events in sorted order: Propagates
// itself, which the caller must not change.
func (l *Link) PropagateList() []string { return l.Propagates }

// attrSlots is the size of a database's table of link attribute sets.
const attrSlots = 64

// attrSet is one link attribute set as links share it: its canonical bytes
// (appendAttrs), and the PROPAGATE list and property map they spell, whose
// strings are substrings of them.  Immutable once made.
type attrSet struct {
	key        string
	propagates []string
	props      map[string]string
}

// attrTable keeps one copy of each link attribute set — the PROPAGATE list
// and TYPE every link of one template carries — in a table that, like the
// checkpoint interner, neither grows nor is searched: a set lives in the
// slot its bytes' hash picks, a hit allocates nothing, and a set that finds
// another in its slot gets a copy of its own, which takes the slot.  Writers
// race on a slot only to replace one immutable set with another.
type attrTable struct {
	slots [attrSlots]atomic.Pointer[attrSet]
}

// attrPair is one property of a set being interned.
type attrPair struct{ name, value string }

// intern returns the shared form of an attribute set, for a link's
// Propagates and Props: events, in any order and repeated at will, and the
// properties, as name/value pairs or as a map (one of them nil), the last of
// a repeated name winning.  Nothing of the arguments is kept.
func (t *attrTable) intern(events, pairs []string, props map[string]string) ([]string, map[string]string) {
	var evBuf [8]string
	evs := append(evBuf[:0], events...)
	slices.Sort(evs)
	evs = slices.Compact(evs)
	var kvBuf [8]attrPair
	kv := kvBuf[:0]
	for i := 0; i+1 < len(pairs); i += 2 {
		kv = append(kv, attrPair{pairs[i], pairs[i+1]})
	}
	for n, v := range props {
		kv = append(kv, attrPair{n, v})
	}
	slices.SortStableFunc(kv, func(a, b attrPair) int { return strings.Compare(a.name, b.name) })
	distinct := kv[:0]
	for i, p := range kv {
		if i+1 == len(kv) || kv[i+1].name != p.name {
			distinct = append(distinct, p)
		}
	}
	kv = distinct
	if len(evs) == 0 && len(kv) == 0 {
		return nil, nil
	}
	var keyBuf [256]byte
	key := appendAttrs(keyBuf[:0], evs, kv)
	slot := &t.slots[fnv1a(key)%attrSlots]
	if a := slot.Load(); a != nil && a.key == string(key) {
		return a.propagates, a.props
	}
	a := &attrSet{key: string(key)}
	off := 4
	sub := func(n int) string {
		s := a.key[off+4 : off+4+n]
		off += 4 + n
		return s
	}
	if len(evs) > 0 {
		a.propagates = make([]string, len(evs))
		for i, e := range evs {
			a.propagates[i] = sub(len(e))
		}
	}
	if len(kv) > 0 {
		a.props = make(map[string]string, len(kv))
		for _, p := range kv {
			n := sub(len(p.name))
			a.props[n] = sub(len(p.value))
		}
	}
	slot.Store(a)
	return a.propagates, a.props
}

// appendAttrs spells a canonical attribute set — events sorted and distinct,
// properties sorted by name and distinct — as the event count, then each
// event, name and value after its length, the numbers 4 bytes little-endian.
func appendAttrs(b []byte, evs []string, kv []attrPair) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(evs)))
	for _, e := range evs {
		b = appendSized(b, e)
	}
	for _, p := range kv {
		b = appendSized(appendSized(b, p.name), p.value)
	}
	return b
}

func appendSized(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
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
