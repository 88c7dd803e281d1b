package meta

import (
	"encoding/binary"
	"slices"
	"strings"
	"sync/atomic"
)

// Props is a property set: an OID version's properties or a link's
// annotations.  It is immutable, and it is its canonical bytes — the pairs
// sorted by name, each name once, each name and value after its length
// (appendAttrs) — so two sets are equal exactly when their Props are.  The
// zero Props is the empty set.  Only a database's attrTable makes one, and
// every OID version and link of one set shares that copy.
type Props struct{ s string }

// Get returns the value of the named property and whether it is set.
func (p Props) Get(name string) (string, bool) {
	for r := p.s; len(r) > 0; {
		var n, v string
		n, r = nextSized(r)
		v, r = nextSized(r)
		if n == name {
			return v, true
		}
	}
	return "", false
}

// Len returns the number of properties.
func (p Props) Len() int {
	n := 0
	for r := p.s; len(r) > 0; n++ {
		_, r = nextSized(r)
		_, r = nextSized(r)
	}
	return n
}

// Each calls fn with every property, in name order, until fn returns false.
func (p Props) Each(fn func(name, value string) bool) {
	for r := p.s; len(r) > 0; {
		var n, v string
		n, r = nextSized(r)
		v, r = nextSized(r)
		if !fn(n, v) {
			return
		}
	}
}

// String spells the set as fmt spells a map: map[name:value ...].
func (p Props) String() string {
	var b strings.Builder
	b.WriteString("map[")
	sep := ""
	p.Each(func(n, v string) bool {
		b.WriteString(sep + n + ":" + v)
		sep = " "
		return true
	})
	b.WriteString("]")
	return b.String()
}

// Map returns the set as a map of its own, nil when it is empty.
func (p Props) Map() map[string]string {
	if p.s == "" {
		return nil
	}
	m := make(map[string]string)
	p.Each(func(n, v string) bool {
		m[n] = v
		return true
	})
	return m
}

// nextSized reads the length-prefixed string r starts with (appendSized).
func nextSized(r string) (s, rest string) {
	n := int(uint32(r[0]) | uint32(r[1])<<8 | uint32(r[2])<<16 | uint32(r[3])<<24)
	return r[4 : 4+n], r[4+n:]
}

// attrSlots is the size of a database's one table of attribute sets: link
// attribute sets and OID property sets alike.
const attrSlots = 64

// attrSet is one attribute set as links and OID versions share it: its
// canonical bytes (appendAttrs) and, for a link's, the PROPAGATE list they
// spell, whose strings are substrings of them.  Immutable once made.
type attrSet struct {
	key        string
	propagates []string
}

// attrTable keeps one copy of each attribute set — the PROPAGATE list and
// TYPE every link of one template carries, and the properties the OIDs of
// one view carry (paper §3.2) — in a table that, like the checkpoint
// interner, neither grows nor is searched: a set lives in the slot its
// bytes' hash picks, a hit allocates nothing, and a set that finds another
// in its slot gets a copy of its own, which takes the slot.  Writers race on
// a slot only to replace one immutable set with another.
type attrTable struct {
	slots [attrSlots]atomic.Pointer[attrSet]
}

// attrPair is one property of a set being built.
type attrPair struct{ name, value string }

// intern returns the shared form of the set key spells: its PROPAGATE list
// and its properties, which begin at evEnd.  Nothing of key is kept.
func (t *attrTable) intern(key []byte, evEnd int) ([]string, Props) {
	slot := &t.slots[fnv1a(key)%attrSlots]
	a := slot.Load()
	if a == nil || a.key != string(key) {
		a = &attrSet{key: string(key)}
		if n := binary.LittleEndian.Uint32(key); n > 0 {
			a.propagates = make([]string, n)
			r := a.key[4:evEnd]
			for i := range a.propagates {
				a.propagates[i], r = nextSized(r)
			}
		}
		slot.Store(a)
	}
	return a.propagates, Props{a.key[evEnd:]}
}

// edit returns the shared form of a link's attributes or, with no events,
// an OID version's properties: events in any order and repeated at will,
// then base with the name/value pairs set, the last of a repeated name
// winning, and the names of dels deleted, which win over a set.  Nothing of
// the arguments is kept.
func (t *attrTable) edit(events []string, base Props, pairs, dels []string) ([]string, Props) {
	var evBuf [8]string
	evs := append(evBuf[:0], events...)
	slices.Sort(evs)
	evs = slices.Compact(evs)
	var kvBuf [16]attrPair
	kv := kvBuf[:0]
	for i := 0; i+1 < len(pairs); i += 2 {
		kv = append(kv, attrPair{pairs[i], pairs[i+1]})
	}
	slices.SortStableFunc(kv, func(a, b attrPair) int { return strings.Compare(a.name, b.name) })
	last := kv[:0]
	for i, p := range kv {
		if i+1 == len(kv) || kv[i+1].name != p.name {
			last = append(last, p)
		}
	}
	var delBuf [4]string
	ds := append(delBuf[:0], dels...)
	slices.Sort(ds)
	var keyBuf [512]byte
	key, evEnd := appendAttrs(keyBuf[:0], evs, base, last, ds)
	switch {
	case len(evs) > 0:
	case len(key) == evEnd:
		return nil, Props{}
	case string(key[evEnd:]) == base.s:
		return nil, base
	}
	return t.intern(key, evEnd)
}

// editMap is edit of no base with the properties as a map.
func (t *attrTable) editMap(events []string, props map[string]string) ([]string, Props) {
	var buf [32]string
	pairs := buf[:0]
	for n, v := range props {
		pairs = append(pairs, n, v)
	}
	return t.edit(events, Props{}, pairs, nil)
}

// appendAttrs spells a canonical attribute set — events sorted and
// distinct, then base's properties merged with kv's, sorted and distinct,
// less dels', sorted — as the event count, then each event, name and value
// after its length, the numbers 4 bytes little-endian.  It returns where
// the properties begin.
func appendAttrs(b []byte, evs []string, base Props, kv []attrPair, dels []string) ([]byte, int) {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(evs)))
	for _, e := range evs {
		b = appendSized(b, e)
	}
	evEnd := len(b)
	for r := base.s; len(r) > 0 || len(kv) > 0; {
		var n, v, rest string
		if len(r) > 0 {
			n, rest = nextSized(r)
			v, rest = nextSized(rest)
		}
		switch {
		case len(kv) == 0 || len(r) > 0 && n < kv[0].name:
			r = rest
		default:
			if len(r) > 0 && n == kv[0].name {
				r = rest
			}
			n, v, kv = kv[0].name, kv[0].value, kv[1:]
		}
		for len(dels) > 0 && dels[0] < n {
			dels = dels[1:]
		}
		if len(dels) == 0 || dels[0] != n {
			b = appendSized(appendSized(b, n), v)
		}
	}
	return b, evEnd
}

func appendSized(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}
