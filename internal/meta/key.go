// Package meta implements the DAMOCLES meta-database described in section 2
// of Mathys et al., "Controlling Change Propagation and Project Policies in
// IC Design" (EDTC 1995).
//
// The meta-database stores information *about* design data, not the data
// itself.  Each design object is represented by an OID — a meta-data object
// identified by the triplet (block-name, view-type, version) — annotated
// with property/value pairs.  Relationships between design objects are
// represented by Links, which come in two classes: use links (hierarchy
// within a view) and derive links (derivation, equivalence, dependency,
// composition).  Configurations are lightweight sets of database addresses
// referencing OIDs and Links, used to snapshot the state of a design
// hierarchy across time.
package meta

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Key identifies a meta-data object (OID) by the triplet the paper uses:
// block-name, view-type and version number.  The zero Key is invalid.
type Key struct {
	Block   string
	View    string
	Version int
}

// BlockView identifies a version chain: all versions of one block in one
// view share a BlockView.
type BlockView struct {
	Block string
	View  string
}

// BV returns the version-chain identity of the key.
func (k Key) BV() BlockView { return BlockView{Block: k.Block, View: k.View} }

// String renders the key in the wire syntax used by postEvent in the paper:
// "block,view,version", e.g. "reg,verilog,4".
func (k Key) String() string {
	return k.Block + "," + k.View + "," + strconv.Itoa(k.Version)
}

// AppendTo appends the String form of the key to dst.
func (k Key) AppendTo(dst []byte) []byte {
	dst = append(dst, k.Block...)
	dst = append(dst, ',')
	dst = append(dst, k.View...)
	dst = append(dst, ',')
	return strconv.AppendInt(dst, int64(k.Version), 10)
}

// IsZero reports whether the key is the zero value.
func (k Key) IsZero() bool { return k.Block == "" && k.View == "" && k.Version == 0 }

// Less is the canonical key ordering used by every sorted listing: block,
// then view, then version.
func (k Key) Less(o Key) bool { return k.Compare(o) < 0 }

// Compare is that ordering as a three-way comparison.
func (k Key) Compare(o Key) int {
	if c := strings.Compare(k.Block, o.Block); c != 0 {
		return c
	}
	if c := strings.Compare(k.View, o.View); c != 0 {
		return c
	}
	return cmp.Compare(k.Version, o.Version)
}

// Validate checks that the key names a plausible OID: non-empty block and
// view names without separator characters, and a positive version.
func (k Key) Validate() error {
	if err := ValidateName(k.Block); err != nil {
		return fmt.Errorf("block: %w", err)
	}
	if err := ValidateName(k.View); err != nil {
		return fmt.Errorf("view: %w", err)
	}
	if k.Version < 1 {
		return fmt.Errorf("version %d: %w", k.Version, ErrBadVersion)
	}
	return nil
}

// ParseKey parses the "block,view,version" wire syntax.  The blanks around
// a part are dropped, and nothing else is: ParseKey(k.String()) is k for
// every valid key, whatever Unicode spaces its names begin or end with.
func ParseKey(s string) (Key, error) {
	const blanks = " \t\r\n"
	block, rest, ok := strings.Cut(s, ",")
	view, version, ok2 := strings.Cut(rest, ",")
	if !ok || !ok2 || strings.Contains(version, ",") {
		return Key{}, fmt.Errorf("key %q: want block,view,version: %w", s, ErrBadKey)
	}
	v, err := strconv.Atoi(strings.Trim(version, blanks))
	if err != nil {
		return Key{}, fmt.Errorf("key %q: bad version: %w", s, ErrBadKey)
	}
	k := Key{
		Block:   strings.Trim(block, blanks),
		View:    strings.Trim(view, blanks),
		Version: v,
	}
	if err := k.Validate(); err != nil {
		return Key{}, fmt.Errorf("key %q: %w", s, err)
	}
	return k, nil
}

// ValidateName checks a block or view name: non-empty and free of the
// characters the wire protocol and the BluePrint language reserve.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("empty name: %w", ErrBadName)
	}
	if strings.ContainsAny(name, ", \t\r\n\"$;=()#") {
		return fmt.Errorf("name %q contains reserved characters: %w", name, ErrBadName)
	}
	return nil
}
