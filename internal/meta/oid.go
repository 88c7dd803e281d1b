package meta

import "sort"

// Well-known property names.  The paper notes that "certain generic property
// names are strongly recommended" even though most names are chosen by the
// project administrator.
const (
	// PropOwner records the designer responsible for the OID; the run-time
	// engine exposes it to rules as $owner.
	PropOwner = "owner"

	// PropState is the conventional name of the continuous assignment that
	// summarizes an OID's design state, e.g.
	// let state = ($drc_result == good) and ($uptodate == true).
	PropState = "state"
)

// OID is a meta-data object: the database-side representative of one version
// of one design view of one block.  Properties carry the design state (e.g.
// DRC = ok, sim_result = "4 errors").
//
// OIDs are owned by a DB; mutate them only through DB methods so that index
// maintenance and locking stay correct.
type OID struct {
	Key   Key
	Props map[string]string

	// Seq is the logical creation timestamp: a database-wide counter that
	// totally orders object creation.  Configurations use it to interpret
	// "state of the design at snapshot time".
	Seq int64
}

// clone returns a deep copy, used by snapshot resolution so callers can not
// mutate database internals.
func (o *OID) clone() *OID {
	c := &OID{Key: o.Key, Seq: o.Seq, Props: make(map[string]string, len(o.Props))}
	for k, v := range o.Props {
		c.Props[k] = v
	}
	return c
}

// Prop returns the value of a property and whether it is set.
func (o *OID) Prop(name string) (string, bool) {
	v, ok := o.Props[name]
	return v, ok
}

// PropNames returns the property names in sorted order, for deterministic
// reports and persistence.
func (o *OID) PropNames() []string {
	names := make([]string, 0, len(o.Props))
	for n := range o.Props {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
