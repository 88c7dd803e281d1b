package meta

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
// maintenance and locking stay correct.  Props is immutable: a reader may
// keep it.
type OID struct {
	Key   Key
	Props Props

	// Seq is the logical creation timestamp: a database-wide counter that
	// totally orders object creation.  Configurations use it to interpret
	// "state of the design at snapshot time".
	Seq int64
}
