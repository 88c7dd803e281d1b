package meta

// Query helpers.  Designers "retrieve the state of the project by performing
// queries" (section 1); these are the volume-query primitives the higher
// level state package builds on.  Each pins a ReadView and runs the walk
// there (graphview.go): adjacency resolves through the versioned
// reachability index without touching a shard or stripe lock, and the
// answer is one consistent graph.  Callers that ask several questions of
// one instant pin the view themselves.  Every walk (including Resolve)
// returns nil for a root that does not exist.

// EachOID invokes fn for every OID of the current state, in unspecified
// order, until fn returns false.  The *OID is reused across calls: fn must
// not retain it, though it may retain Props (immutable).
func (db *DB) EachOID(fn func(*OID) bool) {
	v := db.ReadView()
	defer v.Close()
	v.EachOID(fn)
}

// Reachable returns the set of keys reachable from root by traversing links
// downward (From→To) through links admitted by follow, including root
// itself.  It is the query primitive behind hierarchy snapshots and
// transitive-dependency analyses.
func (db *DB) Reachable(root Key, follow FollowFunc) []Key {
	v := db.ReadView()
	defer v.Close()
	return v.Reachable(root, follow)
}

// Dependents returns the downstream closure of root: every OID reachable by
// repeatedly following admitted links From→To.  This is the set of data
// invalidated when root changes.  root itself is excluded; a root that does
// not exist returns nil, matching Reachable and Equivalents.
func (db *DB) Dependents(root Key, follow FollowFunc) []Key {
	v := db.ReadView()
	defer v.Close()
	return v.Dependents(root, follow)
}

// Equivalents returns the transitive set of OIDs tied to k by derive links
// whose TYPE property is "equivalence" — the equivalence plane of Katz's
// version server, which the paper's link types reference.  Links are
// followed in both directions; k itself is included.
func (db *DB) Equivalents(k Key) []Key {
	v := db.ReadView()
	defer v.Close()
	return v.Equivalents(k)
}
