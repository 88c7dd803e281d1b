package meta

import (
	"fmt"
	"slices"
	"sort"
)

// Configuration is a lightweight set of database addresses referencing OIDs
// and Links (section 2 of the paper).  It combines a version history of
// different data blocks into one instance — "a higher level of description
// of data across time".  Configurations can snapshot the design hierarchy at
// a step of the design cycle, or store the result of a volume query as a
// non-hierarchical set of data.
//
// A Configuration is immutable once created.  Because it stores addresses
// rather than copies, resolving it after later mutations may find that some
// referenced links were deleted or retargeted; Resolve reports both what was
// captured and what still exists.
type Configuration struct {
	Name string

	// Seq is the logical time at which the snapshot was taken.
	Seq int64

	// OIDs and Links are the stored database addresses, sorted for
	// deterministic iteration.
	OIDs  []Key
	Links []LinkID
}

// Contains reports whether the configuration references the OID.
func (c *Configuration) Contains(k Key) bool {
	i := sort.Search(len(c.OIDs), func(i int) bool { return !c.OIDs[i].Less(k) })
	return i < len(c.OIDs) && c.OIDs[i] == k
}

func (c *Configuration) clone() *Configuration {
	cc := &Configuration{Name: c.Name, Seq: c.Seq}
	cc.OIDs = append([]Key(nil), c.OIDs...)
	cc.Links = append([]LinkID(nil), c.Links...)
	return cc
}

// FollowFunc decides whether a hierarchy traversal should cross a link.
// The traversal hands it every link incident to a visited OID.
type FollowFunc func(*Link) bool

// FollowUseLinks follows only use (hierarchy) links, downward.
func FollowUseLinks(l *Link) bool { return l.Class == UseLink }

// FollowAllLinks follows every link.
func FollowAllLinks(*Link) bool { return true }

// FollowType returns a FollowFunc that follows use links plus derive links
// whose TYPE property is one of the given types.
func FollowType(types ...string) FollowFunc {
	set := make(map[string]bool, len(types))
	for _, t := range types {
		set[t] = true
	}
	return func(l *Link) bool {
		return l.Class == UseLink || set[l.Type()]
	}
}

// SnapshotHierarchy builds a Configuration by traversing links downward
// (From→To) starting at root, following the links admitted by follow.
// This is the paper's "built by traversing a hierarchy while following
// certain rules".
//
// The traversal runs against a pinned read view — no shard lock is taken
// for the collection phase, so snapshots proceed while writers keep
// committing; the install itself is a short control-plane critical section.
func (db *DB) SnapshotHierarchy(name string, root Key, follow FollowFunc) (*Configuration, error) {
	if follow == nil {
		follow = FollowUseLinks
	}
	v := db.ReadView()
	defer v.Close()
	if !v.HasOID(root) {
		return nil, fmt.Errorf("root %v: %w", root, ErrNotFound)
	}
	c := &Configuration{Name: name, Seq: v.Seq()}
	visited := map[Key]bool{root: true}
	linkSeen := map[LinkID]bool{}
	queue := []Key{root}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		c.OIDs = append(c.OIDs, k)
		for _, l := range v.posting(k).out {
			if !follow(l) {
				continue
			}
			if !linkSeen[l.ID] {
				linkSeen[l.ID] = true
				c.Links = append(c.Links, l.ID)
			}
			if !visited[l.To] {
				visited[l.To] = true
				queue = append(queue, l.To)
			}
		}
	}
	return db.installNewConfig(c)
}

// installNewConfig finishes a freshly collected configuration: it sorts
// the members into the canonical order and installs through installConfig
// like a replayed record does.
func (db *DB) installNewConfig(c *Configuration) (*Configuration, error) {
	sortKeys(c.OIDs)
	slices.Sort(c.Links)
	if err := db.installConfig(c); err != nil {
		return nil, err
	}
	return c.clone(), nil
}

// SnapshotQuery builds a Configuration from the OIDs accepted by pred — the
// paper's "result of a query ... a non-hierarchical set of data".  Links
// whose both endpoints are selected are included.
func (db *DB) SnapshotQuery(name string, pred func(*OID) bool) (*Configuration, error) {
	v := db.ReadView()
	defer v.Close()
	c := &Configuration{Name: name, Seq: v.Seq()}
	selected := make(map[Key]bool)
	v.EachOID(func(o *OID) bool {
		if pred(o) {
			selected[o.Key] = true
			c.OIDs = append(c.OIDs, o.Key)
		}
		return true
	})
	v.EachLink(func(l *Link) bool {
		if selected[l.From] && selected[l.To] {
			c.Links = append(c.Links, l.ID)
		}
		return true
	})
	return db.installNewConfig(c)
}

// SnapshotAsOf builds a Configuration that reconstructs the design as it
// stood at logical time seq: for every version chain, the newest version
// whose creation time is not later than seq, plus every link that existed
// by then between two captured OIDs.  This is the "higher level of
// description of data across time" of section 2 — the configuration
// mechanism combining a version history of different blocks into one
// instance.
func (db *DB) SnapshotAsOf(name string, seq int64) (*Configuration, error) {
	v := db.ReadView()
	defer v.Close()
	c := &Configuration{Name: name, Seq: seq}
	selected := make(map[Key]bool)
	v.eachChain(func(bv BlockView, chain []int) bool {
		// Chains are ascending in version and creation order; pick the
		// newest version created at or before seq.
		var pick Key
		for _, ver := range chain {
			k := Key{Block: bv.Block, View: bv.View, Version: ver}
			if x, ok := v.shard(k.Block).oids.at(k, v.lsn); ok && x.seq <= seq {
				pick = k
			}
		}
		if !pick.IsZero() {
			selected[pick] = true
			c.OIDs = append(c.OIDs, pick)
		}
		return true
	})
	v.EachLink(func(l *Link) bool {
		if l.Seq <= seq && selected[l.From] && selected[l.To] {
			c.Links = append(c.Links, l.ID)
		}
		return true
	})
	return db.installNewConfig(c)
}

// DeleteConfiguration removes a stored configuration.
func (db *DB) DeleteConfiguration(name string) error {
	db.ctl.Lock()
	defer db.ctl.Unlock()
	h := db.store.Load().ctl
	if _, ok := h.configs.at(name, newest); !ok {
		return fmt.Errorf("configuration %q: %w", name, ErrNotFound)
	}
	s := db.beginMut(OpDelConfig, 0, func() []string { return []string{name} })
	h.configs.push(name, s, nil, true)
	db.endMut(s)
	return nil
}

// ResolvedConfiguration is the materialization of a Configuration against
// the current database contents.
type ResolvedConfiguration struct {
	Config *Configuration

	// OIDs holds deep copies of the referenced OIDs that still exist.
	OIDs []*OID

	// Links holds deep copies of the referenced links that still exist.
	Links []*Link

	// MissingOIDs and MissingLinks are addresses that no longer resolve
	// (deleted since the snapshot).
	MissingOIDs  []Key
	MissingLinks []LinkID
}
