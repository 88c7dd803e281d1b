package meta

import "fmt"

// Workspace models a data repository associated with the meta-database.
// DAMOCLES "manages data repositories, called workspaces, by associating
// them to a meta-database".  The workspace maps OIDs to storage locations
// (paths in the repository); the design data itself lives outside the
// meta-database.
type Workspace struct {
	Name string

	// Root is the repository location, e.g. a directory path.
	Root string

	// paths maps an OID to its location relative to Root.
	paths map[Key]string
}

func (w *Workspace) clone() *Workspace {
	c := &Workspace{Name: w.Name, Root: w.Root, paths: make(map[Key]string, len(w.paths))}
	for k, p := range w.paths {
		c.paths[k] = p
	}
	return c
}

// Path returns the storage location of an OID within the workspace.
func (w *Workspace) Path(k Key) (string, bool) {
	p, ok := w.paths[k]
	return p, ok
}

// Keys returns the OIDs bound in this workspace, sorted.
func (w *Workspace) Keys() []Key {
	keys := make([]Key, 0, len(w.paths))
	for k := range w.paths {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

// AddWorkspace registers a data repository with the meta-database.
func (db *DB) AddWorkspace(name, root string) error {
	if err := ValidateName(name); err != nil {
		return fmt.Errorf("workspace: %w", err)
	}
	db.ctl.Lock()
	defer db.ctl.Unlock()
	h := db.store.Load().ctl
	if _, ok := h.workspaces.at(name, newest); ok {
		return fmt.Errorf("workspace %q: %w", name, ErrExists)
	}
	w := &Workspace{Name: name, Root: root, paths: make(map[Key]string)}
	s := db.beginMut(OpWorkspace, 0, func() []string { return []string{name, root} })
	h.workspaces.push(name, s, w, false)
	db.endMut(s)
	return nil
}

// BindPath records where an OID's design data lives inside a workspace.
func (db *DB) BindPath(workspace string, k Key, path string) error {
	db.ctl.Lock()
	defer db.ctl.Unlock()
	// k's shard lock is held from the check through the push (ctl orders
	// before the shard locks): a PruneVersions between the two would
	// journal its prune before this bind, a record replay then refuses.
	sh, kh := db.lockShard(k.Block)
	defer sh.mu.Unlock()
	h := db.store.Load().ctl
	w, ok := h.workspaces.at(workspace, newest)
	if !ok {
		return fmt.Errorf("workspace %q: %w", workspace, ErrNotFound)
	}
	if _, ok := kh.oids.at(k, newest); !ok {
		return fmt.Errorf("oid %v: %w", k, ErrNotFound)
	}
	w = w.clone() // a stored workspace is immutable
	w.paths[k] = path
	s := db.beginMut(OpBind, 0, func() []string {
		return []string{workspace, k.String(), path}
	})
	h.workspaces.push(workspace, s, w, false)
	db.endMut(s)
	return nil
}
