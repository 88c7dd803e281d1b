package meta

import "testing"

func TestReachableAndDependents(t *testing.T) {
	db := NewDB()
	root, nl := buildHierarchy(t, db)
	reach := db.Head().Reachable(root, FollowAllLinks)
	if len(reach) != 5 {
		t.Errorf("Reachable = %v", reach)
	}
	deps := db.Head().Dependents(root, FollowAllLinks)
	if len(deps) != 4 {
		t.Errorf("Dependents = %v, want 4 (root excluded)", deps)
	}
	for _, k := range deps {
		if k == root {
			t.Error("Dependents includes root")
		}
	}
	// Leaf has no dependents.
	if got := db.Head().Dependents(nl, FollowAllLinks); len(got) != 0 {
		t.Errorf("Dependents(leaf) = %v", got)
	}
	// Missing root.
	if got := db.Head().Reachable(Key{Block: "ghost", View: "v", Version: 1}, nil); got != nil {
		t.Errorf("Reachable(ghost) = %v", got)
	}
}
