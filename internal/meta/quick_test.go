package meta

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Property-based tests on core meta-database invariants.

// TestQuickVersionChainsContiguous checks that any interleaving of
// NewVersion calls across several chains yields, for every chain, version
// numbers 1..n with no gaps, and that Latest always reports the count.
func TestQuickVersionChainsContiguous(t *testing.T) {
	f := func(ops []uint8) bool {
		db := NewDB()
		blocks := []string{"cpu", "reg", "alu"}
		views := []string{"HDL_model", "SCHEMA", "netlist"}
		counts := map[BlockView]int{}
		for _, op := range ops {
			b := blocks[int(op)%len(blocks)]
			v := views[int(op/3)%len(views)]
			k, err := db.NewVersion(b, v)
			if err != nil {
				return false
			}
			bv := BlockView{Block: b, View: v}
			counts[bv]++
			if k.Version != counts[bv] {
				return false
			}
		}
		for bv, n := range counts {
			vs := db.Head().Versions(bv.Block, bv.View)
			if len(vs) != n {
				return false
			}
			for i, v := range vs {
				if v != i+1 {
					return false
				}
			}
			latest, err := db.Head().Latest(bv.Block, bv.View)
			if err != nil || latest.Version != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickReachableTerminatesAndIsClosed builds random link graphs —
// including cycles — and checks that Reachable terminates, includes the
// root, and is transitively closed.
func TestQuickReachableTerminatesAndIsClosed(t *testing.T) {
	f := func(seed int64, nOIDs, nLinks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nOIDs)%20 + 2
		m := int(nLinks) % 60
		db := NewDB()
		keys := make([]Key, n)
		for i := range keys {
			k, err := db.NewVersion("b"+string(rune('a'+i%26)), "v")
			if err != nil {
				return false
			}
			keys[i] = k
		}
		for i := 0; i < m; i++ {
			from := keys[rng.Intn(n)]
			to := keys[rng.Intn(n)]
			if from == to {
				continue
			}
			// Derive links have no view constraint; ignore duplicates.
			if _, err := db.AddLink(DeriveLink, from, to, "", nil, nil); err != nil {
				return false
			}
		}
		root := keys[rng.Intn(n)]
		reach := db.Head().Reachable(root, FollowAllLinks)
		inReach := map[Key]bool{}
		for _, k := range reach {
			inReach[k] = true
		}
		if !inReach[root] {
			return false
		}
		// Closure: every link leaving a reachable OID lands in the set.
		closed := true
		for _, k := range reach {
			for _, l := range db.Head().posting(k).out {
				if !inReach[l.To] {
					closed = false
				}
			}
		}
		return closed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickSaveLoadIdempotent round-trips randomly built databases through
// Save/Load and compares observable state.
func TestQuickSaveLoadIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		var keys []Key
		for i := 0; i < rng.Intn(15)+1; i++ {
			k, err := db.NewVersion("blk"+string(rune('a'+rng.Intn(4))), "view"+string(rune('a'+rng.Intn(3))))
			if err != nil {
				return false
			}
			if rng.Intn(2) == 0 {
				if err := db.SetProp(k, "p", "v"); err != nil {
					return false
				}
			}
			keys = append(keys, k)
		}
		for i := 0; i < rng.Intn(10); i++ {
			a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
			if a == b {
				continue
			}
			if _, err := db.AddLink(DeriveLink, a, b, "t", []string{"outofdate"}, nil); err != nil {
				return false
			}
		}
		roundTripped := func(d *DB) *DB {
			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatal(err)
			}
			d2, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return d2
		}
		db2 := roundTripped(db)
		if db.Head().Stats() != db2.Head().Stats() {
			return false
		}
		k1, k2 := db.Head().Keys(), db2.Head().Keys()
		if len(k1) != len(k2) {
			return false
		}
		for i := range k1 {
			if k1[i] != k2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickShardCountInvariant builds the same randomly generated database
// under shard counts 1, 4 and 64 and checks that every query and link walk
// — including walks whose links cross shards — yields identical results.
// Shard count must be a pure performance knob.
func TestQuickShardCountInvariant(t *testing.T) {
	build := func(db *DB, rng *rand.Rand) ([]Key, bool) {
		blocks := []string{"cpu", "alu", "reg", "shifter", "dec", "mmu"}
		views := []string{"HDL_model", "schematic", "netlist"}
		var keys []Key
		for i := 0; i < rng.Intn(25)+5; i++ {
			k, err := db.NewVersion(blocks[rng.Intn(len(blocks))], views[rng.Intn(len(views))])
			if err != nil {
				return nil, false
			}
			if rng.Intn(2) == 0 {
				if err := db.SetProp(k, "p", fmt.Sprintf("v%d", rng.Intn(3))); err != nil {
					return nil, false
				}
			}
			keys = append(keys, k)
		}
		for i := 0; i < rng.Intn(30); i++ {
			a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
			if a == b {
				continue
			}
			props := map[string]string{PropType: TypeEquivalence}
			if rng.Intn(3) > 0 {
				props = nil
			}
			if _, err := db.AddLink(DeriveLink, a, b, "t", []string{"outofdate"}, props); err != nil {
				return nil, false
			}
		}
		// A couple of retargets and deletions exercise the cross-shard
		// mutation protocol too.
		ids := db.Head().LinkIDs()
		for i := 0; i < rng.Intn(4) && len(ids) > 0; i++ {
			id := ids[rng.Intn(len(ids))]
			if rng.Intn(2) == 0 {
				_ = db.DeleteLink(id)
			} else if l, err := db.Head().GetLink(id); err == nil {
				_ = db.RetargetLink(id, l.To, keys[rng.Intn(len(keys))])
			}
		}
		return keys, true
	}

	f := func(seed int64) bool {
		dbs := []*DB{NewDBWithShards(1), NewDBWithShards(4), NewDBWithShards(64)}
		var ref []Key
		for i, db := range dbs {
			keys, ok := build(db, rand.New(rand.NewSource(seed)))
			if !ok {
				return false
			}
			if i == 0 {
				ref = keys
			}
		}
		fingerprint := func(db *DB) string {
			var sb bytes.Buffer
			for _, k := range db.Head().Keys() {
				fmt.Fprintf(&sb, "K%v;", k)
			}
			var latest []string
			v := db.ReadView()
			v.EachLatestOID(func(o *OID) bool {
				latest = append(latest, fmt.Sprintf("L%v=%v;", o.Key, o.Props))
				return true
			})
			v.Close()
			sort.Strings(latest)
			fmt.Fprint(&sb, latest)
			for _, id := range db.Head().LinkIDs() {
				l, err := db.Head().GetLink(id)
				if err != nil {
					return "err"
				}
				fmt.Fprintf(&sb, "E%d:%v->%v;", id, l.From, l.To)
			}
			for _, root := range ref {
				if !db.Head().HasOID(root) {
					continue
				}
				fmt.Fprintf(&sb, "R%v=%v;", root, db.Head().Reachable(root, FollowAllLinks))
				fmt.Fprintf(&sb, "D%v=%v;", root, db.Head().Dependents(root, FollowAllLinks))
				fmt.Fprintf(&sb, "Q%v=%v;", root, db.Head().Equivalents(root))
				for _, l := range db.Head().LinksOf(root) {
					fmt.Fprintf(&sb, "O%d;", l.ID)
				}
			}
			fmt.Fprintf(&sb, "S%+v", db.Head().Stats())
			return sb.String()
		}
		want := fingerprint(dbs[0])
		for _, db := range dbs[1:] {
			if got := fingerprint(db); got != want {
				t.Logf("seed %d: shard fingerprints diverge", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
