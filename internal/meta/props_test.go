package meta

import (
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

// mkProps is the set of the name/value pairs, made as a database makes one.
func mkProps(pairs ...string) Props {
	var t attrTable
	_, p := t.edit(nil, Props{}, pairs, nil)
	return p
}

// prop is the named property's value, "" when it is not set.
func prop(p Props, name string) string {
	v, _ := p.Get(name)
	return v
}

// randPairs is up to 24 name/value pairs, names repeating, values empty,
// long, spaced, quoted, NUL and not ASCII.
func randPairs(rng *rand.Rand) []string {
	names := []string{"a", "b", "ab", "owner", "uptodate", "lvs_res", "é", "Z", "x_1", "zz"}
	values := []string{"", "true", "false", "good", "t0b1,schematic,1 changed by yves", "\x00ÿ", "a b\"c", "é"}
	var pairs []string
	for i := rng.Intn(25); i > 0; i-- {
		v := values[rng.Intn(len(values))]
		if rng.Intn(4) == 0 {
			v = strconv.Itoa(rng.Int())
		}
		pairs = append(pairs, names[rng.Intn(len(names))], v)
	}
	return pairs
}

// mapOf is the map the pairs fill in order.
func mapOf(pairs []string) map[string]string {
	m := map[string]string{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i]] = pairs[i+1]
	}
	return m
}

// agrees reports whether p reads as m does: Get, Len and Each, Each in name
// order.
func agrees(t *testing.T, p Props, m map[string]string) bool {
	t.Helper()
	if p.Len() != len(m) {
		t.Logf("%v: Len %d, the map's %d", p, p.Len(), len(m))
		return false
	}
	for _, n := range []string{"a", "b", "ab", "owner", "uptodate", "lvs_res", "é", "Z", "x_1", "zz", "absent", ""} {
		v, ok := p.Get(n)
		if mv, mok := m[n]; v != mv || ok != mok {
			t.Logf("%v: Get(%q) = %q %v, the map's %q %v", p, n, v, ok, mv, mok)
			return false
		}
	}
	var names []string
	ok := true
	p.Each(func(n, v string) bool {
		names = append(names, n)
		ok = ok && m[n] == v
		return true
	})
	if !ok || len(names) != len(m) || !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
		t.Logf("%v: Each gave names %q", p, names)
		return false
	}
	return true
}

// TestQuickProps: a property set reads as the map filled with the same
// pairs; equal sets, however they were spelled, are equal strings; an edit
// is the map edited; and a set comes back unchanged from an update record
// and a checkpoint.
func TestQuickProps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var at attrTable
		pairs := randPairs(rng)
		m := mapOf(pairs)
		_, p := at.edit(nil, Props{}, pairs, nil)
		if !agrees(t, p, m) {
			return false
		}
		// The same set spelled otherwise: the map's pairs, shuffled, in a
		// table of their own.
		var other attrTable
		var again []string
		for n, v := range m {
			again = append(again, n, v)
		}
		if _, q := other.editMap(nil, mapOf(again)); q != p {
			t.Logf("seed %d: %v and %v are one set", seed, p, q)
			return false
		}

		// An edit is the map's: sets, then deletions.
		sets, dels := randPairs(rng), []string{}
		for i := rng.Intn(4); i > 0; i-- {
			dels = append(dels, []string{"a", "owner", "zz", "absent"}[rng.Intn(4)])
		}
		_, e := at.edit(nil, p, sets, dels)
		want := mapOf(append(slices.Clone(pairs), sets...))
		for _, n := range dels {
			delete(want, n)
		}
		if !agrees(t, e, want) {
			return false
		}
		// propArgs spells the edit's difference, and the difference applied
		// to the set before is the set after.
		args := propArgs("k", p, e)
		ds, dd, err := parsePropArgs(args[1:])
		if _, back := at.edit(nil, p, ds, dd); err != nil || back != e {
			t.Logf("seed %d: %q applied to %v is %v, want %v (%v)", seed, args, p, back, e, err)
			return false
		}

		// Through a database: update records and a checkpoint.  The second
		// update sets and deletes.
		rec := &sliceRecorder{}
		db := NewDB()
		db.SetRecorder(rec)
		k, err := db.NewVersion("blk", "schematic")
		for _, to := range []map[string]string{m, want} {
			if err == nil {
				err = db.UpdateOID(k, func(props map[string]string) {
					clear(props)
					maps.Copy(props, to)
				})
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		replayed := NewDB()
		for _, r := range rec.recs {
			if err := replayed.ApplyRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		v := db.ReadView()
		recovered, err := loadPayloads(checkpointOf(t, v))
		v.Close()
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*DB{"record": replayed, "checkpoint": recovered} {
			o, err := got.Head().GetOID(k)
			if err != nil || o.Props != e {
				t.Logf("seed %d: %s: %v came back as %v (%v)", seed, name, e, o, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
