package meta

import (
	"errors"
	"reflect"
	"testing"
)

func TestWithOIDAndUpdateOID(t *testing.T) {
	db := NewDB()
	k, err := db.NewVersion("cpu", "netlist")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetProp(k, "a", "1"); err != nil {
		t.Fatal(err)
	}

	// WithOID exposes the live properties under the read lock.
	var seen map[string]string
	if err := db.Head().WithOID(k, func(o *OID) {
		seen = map[string]string{}
		o.Props.Each(func(n, v string) bool {
			seen[n] = v
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, map[string]string{"a": "1"}) {
		t.Fatalf("WithOID saw %v", seen)
	}

	// UpdateOID batches a read-modify-write; later reads observe it.
	if err := db.UpdateOID(k, func(props map[string]string) {
		if props["a"] != "1" {
			t.Errorf("UpdateOID read a=%q", props["a"])
		}
		props["a"] = "2"
		props["b"] = "3"
	}); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := db.Head().GetProp(k, "a"); v != "2" {
		t.Errorf("a = %q after UpdateOID", v)
	}
	if v, _, _ := db.Head().GetProp(k, "b"); v != "3" {
		t.Errorf("b = %q after UpdateOID", v)
	}

	missing := Key{Block: "nope", View: "v", Version: 1}
	if err := db.Head().WithOID(missing, func(*OID) {}); !errors.Is(err, ErrNotFound) {
		t.Errorf("WithOID missing: %v", err)
	}
	if err := db.UpdateOID(missing, func(map[string]string) {}); !errors.Is(err, ErrNotFound) {
		t.Errorf("UpdateOID missing: %v", err)
	}
}

func TestEachLatestOID(t *testing.T) {
	db := NewDB()
	for _, bv := range []struct {
		block    string
		versions int
	}{{"alu", 3}, {"cpu", 1}, {"reg", 2}} {
		for i := 0; i < bv.versions; i++ {
			if _, err := db.NewVersion(bv.block, "netlist"); err != nil {
				t.Fatal(err)
			}
		}
	}
	v := db.ReadView()
	defer v.Close()
	got := map[Key]bool{}
	v.EachLatestOID(func(o *OID) bool {
		got[o.Key] = true
		return true
	})
	want := map[Key]bool{
		{Block: "alu", View: "netlist", Version: 3}: true,
		{Block: "cpu", View: "netlist", Version: 1}: true,
		{Block: "reg", View: "netlist", Version: 2}: true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EachLatestOID = %v, want %v", got, want)
	}

	// Early stop.
	n := 0
	v.EachLatestOID(func(*OID) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}
