package meta

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Tests for versioning as a property of the database rather than a mode:
// a plain NewDB answers ReadViewAt for every stamp since construction, and
// a loaded database's genesis is the loaded content.

// mutationProgram draws a program of single-mutation steps from the seed.
// Every random number is drawn here, and a step resolves its operands
// against sorted enumerations of the database it is handed, so the same
// prefix of steps takes any two databases through the same states.  A step
// that fails (a pruned endpoint, a taken name) is part of the program.
func mutationProgram(seed int64) []func(*DB) {
	rng := rand.New(rand.NewSource(seed))
	blocks := []string{"cpu", "alu", "reg", "mmu"}
	views := []string{"HDL_model", "schematic"}
	key := func(db *DB, r int) Key {
		if keys := db.Head().Keys(); len(keys) > 0 {
			return keys[r%len(keys)]
		}
		return Key{Block: "none", View: "none", Version: 1}
	}
	link := func(db *DB, r int) LinkID {
		if ids := db.Head().LinkIDs(); len(ids) > 0 {
			return ids[r%len(ids)]
		}
		return 0
	}
	var steps []func(*DB)
	for i, n := 0, rng.Intn(40)+10; i < n; i++ {
		a, b, c := rng.Intn(1<<20), rng.Intn(1<<20), rng.Intn(1<<20)
		name := fmt.Sprintf("n%d", i)
		switch op := rng.Intn(16); {
		case op < 4 || i < 4:
			steps = append(steps, func(db *DB) { _, _ = db.NewVersion(blocks[a%len(blocks)], views[b%len(views)]) })
		case op < 6:
			steps = append(steps, func(db *DB) { _ = db.SetProp(key(db, a), fmt.Sprintf("p%d", b%3), fmt.Sprint(c%4)) })
		case op == 6:
			steps = append(steps, func(db *DB) { _ = db.DelProp(key(db, a), fmt.Sprintf("p%d", b%3)) })
		case op == 7:
			steps = append(steps, func(db *DB) {
				_ = db.UpdateOID(key(db, a), func(o *OID) {
					o.Props["p0"] = fmt.Sprint(b % 4)
					delete(o.Props, "p1")
				})
			})
		case op < 11:
			steps = append(steps, func(db *DB) {
				var props map[string]string
				if c%3 == 0 {
					props = map[string]string{PropType: TypeEquivalence}
				}
				_, _ = db.AddLink(DeriveLink, key(db, a), key(db, b), "t", []string{"outofdate"}, props)
			})
		case op == 11:
			steps = append(steps, func(db *DB) {
				switch id := link(db, a); b % 4 {
				case 0:
					_ = db.DeleteLink(id)
				case 1:
					if l, err := db.Head().GetLink(id); err == nil {
						_ = db.RetargetLink(id, l.To, key(db, c))
					}
				case 2:
					_ = db.SetLinkProp(id, "note", name)
				case 3:
					_ = db.SetLinkPropagates(id, nil)
				}
			})
		case op == 12:
			steps = append(steps, func(db *DB) {
				k := key(db, a)
				_, _ = db.PruneVersions(k.Block, k.View, 1)
			})
		case op == 13:
			steps = append(steps, func(db *DB) {
				if b%2 == 0 {
					_, _ = db.SnapshotHierarchy(name, key(db, a), FollowAllLinks)
				} else {
					_, _ = db.SnapshotQuery(name, func(o *OID) bool { return o.Key.View == views[c%len(views)] })
				}
			})
		case op == 14:
			steps = append(steps, func(db *DB) {
				if names := db.Head().ConfigurationNames(); len(names) > 0 {
					_ = db.DeleteConfiguration(names[a%len(names)])
				}
			})
		default:
			steps = append(steps, func(db *DB) {
				if names := db.Head().WorkspaceNames(); len(names) > 0 && b%3 > 0 {
					_ = db.BindPath(names[a%len(names)], key(db, c), name)
				} else {
					_ = db.AddWorkspace(name, "/proj/"+name)
				}
			})
		}
	}
	return steps
}

// liveReadsEqualView: every read of the head of a quiescent database
// answers what the same read answers on a view pinned right after it —
// object for object, and the postings member for member, in order.
func liveReadsEqualView(db *DB) error {
	h, v := db.Head(), db.ReadView()
	defer v.Close()
	keys := h.Keys()
	if !slices.Equal(keys, v.Keys()) {
		return fmt.Errorf("Keys %v, the view's %v", keys, v.Keys())
	}
	if live, at := h.Stats(), v.Stats(); live != at {
		return fmt.Errorf("Stats %+v, the view's %+v", live, at)
	}
	sameLinks := func(what string, k Key, live, at []*Link) error {
		if len(live) != len(at) {
			return fmt.Errorf("%s(%v): %d links, the view's %d", what, k, len(live), len(at))
		}
		for i := range live {
			if a, b := linkArgs(live[i]), linkArgs(at[i]); !slices.Equal(a, b) {
				return fmt.Errorf("%s(%v)[%d]: %v, the view's %v", what, k, i, a, b)
			}
		}
		return nil
	}
	for _, k := range keys {
		live, err := h.GetOID(k)
		at, verr := v.GetOID(k)
		if err != nil || verr != nil || live.Seq != at.Seq || !maps.Equal(live.Props, at.Props) {
			return fmt.Errorf("GetOID(%v): %+v %v, the view's %+v %v", k, live, err, at, verr)
		}
		latest, err := h.Latest(k.Block, k.View)
		if vl, verr := v.Latest(k.Block, k.View); err != nil || verr != nil || latest != vl {
			return fmt.Errorf("Latest(%v): %v %v, the view's %v %v", k.BV(), latest, err, vl, verr)
		}
		if versions, at := h.Versions(k.Block, k.View), v.Versions(k.Block, k.View); !slices.Equal(versions, at) {
			return fmt.Errorf("Versions(%v): %v, the view's %v", k.BV(), versions, at)
		}
		if err := sameLinks("out", k, h.posting(k).out, v.posting(k).out); err != nil {
			return err
		}
		if err := sameLinks("in", k, h.posting(k).in, v.posting(k).in); err != nil {
			return err
		}
		if err := sameLinks("LinksOf", k, h.LinksOf(k), v.LinksOf(k)); err != nil {
			return err
		}
	}
	ids := h.LinkIDs()
	if !slices.Equal(ids, v.LinkIDs()) {
		return fmt.Errorf("LinkIDs %v, the view's %v", ids, v.LinkIDs())
	}
	for _, id := range ids {
		live, err := h.GetLink(id)
		at, verr := v.GetLink(id)
		if err != nil || verr != nil || !slices.Equal(linkArgs(live), linkArgs(at)) {
			return fmt.Errorf("GetLink(%d): %+v %v, the view's %+v %v", id, live, err, at, verr)
		}
	}
	names := h.ConfigurationNames()
	if !slices.Equal(names, v.ConfigurationNames()) {
		return fmt.Errorf("ConfigurationNames %v, the view's %v", names, v.ConfigurationNames())
	}
	for _, name := range names {
		live, err := h.GetConfiguration(name)
		at, verr := v.GetConfiguration(name)
		if err != nil || verr != nil || !slices.Equal(configArgs(live), configArgs(at)) {
			return fmt.Errorf("GetConfiguration(%q): %+v %v, the view's %+v %v", name, live, err, at, verr)
		}
	}
	names = h.WorkspaceNames()
	if !slices.Equal(names, v.WorkspaceNames()) {
		return fmt.Errorf("WorkspaceNames %v, the view's %v", names, v.WorkspaceNames())
	}
	for _, name := range names {
		live, err := h.GetWorkspace(name)
		at, verr := v.GetWorkspace(name)
		if err != nil || verr != nil || live.Root != at.Root || !maps.Equal(live.paths, at.paths) {
			return fmt.Errorf("GetWorkspace(%q): %+v %v, the view's %+v %v", name, live, err, at, verr)
		}
	}
	return nil
}

// TestQuickPlainViewEqualsReplay is view == replay-up-to-LSN on a database
// that never saw a journal: after a random program on NewDBWithShards(n),
// the view pinned at the stamp each step left behind saves to the bytes —
// and walks to the fingerprint — of a fresh database that ran only the
// steps up to there; and after every step the live reads are the reads of
// a view pinned then (liveReadsEqualView).
func TestQuickPlainViewEqualsReplay(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		f := func(seed int64) bool {
			steps := mutationProgram(seed)
			db := NewDBWithShards(shards)
			stamps := make([]int64, len(steps))
			for i, step := range steps {
				step(db)
				stamps[i] = db.mvcc.epoch.Load()
				if err := liveReadsEqualView(db); err != nil {
					t.Logf("shards=%d seed=%d: after step %d: %v", shards, seed, i, err)
					return false
				}
			}
			for i := range steps {
				if i+1 < len(steps) && stamps[i+1] == stamps[i] {
					continue // the next step failed: same stamp, compared there
				}
				replay := NewDBWithShards(shards)
				for _, step := range steps[:i+1] {
					step(replay)
				}
				v, err := db.ReadViewAt(stamps[i])
				if err != nil {
					t.Logf("shards=%d seed=%d: ReadViewAt(%d): %v", shards, seed, stamps[i], err)
					return false
				}
				got, want := viewSave(t, v), saveDB(t, replay)
				rv := replay.ReadView()
				roots := replay.Head().Keys()
				gotWalk, wantWalk := walkFingerprint(v, roots), walkFingerprint(rv, roots)
				rv.Close()
				v.Close()
				if !bytes.Equal(got, want) {
					t.Logf("shards=%d seed=%d: view at stamp %d (step %d) differs from the replay:\n%s",
						shards, seed, stamps[i], i, firstDiff(got, want))
					return false
				}
				if gotWalk != wantWalk {
					t.Logf("shards=%d seed=%d: walks at stamp %d (step %d) differ from the replay:\nview:   %s\nreplay: %s",
						shards, seed, stamps[i], i, gotWalk, wantWalk)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}

// TestQuickLoadSeals: Save(Load(doc)) == doc, a view pinned on the loaded
// database sees the loaded content (and keeps seeing it under later
// writes), and the first update of a loaded OID diffs against the loaded
// properties — the loaded versions are the database from the start.
func TestQuickLoadSeals(t *testing.T) {
	f := func(seed int64) bool {
		src := NewDBWithShards(4)
		for _, step := range mutationProgram(seed) {
			step(src)
		}
		if seed%2 == 0 {
			// A promotion the document must carry through the seal.
			if err := src.applyTermBump(2, src.mvcc.epoch.Load()/2+1); err != nil {
				t.Fatal(err)
			}
		}
		doc := saveDB(t, src)
		for _, shards := range []int{1, 4, 64} {
			db, err := LoadShards(bytes.NewReader(doc), shards)
			if err != nil {
				t.Logf("seed %d: load: %v", seed, err)
				return false
			}
			if got := saveDB(t, db); !bytes.Equal(got, doc) {
				t.Logf("seed %d shards %d: Save(Load(doc)) != doc:\n%s", seed, shards, firstDiff(got, doc))
				return false
			}
			if live := oracleLive(t, db); !bytes.Equal(live, doc) {
				t.Logf("seed %d shards %d: live reads != doc:\n%s", seed, shards, firstDiff(live, doc))
				return false
			}
			pinned := db.ReadView()
			sv := src.ReadView()
			same := walkFingerprint(pinned, src.Head().Keys()) == walkFingerprint(sv, src.Head().Keys())
			sv.Close()
			if !same {
				t.Logf("seed %d shards %d: walks on the loaded database differ from the source's", seed, shards)
				return false
			}
			for i, k := range db.Head().Keys() {
				o, _ := db.Head().GetOID(k)
				switch i % 3 {
				case 0:
					// Rewriting what is already there is no change.
					before := db.mvcc.epoch.Load()
					_ = db.UpdateOID(k, func(live *OID) {
						for n, v := range o.Props {
							live.Props[n] = v
						}
					})
					if e := db.mvcc.epoch.Load(); e != before {
						t.Logf("seed %d shards %d: a no-op update of loaded %v published a version", seed, shards, k)
						return false
					}
					_ = db.UpdateOID(k, func(live *OID) { live.Props["fresh"] = "1" })
				case 1:
					if err := db.SetProp(k, "fresh", "1"); err != nil {
						t.Fatal(err)
					}
				case 2:
					for _, n := range o.PropNames() {
						if err := db.DelProp(k, n); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if got := viewSave(t, pinned); !bytes.Equal(got, doc) {
				t.Logf("seed %d shards %d: the view pinned at load changed under writes", seed, shards)
				return false
			}
			pinned.Close()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FuzzLoad: a hostile snapshot document either fails to load or yields a
// database whose pinned view agrees with its live reads and whose Save
// re-loads to the same bytes — never a panic, never a database that reads
// differently through a view than through the live API.  (The first
// Save may differ from the input: the decoder is lenient about spelling.)
func FuzzLoad(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seq":3,"next_link":1,"oids":[{"block":"a","view":"v","version":2,"seq":1,"props":{"p":"x"}},{"block":"b","view":"v","version":1,"seq":2}],` +
		`"links":[{"id":1,"class":"derive","from":"a,v,2","to":"b,v,1","propagates":["e"],"seq":3}],` +
		`"configurations":[{"name":"c","seq":3,"oids":["a,v,2"],"links":[1]}],"workspaces":[{"name":"w","root":"/r","paths":{"a,v,2":"p"}}],` +
		`"terms":[{"term":2,"lsn":7}]}`))
	f.Add([]byte(`{"seq":1} garbage`))
	f.Add([]byte(`{"seq":1,"SEQ":7,"seq":5,"future":[{"a":[1.5e3,null,true]},"\ud83d\ude00\u00e9"]}`))
	f.Add([]byte("{\"oids\":[{\"block\":\"\\ud83dx\xff\",\"view\":\"v\",\"version\":1,\"props\":{\"p\":null}}],\"links\":null}"))
	f.Fuzz(func(t *testing.T, doc []byte) { loadFixedPoint(t, doc, DefaultShards) })
}

// BenchmarkNewDB is the price of construction: an empty database is its own
// genesis, so versioning from construction adds nothing here.
func BenchmarkNewDB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if db := NewDB(); db.mask == 0 {
			b.Fatal("no shards")
		}
	}
}
