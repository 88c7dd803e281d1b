package meta

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"unsafe"
)

// sliceRecorder accumulates emitted records for inspection, assigning
// consecutive LSNs like the journal writer does.
type sliceRecorder struct{ recs []Record }

func (r *sliceRecorder) Record(rec Record) int64 {
	rec.LSN = int64(len(r.recs) + 1)
	r.recs = append(r.recs, rec)
	return rec.LSN
}

func (r *sliceRecorder) ops() []string {
	out := make([]string, len(r.recs))
	for i, rec := range r.recs {
		out[i] = rec.Op
	}
	return out
}

// TestRecorderCapturesEveryMutationClass replays a recorder's stream into
// a fresh database and expects the two checkpoints to match —
// the in-memory form of the journal's recovery contract.
func TestRecorderCapturesEveryMutationClass(t *testing.T) {
	rec := &sliceRecorder{}
	db := NewDB()
	db.SetRecorder(rec)

	root, nl := buildHierarchy(t, db)
	if err := db.SetProp(root, "uptodate", "true"); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateOID(nl, func(props map[string]string) {
		props["sim_result"] = "good"
		props["tmp"] = "x"
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateOID(nl, func(props map[string]string) { delete(props, "tmp") }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SnapshotHierarchy("snap", root, FollowAllLinks); err != nil {
		t.Fatal(err)
	}
	if err := db.AddWorkspace("ws", "/proj"); err != nil {
		t.Fatal(err)
	}
	if err := db.BindPath("ws", root, "p/1"); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	for i, r := range rec.recs {
		r.LSN = int64(i + 1)
		if err := db2.ApplyRecord(r); err != nil {
			t.Fatalf("apply record %d (%s): %v", i, r.Op, err)
		}
	}
	if a, b := dbText(t, db), dbText(t, db2); !bytes.Equal(a, b) {
		t.Errorf("replayed database differs:\n--- original\n%s\n--- replayed\n%s", a, b)
	}
}

// TestApplyRecordKeepsNoString replays a record of every op with its
// strings over one buffer, overwritten after each apply, as recovery's
// frame window is: the replayed database must still checkpoint like the original
// — nothing it keeps may be the buffer's bytes — and an event record must
// cost no allocation.
func TestApplyRecordKeepsNoString(t *testing.T) {
	rec := &sliceRecorder{}
	db := NewDB()
	db.SetRecorder(rec)
	root, nl := buildHierarchy(t, db)
	mustDo := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustDo(db.SetProp(root, "uptodate", "true"))
	mustDo(db.SetProp(nl, "sim_result", "a value longer than the interner keeps one copy of"))
	ids := db.Head().LinkIDs()
	if _, err := db.AddLink(DeriveLink, nl, root, "one-off", []string{"lvs", "ckin"}, map[string]string{"note": "one-off"}); err != nil {
		t.Fatal(err)
	}
	next := mustNewVersion(t, db, root.Block, root.View)
	mustDo(db.RetargetLink(ids[0], root, next))
	for _, name := range []string{"snap", "gone"} {
		if _, err := db.SnapshotHierarchy(name, next, FollowAllLinks); err != nil {
			t.Fatal(err)
		}
	}
	mustDo(db.DeleteConfiguration("gone"))
	mustDo(db.AddWorkspace("ws", "/proj"))
	mustDo(db.BindPath("ws", next, "p/1"))
	rec.recs = append(rec.recs, Record{Op: OpEvent, Args: []string{"ckin", "down", next.String(), "yves"}})

	replayed := NewDB()
	buf := make([]byte, 0, 1<<12)
	at := func(s string) string {
		off := len(buf)
		buf = append(buf, s...)
		return unsafe.String(unsafe.SliceData(buf[off:]), len(s))
	}
	ops := map[string]bool{}
	for i, r := range rec.recs {
		buf = buf[:0]
		r.LSN, r.Op = int64(i+1), at(r.Op)
		args := make([]string, len(r.Args))
		for j, a := range r.Args {
			args[j] = at(a)
		}
		r.Args = args
		if err := replayed.ApplyRecord(r); err != nil {
			t.Fatalf("apply record %d (%s): %v", i, r.Op, err)
		}
		ops[rec.recs[i].Op] = true
		for j := range buf {
			buf[j] = '#'
		}
	}
	for _, op := range []string{OpOID, OpUpdate, OpLink, OpRetarget, OpConfig, OpDelConfig, OpWorkspace, OpBind, OpEvent} {
		if !ops[op] {
			t.Errorf("no %s record replayed", op)
		}
	}
	if got, want := dbText(t, replayed), dbText(t, db); !bytes.Equal(got, want) {
		t.Errorf("the database replayed from a scribbled buffer differs: %s", firstDiff(got, want))
	}

	event := rec.recs[len(rec.recs)-1]
	event.LSN = int64(len(rec.recs))
	if n := testing.AllocsPerRun(100, func() { _ = replayed.ApplyRecord(event) }); n != 0 {
		t.Errorf("an event record costs %.0f allocations", n)
	}
}

// TestRecorderSilentOnNoChange checks the no-op paths emit nothing: an
// UpdateOID that changes nothing or deletes an absent property, a failed
// mutation.
func TestRecorderSilentOnNoChange(t *testing.T) {
	rec := &sliceRecorder{}
	db := NewDB()
	db.SetRecorder(rec)
	k, err := db.NewVersion("cpu", "HDL_model")
	if err != nil {
		t.Fatal(err)
	}
	n := len(rec.recs)

	if err := db.UpdateOID(k, func(props map[string]string) { _ = props["absent"] }); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateOID(k, func(props map[string]string) { delete(props, "absent") }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddLink(UseLink, k, k, "", nil, nil); err == nil {
		t.Fatal("self-link accepted")
	}
	if err := db.SetProp(k, "bad name", "x"); err == nil {
		t.Fatal("invalid property name accepted")
	}
	if got := rec.ops()[n:]; len(got) != 0 {
		t.Errorf("no-op mutations emitted records: %v", got)
	}

	// And a change that reverts within one UpdateOID emits nothing either.
	if err := db.SetProp(k, "x", "1"); err != nil {
		t.Fatal(err)
	}
	n = len(rec.recs)
	if err := db.UpdateOID(k, func(props map[string]string) {
		props["x"] = "2"
		props["x"] = "1"
	}); err != nil {
		t.Fatal(err)
	}
	if got := rec.ops()[n:]; len(got) != 0 {
		t.Errorf("reverted update emitted records: %v", got)
	}

	// Nor does setting a property to the value it has: no record, no stamp,
	// no version.
	epoch := db.mvcc.epoch.Load()
	if err := db.SetProp(k, "x", "1"); err != nil {
		t.Fatal(err)
	}
	if got := rec.ops()[n:]; len(got) != 0 || db.mvcc.epoch.Load() != epoch {
		t.Errorf("SetProp of the value already there emitted %v, epoch %d -> %d", got, epoch, db.mvcc.epoch.Load())
	}
}

// TestApplyRecordRejectsMalformed checks decoding failures, state
// contradictions and ops this package does not write are loud errors.
func TestApplyRecordRejectsMalformed(t *testing.T) {
	cases := map[string]Record{
		"unknown op":     {Op: "warp", Args: []string{"x"}},
		"oid bad key":    {Op: OpOID, Args: []string{"nokey", "1"}},
		"oid bad seq":    {Op: OpOID, Args: []string{"a,v,1", "NaN"}},
		"oid few args":   {Op: OpOID, Args: []string{"a,v,1"}},
		"update missing": {Op: OpUpdate, Args: []string{"a,v,1", "1", "p", "v"}},
		"update count":   {Op: OpUpdate, Args: []string{"a,v,1", "9", "p"}},
		"link bad id":    {Op: OpLink, Args: []string{"x", "use", "a,v,1", "b,v,1", "", "1", "0"}},
		"config count":   {Op: OpConfig, Args: []string{"c", "1", "5", "a,v,1"}},
		"bind absent ws": {Op: OpBind, Args: []string{"ws", "a,v,1", "p"}},
	}
	for name, r := range cases {
		db := NewDB()
		if err := db.ApplyRecord(r); err == nil {
			t.Errorf("%s: ApplyRecord accepted %+v", name, r)
		}
	}

	// A duplicate OID record must be a contradiction, not a merge.
	db := NewDB()
	r := Record{Op: OpOID, Args: []string{"a,v,1", "1"}}
	if err := db.ApplyRecord(r); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyRecord(r); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate oid record: err = %v, want ErrExists", err)
	}

	// Well-formed records of the link edits and the pruning that earlier
	// versions of the package journaled, each against a database where it
	// would apply: refused whole — the same document, the applied LSN where
	// it was.
	for _, r := range []Record{
		{Op: "dellink", Args: []string{"1"}},
		{Op: "linkupdate", Args: []string{"1", "1", "note", "x"}},
		{Op: "propagates", Args: []string{"1", "lvs"}},
		{Op: "prune", Args: []string{"a", "v", "1"}},
	} {
		db := NewDB()
		for i, r := range []Record{
			{Op: OpOID, Args: []string{"a,v,1", "1"}},
			{Op: OpOID, Args: []string{"a,v,2", "2"}},
			{Op: OpOID, Args: []string{"b,v,1", "3"}},
			{Op: OpLink, Args: []string{"1", "derive", "a,v,2", "b,v,1", "", "4", "1", "ckin"}},
		} {
			r.LSN, r.Seq = int64(i+1), int64(i+1)
			if err := db.ApplyRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		before := dbText(t, db)
		r.LSN, r.Seq = 5, 9
		if err := db.ApplyRecord(r); err == nil {
			t.Errorf("ApplyRecord accepted %+v", r)
		}
		if got := dbText(t, db); !bytes.Equal(got, before) {
			t.Errorf("a refused %s record changed the database: %s", r.Op, firstDiff(got, before))
		}
		if got := db.AppliedLSN(); got != 4 {
			t.Errorf("a refused %s record moved the applied LSN to %d", r.Op, got)
		}
	}
}

// TestApplyRecordEventIsAuditOnly checks the engine's posted-event stream
// replays as a no-op.
func TestApplyRecordEventIsAuditOnly(t *testing.T) {
	db := NewDB()
	if err := db.ApplyRecord(Record{Op: OpEvent, Seq: 9,
		Args: []string{"ckin", "up", "a,v,1", "yves", "note"}}); err != nil {
		t.Fatal(err)
	}
	if s := db.Head().Stats(); s.OIDs != 0 || s.Links != 0 {
		t.Errorf("event record mutated the database: %+v", s)
	}
	if db.Seq() != 9 {
		t.Errorf("event record did not floor the clock: seq=%d", db.Seq())
	}
}

// TestRefusedInsertAllocatesNothing: NewVersion, AddLink and the Snapshot*
// constructors allocate — a version, a link ID, a seq — only once nothing
// can refuse the insert.  A refused one leaves the checkpoint as it was,
// emits no record, and the next successful insert gets the ID and seq it
// would have got without the refusals in between.
func TestRefusedInsertAllocatesNothing(t *testing.T) {
	run := func(refusals bool) ([]byte, []Record) {
		db := NewDB()
		rec := &sliceRecorder{}
		db.SetRecorder(rec)
		refused := func(what string, insert func() error) {
			if !refusals {
				return
			}
			t.Helper()
			before := dbText(t, db)
			n := len(rec.recs)
			if err := insert(); err == nil {
				t.Fatalf("%s was not refused", what)
			}
			if after := dbText(t, db); !bytes.Equal(before, after) {
				t.Errorf("refused %s changed the checkpoint:\n%s\n%s", what, before, after)
			}
			if len(rec.recs) != n {
				t.Errorf("refused %s emitted %v", what, rec.recs[n:])
			}
		}
		ghost := Key{Block: "ghost", View: "SCHEMA", Version: 1}

		refused("NewVersion with a bad block", func() error { _, err := db.NewVersion("bad name", "SCHEMA"); return err })
		a := mustNewVersion(t, db, "a", "SCHEMA")
		refused("NewVersion with an empty view", func() error { _, err := db.NewVersion("a", ""); return err })
		b := mustNewVersion(t, db, "b", "SCHEMA")
		n := mustNewVersion(t, db, "b", "NETLIST")

		refused("AddLink to a missing OID", func() error { _, err := db.AddLink(UseLink, a, ghost, "", nil, nil); return err })
		refused("AddLink from a missing OID", func() error { _, err := db.AddLink(DeriveLink, ghost, a, "", []string{"ckin"}, nil); return err })
		refused("use link across views", func() error { _, err := db.AddLink(UseLink, a, n, "", nil, nil); return err })
		if id, err := db.AddLink(UseLink, a, b, "", []string{"outofdate"}, nil); err != nil || id != 1 {
			t.Fatalf("first link: id %d, %v", id, err)
		}
		refused("self link", func() error { _, err := db.AddLink(UseLink, a, a, "", nil, nil); return err })
		if id, err := db.AddLink(DeriveLink, b, n, "", nil, map[string]string{PropType: "derived"}); err != nil || id != 2 {
			t.Fatalf("second link: id %d, %v", id, err)
		}

		refused("snapshot under a bad name", func() error { _, err := db.SnapshotHierarchy("bad name", a, nil); return err })
		refused("snapshot of a missing root", func() error { _, err := db.SnapshotHierarchy("s", ghost, nil); return err })
		if _, err := db.SnapshotHierarchy("s", a, FollowAllLinks); err != nil {
			t.Fatal(err)
		}
		refused("SnapshotHierarchy under a taken name", func() error { _, err := db.SnapshotHierarchy("s", a, nil); return err })
		refused("SnapshotQuery under a taken name", func() error {
			_, err := db.SnapshotQuery("s", func(*OID) bool { return true })
			return err
		})
		refused("SnapshotAsOf under a taken name", func() error { _, err := db.SnapshotAsOf("s", db.Seq()); return err })
		mustNewVersion(t, db, "a", "SCHEMA")

		return dbText(t, db), rec.recs
	}
	wantDoc, wantRecs := run(false)
	gotDoc, gotRecs := run(true)
	if !bytes.Equal(gotDoc, wantDoc) {
		t.Errorf("checkpoint with refused inserts in between:\n%s\nwithout:\n%s", gotDoc, wantDoc)
	}
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Errorf("records with refused inserts in between:\n%v\nwithout:\n%v", gotRecs, wantRecs)
	}
}
