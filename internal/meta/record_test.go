package meta

import (
	"bytes"
	"errors"
	"testing"
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
// a fresh database and expects the canonical Save documents to match —
// the in-memory form of the journal's recovery contract.
func TestRecorderCapturesEveryMutationClass(t *testing.T) {
	rec := &sliceRecorder{}
	db := NewDB()
	db.SetRecorder(rec)

	root, nl := buildHierarchy(t, db)
	if err := db.SetProp(root, "uptodate", "true"); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateOID(nl, func(o *OID) {
		o.Props["sim_result"] = "good"
		o.Props["tmp"] = "x"
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.DelProp(nl, "tmp"); err != nil {
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

	db2 := NewDBWithShards(4)
	for i, r := range rec.recs {
		r.LSN = int64(i + 1)
		if err := db2.ApplyRecord(r); err != nil {
			t.Fatalf("apply record %d (%s): %v", i, r.Op, err)
		}
	}
	var a, b bytes.Buffer
	if err := db.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := db2.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("replayed database differs:\n--- original\n%s\n--- replayed\n%s", a.String(), b.String())
	}
}

// TestRecorderSilentOnNoChange checks the no-op paths emit nothing: an
// UpdateOID that changes nothing, deleting an absent property, a failed
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

	if err := db.UpdateOID(k, func(o *OID) { _ = o.Props["absent"] }); err != nil {
		t.Fatal(err)
	}
	if err := db.DelProp(k, "absent"); err != nil {
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
	if err := db.UpdateOID(k, func(o *OID) {
		o.Props["x"] = "2"
		o.Props["x"] = "1"
	}); err != nil {
		t.Fatal(err)
	}
	if got := rec.ops()[n:]; len(got) != 0 {
		t.Errorf("reverted update emitted records: %v", got)
	}

	// The exact component rebuild audits derived state: with a recorder
	// attached it used to call a nil argument builder under every lock.
	db.RebuildComponents()
	if got := rec.ops()[n:]; len(got) != 0 {
		t.Errorf("component rebuild emitted records: %v", got)
	}
	if err := db.SetProp(k, "x", "3"); err != nil { // every lock is free again
		t.Fatal(err)
	}
}

// TestApplyRecordRejectsMalformed checks decoding failures and state
// contradictions are loud errors.
func TestApplyRecordRejectsMalformed(t *testing.T) {
	cases := map[string]Record{
		"unknown op":     {Op: "warp", Args: []string{"x"}},
		"oid bad key":    {Op: OpOID, Args: []string{"nokey", "1"}},
		"oid bad seq":    {Op: OpOID, Args: []string{"a,v,1", "NaN"}},
		"oid few args":   {Op: OpOID, Args: []string{"a,v,1"}},
		"update missing": {Op: OpUpdate, Args: []string{"a,v,1", "1", "p", "v"}},
		"update count":   {Op: OpUpdate, Args: []string{"a,v,1", "9", "p"}},
		"link bad id":    {Op: OpLink, Args: []string{"x", "use", "a,v,1", "b,v,1", "", "1", "0"}},
		"dellink absent": {Op: OpDelLink, Args: []string{"7"}},
		"prune absent":   {Op: OpPrune, Args: []string{"a", "v", "1"}},
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
}

// TestApplyRecordEventIsAuditOnly checks the engine's posted-event stream
// replays as a no-op.
func TestApplyRecordEventIsAuditOnly(t *testing.T) {
	db := NewDB()
	if err := db.ApplyRecord(Record{Op: OpEvent, Seq: 9,
		Args: []string{"ckin", "up", "a,v,1", "yves", "note"}}); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.OIDs != 0 || s.Links != 0 {
		t.Errorf("event record mutated the database: %+v", s)
	}
	if db.Seq() != 9 {
		t.Errorf("event record did not floor the clock: seq=%d", db.Seq())
	}
}
