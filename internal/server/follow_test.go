package server

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// FuzzFollowFrame: whatever a FOLLOW stream line tokenizes to, decoding the
// frame never panics; an accepted frame is of exactly one kind; and an
// accepted record frame survives the primary's own encoding — the record
// re-encoded by wire.EncodeFollowRecord parses to the same record.
func FuzzFollowFrame(f *testing.F) {
	f.Add(wire.EncodeFollowRecord(7, 5, "update", []string{"cpu,HDL_model,1", "1", "note", "a b \"q\" \\"}))
	f.Add(wire.EncodeFollowRecord(1, 0, "event", nil))
	f.Add("record 9223372036854775807 -1 \"\" \"\"")
	f.Add("record 1 2")
	f.Add("record x 2 oid a,v,1 1")
	f.Add("snapshot 42 3")
	f.Add("snapshot 42 -1")
	f.Add("snapshot 42")
	f.Add("watermark 17")
	f.Add("ping 17")
	f.Add("ping 17 18")
	f.Add("health degraded journal fsync: no space left")
	f.Add("health")
	f.Add("error tail: position 9 is ahead of the journal")
	f.Add("gossip 1")
	f.Add("\"record\" 3 3 \"o\\tp\" \"\xff\"")
	f.Fuzz(func(t *testing.T, line string) {
		fields, err := wire.Tokenize(line)
		if err != nil || len(fields) == 0 {
			t.Skip()
		}
		frame, err := parseFollowFrame(fields)
		if err != nil {
			if fields[0] == wire.FollowFrameError && !errors.Is(err, ErrFollowStream) {
				t.Fatalf("error frame %q came back as %v", line, err)
			}
			return
		}
		kinds := 0
		for _, is := range []bool{frame.Rec != nil, fields[0] == wire.FollowFrameSnapshot, frame.Mark, frame.Health, frame.Ping} {
			if is {
				kinds++
			}
		}
		if kinds != 1 || frame.Snapshot != nil {
			t.Fatalf("%q decodes to %d kinds of frame: %+v", line, kinds, frame)
		}
		if frame.Rec == nil {
			return
		}
		again := wire.EncodeFollowRecord(frame.Rec.LSN, frame.Rec.Seq, frame.Rec.Op, frame.Rec.Args)
		fields, err = wire.Tokenize(again)
		if err != nil {
			t.Fatalf("record of %q re-encodes to %q, which does not tokenize: %v", line, again, err)
		}
		back, err := parseFollowFrame(fields)
		if err != nil || !reflect.DeepEqual(back.Rec, frame.Rec) {
			t.Fatalf("record of %q re-encodes to %q, which parses to %+v, %v; want %+v", line, again, back.Rec, err, frame.Rec)
		}
	})
}
