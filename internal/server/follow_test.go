package server

import (
	"errors"
	"testing"

	"repro/internal/wire"
)

// FuzzFollowFrame: whatever a FOLLOW stream line is, decoding the frame
// never panics; an accepted frame is of exactly one kind; and an accepted
// record frame carries the line's payload byte for byte — what the
// primary's segment file holds is what the follower appends.
func FuzzFollowFrame(f *testing.F) {
	f.Add(`record 7 5 update cpu,HDL_model,1 1 note "a b \"q\" \\"`)
	f.Add("record 1 0 event")
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
		frame, docLines, err := parseFollowFrame(line)
		kind := ""
		if fields, _ := wire.Tokenize(line); len(fields) > 0 {
			kind = fields[0]
		}
		if err != nil {
			if kind == wire.FollowFrameError && !errors.Is(err, ErrFollowStream) {
				t.Fatalf("error frame %q came back as %v", line, err)
			}
			return
		}
		kinds := 0
		for _, is := range []bool{frame.Record != "", docLines >= 0, frame.Mark, frame.Health, frame.Ping} {
			if is {
				kinds++
			}
		}
		if kinds != 1 || frame.Snapshot != nil || (docLines >= 0) != (kind == wire.FollowFrameSnapshot) {
			t.Fatalf("%q decodes to %d kinds of frame: %+v, %d document lines", line, kinds, frame, docLines)
		}
		if frame.Record != "" && wire.FollowFrameRecord+" "+frame.Record != line {
			t.Fatalf("record frame %q carries the payload %q", line, frame.Record)
		}
	})
}
