package journal

import (
	"bytes"

	"repro/internal/meta"
)

// SetPinHook installs f to run inside Snapshot between the read of the
// newest LSN and the pin of the view at it — the window a reclaim pass can
// fall into.
func (w *Writer) SetPinHook(f func()) { w.pinHook = f }

// Frame renders r as the writer frames a record.
func Frame(r meta.Record) []byte { return AppendFrame(nil, appendPayload(nil, r)) }

// CheckpointOf seals db at lsn and returns the snapshot file of lsn a
// journal writes of it.
func CheckpointOf(db *meta.DB, lsn int64) ([]byte, error) {
	db.SealVersions(lsn)
	v := db.ReadView()
	defer v.Close()
	var buf bytes.Buffer
	err := writeCheckpoint(&buf, v, db.CurrentTerm())
	return buf.Bytes(), err
}

// ViewText and DBText are how the tests compare databases
// (checkpoint_test.go).
var ViewText, DBText = viewText, dbText

// DecodePayload parses a record payload as recovery does.
func DecodePayload(payload []byte) (meta.Record, error) { return decodePayload(payload) }

// FollowWriteBytes is the buffer a follower writes through unsynced.
const FollowWriteBytes = followWriteBytes

// WaitCommitted blocks as a tailer does until the commit watermark exceeds
// after or stop closes; ok is false on stop.
func (w *Writer) WaitCommitted(after int64, stop <-chan struct{}) (lsn int64, ok bool) {
	lsn, ok, _ = w.waitCommitted(after, stop, nil, nil)
	return lsn, ok
}
