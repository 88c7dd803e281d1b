package journal

import "repro/internal/meta"

// SetPinHook installs f to run inside Snapshot between the read of the
// newest LSN and the pin of the view at it — the window a reclaim pass can
// fall into.
func (w *Writer) SetPinHook(f func()) { w.pinHook = f }

// Frame renders r as the writer frames a record.
func Frame(r meta.Record) []byte { return AppendFrame(nil, appendPayload(nil, r)) }

// CheckpointOf is the checkpoint Upgrade makes of doc, the JSON document of
// a snapshot of lsn.
func CheckpointOf(doc []byte, lsn int64) ([]byte, error) {
	return upgraded(snapshotName(lsn), doc, meta.DefaultShards)
}

// DecodePayload parses a record payload as recovery does.
func DecodePayload(payload []byte) (meta.Record, error) { return decodePayload(payload) }
