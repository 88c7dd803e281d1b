package journal

// SetPinHook installs f to run inside Snapshot between the read of the
// newest LSN and the pin of the view at it — the window a reclaim pass can
// fall into.
func (w *Writer) SetPinHook(f func()) { w.pinHook = f }
