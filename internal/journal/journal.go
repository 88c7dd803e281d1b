// Package journal persists the meta-database as an append-only record log
// plus periodic snapshots — the production persistence layer that replaces
// whole-database Save/Load as the only durability mechanism.
//
// # On-disk layout
//
// A journal directory holds two kinds of files:
//
//   - journal-<lsn16>.log — log segments.  Each starts with the header
//     "DJL2 <term16>\n", stamping the election term the segment opened in,
//     followed by framed records.  The 16-hex-digit name is the LSN of the
//     first record the segment may contain; segments are strictly ordered
//     and records within and across segments carry consecutive LSNs.
//   - snapshot-<lsn16>.json — a checkpoint, consistent as of LSN <lsn16>:
//     it contains the effect of every record with LSN ≤ <lsn16> and
//     nothing newer.  A header "DJS<version> <lsn16> <term16>\n", then a
//     frame per record of meta.View.Checkpoint.
//
// Version 1 of both — a header without a term, the JSON document of
// meta.Save — only Upgrade reads; recovery refuses it.
//
// Each record is framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// and the payload is a wire-protocol text line (the same quoting the
// DAMOCLES servers speak): "<lsn> <seq> <op> <args...>", decodable with
// wire.Tokenize.  The log is therefore greppable with standard tools, and
// a record stream is shipped over the wire unmodified: see below.
//
// # The FOLLOW stream
//
// A replication stream is a run of the same frames, version FollowVersion
// of the stream: AppendFollowEvent encodes one event, ReadFollow decodes
// them.  A record travels as its segment frame, byte for byte, so the
// follower checks the primary's checksum and appends the very bytes the
// primary wrote.  Every other event is a frame whose payload's first field
// names its kind — "watermark <lsn>", "ping <lsn>", "health <reason>",
// "error <reason>", "end" — or "snapshot <lsn> <n>", after which the n
// bytes of the snapshot file follow as they are.  A payload whose first
// field is a number is a record's.
//
// # Writing
//
// The Writer implements meta.Recorder: the database hands it one record
// per committed mutation, under the locks that serialize that mutation, so
// the log order is a valid replay order.  Record only appends to an
// in-memory buffer (no I/O under database locks); the buffer reaches the
// operating system at explicit Commit points — the run-time engine commits
// after every drain, the project server after every non-drain mutation —
// or when it outgrows an internal bound.  Segments rotate at a size
// threshold.
//
// Snapshots run concurrently with writers: the checkpoint is collected from
// a read view pinned at the journal's newest LSN, which takes no database
// lock (no writer is ever blocked for the collection, the encode or the
// file write) and names the exact LSN the checkpoint reflects, and it is
// streamed to the file a buffer at a time.  A snapshot is written to a
// temporary file and renamed into place, so a crash never leaves a
// half-written snapshot under a valid name.  After a successful
// snapshot, compaction deletes every segment whose records the snapshot
// fully covers, and every older snapshot.
//
// # Recovery
//
// Open (or the read-only Replay) restores the database by loading the
// newest snapshot — any damage to which is refused: it is renamed into place
// whole — and replaying every record with a larger LSN from the
// remaining segments, in LSN order, via meta.ApplyRecord.  A torn final
// record — short frame, impossible length, CRC mismatch, or an
// unparseable payload at the tail of the last segment — is truncated away
// (the crash interrupted its write; it was never acknowledged); the same
// damage anywhere else fails recovery loudly.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/faultfs"
	"repro/internal/meta"
	"repro/internal/wire"
)

// The segment header: "DJL", the format version and a space, then the
// segment's opening election term as 16 lower-case hex digits and a
// newline — fixed width so the header parses (and its torn prefixes
// classify) without scanning.  The term stamped is the writer's term when
// the segment was created; a term-bump record may raise it mid-segment, so
// across a journal the headers are non-decreasing, never decreasing — a
// regression means doctored or shuffled files and is refused.
const (
	segHeaderMagic = "DJL2 "
	segHeaderLen   = len(segHeaderMagic) + 16 + 1
)

// encodeSegHeader renders the header for a segment opening at term.
func encodeSegHeader(term int64) []byte {
	return fmt.Appendf(nil, "%s%016x\n", segHeaderMagic, term)
}

// parseSegHeader decodes the header at the front of a segment and returns
// its stamped term; n is the header length consumed.  A header of an older
// format version is errOldVersion.
func parseSegHeader(data []byte) (term int64, n int, err error) {
	if v := len("DJL"); len(data) > v && string(data[:v]) == segHeaderMagic[:v] && data[v] >= '1' && data[v] < segHeaderMagic[v] {
		return 0, 0, fmt.Errorf("%w: segment header version %c, this build reads version %c", errOldVersion, data[v], segHeaderMagic[v])
	}
	if len(data) < segHeaderLen || string(data[:len(segHeaderMagic)]) != segHeaderMagic {
		return 0, 0, fmt.Errorf("bad magic")
	}
	if data[segHeaderLen-1] != '\n' {
		return 0, 0, fmt.Errorf("bad header terminator")
	}
	t, perr := strconv.ParseInt(string(data[len(segHeaderMagic):segHeaderLen-1]), 16, 64)
	if perr != nil || t < 1 {
		return 0, 0, fmt.Errorf("bad header term %q", data[len(segHeaderMagic):segHeaderLen-1])
	}
	return t, segHeaderLen, nil
}

// tornSegHeaderPrefix reports whether data — an entire segment shorter
// than a full header — is a strict prefix of a valid header: the crash hit
// during segment creation, before any record could have been acknowledged.
func tornSegHeaderPrefix(data []byte) bool {
	n := min(len(data), len(segHeaderMagic))
	if len(data) >= segHeaderLen || string(data[:n]) != segHeaderMagic[:n] {
		return false
	}
	for _, c := range data[n:] {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// frameHeader is the per-record framing overhead: payload length + CRC.
const frameHeader = 8

// maxRecordLen bounds one record's payload.  A length field beyond it is
// treated as corruption, not an allocation request.
const maxRecordLen = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload to dst as one frame: the journal's one
// framing, of every record on disk and every event of a FOLLOW stream.
func AppendFrame(dst, payload []byte) []byte {
	return sealFrame(append(append(dst, make([]byte, frameHeader)...), payload...), len(dst))
}

// sealFrame fills in the header of the frame at dst[start:], whose payload
// is everything after the frameHeader bytes reserved at start, and returns
// dst: a payload appended in place is framed without a copy.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// FollowVersion is the version of the FOLLOW stream this build speaks: 2,
// frames.  Version 1, lines of text, was spoken by builds whose FOLLOW
// handshake carried no version; the two do not mix, so a node refuses a
// peer of the other version at the handshake.
const FollowVersion = 2

// FollowEventKind discriminates the events of a tail and of a FOLLOW stream.
type FollowEventKind int

const (
	// FollowRecord delivers one committed record, in strict LSN order.
	FollowRecord FollowEventKind = iota
	// FollowSnapshot delivers a whole-database bootstrap: the requested
	// position is older than the oldest retained segment, so the follower
	// must re-base on the snapshot before records resume.
	FollowSnapshot
	// FollowMark reports the commit watermark when the tail catches up —
	// the follower's "you have seen everything committed so far" signal.
	FollowMark
	// FollowHealth reports that the journal behind this tail degraded: the
	// watermark the stream last reported is final — the primary refuses
	// writes until the disk fault is resolved — and Reason says why.  It is
	// delivered at most once per tail, only when caught up, so a follower
	// never mistakes a wedged primary for a merely idle one.
	FollowHealth
	// FollowPing is the idle-stream liveness tick: the tail is caught up
	// and nothing has committed for one ping interval, so the stream
	// proves it is alive rather than staying silent.  Watermark carries
	// the current commit position; a follower at that position treats the
	// ping as freshness evidence, and its absence — past the stall
	// timeout — as a dead link.  Only emitted when SetPing armed it.
	FollowPing
	// FollowError ends a stream that failed for good on the serving side —
	// a Tailer's error, the stream's event — and Reason says why.
	FollowError
	// FollowEnd ends a stream the serving side closed on purpose.
	FollowEnd
)

// followWords spells the kind of every event but a record as the first
// field of its frame.
var followWords = [...]string{
	FollowSnapshot: "snapshot",
	FollowMark:     "watermark",
	FollowHealth:   "health",
	FollowPing:     "ping",
	FollowError:    "error",
	FollowEnd:      "end",
}

// FollowEvent is one step of a journal tail, and one event of a FOLLOW
// stream.
type FollowEvent struct {
	Kind FollowEventKind

	// Frame is set for FollowRecord: the record's frame — the length and the
	// CRC-32C of its payload, then the payload — exactly as the segment file
	// holds it.  It aliases a read buffer and is valid until the next event
	// is read.
	Frame []byte

	// SnapLSN/Snapshot are set for FollowSnapshot: the snapshot reflects
	// every record with LSN ≤ SnapLSN, and records resume at SnapLSN+1.
	// Snapshot is the snapshot file, byte for byte — a checkpoint — which
	// BootstrapSnapshot installs.
	SnapLSN  int64
	Snapshot []byte

	// Watermark is set for FollowMark and FollowPing.
	Watermark int64

	// Reason is set for FollowHealth — the degraded journal's sticky error —
	// and for FollowError.
	Reason string
}

// Payload returns a record's payload: its Frame without the header.
func (ev FollowEvent) Payload() []byte { return ev.Frame[frameHeader:] }

// AppendFollowEvent appends ev to dst as a FOLLOW stream carries it: a
// record's Frame as it is — its checksum was computed once, by the writer —
// and any other event as a frame of its own, a snapshot's file after it.
func AppendFollowEvent(dst []byte, ev FollowEvent) []byte {
	if ev.Kind == FollowRecord {
		return append(dst, ev.Frame...)
	}
	start := len(dst)
	dst = appendEventPayload(append(dst, make([]byte, frameHeader)...), ev, len(ev.Snapshot))
	return append(sealFrame(dst, start), ev.Snapshot...)
}

// appendEventPayload appends the payload of ev's frame, ev being of any kind
// but a record; size is the byte count of a snapshot's file.
func appendEventPayload(dst []byte, ev FollowEvent, size int) []byte {
	dst = append(dst, followWords[ev.Kind]...)
	switch ev.Kind {
	case FollowSnapshot:
		dst = fmt.Appendf(dst, " %d %d", ev.SnapLSN, size)
	case FollowMark, FollowPing:
		dst = strconv.AppendInt(append(dst, ' '), ev.Watermark, 10)
	case FollowHealth, FollowError:
		dst = wire.AppendQuote(append(dst, ' '), ev.Reason)
	}
	return dst
}

// ReadFollow decodes the FOLLOW stream r carries and hands fn its events in
// order, until fn fails — its error is returned as it is — the stream does,
// or an error or end event, which fn gets too, closes it.  Every frame has
// its length bounded by maxRecordLen and its checksum checked before
// anything of it reaches fn, and a buffer grows no faster than bytes arrive:
// neither a frame's length nor a snapshot's size is an allocation request.
// A stream cut short, even at a frame boundary, is an error.
func ReadFollow(r io.Reader, fn func(FollowEvent) error) error {
	var win frameWindow
	win.reset(r, 0)
	for {
		ev, err := win.followEvent()
		if err != nil {
			return fmt.Errorf("journal: follow stream: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
		if ev.Kind == FollowError || ev.Kind == FollowEnd {
			return nil
		}
	}
}

// followEvent reads the stream event at the window's position.
func (fw *frameWindow) followEvent() (FollowEvent, error) {
	payload, damage, err := fw.frame()
	switch {
	case err == io.EOF:
		return FollowEvent{}, fmt.Errorf("%w before its end frame", io.ErrUnexpectedEOF)
	case err != nil:
		return FollowEvent{}, err
	case damage != "":
		return FollowEvent{}, errors.New(damage)
	}
	ev, size, err := parseEventPayload(payload)
	frame := fw.take(payload)
	switch {
	case err != nil:
		return FollowEvent{}, err
	case ev.Kind == FollowRecord:
		ev.Frame = frame
	case ev.Kind == FollowSnapshot:
		for len(ev.Snapshot) < size {
			b, err := fw.peek(min(size-len(ev.Snapshot), windowBytes))
			if err != nil {
				return FollowEvent{}, err
			}
			if len(b) == 0 {
				return FollowEvent{}, fmt.Errorf("%w in the body of snapshot %d", io.ErrUnexpectedEOF, ev.SnapLSN)
			}
			ev.Snapshot = append(ev.Snapshot, b...)
			fw.consume(len(b))
		}
	}
	return ev, nil
}

// parseEventPayload decodes the payload of a stream frame.  One whose first
// field is a number is a record's, the rule frameWindow.record reads LSNs
// by; any other must name an event's kind and be spelled as
// appendEventPayload spells it.  size is a snapshot's byte count.
func parseEventPayload(payload []byte) (ev FollowEvent, size int, err error) {
	if _, ok := leadingLSN(payload); ok {
		return FollowEvent{Kind: FollowRecord}, 0, nil
	}
	// A field missing, or a line that does not tokenize, reads as empty
	// fields: the spelling check below refuses it.
	fields, _ := wire.Tokenize(string(payload))
	fields = append(fields, "", "", "")
	if _, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
		return FollowEvent{Kind: FollowRecord}, 0, nil
	}
	kind := slices.Index(followWords[:], fields[0])
	if kind <= int(FollowRecord) {
		return ev, 0, fmt.Errorf("frame of no event kind: %q", payload)
	}
	ev.Kind = FollowEventKind(kind)
	lsn, _ := strconv.ParseInt(fields[1], 10, 64)
	switch ev.Kind {
	case FollowSnapshot:
		ev.SnapLSN = lsn
		size, _ = strconv.Atoi(fields[2])
	case FollowMark, FollowPing:
		ev.Watermark = lsn
	case FollowHealth, FollowError:
		ev.Reason = fields[1]
	}
	// One spelling: a number that does not parse, or parses from another
	// spelling of it, and a field too many or too few come back spelled
	// differently.
	if ev.SnapLSN < 0 || size < 0 || ev.Watermark < 0 || !bytes.Equal(appendEventPayload(nil, ev, size), payload) {
		return FollowEvent{}, 0, fmt.Errorf("bad %s frame %q", fields[0], payload)
	}
	return ev, size, nil
}

// The checkpoint header: "DJS" and the format version, then the LSN and the
// election term at it in 16 lower-case hex digits each.
const (
	ckptMagic     = "DJS"
	ckptVersion   = 2
	ckptHeaderLen = len(ckptMagic) + 1 + 1 + 16 + 1 + 16 + 1
)

// A segment or snapshot of an older format version is for Upgrade to read
// (version 1 of the snapshot is the JSON document); a newer one is refused.
var (
	errOldVersion = errors.New("journal: a file of an older format version, which `dquery upgrade <dir>` converts")
	errNewVersion = errors.New("journal: snapshot of a newer format version")
)

type ckptHeader struct{ lsn, term int64 }

func (h ckptHeader) Bytes() []byte {
	return fmt.Appendf(nil, "%s%d %016x %016x\n", ckptMagic, ckptVersion, h.lsn, h.term)
}

// parseCkptHeader decodes the header at the front of data — its version
// first: a newer format may lay the rest out anew.
func parseCkptHeader(data []byte) (h ckptHeader, err error) {
	if bytes.HasPrefix(data, []byte("{")) {
		return h, fmt.Errorf("%w: a JSON document, version 1 of the snapshot", errOldVersion)
	}
	var v int
	n, _ := fmt.Sscanf(string(data[:min(len(data), ckptHeaderLen)]), ckptMagic+"%d %x %x", &v, &h.lsn, &h.term)
	switch {
	case n > 0 && v > ckptVersion:
		return h, fmt.Errorf("%w: version %d, this build reads up to version %d", errNewVersion, v, ckptVersion)
	case n > 0 && v < ckptVersion:
		return h, fmt.Errorf("%w: version %d, this build writes version %d", errOldVersion, v, ckptVersion)
	case n < 3 || h.term < 1 || !bytes.HasPrefix(data, h.Bytes()):
		return h, fmt.Errorf("bad checkpoint header %q", data[:min(len(data), ckptHeaderLen)])
	}
	return h, nil
}

// appendPayload renders a record as its wire-line payload into dst — the
// writer reuses one scratch buffer across records, so the hot append path
// allocates nothing per record beyond buffer growth.
func appendPayload(dst []byte, r meta.Record) []byte {
	dst = strconv.AppendInt(dst, r.LSN, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, r.Seq, 10)
	dst = append(dst, ' ')
	dst = wire.AppendQuote(dst, r.Op)
	for _, a := range r.Args {
		dst = append(dst, ' ')
		dst = wire.AppendQuote(dst, a)
	}
	return dst
}

// ckptBufBytes is the checkpoint writer's buffer, written out whenever it is
// half full.
const ckptBufBytes = 64 << 10

// writeCheckpoint writes v, at the election term, to w as a checkpoint.
func writeCheckpoint(w io.Writer, v *meta.View, term int64) error {
	buf := append(make([]byte, 0, ckptBufBytes), ckptHeader{lsn: v.LSN(), term: term}.Bytes()...)
	flush := func() error {
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	payload := make([]byte, 0, 512)
	err := v.Checkpoint(func(head meta.Record, args []byte) error {
		payload = append(appendPayload(payload[:0], head), args...)
		if buf = AppendFrame(buf, payload); len(buf) < ckptBufBytes/2 {
			return nil
		}
		return flush()
	})
	if err != nil {
		return err
	}
	return flush()
}

// validFrameAt reports whether a complete, checksummed, decodable record
// frame starts at offset off in data.  CRC-32C makes a false positive on
// corrupt bytes astronomically unlikely, so recovery uses it to tell a
// torn tail (nothing valid follows the damage) from mid-stream corruption
// (a real record does).
func validFrameAt(data []byte, off int) bool {
	if off+frameHeader > len(data) {
		return false
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	if n > maxRecordLen || off+frameHeader+n > len(data) {
		return false
	}
	payload := data[off+frameHeader : off+frameHeader+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
		return false
	}
	_, err := decodePayload(payload)
	return err == nil
}

// windowBytes is the frame window's size: some 600 records of a loaded
// project per read.
const windowBytes = 64 << 10

// frameWindow reads a segment file's frames through one reusable buffer, so
// that neither recovery nor a tail ever holds a segment in memory whole.
// The buffer grows only for a frame longer than it, which maxRecordLen
// bounds.
type frameWindow struct {
	f    io.Reader
	buf  []byte
	r, w int   // buf[r:w] is read and not yet consumed
	off  int64 // where buf[r] is in the file

	dec payloadDecoder // the field slice every record read here is decoded into
}

// openSegment opens the segment file at path and positions win after its
// header: the one segment open of recovery and the tail.  Terms only move
// forward, so a header term below *term, the newest seen, means shuffled or
// doctored files; otherwise it becomes *term.  damage is non-empty, and the
// file stays open, when the file is a strict prefix of a header — torn at
// creation, before any record could have been acknowledged.
func openSegment(vfs faultfs.FS, path string, win *frameWindow, term *int64) (f faultfs.File, damage string, err error) {
	if f, err = vfs.Open(path); err != nil {
		return nil, "", err
	}
	name := filepath.Base(path)
	win.reset(f, 0)
	hdr, err := win.peek(segHeaderLen)
	if err != nil {
		f.Close()
		return nil, "", fmt.Errorf("segment %s: %w", name, err)
	}
	hdrTerm, hdrLen, herr := parseSegHeader(hdr)
	if herr != nil {
		// A peek that came back short is the whole file.
		if tornSegHeaderPrefix(hdr) {
			return f, "torn segment header", nil
		}
		f.Close()
		return nil, "", fmt.Errorf("segment %s: %w", name, herr)
	}
	if hdrTerm < *term {
		f.Close()
		return nil, "", fmt.Errorf("segment %s: header term %d regresses below %d", name, hdrTerm, *term)
	}
	*term = hdrTerm
	win.consume(hdrLen)
	return f, "", nil
}

// reset points the window at f, whose read position is file offset off.
func (fw *frameWindow) reset(f io.Reader, off int64) {
	fw.f, fw.r, fw.w, fw.off = f, 0, 0, off
}

// peek returns the next n unconsumed bytes, reading on until it has them;
// fewer come back only when the file ends first.  They stay valid until the
// next call of peek, frame or rest.
func (fw *frameWindow) peek(n int) ([]byte, error) {
	for empty := 0; fw.w-fw.r < n; {
		if fw.w == len(fw.buf) {
			// No room behind what is unconsumed — a part of one frame: it
			// moves to the front of the buffer, or of one twice the size
			// when it fills this one, so the buffer grows with the bytes
			// that arrive and never ahead of them.
			buf := fw.buf
			if fw.r == 0 {
				buf = make([]byte, max(windowBytes, min(n, 2*len(buf))))
			}
			fw.w = copy(buf, fw.buf[fw.r:fw.w])
			fw.buf, fw.r = buf, 0
		}
		got, err := fw.f.Read(fw.buf[fw.w:])
		fw.w += got
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if got > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			return nil, io.ErrNoProgress
		}
	}
	return fw.buf[fw.r:min(fw.w, fw.r+n)], nil
}

// consume moves the window's position past the next n bytes, which a peek
// has returned.
func (fw *frameWindow) consume(n int) {
	fw.r += n
	fw.off += int64(n)
}

// take consumes the frame whose payload frame or record has just returned
// and returns the whole frame, valid as long as the payload was.
func (fw *frameWindow) take(payload []byte) []byte {
	frame := fw.buf[fw.r : fw.r+frameHeader+len(payload)]
	fw.consume(len(frame))
	return frame
}

// rest reads the file to its end and returns everything unconsumed.
func (fw *frameWindow) rest() ([]byte, error) {
	for n := windowBytes; ; n *= 2 {
		b, err := fw.peek(n)
		if err != nil || len(b) < n {
			return b, err
		}
	}
}

// frame returns the payload of the frame at the window's position, without
// consuming it, or io.EOF when the file ends cleanly there.  damage is
// empty for a whole frame whose checksum matches and otherwise says what is
// wrong with it; what a damaged frame means is the caller's to decide.
func (fw *frameWindow) frame() (payload []byte, damage string, err error) {
	hdr, err := fw.peek(frameHeader)
	if err != nil {
		return nil, "", err
	}
	if len(hdr) == 0 {
		return nil, "", io.EOF
	}
	if len(hdr) < frameHeader {
		return nil, "short frame header", nil
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxRecordLen {
		return nil, "torn or oversized record", nil
	}
	fr, err := fw.peek(frameHeader + n)
	if err != nil {
		return nil, "", err
	}
	if len(fr) < frameHeader+n {
		return nil, "torn or oversized record", nil
	}
	payload = fr[frameHeader:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, "record checksum mismatch", nil
	}
	return payload, "", nil
}

// frames hands fn the payload of each frame to the end of the file, good
// until fn returns: a checkpoint's records.  Any damage fails the read, as
// does fn's first error.
func (fw *frameWindow) frames(fn func(payload []byte) error) error {
	for {
		payload, damage, err := fw.frame()
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		case damage != "":
			return fmt.Errorf("%s at offset %d", damage, fw.off)
		}
		if err := fn(payload); err != nil {
			return fmt.Errorf("record at offset %d: %w", fw.off, err)
		}
		fw.consume(frameHeader + len(payload))
	}
}

// readSnapshot loads the checkpoint of lsn from f — a snapshot file, or the
// one a primary shipped — through fw and meta.LoadCheckpoint.
func (fw *frameWindow) readSnapshot(f io.Reader, lsn int64, shards int) (*meta.DB, error) {
	fw.reset(f, 0)
	b, err := fw.peek(ckptHeaderLen)
	if err != nil {
		return nil, err
	}
	h, err := parseCkptHeader(b)
	switch {
	case err != nil:
		return nil, err
	case h.lsn != lsn:
		return nil, fmt.Errorf("checkpoint header names lsn %d", h.lsn)
	}
	fw.consume(ckptHeaderLen)
	db, err := meta.LoadCheckpoint(shards, func(add func(meta.Record) error) error {
		return fw.frames(func(payload []byte) error {
			// The record's strings are the window's bytes, where the next
			// frame is read: LoadCheckpoint keeps none of them — it copies
			// out each string an object keeps — so a checkpoint is read
			// without a copy of its payloads.
			r, err := fw.dec.decode(unsafe.String(unsafe.SliceData(payload), len(payload)))
			if err != nil {
				return err
			}
			return add(r)
		})
	})
	switch {
	case err != nil:
		return nil, err
	case db.AppliedLSN() != lsn:
		return nil, fmt.Errorf("the records of a checkpoint at lsn %d", db.AppliedLSN())
	case db.CurrentTerm() != h.term:
		return nil, fmt.Errorf("checkpoint header names term %d, its records term %d", h.term, db.CurrentTerm())
	}
	return db, nil
}

// record is the frame step of recovery and the tail: the payload of the
// frame at the window's position, not consumed, and its LSN, read off the
// leading digits — only a payload not in the writer's spelling is decoded to
// learn it, and damage then also covers one that does not decode.
func (fw *frameWindow) record() (payload []byte, lsn int64, damage string, err error) {
	payload, damage, err = fw.frame()
	if err != nil || damage != "" {
		return nil, 0, damage, err
	}
	lsn, plain := leadingLSN(payload)
	if !plain {
		rec, err := fw.dec.decode(string(payload))
		if err != nil {
			return nil, 0, fmt.Sprintf("undecodable record (%v)", err), nil
		}
		lsn = rec.LSN
	}
	return payload, lsn, "", nil
}

// leadingLSN reads a record's LSN off the front of its payload, as the
// writer spells it: decimal digits, then a space.  ok is false for anything
// else, which is for decodePayload to judge.
func leadingLSN(payload []byte) (lsn int64, ok bool) {
	i := 0
	for ; i < len(payload) && i < 18 && payload[i] >= '0' && payload[i] <= '9'; i++ {
		lsn = lsn*10 + int64(payload[i]-'0')
	}
	return lsn, i > 0 && i < len(payload) && payload[i] == ' '
}

// payloadDecoder decodes record payloads for a reader that is done with one
// record before it decodes the next: the fields go into one slice, reused
// from record to record, so a decoded record costs no allocation beyond one
// per field that holds escapes — its fields are substrings of the payload.
type payloadDecoder struct{ fields []string }

// decode parses a record payload.  The record's Args are only good until
// the next decode.
func (d *payloadDecoder) decode(payload string) (meta.Record, error) {
	fields, err := wire.AppendFields(d.fields[:0], payload)
	d.fields = fields
	if err != nil {
		return meta.Record{}, fmt.Errorf("journal: record payload: %w", err)
	}
	if len(fields) < 3 {
		return meta.Record{}, fmt.Errorf("journal: record payload wants ≥3 fields, got %d", len(fields))
	}
	lsn, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return meta.Record{}, fmt.Errorf("journal: record lsn %q: %v", fields[0], err)
	}
	seq, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return meta.Record{}, fmt.Errorf("journal: record seq %q: %v", fields[1], err)
	}
	r := meta.Record{LSN: lsn, Seq: seq, Op: fields[2]}
	if len(fields) > 3 {
		r.Args = fields[3:]
	}
	return r, nil
}

// decodePayload parses a record payload into a record that is the caller's
// to keep.
func decodePayload(b []byte) (meta.Record, error) {
	var d payloadDecoder
	return d.decode(string(b))
}

// segmentName / snapshotName render the canonical file names.
func segmentName(firstLSN int64) string { return fmt.Sprintf("journal-%016x.log", firstLSN) }
func snapshotName(lsn int64) string     { return fmt.Sprintf("snapshot-%016x.json", lsn) }

// list reads dir, the one directory listing of recovery, the tail and
// compaction: the first LSN of every segment and the LSN of every snapshot,
// ascending — ReadDir lists by name, and canonical names sort as their LSNs
// — and the temporary snapshot files a crash left behind.
func list(vfs faultfs.FS, dir string) (segs, snaps []int64, temps []string, err error) {
	entries, err := vfs.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseSeqName(name, "journal-", ".log"); ok {
			segs = append(segs, lsn)
		} else if lsn, ok := parseSeqName(name, "snapshot-", ".json"); ok {
			snaps = append(snaps, lsn)
		} else if filepath.Ext(name) == ".tmp" {
			temps = append(temps, name)
		}
	}
	return segs, snaps, temps, nil
}

// parseSeqName extracts the LSN from a "<prefix><lsn16><suffix>" file name,
// as segmentName and snapshotName spell it.
func parseSeqName(name, prefix, suffix string) (int64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 || strings.ToLower(hex) != hex {
		return 0, false
	}
	n, err := strconv.ParseInt(hex, 16, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
