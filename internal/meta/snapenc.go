package meta

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The streaming encoder of the canonical Save document.
//
// The document is three contracts at once — snapshot-<lsn>.json on disk,
// the body of the FOLLOW bootstrap frame, and the byte-identity oracle of
// recovery and of view == replay-up-to-LSN — so the bytes written here are
// exactly what encoding/json's Encoder with SetIndent("", "  ") and HTML
// escaping produces for a dbJSON value (the tests keep that encoder as the
// oracle).  What differs is the cost: a checkpoint runs behind the write
// path every SnapshotEvery records, and going through reflection with a
// per-OID struct and a whole-document buffer made it the most expensive
// thing a journaled primary did.  Here the collectors hand over rows and
// pointers only, and the document is appended, element by element, into
// one buffer that is written out whenever it is half full: nothing is
// allocated per OID, per link or per property.
//
// The encoder is append-style — every function takes the buffer and returns
// it — so that the buffer lives in a local variable: appending through a
// struct field costs a write barrier per append while the collector marks.

const (
	// snapBufBytes is the encoder's buffer and snapFlushBytes the fill at
	// which it is written out, after a whole element (an OID, a link, one
	// key of a configuration, ...).  The other half is room for the next
	// element; only an element larger than that — tens of kilobytes of
	// property text on one OID — makes the buffer grow to fit it.
	snapBufBytes   = 64 << 10
	snapFlushBytes = snapBufBytes / 2
)

// oidRow is one collected OID.  The encoder reads props in place.
type oidRow struct {
	key   Key
	seq   int64
	props map[string]string
}

// snapDoc is a collected database state, in no particular order; encode
// sorts it.  Everything it points to must stay unchanged until encode
// returns: the view collector hands over immutable versions, the locked
// collector private copies of whatever the database mutates in place.
type snapDoc struct {
	seq, nextLink int64
	oids          []oidRow
	links         []*Link
	configs       []*Configuration
	workspaces    []*Workspace
	terms         termTable
}

// snapOut is where the encoder's buffer goes when it fills.  The first
// write error is kept and stops all further writing.
type snapOut struct {
	w   io.Writer
	err error
}

// drain writes b out if it has reached the flush mark and hands back the
// buffer to go on with.
func (o *snapOut) drain(b []byte) []byte {
	if len(b) < snapFlushBytes {
		return b
	}
	return o.flush(b)
}

func (o *snapOut) flush(b []byte) []byte {
	if o.err == nil && len(b) > 0 {
		_, o.err = o.w.Write(b)
	}
	return b[:0]
}

// snapScratch is sorting space reused from element to element.
type snapScratch struct {
	names []string    // a map's keys
	paths []boundPath // a workspace's bindings
}

// boundPath is one workspace binding under the name it has in the
// document: the rendered form of its Key.
type boundPath struct{ key, path string }

// encode sorts the document into the canonical order — OIDs by key, links
// by ID, configurations and workspaces by name — and streams it to w.
func (d *snapDoc) encode(w io.Writer) error {
	slices.SortFunc(d.oids, func(a, b oidRow) int { return a.key.Compare(b.key) })
	slices.SortFunc(d.links, func(a, b *Link) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(d.configs, func(a, b *Configuration) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(d.workspaces, func(a, b *Workspace) int { return strings.Compare(a.Name, b.Name) })

	out := snapOut{w: w}
	var sc snapScratch
	b := make([]byte, 0, snapBufBytes)
	b = append(b, "{\n  \"seq\": "...)
	b = strconv.AppendInt(b, d.seq, 10)
	b = append(b, ",\n  \"next_link\": "...)
	b = strconv.AppendInt(b, d.nextLink, 10)
	// A section without omitempty is null when empty: the collectors of
	// the reflection encoder only ever appended to nil slices.
	b = append(b, ",\n  \"oids\": "...)
	if len(d.oids) == 0 {
		b = append(b, "null"...)
	}
	for i := range d.oids {
		b = appendOID(openElement(b, i), &d.oids[i], &sc)
		b = out.drain(b)
	}
	b = closeArray(b, len(d.oids))
	b = append(b, ",\n  \"links\": "...)
	if len(d.links) == 0 {
		b = append(b, "null"...)
	}
	for i, l := range d.links {
		b = appendLink(openElement(b, i), l, &sc)
		b = out.drain(b)
	}
	b = closeArray(b, len(d.links))
	if len(d.configs) > 0 {
		b = append(b, ",\n  \"configurations\": "...)
	}
	for i, c := range d.configs {
		b = appendConfig(openElement(b, i), c, &out)
	}
	b = closeArray(b, len(d.configs))
	if len(d.workspaces) > 0 {
		b = append(b, ",\n  \"workspaces\": "...)
	}
	for i, ws := range d.workspaces {
		b = appendWorkspace(openElement(b, i), ws, &sc, &out)
	}
	b = closeArray(b, len(d.workspaces))
	if len(d.terms) > 0 {
		b = append(b, ",\n  \"terms\": "...)
	}
	for i, ts := range d.terms {
		b = append(openElement(b, i), "      \"term\": "...)
		b = strconv.AppendInt(b, ts.Term, 10)
		b = append(b, ",\n      \"lsn\": "...)
		b = strconv.AppendInt(b, ts.LSN, 10)
		b = append(b, "\n    }"...)
		b = out.drain(b)
	}
	b = closeArray(b, len(d.terms))
	b = append(b, "\n}\n"...)
	out.flush(b)
	return out.err
}

// openElement starts element i of one of the document's arrays of objects.
func openElement(b []byte, i int) []byte {
	if i == 0 {
		return append(b, "[\n    {\n"...)
	}
	return append(b, ",\n    {\n"...)
}

// closeArray ends an array of n elements; an empty one was never opened.
func closeArray(b []byte, n int) []byte {
	if n == 0 {
		return b
	}
	return append(b, "\n  ]"...)
}

// appendString appends s as a JSON string.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendJSONEscaped(b, s)
	return append(b, '"')
}

// appendKey appends a Key as the JSON string of its "block,view,version"
// form, without building the form.  Escaping the parts one by one gives
// the bytes of escaping the whole: an escape never spans the ASCII comma.
func appendKey(b []byte, k Key) []byte {
	b = append(b, '"')
	b = appendJSONEscaped(b, k.Block)
	b = append(b, ',')
	b = appendJSONEscaped(b, k.View)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(k.Version), 10)
	return append(b, '"')
}

// appendJSONEscaped appends s as encoding/json writes the inside of a
// string with HTML escaping on (go 1.22 and later, which go.mod requires:
// \b and \f have had their short forms since): the two-character escapes
// of the quote, the backslash and \b \f \n \r \t, \u00XX for every other
// control byte and for < > &, the six characters \ufffd for each byte of
// invalid UTF-8, and \u2028 and \u2029 for those two runes.
func appendJSONEscaped(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(dst, s[start:i]...)
				dst = append(dst, `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				dst = append(dst, s[start:i]...)
				dst = append(dst, `\u202`...)
				dst = append(dst, hex[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	return append(dst, s[start:]...)
}

// appendStringMap appends a property map as the value of a member of an
// array element, its keys sorted bytewise as encoding/json sorts them.
func appendStringMap(b []byte, m map[string]string, sc *snapScratch) []byte {
	sc.names = sc.names[:0]
	for name := range m {
		sc.names = append(sc.names, name)
	}
	slices.Sort(sc.names)
	for i, name := range sc.names {
		if i == 0 {
			b = append(b, "{\n        "...)
		} else {
			b = append(b, ",\n        "...)
		}
		b = appendString(b, name)
		b = append(b, ": "...)
		b = appendString(b, m[name])
	}
	return append(b, "\n      }"...)
}

func appendOID(b []byte, o *oidRow, sc *snapScratch) []byte {
	b = append(b, "      \"block\": "...)
	b = appendString(b, o.key.Block)
	b = append(b, ",\n      \"view\": "...)
	b = appendString(b, o.key.View)
	b = append(b, ",\n      \"version\": "...)
	b = strconv.AppendInt(b, int64(o.key.Version), 10)
	b = append(b, ",\n      \"seq\": "...)
	b = strconv.AppendInt(b, o.seq, 10)
	if len(o.props) > 0 {
		b = append(b, ",\n      \"props\": "...)
		b = appendStringMap(b, o.props, sc)
	}
	return append(b, "\n    }"...)
}

func appendLink(b []byte, l *Link, sc *snapScratch) []byte {
	b = append(b, "      \"id\": "...)
	b = strconv.AppendInt(b, int64(l.ID), 10)
	b = append(b, ",\n      \"class\": "...)
	b = appendString(b, l.Class.String())
	b = append(b, ",\n      \"from\": "...)
	b = appendKey(b, l.From)
	b = append(b, ",\n      \"to\": "...)
	b = appendKey(b, l.To)
	if l.Template != "" {
		b = append(b, ",\n      \"template\": "...)
		b = appendString(b, l.Template)
	}
	sc.names = sc.names[:0]
	for event, allowed := range l.Propagates {
		if allowed {
			sc.names = append(sc.names, event)
		}
	}
	slices.Sort(sc.names)
	for i, event := range sc.names {
		if i == 0 {
			b = append(b, ",\n      \"propagates\": [\n        "...)
		} else {
			b = append(b, ",\n        "...)
		}
		b = appendString(b, event)
	}
	if len(sc.names) > 0 {
		b = append(b, "\n      ]"...)
	}
	if len(l.Props) > 0 {
		b = append(b, ",\n      \"props\": "...)
		b = appendStringMap(b, l.Props, sc)
	}
	b = append(b, ",\n      \"seq\": "...)
	b = strconv.AppendInt(b, l.Seq, 10)
	return append(b, "\n    }"...)
}

// appendConfig appends a configuration, draining the buffer key by key: a
// configuration references as many objects as the hierarchy it snapshots.
func appendConfig(b []byte, c *Configuration, out *snapOut) []byte {
	b = append(b, "      \"name\": "...)
	b = appendString(b, c.Name)
	b = append(b, ",\n      \"seq\": "...)
	b = strconv.AppendInt(b, c.Seq, 10)
	b = append(b, ",\n      \"oids\": "...)
	if len(c.OIDs) == 0 {
		b = append(b, "null"...)
	}
	for i, k := range c.OIDs {
		if i == 0 {
			b = append(b, "[\n        "...)
		} else {
			b = append(b, ",\n        "...)
		}
		b = out.drain(appendKey(b, k))
	}
	if len(c.OIDs) > 0 {
		b = append(b, "\n      ]"...)
	}
	b = append(b, ",\n      \"links\": "...)
	if len(c.Links) == 0 {
		b = append(b, "null"...)
	}
	for i, id := range c.Links {
		if i == 0 {
			b = append(b, "[\n        "...)
		} else {
			b = append(b, ",\n        "...)
		}
		b = out.drain(strconv.AppendInt(b, int64(id), 10))
	}
	if len(c.Links) > 0 {
		b = append(b, "\n      ]"...)
	}
	return append(b, "\n    }"...)
}

// appendWorkspace appends a workspace, draining the buffer path by path.
// The paths are a map keyed by the rendered form of each Key, and sorted
// by that form, which is not Key order ("b,v,10" sorts before "b,v,2").
func appendWorkspace(b []byte, ws *Workspace, sc *snapScratch, out *snapOut) []byte {
	b = append(b, "      \"name\": "...)
	b = appendString(b, ws.Name)
	b = append(b, ",\n      \"root\": "...)
	b = appendString(b, ws.Root)
	sc.paths = sc.paths[:0]
	for k, p := range ws.paths {
		sc.paths = append(sc.paths, boundPath{key: k.String(), path: p})
	}
	slices.SortFunc(sc.paths, func(a, b boundPath) int { return strings.Compare(a.key, b.key) })
	for i, bp := range sc.paths {
		if i == 0 {
			b = append(b, ",\n      \"paths\": {\n        "...)
		} else {
			b = append(b, ",\n        "...)
		}
		b = appendString(b, bp.key)
		b = append(b, ": "...)
		b = out.drain(appendString(b, bp.path))
	}
	if len(sc.paths) > 0 {
		b = append(b, "\n      }"...)
	}
	return out.drain(append(b, "\n    }"...))
}
