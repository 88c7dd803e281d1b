package meta

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The streaming decoder of the canonical Save document — the mirror of
// snapenc.go.
//
// A recovery's peak memory is what loading the newest snapshot allocates,
// and through encoding/json that was twice what the database keeps: the
// whole document in the decoder's buffer, a struct per OID and per link with
// a string per key and per name, and every link's two maps built once by
// the decoder and once more by Load.  Here the document is read through one
// fixed window and each OID, link, configuration and workspace is built, as
// it is read, as the object the database keeps: keys are parsed from the
// bytes in the window, maps are built once, and the strings a document
// repeats thousands of times (block, view, property, template and event
// names, short values) are one string each.  Reading only checks the
// document's syntax; what the objects must satisfy (no duplicates, valid
// names, link ends that exist) is checked when they are installed, in the
// order Load always checked it — OIDs by key, links by ID, configurations,
// workspaces, terms — each as the first version of its history.
//
// What it accepts is what Save writes, spelled freely: any member order, any
// JSON whitespace, every JSON string escape, null for any value, members it
// does not know (skipped, but checked to be JSON).  What it refuses, beyond
// what the reflection decoder refused (kept as the oracle in the tests): a
// document that is not one object, anything but whitespace after it, a
// known member given twice in one object, and a member name that matches a
// known one only when case is ignored — encoding/json lets the last of those
// win silently, so a damaged document used to load as a different database.

const (
	// snapWindowBytes is the decoder's read buffer: garbage once the
	// document is read, so no larger than keeps the reads few.
	snapWindowBytes = 8 << 10

	// snapMaxDepth is how deep arrays and objects may nest (in members the
	// format does not know: what it knows is four deep), as in encoding/json.
	snapMaxDepth = 10000

	// snapInternBytes is the longest string the decoder looks up in its
	// table of strings already seen instead of allocating it, and
	// snapInternSlots the size of that table.
	snapInternBytes = 32
	snapInternSlots = 512
)

// The members of the document's objects.  A decoder method switches on a
// member's index in its list.
var (
	docMembers       = []string{"seq", "next_link", "oids", "links", "configurations", "workspaces", "terms"}
	oidMembers       = []string{"block", "view", "version", "seq", "props"}
	linkMembers      = []string{"id", "class", "from", "to", "template", "propagates", "props", "seq"}
	configMembers    = []string{"name", "seq", "oids", "links"}
	workspaceMembers = []string{"name", "root", "paths"}
	termMembers      = []string{"term", "lsn"}
)

// snapDec decodes one document.
type snapDec struct {
	r        io.Reader
	buf      []byte // the window
	pos, end int    // buf[pos:end] is read and not yet consumed
	base     int64  // where buf[0] is in the document
	rerr     error  // what ended the input: io.EOF or a read error

	depth int    // arrays and objects open, in known members
	stack []byte // and their opening brackets, in a member being skipped
	str   []byte // a string that needed decoding, or straddled the window

	// strs holds the short strings seen lately, each where its hash puts
	// it: a document repeats a few dozen names thousands of times, and a
	// table that neither grows nor is searched catches them.
	strs [snapInternSlots]string
	keys []Key    // a configuration's keys, before they are counted
	ids  []LinkID // and its link IDs

	// The document's content, in document order.
	seq, nextLink int64
	oids          []*OID
	links         []*Link
	configs       []*Configuration
	workspaces    []*Workspace
	terms         []TermStart

	// defects holds, for a link, configuration or workspace whose class or
	// keys do not parse, the first such error: install reports it when it
	// gets there.
	defects map[any]error
}

// members is where the decoder stands in one object: which of the known
// members it has seen.
type members struct {
	started bool
	seen    uint32
}

// ---------------------------------------------------------------------------
// The window.

// more makes at least one unconsumed byte available, and reports false at
// the end of the input.  It invalidates every slice of the window.
func (d *snapDec) more() bool {
	if d.pos < d.end {
		return true
	}
	d.base += int64(d.end)
	d.pos, d.end = 0, 0
	for empty := 0; d.end == 0 && d.rerr == nil; empty++ {
		d.end, d.rerr = d.r.Read(d.buf)
		if empty == 100 {
			d.rerr = io.ErrNoProgress
		}
	}
	return d.end > 0
}

// ended is the error for input that stops inside the document.
func (d *snapDec) ended() error {
	if d.rerr != nil && d.rerr != io.EOF {
		return fmt.Errorf("meta: decode: %w", d.rerr)
	}
	return fmt.Errorf("meta: decode: %w", io.ErrUnexpectedEOF)
}

func (d *snapDec) syntax(format string, args ...any) error {
	return fmt.Errorf("meta: decode: %s at offset %d", fmt.Sprintf(format, args...), d.base+int64(d.pos))
}

// space skips whitespace and returns the byte after it, unconsumed.
func (d *snapDec) space() (byte, error) {
	for {
		for d.pos < d.end {
			c := d.buf[d.pos]
			if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
				return c, nil
			}
			d.pos++
		}
		if !d.more() {
			return 0, d.ended()
		}
	}
}

// byte consumes one byte.
func (d *snapDec) byte() (byte, error) {
	if !d.more() {
		return 0, d.ended()
	}
	c := d.buf[d.pos]
	d.pos++
	return c, nil
}

// expect skips whitespace and consumes the byte c, which must follow.
func (d *snapDec) expect(c byte) error {
	got, err := d.space()
	if err != nil {
		return err
	}
	if got != c {
		return d.syntax("%q where %q should be", got, c)
	}
	d.pos++
	return nil
}

// literal consumes word, whose first byte the caller has seen.
func (d *snapDec) literal(word string) error {
	for i := 0; i < len(word); i++ {
		c, err := d.byte()
		if err != nil {
			return err
		}
		if c != word[i] {
			d.pos--
			return d.syntax("%q in literal %s", c, word)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Arrays and objects.

// open consumes the bracket that opens an array or an object, or a null in
// its place, which it reports.
func (d *snapDec) open(bracket byte) (null bool, err error) {
	c, err := d.space()
	if err != nil {
		return false, err
	}
	if c == 'n' {
		return true, d.literal("null")
	}
	if c != bracket {
		return false, d.syntax("%q where %q should open a value", c, bracket)
	}
	d.pos++
	if d.depth++; d.depth > snapMaxDepth {
		return false, d.syntax("nested deeper than %d", snapMaxDepth)
	}
	return false, nil
}

// separator steps over what stands between two members or elements of the
// array or object open closes, or over its closing bracket: it reports
// whether another one follows.  first is true before the first.
func (d *snapDec) separator(first bool, closer byte) (bool, error) {
	c, err := d.space()
	if err != nil {
		return false, err
	}
	if c == closer {
		d.pos++
		d.depth--
		return false, nil
	}
	if first {
		return true, nil
	}
	if c != ',' {
		return false, d.syntax("%q where ',' or %q should be", c, closer)
	}
	d.pos++
	if c, err = d.space(); err == nil && c == closer {
		err = d.syntax("%q after ','", c)
	}
	return err == nil, err
}

// name reads a member's name up to its closing quote and reports false at
// the object's end.  The name is good until the decoder reads on, which the
// colon the caller consumes next does.
func (d *snapDec) name(first bool) ([]byte, bool, error) {
	ok, err := d.separator(first, '}')
	if !ok {
		return nil, false, err
	}
	if err := d.expect('"'); err != nil {
		return nil, false, err
	}
	name, err := d.stringBody()
	return name, err == nil, err
}

// member moves to the value of the object's next known member and returns
// the member's index in known, or -1 at the object's end.  Members the
// format does not know are skipped; a known one given twice, or spelled in
// another case, is refused.
func (d *snapDec) member(m *members, known []string) (int, error) {
	for {
		name, ok, err := d.name(!m.started)
		if !ok {
			return -1, err
		}
		m.started = true
		at := slices.IndexFunc(known, func(k string) bool { return string(name) == k })
		if at < 0 {
			for _, k := range known {
				if strings.EqualFold(string(name), k) {
					return -1, d.syntax("member %q: the format spells it %q", name, k)
				}
			}
		}
		if err := d.expect(':'); err != nil {
			return -1, err
		}
		if at < 0 {
			if err := d.skipValue(); err != nil {
				return -1, err
			}
			continue
		}
		if m.seen&(1<<at) != 0 {
			return -1, d.syntax("member %q given twice", known[at])
		}
		m.seen |= 1 << at
		return at, nil
	}
}

// skipValue consumes one value of any shape, checking that it is JSON.
func (d *snapDec) skipValue() error {
	floor := len(d.stack)
	for {
		c, err := d.space()
		if err != nil {
			return err
		}
		opened := false
		switch {
		case c == '{' || c == '[':
			d.pos++
			d.stack = append(d.stack, c)
			if d.depth+len(d.stack) > snapMaxDepth {
				return d.syntax("nested deeper than %d", snapMaxDepth)
			}
			opened = true
		case c == '"':
			d.pos++
			_, err = d.stringBody()
		case c == 't':
			err = d.literal("true")
		case c == 'f':
			err = d.literal("false")
		case c == 'n':
			err = d.literal("null")
		case c == '-' || c >= '0' && c <= '9':
			_, _, err = d.number()
		default:
			err = d.syntax("%q where a value should start", c)
		}
		if err != nil {
			return err
		}
		// Close what this value ends, up to the next value's start.
		for {
			if len(d.stack) == floor {
				return nil
			}
			top := d.stack[len(d.stack)-1]
			if c, err = d.space(); err != nil {
				return err
			}
			if c == top+2 { // ']' and '}' are two past their openers
				d.pos++
				d.stack = d.stack[:len(d.stack)-1]
				opened = false
				continue
			}
			if !opened {
				if c != ',' {
					return d.syntax("%q where ',' or %q should be", c, top+2)
				}
				d.pos++
			}
			if top == '{' {
				if err = d.expect('"'); err == nil {
					if _, err = d.stringBody(); err == nil {
						err = d.expect(':')
					}
				}
				if err != nil {
					return err
				}
			}
			break
		}
	}
}

// ---------------------------------------------------------------------------
// Scalars.

// number consumes a JSON number.  whole reports that it is an integer that
// fits v; a fraction, an exponent or a 20th digit make it a number the
// document format has no place for.
func (d *snapDec) number() (v int64, whole bool, err error) {
	c, err := d.byte()
	if err != nil {
		return 0, false, err
	}
	neg := c == '-'
	if neg {
		if c, err = d.byte(); err != nil {
			return 0, false, err
		}
	}
	if c < '0' || c > '9' {
		d.pos--
		return 0, false, d.syntax("%q in a number", c)
	}
	whole = true
	// digits consumes a run of digits, into v while it holds them.
	digits := func(into bool) (n int) {
		for d.more() && d.buf[d.pos] >= '0' && d.buf[d.pos] <= '9' {
			if into {
				digit := int64(d.buf[d.pos] - '0')
				if v < (-1<<63+digit)/10 {
					whole = false
				}
				v = v*10 - digit // negative, to reach -1<<63
			}
			d.pos++
			n++
		}
		return n
	}
	v = -int64(c - '0')
	if c != '0' {
		digits(true)
	} else if d.more() && d.buf[d.pos] >= '0' && d.buf[d.pos] <= '9' {
		return 0, false, d.syntax("digit after a leading 0")
	}
	if d.more() && d.buf[d.pos] == '.' {
		d.pos++
		if whole = false; digits(false) == 0 {
			return 0, false, d.syntax("no digit after the decimal point")
		}
	}
	if d.more() && d.buf[d.pos]|0x20 == 'e' {
		d.pos++
		if d.more() && (d.buf[d.pos] == '+' || d.buf[d.pos] == '-') {
			d.pos++
		}
		if whole = false; digits(false) == 0 {
			return 0, false, d.syntax("no digit in the exponent")
		}
	}
	if !neg {
		if v == -1<<63 {
			whole = false
		}
		v = -v
	}
	return v, whole, nil
}

// integer reads a member that is a 64-bit integer; null is 0.
func (d *snapDec) integer() (int64, error) {
	c, err := d.space()
	if err != nil {
		return 0, err
	}
	if c == 'n' {
		return 0, d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return 0, d.syntax("%q where an integer should be", c)
	}
	v, whole, err := d.number()
	if err == nil && !whole {
		err = d.syntax("not a 64-bit integer")
	}
	return v, err
}

// text reads a member that is a string and returns its content, good until
// the decoder reads on; null is the empty string.
func (d *snapDec) text() ([]byte, error) {
	c, err := d.space()
	if err != nil {
		return nil, err
	}
	if c == 'n' {
		return nil, d.literal("null")
	}
	if c != '"' {
		return nil, d.syntax("%q where a string should be", c)
	}
	d.pos++
	return d.stringBody()
}

// stringBody reads a string whose opening quote has been consumed, up to
// and including its closing quote, and returns its content: a piece of the
// window when the string lies in it as plain ASCII, and d.str — decoded as
// encoding/json decodes, invalid UTF-8 and lone surrogates becoming U+FFFD —
// otherwise.  Either is good until the decoder reads on.
func (d *snapDec) stringBody() ([]byte, error) {
	i := d.pos
	for ; i < d.end; i++ {
		c := d.buf[i]
		if c == '"' {
			s := d.buf[d.pos:i]
			d.pos = i + 1
			return s, nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
	}
	d.str = append(d.str[:0], d.buf[d.pos:i]...)
	d.pos = i

	var high rune // a \u escape's high surrogate, waiting for its low one
	raw8 := false // a byte above ASCII was copied as it stood
	flush := func() {
		if high != 0 {
			d.str = utf8.AppendRune(d.str, utf8.RuneError)
			high = 0
		}
	}
	for {
		if !d.more() {
			return nil, d.ended()
		}
		// A run of bytes that stand for themselves.
		i := d.pos
		for ; i < d.end; i++ {
			c := d.buf[i]
			if c == '"' || c == '\\' || c < ' ' {
				break
			}
			raw8 = raw8 || c >= utf8.RuneSelf
		}
		if i > d.pos {
			flush()
			d.str = append(d.str, d.buf[d.pos:i]...)
			if d.pos = i; i == d.end {
				continue
			}
		}
		c := d.buf[d.pos]
		if c < ' ' {
			return nil, d.syntax("control character %q in a string", c)
		}
		d.pos++
		if c == '"' {
			flush()
			if raw8 && !utf8.Valid(d.str) {
				// Byte by byte, as a conversion to runes replaces them.
				d.str = []byte(string([]rune(string(d.str))))
			}
			return d.str, nil
		}
		if c, err := d.byte(); err != nil {
			return nil, err
		} else if c != 'u' {
			switch c {
			case '"', '\\', '/':
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default:
				d.pos--
				return nil, d.syntax("%q in a string escape", c)
			}
			flush()
			d.str = append(d.str, c)
			continue
		}
		var r rune
		for n := 0; n < 4; n++ {
			c, err := d.byte()
			if err != nil {
				return nil, err
			}
			switch {
			case c >= '0' && c <= '9':
				c -= '0'
			case c|0x20 >= 'a' && c|0x20 <= 'f':
				c = (c | 0x20) - 'a' + 10
			default:
				d.pos--
				return nil, d.syntax("%q in a \\u escape", c)
			}
			r = r<<4 | rune(c)
		}
		switch {
		case !utf16.IsSurrogate(r):
			flush()
			d.str = utf8.AppendRune(d.str, r)
		case r < 0xDC00: // a high surrogate: the next escape may complete it
			flush()
			high = r
		case high != 0:
			d.str = utf8.AppendRune(d.str, utf16.DecodeRune(high, r))
			high = 0
		default: // a low surrogate on its own
			d.str = utf8.AppendRune(d.str, utf8.RuneError)
		}
	}
}

// intern returns b as a string, the same string for the same bytes when
// they are few and were seen not long ago: a document names a view or a
// property thousands of times.
func (d *snapDec) intern(b []byte) string {
	if len(b) > snapInternBytes {
		return string(b)
	}
	slot := &d.strs[fnv1a(b)%snapInternSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// word reads a string member as an interned string.
func (d *snapDec) word() (string, error) {
	b, err := d.text()
	return d.intern(b), err
}

// key reads a string value that holds a Key in its "block,view,version"
// form.  A string that is no key is not the document's syntax at fault: it
// comes back as keyErr, for install to report.
func (d *snapDec) key() (k Key, keyErr, err error) {
	b, err := d.text()
	if err != nil {
		return Key{}, nil, err
	}
	k, keyErr = d.parseKey(b)
	return k, keyErr, nil
}

// parseKey parses a key.  The plain spelling — printable ASCII names, a
// version of digits — is parsed where it lies; anything else is ParseKey's
// to judge.
func (d *snapDec) parseKey(b []byte) (Key, error) {
	if k, ok := d.plainKey(b); ok {
		return k, nil
	}
	k, err := ParseKey(string(b))
	if err != nil {
		return Key{}, err
	}
	k.Block, k.View = d.intern([]byte(k.Block)), d.intern([]byte(k.View))
	return k, nil
}

func (d *snapDec) plainKey(b []byte) (Key, bool) {
	c1 := bytes.IndexByte(b, ',')
	if c1 <= 0 {
		return Key{}, false
	}
	c2 := bytes.IndexByte(b[c1+1:], ',')
	if c2 <= 0 {
		return Key{}, false
	}
	c2 += c1 + 1
	digits := b[c2+1:]
	if len(digits) == 0 || len(digits) > 9 {
		return Key{}, false
	}
	version := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return Key{}, false
		}
		version = version*10 + int(c-'0')
	}
	if version < 1 || !plainName(b[:c1]) || !plainName(b[c1+1:c2]) {
		return Key{}, false
	}
	return Key{Block: d.intern(b[:c1]), View: d.intern(b[c1+1 : c2]), Version: version}, true
}

// plainName reports whether a block or view name is printable ASCII that
// ValidateName accepts and ParseKey would not trim.
func plainName(b []byte) bool {
	for _, c := range b {
		if c <= ' ' || c >= 0x7f || strings.IndexByte(",\"$;=()#", c) >= 0 {
			return false
		}
	}
	return true
}

// stringMap reads an object of strings — a property map — with its names
// interned and, as encoding/json has it, the last of a repeated name
// winning; null is no map.
func (d *snapDec) stringMap() (map[string]string, error) {
	null, err := d.open('{')
	if null || err != nil {
		return nil, err
	}
	m := make(map[string]string)
	for first := true; ; first = false {
		b, ok, err := d.name(first)
		if !ok {
			return m, err
		}
		name := d.intern(b)
		if err := d.expect(':'); err != nil {
			return nil, err
		}
		if m[name], err = d.word(); err != nil {
			return nil, err
		}
	}
}

// ---------------------------------------------------------------------------
// The document.

func (d *snapDec) document() error {
	c, err := d.space()
	if err != nil {
		return err
	}
	if c != '{' {
		return d.syntax("%q where the document's '{' should be", c)
	}
	_, err = d.object(docMembers, func(at int) (err error) {
		switch at {
		case 0:
			d.seq, err = d.integer()
		case 1:
			d.nextLink, err = d.integer()
		case 2:
			err = d.array(d.oid)
		case 3:
			err = d.array(d.link)
		case 4:
			err = d.array(d.config)
		case 5:
			err = d.array(d.workspace)
		case 6:
			err = d.array(d.term)
		}
		return err
	})
	if err != nil {
		return err
	}
	// Nothing but whitespace may follow: what Decode of encoding/json left
	// unread was never looked at.
	if _, err := d.space(); err == nil {
		return d.syntax("data after the document")
	} else if d.rerr != io.EOF {
		return err
	}
	return nil
}

// object reads an object, one call of value — with the member's index in
// known — for the value of each known member; null is an empty one.  It
// returns which members the object had, a bit each.
func (d *snapDec) object(known []string, value func(at int) error) (seen uint32, err error) {
	null, err := d.open('{')
	if null || err != nil {
		return 0, err
	}
	var m members
	for {
		at, err := d.member(&m, known)
		if at < 0 || err != nil {
			return m.seen, err
		}
		if err := value(at); err != nil {
			return 0, err
		}
	}
}

// array reads an array, one call of element for each of its values; null is
// an empty one.
func (d *snapDec) array(element func() error) error {
	null, err := d.open('[')
	if null || err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := d.separator(first, ']')
		if !ok {
			return err
		}
		if err := element(); err != nil {
			return err
		}
	}
}

func (d *snapDec) oid() error {
	o := &OID{}
	_, err := d.object(oidMembers, func(at int) (err error) {
		switch at {
		case 0:
			o.Key.Block, err = d.word()
		case 1:
			o.Key.View, err = d.word()
		case 2:
			var version int64
			version, err = d.integer()
			o.Key.Version = int(version)
		case 3:
			o.Seq, err = d.integer()
		case 4:
			o.Props, err = d.stringMap()
		}
		return err
	})
	d.oids = append(d.oids, o)
	return err
}

// defect notes the first thing wrong with an object that install will have
// to report.
func (d *snapDec) defect(of any, err error) {
	if err == nil || d.defects[of] != nil {
		return
	}
	if d.defects == nil {
		d.defects = make(map[any]error)
	}
	d.defects[of] = err
}

func (d *snapDec) link() error {
	l := &Link{}
	var (
		class                    string
		classErr, fromErr, toErr error
	)
	seen, err := d.object(linkMembers, func(at int) (err error) {
		switch at {
		case 0:
			var id int64
			id, err = d.integer()
			l.ID = LinkID(id)
		case 1:
			class, err = d.word()
		case 2:
			l.From, fromErr, err = d.key()
		case 3:
			l.To, toErr, err = d.key()
		case 4:
			l.Template, err = d.word()
		case 5:
			err = d.propagates(l)
		case 6:
			l.Props, err = d.stringMap()
		case 7:
			l.Seq, err = d.integer()
		}
		return err
	})
	// A key that is not there is the empty key, which does not parse.
	if seen&(1<<2) == 0 {
		_, fromErr = ParseKey("")
	}
	if seen&(1<<3) == 0 {
		_, toErr = ParseKey("")
	}
	l.Class, classErr = ParseLinkClass(class)
	d.defect(l, cmp.Or(classErr, fromErr, toErr))
	if l.Props == nil {
		l.Props = make(map[string]string)
	}
	if l.Propagates == nil {
		l.Propagates = make(map[string]bool)
	}
	d.links = append(d.links, l)
	return err
}

// propagates reads a link's PROPAGATE set.
func (d *snapDec) propagates(l *Link) error {
	l.Propagates = make(map[string]bool)
	return d.array(func() error {
		event, err := d.word()
		l.Propagates[event] = true
		return err
	})
}

func (d *snapDec) config() error {
	c := &Configuration{}
	d.keys, d.ids = d.keys[:0], d.ids[:0]
	_, err := d.object(configMembers, func(at int) (err error) {
		switch at {
		case 0:
			c.Name, err = d.word()
		case 1:
			c.Seq, err = d.integer()
		case 2:
			err = d.array(func() error {
				k, keyErr, err := d.key()
				d.defect(c, keyErr)
				d.keys = append(d.keys, k)
				return err
			})
		case 3:
			err = d.array(func() error {
				id, err := d.integer()
				d.ids = append(d.ids, LinkID(id))
				return err
			})
		}
		return err
	})
	// Exactly as long as they are: a configuration is never appended to.
	if len(d.keys) > 0 {
		c.OIDs = slices.Clone(d.keys)
	}
	if len(d.ids) > 0 {
		c.Links = slices.Clone(d.ids)
	}
	d.configs = append(d.configs, c)
	return err
}

func (d *snapDec) workspace() error {
	ws := &Workspace{paths: make(map[Key]string)}
	_, err := d.object(workspaceMembers, func(at int) (err error) {
		switch at {
		case 0:
			ws.Name, err = d.word()
		case 1:
			ws.Root, err = d.word()
		case 2:
			err = d.paths(ws)
		}
		return err
	})
	d.workspaces = append(d.workspaces, ws)
	return err
}

// paths reads a workspace's bindings, an object whose names are keys.
func (d *snapDec) paths(ws *Workspace) error {
	null, err := d.open('{')
	if null || err != nil {
		return err
	}
	for first := true; ; first = false {
		b, ok, err := d.name(first)
		if !ok {
			return err
		}
		k, keyErr := d.parseKey(b)
		d.defect(ws, keyErr)
		if err := d.expect(':'); err != nil {
			return err
		}
		path, err := d.text()
		if err != nil {
			return err
		}
		ws.paths[k] = string(path)
	}
}

func (d *snapDec) term() error {
	var ts TermStart
	_, err := d.object(termMembers, func(at int) (err error) {
		if at == 0 {
			ts.Term, err = d.integer()
		} else {
			ts.LSN, err = d.integer()
		}
		return err
	})
	d.terms = append(d.terms, ts)
	return err
}

// ---------------------------------------------------------------------------
// Installing what was read.

// install enters the document's objects in db, which is empty and nobody
// else's yet (no locks), each as the first version of its history.  The
// order of the checks is the order Load has always made them in, so a
// document with several defects is refused for the same one as ever.
func (d *snapDec) install(db *DB) error {
	// A document that lived through a promotion is stamped at its newest
	// term start, so that the view pinned there carries the whole term
	// table.
	var stamp int64
	if n := len(d.terms); n > 0 {
		stamp = d.terms[n-1].LSN
	}

	// OIDs, in key order: duplicates come side by side and every chain
	// comes in one ascending run.
	slices.SortFunc(d.oids, func(a, b *OID) int { return a.Key.Compare(b.Key) })
	for i := 0; i < len(d.oids); {
		bv := d.oids[i].Key.BV()
		run := i + 1
		for run < len(d.oids) && d.oids[run].Key.BV() == bv {
			run++
		}
		h := db.head.shard(bv.Block)
		chain := make([]int, 0, run-i)
		for ; i < run; i++ {
			o := d.oids[i]
			// Refused: a duplicate's properties must never silently
			// overwrite the first occurrence's.
			if len(chain) > 0 && chain[len(chain)-1] == o.Key.Version {
				return fmt.Errorf("meta: load: duplicate oid %v in document: %w", o.Key, ErrExists)
			}
			if err := o.Key.Validate(); err != nil {
				return fmt.Errorf("meta: load oid: %w", err)
			}
			h.oids.push(o.Key, stamp, oidVal{seq: o.Seq, props: o.Props}, false)
			chain = append(chain, o.Key.Version)
		}
		h.chains.push(bv, stamp, chain, false)
	}

	// Links, in ID order.
	slices.SortFunc(d.links, func(a, b *Link) int { return cmp.Compare(a.ID, b.ID) })
	for i, l := range d.links {
		fail := func(err error) error { return fmt.Errorf("meta: load link %d: %w", l.ID, err) }
		if err := d.defects[l]; err != nil {
			return fail(err)
		}
		if err := l.validate(); err != nil {
			return fail(err)
		}
		if i > 0 && d.links[i-1].ID == l.ID {
			return fail(ErrExists)
		}
		if !db.head.HasOID(l.From) {
			return fail(fmt.Errorf("from %v: %w", l.From, ErrNotFound))
		}
		if !db.head.HasOID(l.To) {
			return fail(fmt.Errorf("to %v: %w", l.To, ErrNotFound))
		}
		db.head.stripe(l.ID).links.push(l.ID, stamp, l, false)
	}
	// The postings, one push each: a key's links are one run of the links
	// sorted by From and one of the links sorted by To, and the stable sorts
	// keep each run in ID order.
	byTo := slices.Clone(d.links)
	fromOf, toOf := func(l *Link) Key { return l.From }, func(l *Link) Key { return l.To }
	slices.SortStableFunc(d.links, func(a, b *Link) int { return a.From.Compare(b.From) })
	slices.SortStableFunc(byTo, func(a, b *Link) int { return a.To.Compare(b.To) })
	// cut takes the leading links whose end is k off the list, as a slice of
	// their own: nil when there are none.
	cut := func(links []*Link, end func(*Link) Key, k Key) (run, rest []*Link) {
		n := 0
		for n < len(links) && end(links[n]) == k {
			n++
		}
		if n == 0 {
			return nil, links
		}
		return slices.Clone(links[:n]), links[n:]
	}
	for from, to := d.links, byTo; len(from)+len(to) > 0; {
		var k Key
		if len(to) == 0 || len(from) > 0 && from[0].From.Compare(to[0].To) <= 0 {
			k = from[0].From
		} else {
			k = to[0].To
		}
		var p posting
		p.out, from = cut(from, fromOf, k)
		p.in, to = cut(to, toOf, k)
		db.head.shard(k.Block).put(k, stamp, p)
	}

	ctl := db.store.Load().ctl
	for _, c := range d.configs {
		if _, ok := ctl.configs.at(c.Name, stamp); ok {
			return fmt.Errorf("meta: load: duplicate configuration %q in document: %w", c.Name, ErrExists)
		}
		if err := d.defects[c]; err != nil {
			return fmt.Errorf("meta: load configuration %q: %w", c.Name, err)
		}
		ctl.configs.push(c.Name, stamp, c, false)
	}
	for _, ws := range d.workspaces {
		if _, ok := ctl.workspaces.at(ws.Name, stamp); ok {
			return fmt.Errorf("meta: load: duplicate workspace %q in document: %w", ws.Name, ErrExists)
		}
		if err := d.defects[ws]; err != nil {
			return fmt.Errorf("meta: load workspace %q: %w", ws.Name, err)
		}
		ctl.workspaces.push(ws.Name, stamp, ws, false)
	}
	if len(d.terms) > 0 {
		if err := db.setTermStarts(d.terms); err != nil {
			return fmt.Errorf("meta: load: %w", err)
		}
	}
	db.seq.Store(d.seq)
	db.nextLink.Store(d.nextLink)
	db.mvcc.mu.Lock()
	db.rebaseLocked(stamp)
	db.mvcc.mu.Unlock()
	return nil
}
