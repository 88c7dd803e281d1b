// Package wire defines the text protocol spoken between wrapper programs
// and the DAMOCLES project server.  The paper's wrappers post event
// messages of the form
//
//	postEvent ckin up reg,verilog,4 "logic sim passed"
//
// through the computer network; this package provides the line-based
// framing, quoting and request/response encoding both ends share.
//
// Requests are single lines: a verb followed by space-separated arguments;
// arguments containing spaces are double-quoted with backslash escapes.
// Responses are either a single "OK <detail>" / "ERR <message>" line, or a
// multi-line form "OK+ <detail>" followed by body lines each prefixed with
// '|' and a terminating "." line.
package wire

import (
	"errors"
	"fmt"
	"strings"
)

// Protocol verbs.
const (
	VerbPost      = "POST"      // POST <event> <up|down> <oid> [args...]
	VerbCreate    = "CREATE"    // CREATE <block> <view>
	VerbLink      = "LINK"      // LINK <use|derive> <from-oid> <to-oid>
	VerbState     = "STATE"     // STATE <oid>
	VerbReport    = "REPORT"    // REPORT
	VerbGap       = "GAP"       // GAP
	VerbSnapshot  = "SNAPSHOT"  // SNAPSHOT <name> <root-oid|*>
	VerbStats     = "STATS"     // STATS
	VerbBlueprint = "BLUEPRINT" // BLUEPRINT
	VerbPing      = "PING"      // PING
	VerbQuit      = "QUIT"      // QUIT
	VerbLatest    = "LATEST"    // LATEST <block> <view>
	VerbProp      = "PROP"      // PROP <oid> <name>
	VerbDot       = "DOT"       // DOT <flow|state>
	VerbLinks     = "LINKS"     // LINKS <oid>
	VerbSync      = "SYNC"      // SYNC — wait until the event queue settles
	VerbBatch     = "BATCH"     // BATCH <item> [<item>...]; see BatchItem
	VerbFollow    = "FOLLOW"    // FOLLOW <last-applied-lsn> <term|0> <version> — after the OK+ line, the connection carries journal frames (package journal)
	VerbLSN       = "LSN"       // LSN — report the journal/applied log position
	VerbRole      = "ROLE"      // ROLE — role, term, applied LSN and commit watermark in one line
	VerbPromote   = "PROMOTE"   // PROMOTE — flip a read-only follower into a primary (term bump)
	VerbBPSwap    = "BPSWAP"    // BPSWAP <source> — swap the live blueprint (one quoted arg, newlines escaped)
	VerbQuery     = "QUERY"     // QUERY <lsn> <reach|deps|equiv|resolve> <args...> — graph query pinned at an LSN (0 = current)
)

// AckPrefix opens the one upstream line a follower may write on a FOLLOW
// connection: "ACK <lsn>" reports that every record up to lsn is applied
// AND committed (durable) on the follower.  The primary's quorum gate
// counts these per-follower positions; a follower that never sends them
// (an older build) simply never contributes to a quorum.
const AckPrefix = "ACK"

// ErrSyntax reports a malformed protocol line.
var ErrSyntax = errors.New("wire: syntax error")

// BatchItem is one event inside a BATCH request — the batched form of the
// POST verb.  A wrapper checking in a whole hierarchy sends one BATCH with
// an item per OID instead of one POST round-trip each; the server posts
// every item, drains once, and returns one response.
//
// On the wire each item is a single quoted field whose content is itself a
// postEvent-shaped sub-line, "<event> <dir> <oid> [args...]", tokenized
// with the same quoting rules as a request line.  Nesting through Quote
// keeps arbitrary argument bytes safe without a second framing scheme.
type BatchItem struct {
	Event string
	Dir   string // "up" or "down"
	OID   string // target key in block,view,version syntax
	Args  []string
}

// Encode renders the item as the sub-line carried inside one BATCH field.
func (it BatchItem) Encode() string {
	var sb strings.Builder
	sb.WriteString(Quote(it.Event))
	sb.WriteByte(' ')
	sb.WriteString(Quote(it.Dir))
	sb.WriteByte(' ')
	sb.WriteString(Quote(it.OID))
	for _, a := range it.Args {
		sb.WriteByte(' ')
		sb.WriteString(Quote(a))
	}
	return sb.String()
}

// ParseBatchItem parses one BATCH field back into an item.
func ParseBatchItem(s string) (BatchItem, error) {
	fields, err := Tokenize(s)
	if err != nil {
		return BatchItem{}, err
	}
	if len(fields) < 3 {
		return BatchItem{}, fmt.Errorf("%w: batch item wants <event> <dir> <oid> [args...], got %q", ErrSyntax, s)
	}
	it := BatchItem{Event: fields[0], Dir: fields[1], OID: fields[2]}
	if len(fields) > 3 {
		it.Args = fields[3:]
	}
	return it, nil
}

// Request is one client command.
type Request struct {
	Verb string
	Args []string
	// User identifies the posting designer; carried as a "user=<name>"
	// prefix field so every verb can be attributed.
	User string
}

// Encode renders the request as a protocol line (without newline).
func (r Request) Encode() string {
	var sb strings.Builder
	if r.User != "" {
		sb.WriteString(Quote("user=" + r.User))
		sb.WriteByte(' ')
	}
	sb.WriteString(Quote(r.Verb)) // a field like any other: a verb that was parsed may hold anything
	for _, a := range r.Args {
		sb.WriteByte(' ')
		sb.WriteString(Quote(a))
	}
	return sb.String()
}

// ParseRequest parses a protocol line.
func ParseRequest(line string) (Request, error) {
	fields, err := Tokenize(line)
	if err != nil {
		return Request{}, err
	}
	if len(fields) == 0 {
		return Request{}, fmt.Errorf("%w: empty request", ErrSyntax)
	}
	var req Request
	if strings.HasPrefix(fields[0], "user=") {
		req.User = strings.TrimPrefix(fields[0], "user=")
		fields = fields[1:]
		if len(fields) == 0 {
			return Request{}, fmt.Errorf("%w: missing verb", ErrSyntax)
		}
	}
	req.Verb = strings.ToUpper(fields[0])
	if len(fields) > 1 {
		req.Args = fields[1:]
	}
	return req, nil
}

// Response is one server reply.
type Response struct {
	OK     bool
	Detail string   // single-line detail / error message
	Body   []string // optional multi-line payload
}

// Encode renders the response as protocol lines (without trailing newline
// on the last line).  A CR or LF inside Detail or a body line is written
// as the two characters \r or \n: whatever text ends up in a response (an
// error quoting a request's argument, say), the response is one line, or
// len(Body)+2, and no part of it reads as the answer to the next request.
func (r Response) Encode() string {
	status := "ERR"
	if r.OK {
		status = "OK"
	}
	detail := oneLine(r.Detail)
	if len(r.Body) == 0 {
		if detail == "" {
			return status
		}
		return status + " " + detail
	}
	var sb strings.Builder
	sb.WriteString(status)
	sb.WriteString("+")
	if detail != "" {
		sb.WriteByte(' ')
		sb.WriteString(detail)
	}
	for _, line := range r.Body {
		sb.WriteString("\n|")
		sb.WriteString(oneLine(line))
	}
	sb.WriteString("\n.")
	return sb.String()
}

var lineBreaks = strings.NewReplacer("\n", `\n`, "\r", `\r`)

// oneLine returns s with its line breaks escaped.
func oneLine(s string) string {
	if strings.ContainsAny(s, "\r\n") {
		return lineBreaks.Replace(s)
	}
	return s
}

// ParseResponseHeader parses the first line of a response and reports
// whether body lines follow.
func ParseResponseHeader(line string) (resp Response, multiline bool, err error) {
	head, detail, _ := strings.Cut(line, " ")
	switch head {
	case "OK":
		return Response{OK: true, Detail: detail}, false, nil
	case "OK+":
		return Response{OK: true, Detail: detail}, true, nil
	case "ERR":
		return Response{OK: false, Detail: detail}, false, nil
	case "ERR+":
		return Response{OK: false, Detail: detail}, true, nil
	default:
		return Response{}, false, fmt.Errorf("%w: bad response header %q", ErrSyntax, line)
	}
}

// ParseBodyLine interprets one line following a multiline header: a body
// line ("|" prefix, returned unprefixed) or the "." terminator (done=true).
func ParseBodyLine(line string) (content string, done bool, err error) {
	if line == "." {
		return "", true, nil
	}
	if strings.HasPrefix(line, "|") {
		return line[1:], false, nil
	}
	return "", false, fmt.Errorf("%w: bad body line %q", ErrSyntax, line)
}

// Quote renders s as a protocol field: bare when it contains no spaces,
// quotes or control characters, double-quoted with escapes otherwise.
// The escaping rules live in AppendQuote; keeping one table means the
// journal's payload encoder can never drift from the other producers.
func Quote(s string) string {
	if !needsQuote(s) {
		return s
	}
	return string(AppendQuote(nil, s))
}

// needsQuote reports whether s cannot travel bare.
func needsQuote[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '"', '\\', '\r', '\n':
			return true
		}
	}
	return len(s) == 0
}

// AppendQuote appends the Quote rendering of s to dst — the allocation-free
// form the journal's hot append path and the server's REPORT rows use to
// encode fields into a reused buffer; s may itself be such a buffer.
func AppendQuote[S string | []byte](dst []byte, s S) []byte {
	if !needsQuote(s) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	start := 0 // of the run of bytes that travel as they are
	for i := 0; i < len(s); i++ {
		var esc byte
		switch s[i] {
		case '"', '\\':
			esc = s[i]
		case '\n':
			esc = 'n'
		case '\t':
			esc = 't'
		case '\r':
			esc = 'r'
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, '\\', esc)
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Tokenize splits a protocol line into fields, honoring double quotes and
// backslash escapes.  Every field is a string of its own — keeping one does
// not keep the line — and the whole call allocates the slice plus one string
// per non-empty field: the fields are counted (and the line validated) in a
// first pass.
func Tokenize(line string) ([]string, error) {
	n := 0
	for i := skipBlanks(line, 0); i < len(line); {
		_, _, next, err := scanField(line, i)
		if err != nil {
			return nil, err
		}
		n++
		i = skipBlanks(line, next)
	}
	if n == 0 {
		return nil, nil
	}
	return appendFields(make([]string, 0, n), line, false)
}

// AppendFields is Tokenize for a caller that owns line and reuses dst: the
// fields are appended to dst, and a field without escapes is a substring of
// line, so the call allocates only for fields that hold escapes (and for
// dst's growth).  On error dst's appended part is meaningless.
func AppendFields(dst []string, line string) ([]string, error) {
	return appendFields(dst, line, true)
}

func appendFields(dst []string, line string, alias bool) ([]string, error) {
	for i := skipBlanks(line, 0); i < len(line); {
		body, escaped, next, err := scanField(line, i)
		if err != nil {
			return dst, err
		}
		switch {
		case escaped:
			body = unescape(body)
		case !alias:
			body = strings.Clone(body)
		}
		dst = append(dst, body)
		i = skipBlanks(line, next)
	}
	return dst, nil
}

func skipBlanks(line string, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	return i
}

// scanField scans the field that starts at line[i], which is not a blank:
// body is the field as it stands in the line, without its quotes but with
// its escapes (escaped reports whether it has any), and next the index just
// past it.  A quoted field ends at its closing quote, wherever that is.
func scanField(line string, i int) (body string, escaped bool, next int, err error) {
	n := len(line)
	if line[i] != '"' {
		start := i
		for i < n && line[i] != ' ' && line[i] != '\t' {
			if line[i] == '"' {
				return "", false, 0, fmt.Errorf("%w: quote inside bare field", ErrSyntax)
			}
			i++
		}
		return line[start:i], false, i, nil
	}
	i++
	start := i
	for i < n {
		switch line[i] {
		case '"':
			return line[start:i], escaped, i + 1, nil
		case '\\':
			if i+1 >= n {
				return "", false, 0, fmt.Errorf("%w: dangling escape", ErrSyntax)
			}
			switch line[i+1] {
			case '"', '\\', 'n', 't', 'r':
			default:
				return "", false, 0, fmt.Errorf("%w: unknown escape \\%c", ErrSyntax, line[i+1])
			}
			escaped = true
			i += 2
		default:
			i++
		}
	}
	return "", false, 0, fmt.Errorf("%w: unterminated quote", ErrSyntax)
}

// unescape resolves the escapes of a quoted field's body, which scanField
// has checked.
func unescape(body string) string {
	var sb strings.Builder
	sb.Grow(len(body))
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\\' {
			i++
			switch c = body[i]; c {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case 'r':
				c = '\r'
			}
		}
		sb.WriteByte(c)
	}
	return sb.String()
}
