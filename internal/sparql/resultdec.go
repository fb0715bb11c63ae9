package sparql

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/rdf"
)

// This file is the wire half of the streaming pipeline: an incremental
// encoder that serializes result rows as they arrive (endpoint.Server
// writes a chunk at a time) and an incremental decoder that parses the
// results JSON straight off the response body (endpoint.Remote). Both
// speak the SPARQL 1.1 Query Results JSON Format, byte- and semantics-
// identical to Results.MarshalJSON / ResultsFromJSON, the reference
// codec they are fuzzed against (results_ref_test.go), without
// encoding/json on the way: the
// encoder appends cells to one reused buffer, the decoder is a scanner
// over the fixed results grammar. What either allocates per request
// starts small and grows with the result (DESIGN.md §16).

// ResultsDecodeError is the typed failure of DecodeResults. Truncated
// marks a body that ended mid-document — the signature of a dropped
// connection or an aborted streaming response — which a client may
// retry; a false Truncated means the payload was malformed and a retry
// would fail the same way.
type ResultsDecodeError struct {
	Truncated bool
	Err       error
}

func (e *ResultsDecodeError) Error() string {
	if e.Truncated {
		return fmt.Sprintf("sparql: results JSON truncated: %v", e.Err)
	}
	return fmt.Sprintf("sparql: decoding results JSON: %v", e.Err)
}

func (e *ResultsDecodeError) Unwrap() error { return e.Err }

// DecodeResults incrementally decodes a SPARQL JSON result document
// from rd. Cells are scanned into their final rows as bytes arrive, so
// the peak footprint is the decoded table plus a read buffer of at most
// 64 KiB — never the raw body, never an intermediate form of each
// binding. It accepts exactly the documents ResultsFromJSON accepts
// (same leniency about absent, null, repeated and reordered sections,
// member-name case and invalid UTF-8) and returns identical Results;
// every failure — truncation, garbage, type mismatches — is a
// *ResultsDecodeError, never a panic.
func DecodeResults(rd io.Reader) (*Results, error) {
	res, _, err := DecodeTracedResults(rd)
	return res, err
}

// DecodeTracedResults is DecodeResults that also surfaces the
// document's top-level "trace" member — where a streamed response
// carries the server's span tree, known only once evaluation has ended
// (ResultsEncoder.SetTrace) — when it is a JSON string, else "". Like
// any unknown member it never affects the decoded table.
func DecodeTracedResults(rd io.Reader) (*Results, string, error) {
	d := resultScanner{rd: rd}
	res := d.document()
	if d.err != nil {
		return nil, "", &ResultsDecodeError{
			Truncated: errors.Is(d.err, io.EOF) || errors.Is(d.err, io.ErrUnexpectedEOF),
			Err:       d.err,
		}
	}
	return res, d.trace, nil
}

const (
	wireBufMin   = 4 << 10  // the first read buffer: most responses fit
	wireBufMax   = 64 << 10 // it doubles per refill up to this
	maxSlabTerms = 4 << 10  // cells per row-slab allocation, at most
	maxInterned  = 1 << 10  // distinct strings the intern table keeps
	maxNesting   = 10000    // encoding/json's limit on open containers
)

// resultScanner decodes one results document, doing by hand what
// json.Unmarshal does to a sparqlJSON value: the same grammar and the
// same merge rules for null, repeated and reordered members. The first
// failure is kept in err; after it every scanning method is a no-op
// returning a zero value, so callers unwind without checking each step.
type resultScanner struct {
	rd   io.Reader
	buf  []byte // buf[r:w] is read and not yet consumed
	r, w int
	got  int   // bytes of the body read so far
	rerr error // sticky error of rd
	err  error

	unq   []byte            // a string token with its escapes resolved
	key   []byte            // an object key the buffer moved under
	f     [4][]byte         // the term being scanned: type, value, datatype, xml:lang
	strs  map[string]string // interned IRIs, datatypes and language tags
	trace string

	// The head, and the high-water marks of "vars" and "bindings":
	// Unmarshal decodes a repeated array into the elements already
	// there, even ones past the previous length, and so does this.
	vars, varStore []string
	rows           [][]rdf.Term
	n              int // len of the bindings array; rows[n:] is stale
	// Cells go by the head as it stood when the first binding arrived
	// (decVars, indexed by cols), into rows cut from slab. What a
	// binding holds for another name — "results" came before "head", or
	// the head does not declare it — waits in extra, by row.
	decVars []string
	cols    map[string]int
	slab    []rdf.Term
	extra   map[int]map[string]rdf.Term
}

func (d *resultScanner) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *resultScanner) unexpected(c byte, where string) {
	d.fail(fmt.Errorf("invalid character %q %s", c, where))
}

// fill reads more of the body behind buf[r:w], which it keeps, and
// reports whether any arrived.
func (d *resultScanner) fill() bool {
	if d.rerr != nil {
		return false
	}
	held := d.w - d.r
	if held == len(d.buf) || d.got >= len(d.buf) && len(d.buf) < wireBufMax {
		// The start; or one token fills the buffer; or the document has
		// already outgrown it. Going by the bytes that have arrived, not
		// by whether the last read happened to fill the buffer, makes
		// what a response allocates a function of its length alone.
		size := max(wireBufMin, 2*len(d.buf))
		d.buf = append(make([]byte, 0, size), d.buf[d.r:d.w]...)[:size]
	} else if d.r > 0 {
		copy(d.buf, d.buf[d.r:d.w])
	}
	d.r, d.w = 0, held
	for n := 0; n == 0 && d.rerr == nil; d.w += n {
		n, d.rerr = d.rd.Read(d.buf[d.w:])
	}
	d.got += d.w - held
	return d.w > held
}

// more is fill inside a value, where the end of the body is a failure.
func (d *resultScanner) more() {
	if d.err == nil && !d.fill() {
		if d.rerr == io.EOF {
			d.rerr = io.ErrUnexpectedEOF
		}
		d.fail(d.rerr)
	}
}

func isWireSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// ws skips whitespace and returns the next byte, unconsumed.
func (d *resultScanner) ws() byte {
	for d.err == nil {
		for ; d.r < d.w; d.r++ {
			if c := d.buf[d.r]; !isWireSpace(c) {
				return c
			}
		}
		d.more()
	}
	return 0
}

// expect consumes the byte the grammar wants next.
func (d *resultScanner) expect(want byte) {
	if c := d.ws(); c != want {
		d.unexpected(c, "where "+string(want)+" must come")
	} else {
		d.r++
	}
}

// null consumes the literal whose first byte ws returned as 'n'.
func (d *resultScanner) null() {
	for d.err == nil && d.w-d.r < len("null") {
		d.more()
	}
	if d.err == nil && string(d.buf[d.r:d.r+len("null")]) != "null" {
		d.unexpected('n', "not beginning the literal null")
	}
	d.r += len("null")
}

// each scans a value the schema wants to be an object (open is '{') or
// an array ('['), calling item at every member, its key and colon
// consumed, or element. It returns their number, or -1 for null, which
// Unmarshal stores as nil in a slice or map and ignores for a struct.
// key is valid until the next scanning call.
func (d *resultScanner) each(open byte, item func(i int, key []byte)) int {
	if d.ws() == 'n' {
		d.null()
		return -1
	}
	d.expect(open)
	for i := 0; ; i++ {
		if c := d.ws(); c == open+2 || d.err != nil { // '}' or ']'
			d.r++
			return i
		} else if i > 0 {
			d.expect(',')
		}
		var key []byte
		if open == '{' {
			if key = d.str(); d.r == d.w || d.buf[d.r] != ':' {
				// Reaching the colon may refill the buffer under the view.
				d.key = append(d.key[:0], key...)
				key = d.key
			}
			d.expect(':')
		}
		item(i, key)
	}
}

// member reports which of names an object key selects under Unmarshal's
// matching — exactly, else by Unicode simple case folding — or -1.
func member(key []byte, names ...string) int {
	for m, name := range names {
		if string(key) == name || bytes.EqualFold(key, []byte(name)) {
			return m
		}
	}
	return -1
}

// str consumes a string token and returns its value as Unmarshal would
// store it: a view into the read buffer or, when escapes or invalid
// UTF-8 had to be resolved, into unq, until the next scanning call.
func (d *resultScanner) str() []byte {
	if c := d.ws(); c != '"' {
		d.unexpected(c, "where a string must begin")
	}
	off, escaped, ascii := 1, false, true
	for d.err == nil {
		for buf := d.buf[d.r:d.w]; off < len(buf); off++ {
			switch c := buf[off]; {
			case wireSafe[c]:
			case c == '"':
				tok := buf[1:off]
				d.r += off + 1
				if escaped || !ascii && !utf8.Valid(tok) {
					return d.unquote(tok)
				}
				return tok
			case c == '\\':
				escaped = true
				off++ // whatever is escaped, it does not end the token
			case c < ' ':
				d.unexpected(c, "in string literal")
				return nil
			default: // the encoder's unsafe ASCII and all beyond: checked at the quote
				ascii = false
			}
		}
		d.more()
	}
	return nil
}

// unquote resolves the escapes of a string token and coerces it to
// valid UTF-8 exactly as encoding/json does: each invalid byte and each
// unpaired surrogate becomes U+FFFD.
func (d *resultScanner) unquote(s []byte) []byte {
	out := d.unq[:0]
	for i := 0; i < len(s); {
		if s[i] != '\\' {
			r, n := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += n
			continue
		}
		c := s[i+1] // str saw a byte after every backslash
		i += 2
		if k := strings.IndexByte(`"\/bfnrt`, c); k >= 0 {
			out = append(out, "\"\\/\b\f\n\r\t"[k])
			continue
		}
		r := hex4(s[i:])
		if c != 'u' || r < 0 {
			d.unexpected(c, "in string escape code")
			return nil
		}
		if i += 4; utf16.IsSurrogate(r) {
			r2 := rune(-1)
			if len(s) >= i+6 && s[i] == '\\' && s[i+1] == 'u' {
				r2 = hex4(s[i+2:])
			}
			if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
				i += 6
			}
		}
		out = utf8.AppendRune(out, r)
	}
	d.unq = out
	return out
}

// hex4 decodes the four hexadecimal digits s begins with, or returns -1.
func hex4(s []byte) rune {
	if len(s) >= 4 {
		if v, err := strconv.ParseUint(string(s[:4]), 16, 16); err == nil {
			return rune(v)
		}
	}
	return -1
}

// skip consumes one value of any type — a member neither decoder looks
// at — holding it to JSON's grammar as Unmarshal's validating pass
// does. depth counts the containers open around it.
func (d *resultScanner) skip(depth int) {
	switch c := d.ws(); {
	case c == '"':
		d.str()
	case (c == '{' || c == '[') && depth == maxNesting:
		d.fail(errors.New("exceeded max depth"))
	case c == '{' || c == '[':
		d.each(c, func(int, []byte) { d.skip(depth + 1) })
	default: // a number or a literal name, up to the next delimiter
		off := 0
		for d.err == nil {
			if d.r+off == d.w {
				d.more()
			} else if c := d.buf[d.r+off]; c == ',' || c == '}' || c == ']' || isWireSpace(c) {
				break
			} else {
				off++
			}
		}
		if d.err == nil && !json.Valid(d.buf[d.r:d.r+off]) {
			d.fail(fmt.Errorf("invalid value %.40q", d.buf[d.r:d.r+off]))
		}
		d.r += off
	}
}

// intern returns b as a string, one copy per distinct value: IRIs,
// datatypes and language tags repeat down the columns of a result. The
// table stops growing at maxInterned, so a column of unique IRIs costs
// it lookups, not an entry per row.
func (d *resultScanner) intern(b []byte) string {
	s, ok := d.strs[string(b)]
	if !ok {
		if s = string(b); d.strs == nil {
			d.strs = make(map[string]string)
		}
		if len(d.strs) < maxInterned {
			d.strs[s] = s
		}
	}
	return s
}

func (d *resultScanner) document() *Results {
	d.each('{', func(_ int, key []byte) {
		switch m := member(key, "head", "results", "trace"); {
		case m == 0 || m == 1:
			d.each('{', func(_ int, key []byte) {
				switch {
				case m == 0 && member(key, "vars") == 0:
					d.scanVars()
				case m == 1 && member(key, "bindings") == 0:
					d.scanBindings()
				default:
					d.skip(2)
				}
			})
		case m == 2 && d.ws() == '"':
			d.trace = string(d.str())
		default:
			if m == 2 {
				d.trace = ""
			}
			d.skip(1)
		}
	})
	// Only whitespace may follow, up to a clean end of the body.
	for d.err == nil && (d.r < d.w || d.fill()) {
		if c := d.buf[d.r]; !isWireSpace(c) {
			d.unexpected(c, "after top-level value")
		}
		d.r++
	}
	if d.rerr != io.EOF {
		d.fail(d.rerr)
	}
	if d.err != nil {
		return nil
	}
	return d.table()
}

// scanVars scans "vars": a string overwrites its slot, null keeps what
// the slot held, and an empty array starts afresh.
func (d *resultScanner) scanVars() {
	// A copy, so that decVars keeps the head it was taken from.
	store := append([]string(nil), d.varStore...)
	n := d.each('[', func(i int, _ []byte) {
		if i == len(store) {
			store = append(store, "")
		}
		if d.ws() == 'n' {
			d.null()
		} else {
			store[i] = string(d.str())
		}
	})
	switch {
	case n < 0:
		d.vars, d.varStore = nil, nil
	case n == 0:
		d.vars, d.varStore = []string{}, nil
	default:
		d.vars, d.varStore = store[:n], store
	}
}

func (d *resultScanner) scanBindings() {
	d.n = d.each('[', func(i int, _ []byte) {
		if d.cols == nil {
			d.decVars, d.cols = d.vars, make(map[string]int, len(d.vars))
			for j := len(d.vars) - 1; j >= 0; j-- {
				d.cols[d.vars[j]] = j
			}
		}
		if i == len(d.rows) {
			d.rows = append(d.rows, d.newRow())
		}
		row := d.rows[i]
		// Members overwrite the cells they name and leave the others (a
		// map Unmarshal decodes into twice is merged); null unbinds all.
		if d.each('{', func(_ int, key []byte) {
			if col, ok := d.cols[string(key)]; ok {
				row[col] = d.term()
				return
			}
			name := d.intern(key)
			if d.extra == nil {
				d.extra = map[int]map[string]rdf.Term{}
			}
			if d.extra[i] == nil {
				d.extra[i] = map[string]rdf.Term{}
			}
			d.extra[i][name] = d.term()
		}) < 0 {
			clear(row)
			delete(d.extra, i)
		}
	})
	if d.n <= 0 { // null, or empty: the array starts afresh
		d.rows, d.n, d.extra = nil, 0, nil
	}
}

// newRow cuts an unbound row from the slab. Slabs double with the
// result, from two rows to maxSlabTerms cells: a seven-row answer does
// not pay for a large one's slab, a large one allocates every several
// hundred rows.
func (d *resultScanner) newRow() []rdf.Term {
	w := len(d.decVars)
	if len(d.slab) < w {
		d.slab = make([]rdf.Term, w*min(max(2, len(d.rows)), max(1, maxSlabTerms/w)))
	}
	row := d.slab[:w:w]
	d.slab = d.slab[w:]
	return row
}

// term scans one RDF term object. Each of its four members must be a
// string or null; the last string counts, whatever the order, and a
// null or empty object is the plain literal "".
func (d *resultScanner) term() rdf.Term {
	for m := range d.f {
		d.f[m] = d.f[m][:0]
	}
	d.each('{', func(_ int, key []byte) {
		m := member(key, "type", "value", "datatype", "xml:lang")
		if c := d.ws(); m < 0 {
			d.skip(5)
		} else if c == 'n' {
			d.null()
		} else {
			d.f[m] = append(d.f[m][:0], d.str()...)
		}
	})
	value, datatype, lang := d.f[1], d.f[2], d.f[3]
	switch {
	case string(d.f[0]) == "uri":
		return rdf.NewIRI(d.intern(value))
	case string(d.f[0]) == "bnode":
		return rdf.NewBlank(string(value))
	case len(lang) > 0:
		return rdf.NewLangLiteral(string(value), d.intern(lang))
	case len(datatype) > 0:
		return rdf.NewTypedLiteral(string(value), d.intern(datatype))
	}
	return rdf.NewLiteral(string(value))
}

// table projects the decoded rows against the final head. When the
// head came before the bindings, once, and declares every variable the
// bindings use — what a server sends — the rows already are the table.
func (d *resultScanner) table() *Results {
	out := &Results{Vars: d.vars}
	rows, w := d.rows[:d.n], len(d.vars)
	if len(rows) == 0 {
		return out
	}
	if len(d.extra) == 0 && len(d.cols) == w && (w == 0 || &d.vars[0] == &d.decVars[0]) {
		out.Rows = rows
		return out
	}
	cells := make([]rdf.Term, len(rows)*w)
	out.Rows = make([][]rdf.Term, len(rows))
	for i, row := range rows {
		out.Rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
		for k, v := range d.vars {
			if col, ok := d.cols[v]; ok {
				out.Rows[i][k] = row[col]
			} else {
				out.Rows[i][k] = d.extra[i][v]
			}
		}
	}
	return out
}

// sparqlJSONHead is the head object of a results document.
type sparqlJSONHead struct {
	Vars []string `json:"vars"`
}

// ResultsEncoder incrementally serializes a result stream in the SPARQL
// JSON format, producing exactly the bytes Results.MarshalJSON would
// for the same header and row sequence. Call Head once, Rows any number
// of times, then Close.
type ResultsEncoder struct {
	w     io.Writer
	cols  []wireColumn // in the order a row's cells are written
	buf   []byte       // one block of encoded rows, reused across Rows calls
	comma bool         // a row has been written
	trace string
}

type wireColumn struct {
	index int    // in the row
	key   []byte // `"name":`, rendered once
	dup   bool   // named like the column before it
}

// NewResultsEncoder returns an encoder writing to w.
func NewResultsEncoder(w io.Writer) *ResultsEncoder { return &ResultsEncoder{w: w} }

// Head writes the document prefix — the head object and the opening of
// the bindings array. Must be called once, before Rows. It also fixes
// the order cells are written in, which is json.Marshal's for the map a
// binding is: keys sorted and, of variables sharing a name, the last
// bound one.
func (e *ResultsEncoder) Head(vars []string) error {
	e.cols = make([]wireColumn, len(vars))
	for i := range vars {
		e.cols[i].index = i
	}
	slices.SortFunc(e.cols, func(a, b wireColumn) int {
		return cmp.Or(strings.Compare(vars[a.index], vars[b.index]), b.index-a.index)
	})
	for k := range e.cols {
		c := &e.cols[k]
		c.key = append(appendJSONString(nil, vars[c.index]), ':')
		c.dup = k > 0 && vars[c.index] == vars[e.cols[k-1].index]
	}
	head, err := json.Marshal(sparqlJSONHead{Vars: vars})
	if err != nil {
		return err
	}
	e.buf = append(append(append(e.buf[:0], `{"head":`...), head...), `,"results":{"bindings":[`...)
	_, err = e.w.Write(e.buf)
	return err
}

// Rows appends a block of result rows to the bindings array, in one
// write.
func (e *ResultsEncoder) Rows(rows [][]rdf.Term) error {
	if len(rows) == 0 {
		return nil
	}
	buf := e.buf[:0]
	for i, row := range rows {
		if i == 1 { // room for the rest of the block, going by the first row
			buf = slices.Grow(buf, (len(rows)-1)*(len(buf)+len(buf)/8))
		}
		if e.comma {
			buf = append(buf, ',')
		}
		e.comma = true
		buf = append(buf, '{')
		open, named := len(buf), false // named: this name's cell is written
		for _, c := range e.cols {
			if !c.dup {
				named = false
			}
			if named || c.index >= len(row) || row[c.index].IsZero() {
				continue
			}
			named = true
			if len(buf) > open {
				buf = append(buf, ',')
			}
			buf = append(buf, c.key...)
			switch t := &row[c.index]; t.Kind {
			case rdf.KindIRI:
				buf = appendJSONString(append(buf, `{"type":"uri","value":`...), t.Value)
			case rdf.KindBlank:
				buf = appendJSONString(append(buf, `{"type":"bnode","value":`...), t.Value)
			default:
				buf = appendJSONString(append(buf, `{"type":"literal","value":`...), t.Value)
				if t.Lang != "" {
					buf = appendJSONString(append(buf, `,"xml:lang":`...), t.Lang)
				} else if t.Datatype != "" && t.Datatype != rdf.XSDString {
					buf = appendJSONString(append(buf, `,"datatype":`...), t.Datatype)
				}
			}
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
	}
	e.buf = buf
	_, err := e.w.Write(buf)
	return err
}

// wireSafe marks the bytes encoding/json copies into a string literal
// as they are: ASCII but the control characters, the quote, the
// backslash and — its HTML escaping is on by default — <, > and &.
var wireSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return
}()

// appendJSONString appends s as a JSON string literal, byte for byte
// what json.Marshal writes: the two-character escapes it knows, \u00XX
// for other unsafe ASCII, U+2028 and U+2029 escaped, and each byte of
// invalid UTF-8 as the six characters \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if i++; wireSafe[c] {
				continue
			}
			dst = append(append(dst, s[start:i-1]...), '\\')
			if k := strings.IndexByte("\"\\\b\f\n\r\t", c); k >= 0 {
				dst = append(dst, `"\bfnrt`[k])
			} else {
				dst = append(dst, 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			start = i + size
		} else if r == '\u2028' || r == '\u2029' {
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}

// SetTrace makes Close end the document with one extra top-level
// member, "trace": the server's serialized span tree, which exists only
// once evaluation has ended and so cannot precede the rows. Decoders
// that do not know the member skip it (DecodeTracedResults reads it).
func (e *ResultsEncoder) SetTrace(wire string) { e.trace = wire }

// Close terminates the document. The encoder must not be used after.
func (e *ResultsEncoder) Close() error {
	e.buf = append(e.buf[:0], `]}`...)
	if e.trace != "" {
		e.buf = appendJSONString(append(e.buf, `,"trace":`...), e.trace)
	}
	_, err := e.w.Write(append(e.buf, '}'))
	return err
}
