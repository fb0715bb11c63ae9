package sparql

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/rdf"
)

// Binding returns the value of variable name in row i, or the zero term
// when unbound or absent.
func (r *Results) Binding(i int, name string) rdf.Term {
	for j, v := range r.Vars {
		if v == name {
			return r.Rows[i][j]
		}
	}
	return rdf.Term{}
}

// Len returns the number of solution rows.
func (r *Results) Len() int { return len(r.Rows) }

// EncodeCSV renders the results as RFC 4180 CSV per the SPARQL 1.1 CSV
// results format (plain lexical values; see TextEncoder).
func (r *Results) EncodeCSV() string { return r.encodeText(NewCSVEncoder) }

// EncodeTSV renders the results in the SPARQL 1.1 TSV format, with full
// term syntax.
func (r *Results) EncodeTSV() string { return r.encodeText(NewTSVEncoder) }

// encodeText collects the whole table through a streaming text encoder.
func (r *Results) encodeText(newEnc func(io.Writer) *TextEncoder) string {
	var b strings.Builder
	enc := newEnc(&b)
	enc.Head(r.Vars) //nolint:errcheck // a strings.Builder cannot fail
	enc.Rows(r.Rows) //nolint:errcheck
	return b.String()
}

// TextEncoder incrementally serializes a result stream in the SPARQL
// 1.1 CSV or TSV format, with the Head/Rows/Close shape of
// ResultsEncoder; it is the one implementation of both formats. CSV
// carries plain lexical values, RFC 4180-quoted where needed, blank
// nodes as _:label; TSV carries full term syntax. Unbound is the empty
// field in both.
type TextEncoder struct {
	w        io.Writer
	tsv      bool
	sep, eol string
	buf      []byte // one block of encoded rows, reused across Rows calls
}

// NewCSVEncoder returns a CSV encoder writing to w.
func NewCSVEncoder(w io.Writer) *TextEncoder { return &TextEncoder{w: w, sep: ",", eol: "\r\n"} }

// NewTSVEncoder returns a TSV encoder writing to w.
func NewTSVEncoder(w io.Writer) *TextEncoder {
	return &TextEncoder{w: w, tsv: true, sep: "\t", eol: "\n"}
}

// Head writes the header line. Must be called once, before Rows.
func (e *TextEncoder) Head(vars []string) error {
	line := strings.Join(vars, e.sep)
	if e.tsv && len(vars) > 0 {
		line = "?" + strings.Join(vars, "\t?")
	}
	_, err := io.WriteString(e.w, line+e.eol)
	return err
}

// Rows appends a block of result rows, in one write.
func (e *TextEncoder) Rows(rows [][]rdf.Term) error {
	e.buf = e.buf[:0]
	for _, row := range rows {
		for i, t := range row {
			if i > 0 {
				e.buf = append(e.buf, e.sep...)
			}
			switch {
			case t.IsZero():
			case e.tsv:
				e.buf = append(e.buf, t.String()...)
			case t.Kind == rdf.KindBlank:
				e.buf = append(e.buf, csvEscape("_:"+t.Value)...)
			default:
				e.buf = append(e.buf, csvEscape(t.Value)...)
			}
		}
		e.buf = append(e.buf, e.eol...)
	}
	_, err := e.w.Write(e.buf)
	return err
}

// Close ends the document; text formats have no terminator.
func (e *TextEncoder) Close() error { return nil }

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Table renders an aligned text table for CLI display.
func (r *Results) Table() string {
	widths := make([]int, len(r.Vars))
	for i, v := range r.Vars {
		widths[i] = len(v)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(r.Vars))
		for i, t := range row {
			s := ""
			if !t.IsZero() {
				s = t.Value
			}
			cells[ri][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, v := range r.Vars {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], v)
	}
	b.WriteByte('\n')
	for i := range r.Vars {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
