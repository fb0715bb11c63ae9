package sparql

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/rdf"
)

// This file is the wire half of the streaming pipeline: an incremental
// encoder that serializes result rows as they arrive (endpoint.Server
// writes a chunk at a time) and an incremental decoder that parses the
// results JSON straight off the response body (endpoint.Remote) instead
// of buffering it whole. Both speak the SPARQL 1.1 Query Results JSON
// Format, byte- and semantics-identical to Results.MarshalJSON /
// ResultsFromJSON.

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

// wrapDecode classifies a raw decode failure: an EOF where more
// document was expected is truncation, everything else is malformed
// input.
func wrapDecode(err error) error {
	return &ResultsDecodeError{
		Truncated: errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF),
		Err:       err,
	}
}

// DecodeResults incrementally decodes a SPARQL JSON result document
// from rd: bindings are parsed one at a time as bytes arrive, so the
// peak footprint is the decoded result table, never table + raw body.
// It accepts exactly the documents ResultsFromJSON accepts (same
// leniency about absent sections and key order) and returns identical
// Results; every failure — truncation, garbage, type mismatches — is a
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
	dec := json.NewDecoder(rd)

	tok, err := dec.Token()
	if err != nil {
		return nil, "", wrapDecode(err)
	}
	if tok == nil { // JSON null: the lenient zero document
		if err := expectEOF(dec); err != nil {
			return nil, "", err
		}
		return &Results{}, "", nil
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, "", wrapDecode(fmt.Errorf("results document must be a JSON object, got %v", tok))
	}

	// Bindings may precede head in a hostile-but-valid document, and a
	// duplicate head later in the document wins (matching encoding/json
	// struct semantics), so rows are buffered as raw binding maps and
	// projected against the final head at the end.
	var head sparqlJSONHead
	var pending []map[string]sparqlJSONTerm
	var trace string
	for dec.More() {
		ktok, err := dec.Token()
		if err != nil {
			return nil, "", wrapDecode(err)
		}
		key, ok := ktok.(string)
		if !ok {
			return nil, "", wrapDecode(fmt.Errorf("unexpected token %v for object key", ktok))
		}
		// Key matching is case-insensitive, like Unmarshal's struct
		// field resolution.
		switch {
		case strings.EqualFold(key, "head"):
			// Decoding into the persistent head merges duplicate keys the
			// way Unmarshal does (a later {"head":{}} keeps earlier vars).
			if err := dec.Decode(&head); err != nil {
				return nil, "", wrapDecode(err)
			}
		case strings.EqualFold(key, "results"):
			if pending, err = decodeResultsSection(dec, pending); err != nil {
				return nil, "", err
			}
		default:
			raw, err := skipValue(dec)
			if err != nil {
				return nil, "", err
			}
			if strings.EqualFold(key, "trace") {
				trace = ""
				json.Unmarshal(raw, &trace) //nolint:errcheck // a non-string trace is just an unknown member
			}
		}
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return nil, "", wrapDecode(err)
	}
	if err := expectEOF(dec); err != nil {
		return nil, "", err
	}

	out := &Results{Vars: head.Vars}
	for _, b := range pending {
		row := make([]rdf.Term, len(out.Vars))
		for i, v := range out.Vars {
			if jt, ok := b[v]; ok {
				row[i] = jsonToTerm(jt)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, trace, nil
}

// decodeResultsSection parses the value of a "results" key: an object
// whose "bindings" array is decoded element-wise. A null "results"
// value leaves previously decoded bindings untouched (Unmarshal skips
// null for struct fields) while a null "bindings" array clears them
// (Unmarshal nils the slice); a fresh array replaces them — all
// matching Unmarshal's merge rules for duplicate keys.
func decodeResultsSection(dec *json.Decoder, pending []map[string]sparqlJSONTerm) ([]map[string]sparqlJSONTerm, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, wrapDecode(err)
	}
	if tok == nil {
		return pending, nil
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, wrapDecode(fmt.Errorf(`"results" must be an object, got %v`, tok))
	}
	for dec.More() {
		ktok, err := dec.Token()
		if err != nil {
			return nil, wrapDecode(err)
		}
		key, ok := ktok.(string)
		if !ok {
			return nil, wrapDecode(fmt.Errorf("unexpected token %v for object key", ktok))
		}
		if !strings.EqualFold(key, "bindings") {
			if _, err := skipValue(dec); err != nil {
				return nil, err
			}
			continue
		}
		tok, err := dec.Token()
		if err != nil {
			return nil, wrapDecode(err)
		}
		if tok == nil {
			pending = nil
			continue
		}
		if d, ok := tok.(json.Delim); !ok || d != '[' {
			return nil, wrapDecode(fmt.Errorf(`"bindings" must be an array, got %v`, tok))
		}
		pending = nil
		for dec.More() {
			var b map[string]sparqlJSONTerm
			if err := dec.Decode(&b); err != nil {
				return nil, wrapDecode(err)
			}
			pending = append(pending, b)
		}
		if _, err := dec.Token(); err != nil { // closing ']'
			return nil, wrapDecode(err)
		}
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return nil, wrapDecode(err)
	}
	return pending, nil
}

// skipValue consumes one complete JSON value (validating its syntax,
// exactly as Unmarshal would for an ignored field) and returns it raw.
func skipValue(dec *json.Decoder) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, wrapDecode(err)
	}
	return raw, nil
}

// expectEOF fails on trailing non-whitespace after the document,
// matching json.Unmarshal's strictness.
func expectEOF(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return &ResultsDecodeError{Err: err}
	}
	return &ResultsDecodeError{Err: fmt.Errorf("trailing data after results document: %v", tok)}
}

// ResultsEncoder incrementally serializes a result stream in the SPARQL
// JSON format, producing exactly the bytes Results.MarshalJSON would
// for the same header and row sequence. Call Head once, Rows any number
// of times, then Close.
type ResultsEncoder struct {
	w        io.Writer
	vars     []string
	wroteRow bool
	trace    string
}

// NewResultsEncoder returns an encoder writing to w.
func NewResultsEncoder(w io.Writer) *ResultsEncoder { return &ResultsEncoder{w: w} }

// Head writes the document prefix — the head object and the opening of
// the bindings array. Must be called once, before Rows.
func (e *ResultsEncoder) Head(vars []string) error {
	e.vars = vars
	hd, err := json.Marshal(sparqlJSONHead{Vars: vars})
	if err != nil {
		return err
	}
	if _, err := io.WriteString(e.w, `{"head":`); err != nil {
		return err
	}
	if _, err := e.w.Write(hd); err != nil {
		return err
	}
	_, err = io.WriteString(e.w, `,"results":{"bindings":[`)
	return err
}

// Rows appends a block of result rows to the bindings array.
func (e *ResultsEncoder) Rows(rows [][]rdf.Term) error {
	for _, row := range rows {
		b := make(map[string]sparqlJSONTerm, len(e.vars))
		for i, v := range e.vars {
			if i >= len(row) || row[i].IsZero() {
				continue
			}
			b[v] = termToJSON(row[i])
		}
		data, err := json.Marshal(b)
		if err != nil {
			return err
		}
		if e.wroteRow {
			if _, err := io.WriteString(e.w, ","); err != nil {
				return err
			}
		}
		e.wroteRow = true
		if _, err := e.w.Write(data); err != nil {
			return err
		}
	}
	return nil
}

// SetTrace makes Close end the document with one extra top-level
// member, "trace": the server's serialized span tree, which exists only
// once evaluation has ended and so cannot precede the rows. Decoders
// that do not know the member skip it (DecodeTracedResults reads it).
func (e *ResultsEncoder) SetTrace(wire string) { e.trace = wire }

// Close terminates the document. The encoder must not be used after.
func (e *ResultsEncoder) Close() error {
	tail := `]}}`
	if e.trace != "" {
		member, err := json.Marshal(e.trace)
		if err != nil {
			return err
		}
		tail = `]},"trace":` + string(member) + `}`
	}
	_, err := io.WriteString(e.w, tail)
	return err
}
