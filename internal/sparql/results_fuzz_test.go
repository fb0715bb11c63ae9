package sparql

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// fuzzResultSeeds is the shared seed corpus for both results-JSON
// decoders: well-formed documents for every term kind, boundary shapes
// (empty vars, empty bindings, unknown variables), and the hostile
// cases a fault-injected network produces (truncation mid-object,
// non-object documents, empty input).
var fuzzResultSeeds = []string{
	`{"head":{"vars":["s","n"]},"results":{"bindings":[` +
		`{"s":{"type":"uri","value":"http://x/a"},"n":{"type":"literal","value":"1",` +
		`"datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"bnode","value":"b0"}}]}}`,
	`{"head":{"vars":["l"]},"results":{"bindings":[{"l":{"type":"literal","value":"hi","xml:lang":"en"}}]}}`,
	`{"head":{"vars":[]},"results":{"bindings":[]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"other":{"type":"uri","value":"http://x"}}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{`, /* truncated mid-object */
	`{"boolean":true}`,
	`null`,
	`[]`,
	``,
	// Key-order and duplicate-key torture for the incremental decoder.
	`{"results":{"bindings":[{"s":{"type":"uri","value":"http://x"}}]},"head":{"vars":["s"]}}`,
	`{"head":{"vars":["a"]},"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"http://x"}}]}}`,
	`{"results":{"bindings":[{"s":{"type":"uri","value":"http://x"}}]},"results":{"bindings":null}}`,
	`{"head":{"vars":["s"],"link":["http://meta"]},"results":{"bindings":[null]},"extra":[1,{"k":2}]}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"http://x"}}]}}trailing`,
	// The "trace" member a streamed, traced response ends with
	// (ResultsEncoder.SetTrace) — after the results, before them, and
	// with a non-string value: an unknown member to both decoders.
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"http://x"}}]},"trace":"eyJvcCI6IlNFTEVDVCJ9"}`,
	`{"trace":"eyJvcCI6IlNFTEVDVCJ9","head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"http://x"}}]}}`,
	`{"head":{"vars":["s"]},"trace":{"op":"SELECT","children":[null]},"results":{"bindings":[]},"TRACE":"dup"}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[]},"trace":"unterminated`,
}

// FuzzResultsFromJSON checks the SPARQL results JSON decoder — the
// surface a truncating or corrupting network fault hits — never panics
// and that everything it accepts is internally consistent and survives
// a re-encode round trip.
func FuzzResultsFromJSON(f *testing.F) {
	for _, s := range fuzzResultSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ResultsFromJSON(data)
		if err != nil {
			return
		}
		for i, row := range res.Rows {
			if len(row) != len(res.Vars) {
				t.Fatalf("row %d has %d terms for %d vars", i, len(row), len(res.Vars))
			}
		}
		// The encoders are what the server runs on decoded-and-served
		// results; they must not panic on anything the decoder accepts.
		_ = res.EncodeCSV()
		_ = res.EncodeTSV()
		// JSON round trip: re-marshaling a decoded result must produce
		// a document the decoder accepts again with the same shape.
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("re-encoding decoded results: %v", err)
		}
		again, err := ResultsFromJSON(out)
		if err != nil {
			t.Fatalf("re-decoding encoded results: %v", err)
		}
		if len(again.Rows) != len(res.Rows) || len(again.Vars) != len(res.Vars) {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d",
				len(res.Rows), len(res.Vars), len(again.Rows), len(again.Vars))
		}
	})
}

// FuzzResultsDecoder fuzzes the incremental results-JSON decoder — the
// path every streamed response body takes in endpoint.Remote — against
// the materialized ResultsFromJSON as the reference: it must never
// panic, must fail with a typed *ResultsDecodeError on anything it
// rejects, and must accept exactly the documents the reference accepts,
// producing identical result tables.
func FuzzResultsDecoder(f *testing.F) {
	for _, s := range fuzzResultSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResults(bytes.NewReader(data))
		ref, refErr := ResultsFromJSON(data)
		if err != nil {
			var de *ResultsDecodeError
			if !errors.As(err, &de) {
				t.Fatalf("decode error is not a *ResultsDecodeError: %T %v", err, err)
			}
			if refErr == nil {
				t.Fatalf("incremental decoder rejected a document the reference accepts: %v\ninput: %q", err, data)
			}
			return
		}
		if refErr != nil {
			t.Fatalf("incremental decoder accepted a document the reference rejects (%v)\ninput: %q", refErr, data)
		}
		if len(res.Vars) != len(ref.Vars) || len(res.Rows) != len(ref.Rows) {
			t.Fatalf("shape mismatch: %dx%d vs reference %dx%d", len(res.Rows), len(res.Vars), len(ref.Rows), len(ref.Vars))
		}
		for i, v := range ref.Vars {
			if res.Vars[i] != v {
				t.Fatalf("var %d: %q vs reference %q", i, res.Vars[i], v)
			}
		}
		for i := range ref.Rows {
			for j := range ref.Rows[i] {
				if res.Rows[i][j] != ref.Rows[i][j] {
					t.Fatalf("row %d col %d: %v vs reference %v", i, j, res.Rows[i][j], ref.Rows[i][j])
				}
			}
		}
	})
}
