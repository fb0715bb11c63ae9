package sparql

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/rdf"
)

// fuzzResultSeeds is the shared seed corpus for both results-JSON
// decoders: well-formed documents for every term kind, boundary shapes
// (empty vars, empty bindings, unknown variables), and the hostile
// cases a fault-injected network produces (truncation mid-object,
// non-object documents, empty input).
// deepResultDocs nest an unknown member up to and just past the depth
// encoding/json gives up at (10 000 open containers, the known ones
// around the member included): far deeper than any recursion the
// decoder may do on a document's say-so. Kept out of the fuzz corpus,
// whose minimizer crawls on inputs this long.
var deepResultDocs = []string{
	`{"head":{"vars":["s"]},"results":{"bindings":[]},"deep":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[]},"deep":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"deep":` + strings.Repeat(`{"a":`, 9995) + `1` + strings.Repeat("}", 9995) + `}}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"deep":` + strings.Repeat(`{"a":`, 9996) + `1` + strings.Repeat("}", 9996) + `}}]}}`,
}

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
	// Where a hand-written scanner can drift from encoding/json: null at
	// every level (a null term is a present key with a zero term, the
	// literal ""), wrong types, member names in another case, repeated
	// members — which Unmarshal merges into what is already there, even
	// into array elements past the previous length — and Go's string
	// coercions.
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":null}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":null}}]}}`,
	`{"head":null,"results":null}`,
	`{"head":{"vars":null},"results":{"bindings":[{"s":{"type":1,"value":"x"}}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[[]]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":"x"}]}}`,
	`{"HEAD":{"Vars":["s"]},"Results":{"BINDINGS":[{"s":{"TYPE":"uri","Value":"http://x","DataType":"d","XML:lang":"en"}}]}}`,
	`{"he\u0061d":{"vars":["s"]},"re\u017fults":{"bindings":[{"s":{"\u212aind":1,"type":"bnode","value":"b"}}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"a","value":"b","value":null}}]}}`,
	`{"head":{"vars":["s","s"]},"results":{"bindings":[{"s":{"type":"uri","value":"a"},"s":null},{"s":{"type":"uri","value":"b"}}]}}`,
	`{"head":{"vars":["a","b"]},"head":{"vars":[null]},"head":{"vars":["c",null,null]},"results":{"bindings":[{"b":{"value":"1"}}]}}`,
	`{"results":{"bindings":[{"s":{"value":"1"}},{"s":{"value":"2"}},{"o":{"value":"3"}}]},"head":{"vars":["s","o"]},` +
		`"results":{"bindings":[{"o":{"value":"4"}}]},"results":{"bindings":[{},null,{}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"value":"1"}}],"bindings":[],"bindings":[{}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"value":"\ud83d\ude00 \ud800 \udc00\ud800\u0041 \ud800\ud83d\ude00"}}]}}`,
	"{\"head\":{\"vars\":[\"s\xff\"]},\"results\":{\"bindings\":[{\"s\xff\":{\"value\":\"\xff\xc3\xe2\x82é\"}}]}}",
	"{\"head\":{\"vars\":[\"s\"]},\"results\":{\"bindings\":[{\"s\":{\"value\":\"a\x01b\"}}]}}",
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"value":"\q"}}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"value":"\u00g0"}}]}}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[]},"n":[1e5,-0.5E-3,0,-0,1.5e+3]}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[]},"bad":1e}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[]},"bad":01}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[]},"lit":[true,false,null],"bad":tru}`,
	`{"head":{"vars":["s"]},"results":{"bindings":[],},"x":{"a":1,}}`,
	` {"head" : {"vars" : [ "s" ] } ,` + "\n\t\r" + `"results" : {"bindings" : [ {"s" : {"type" : "uri" , "value" : "x" } } ] } } `,
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
	f.Fuzz(matchesReference)
}

// TestDecodeResultsDeepNesting holds the decoder to the reference at
// encoding/json's nesting limit.
func TestDecodeResultsDeepNesting(t *testing.T) {
	for _, doc := range deepResultDocs {
		matchesReference(t, []byte(doc))
	}
}

func matchesReference(t *testing.T, data []byte) {
	res, err := DecodeResults(bytes.NewReader(data))
	ref, refErr := ResultsFromJSON(data)
	// However the body is cut into reads, the outcome is the same.
	cut := len(data) / 2
	if len(data) > 0 {
		cut = int(data[0]) % len(data)
	}
	res2, err2 := DecodeResults(io.MultiReader(bytes.NewReader(data[:cut]), iotest.HalfReader(bytes.NewReader(data[cut:]))))
	if (err == nil) != (err2 == nil) || !reflect.DeepEqual(res, res2) {
		t.Fatalf("cut at byte %d the document decodes to %v (%v), whole to %v (%v)\ninput: %q", cut, res2, err2, res, err, data)
	}
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
	if len(res.Vars) != len(ref.Vars) || len(res.Rows) != len(ref.Rows) || (res.Vars == nil) != (ref.Vars == nil) {
		t.Fatalf("shape mismatch: %dx%d vs reference %dx%d, vars %#v vs %#v", len(res.Rows), len(res.Vars), len(ref.Rows), len(ref.Vars), res.Vars, ref.Vars)
	}
	for i, v := range ref.Vars {
		if res.Vars[i] != v {
			t.Fatalf("var %d: %q vs reference %q", i, res.Vars[i], v)
		}
	}
	for i := range ref.Rows {
		if len(res.Rows[i]) != len(ref.Rows[i]) {
			t.Fatalf("row %d has %d cells, the reference's %d", i, len(res.Rows[i]), len(ref.Rows[i]))
		}
		for j := range ref.Rows[i] {
			if res.Rows[i][j] != ref.Rows[i][j] {
				t.Fatalf("row %d col %d: %v vs reference %v", i, j, res.Rows[i][j], ref.Rows[i][j])
			}
		}
	}
}

// wireFuzzInput draws the result table a fuzz input encodes: variable
// names that repeat and need escaping, and terms of every kind whose
// value, datatype and language tag are arbitrary bytes.
type wireFuzzInput struct{ data []byte }

func (g *wireFuzzInput) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *wireFuzzInput) str() string {
	n := min(int(g.next()%12), len(g.data))
	s := string(g.data[:n])
	g.data = g.data[n:]
	return s
}

func (g *wireFuzzInput) results() *Results {
	names := []string{"s", "o", "s", "a<b>&c", `"q"\`, "é\u2028", "\xff", ""}
	res := &Results{}
	if nv := int(g.next() % 6); nv > 0 {
		res.Vars = []string{}
		for len(res.Vars) < nv-1 {
			if k := g.next(); k%4 == 0 {
				res.Vars = append(res.Vars, g.str())
			} else {
				res.Vars = append(res.Vars, names[int(k)%len(names)])
			}
		}
	}
	for len(g.data) > 0 && len(res.Rows) < 64 {
		row := make([]rdf.Term, len(res.Vars))
		for i := range row {
			switch g.next() % 6 {
			case 1:
				row[i] = rdf.NewIRI(g.str())
			case 2:
				row[i] = rdf.NewBlank(g.str())
			case 3:
				row[i] = rdf.NewLiteral(g.str())
			case 4:
				row[i] = rdf.NewLangLiteral(g.str(), g.str())
			case 5:
				row[i] = rdf.NewTypedLiteral(g.str(), g.str())
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// FuzzResultsEncoder fuzzes the streaming encoder against json.Marshal
// of the same table — Results.MarshalJSON, the reference — for every
// way of cutting the rows into Rows calls: the bytes must be identical,
// whatever the key order, duplicate names and escaping involved.
func FuzzResultsEncoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 1, 4, 'h', 't', 't', 'p', 3, 1, 'x', 0, 4, 2, 'h', 'i', 2, 'e', 'n'})
	f.Add([]byte("\x05\x02\x01\x05\x06\x01\x03<&>\x03\x04\"\\\n\x7f\x05\x03\xe2\x80\xa8\x02\xff\xc3\x02\x02_b\x00\x01\x05\x00\x1f\x08\x0c\t\r"))
	f.Add([]byte("\x04\x00\x02\xe2\x80\x00\x02\x01\x01a\x01\x01b\x01\x01c\x00\x00\x01\x01d"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res := (&wireFuzzInput{data}).results()
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 3, len(res.Rows) + 1} {
			if got := encodeInChunks(t, res, chunk); !bytes.Equal(got, want) {
				t.Fatalf("chunk %d: encoder bytes differ\nwant %s\ngot  %s", chunk, want, got)
			}
		}
	})
}
