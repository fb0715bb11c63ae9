package sparql

import (
	"encoding/json"
	"fmt"

	"repro/internal/rdf"
)

// This file is the reference codec of the SPARQL 1.1 Query Results JSON
// Format: Results.MarshalJSON and ResultsFromJSON, both through
// encoding/json. Nothing in the program serializes through them — the
// wire goes through ResultsEncoder and DecodeResults (resultdec.go) —
// but the fuzz targets and the encoder/decoder equivalence tests hold
// the wire codec to them, byte for byte and table for table.

// sparqlJSON mirrors the SPARQL 1.1 Query Results JSON Format.
type sparqlJSON struct {
	Head    sparqlJSONHead    `json:"head"`
	Results sparqlJSONResults `json:"results"`
}

type sparqlJSONResults struct {
	Bindings []map[string]sparqlJSONTerm `json:"bindings"`
}

type sparqlJSONTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

// MarshalJSON encodes the results in the standard SPARQL JSON format.
func (r *Results) MarshalJSON() ([]byte, error) {
	doc := sparqlJSON{Head: sparqlJSONHead{Vars: r.Vars}}
	doc.Results.Bindings = make([]map[string]sparqlJSONTerm, 0, len(r.Rows))
	for _, row := range r.Rows {
		b := make(map[string]sparqlJSONTerm, len(r.Vars))
		for i, v := range r.Vars {
			t := row[i]
			if t.IsZero() {
				continue
			}
			b[v] = termToJSON(t)
		}
		doc.Results.Bindings = append(doc.Results.Bindings, b)
	}
	return json.Marshal(doc)
}

func termToJSON(t rdf.Term) sparqlJSONTerm {
	switch t.Kind {
	case rdf.KindIRI:
		return sparqlJSONTerm{Type: "uri", Value: t.Value}
	case rdf.KindBlank:
		return sparqlJSONTerm{Type: "bnode", Value: t.Value}
	default:
		out := sparqlJSONTerm{Type: "literal", Value: t.Value, Lang: t.Lang}
		if t.Lang == "" && t.Datatype != "" && t.Datatype != rdf.XSDString {
			out.Datatype = t.Datatype
		}
		return out
	}
}

// ResultsFromJSON decodes a SPARQL JSON result document.
func ResultsFromJSON(data []byte) (*Results, error) {
	var doc sparqlJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("sparql: decoding results JSON: %w", err)
	}
	out := &Results{Vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := make([]rdf.Term, len(out.Vars))
		for i, v := range out.Vars {
			jt, ok := b[v]
			if !ok {
				continue
			}
			row[i] = jsonToTerm(jt)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func jsonToTerm(jt sparqlJSONTerm) rdf.Term {
	switch jt.Type {
	case "uri":
		return rdf.NewIRI(jt.Value)
	case "bnode":
		return rdf.NewBlank(jt.Value)
	default:
		if jt.Lang != "" {
			return rdf.NewLangLiteral(jt.Value, jt.Lang)
		}
		if jt.Datatype != "" {
			return rdf.NewTypedLiteral(jt.Value, jt.Datatype)
		}
		return rdf.NewLiteral(jt.Value)
	}
}
