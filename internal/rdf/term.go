// Package rdf provides the core RDF data model used throughout the
// repository: terms (IRIs, literals, blank nodes), triples, quads, and
// in-memory graphs.
//
// The model follows the RDF 1.1 abstract syntax. Terms are small value
// types designed to be cheap to copy and usable as map keys.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the concrete kind of a Term.
type TermKind uint8

// The possible kinds of RDF term.
const (
	// KindInvalid is the zero TermKind; it marks an uninitialized Term.
	KindInvalid TermKind = iota
	// KindIRI is an IRI reference such as <http://example.org/a>.
	KindIRI
	// KindLiteral is an RDF literal, optionally carrying a datatype IRI
	// or a language tag.
	KindLiteral
	// KindBlank is a blank node with a document-scoped label.
	KindBlank
)

func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindLiteral:
		return "Literal"
	case KindBlank:
		return "BlankNode"
	default:
		return "Invalid"
	}
}

// Term is a single RDF term. The zero value is invalid.
//
// Representation: Value holds the IRI string, the literal lexical form,
// or the blank node label. For literals, Datatype holds the datatype IRI
// (empty means xsd:string per RDF 1.1) and Lang holds the language tag
// (non-empty implies datatype rdf:langString).
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewBlank returns a blank node term with the given label (without the
// "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewLiteral returns a plain literal, which in RDF 1.1 has datatype
// xsd:string.
func NewLiteral(lexical string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: XSDString}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lexical, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal (datatype
// rdf:langString).
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: RDFLangString, Lang: lang}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewDecimal returns an xsd:decimal literal from a formatted value.
func NewDecimal(lexical string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: XSDDecimal}
}

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Term {
	return Term{Kind: KindLiteral, Value: formatFloat(v), Datatype: XSDDouble}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	if v {
		return Term{Kind: KindLiteral, Value: "true", Datatype: XSDBoolean}
	}
	return Term{Kind: KindLiteral, Value: "false", Datatype: XSDBoolean}
}

// Well-known datatype IRIs used across the code base.
const (
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal  = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble   = "http://www.w3.org/2001/XMLSchema#double"
	XSDFloat    = "http://www.w3.org/2001/XMLSchema#float"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate     = "http://www.w3.org/2001/XMLSchema#date"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"
	XSDGYear    = "http://www.w3.org/2001/XMLSchema#gYear"
	XSDGYMonth  = "http://www.w3.org/2001/XMLSchema#gYearMonth"

	RDFLangString = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
)

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsZero reports whether the term is the zero (invalid) term.
func (t Term) IsZero() bool { return t.Kind == KindInvalid }

// Equal reports term equality per RDF 1.1 (same kind, value, datatype,
// and language tag).
func (t Term) Equal(o Term) bool { return t == o }

// Compare orders terms deterministically: blanks < IRIs < literals, then
// by value, datatype, and language. Useful for stable serialization and
// test output.
func (t Term) Compare(o Term) int {
	if t.Kind != o.Kind {
		return sortRank(t.Kind) - sortRank(o.Kind)
	}
	if c := strings.Compare(t.Value, o.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, o.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, o.Lang)
}

// sortRank orders term kinds for Compare: blanks < IRIs < literals,
// matching the ordering SPARQL uses for ORDER BY.
func sortRank(k TermKind) int {
	switch k {
	case KindBlank:
		return 1
	case KindIRI:
		return 2
	case KindLiteral:
		return 3
	default:
		return 0
	}
}

// String renders the term in N-Triples-like syntax, primarily for
// debugging and error messages.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	case KindLiteral:
		s := quoteLiteral(t.Value)
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	default:
		return "<invalid>"
	}
}

func quoteLiteral(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	// xsd:double lexical forms need an exponent or decimal point to
	// round-trip; %g may emit a bare integer like "3".
	if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "NaN") && !strings.Contains(s, "Inf") {
		s += ".0"
	}
	return s
}
