package turtle

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// ParseNQuads parses an N-Quads document: N-Triples statements with an
// optional graph label before the final dot. It reuses the Turtle
// lexer, so comments and blank lines are handled; Turtle-only sugar
// (prefixes, lists, 'a') is rejected by the stricter statement shape.
func ParseNQuads(src string) ([]rdf.Quad, error) {
	lex := newLexer(src)
	var out []rdf.Quad
	p := &Parser{lex: lex, prefixes: rdf.NewPrefixMap()}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for p.tok.kind != tokEOF {
		s, err := p.subject()
		if err != nil {
			return nil, err
		}
		pred, err := p.predicate()
		if err != nil {
			return nil, err
		}
		o, err := p.object()
		if err != nil {
			return nil, err
		}
		var g rdf.Term
		if p.tok.kind != tokDot {
			gt, err := p.subject() // graph labels share the subject syntax
			if err != nil {
				return nil, fmt.Errorf("turtle: bad graph label: %w", err)
			}
			g = gt
		}
		if err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
		out = append(out, rdf.NewQuad(s, pred, o, g))
	}
	return out, nil
}

// WriteNQuads serializes quads in canonical sorted N-Quads form.
func WriteNQuads(w io.Writer, quads []rdf.Quad) error {
	sorted := make([]rdf.Quad, len(quads))
	copy(sorted, quads)
	sort.Slice(sorted, func(i, j int) bool {
		if c := sorted[i].G.Compare(sorted[j].G); c != 0 {
			return c < 0
		}
		return sorted[i].Triple().Compare(sorted[j].Triple()) < 0
	})
	var b strings.Builder
	for _, q := range sorted {
		b.WriteString(q.String())
		b.WriteString(" .\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// DumpStore extracts every quad of a store (default graph first, then
// named graphs in term order).
func DumpStore(st *store.Store) []rdf.Quad {
	var out []rdf.Quad
	for _, t := range st.MatchAll(rdf.Term{}, rdf.Term{}, rdf.Term{}, rdf.Term{}) {
		out = append(out, rdf.NewQuad(t.S, t.P, t.O, rdf.Term{}))
	}
	for _, g := range st.GraphNames() {
		for _, t := range st.MatchAll(g, rdf.Term{}, rdf.Term{}, rdf.Term{}) {
			out = append(out, rdf.NewQuad(t.S, t.P, t.O, g))
		}
	}
	return out
}

// LoadQuads inserts quads into a store and returns how many were new.
func LoadQuads(st *store.Store, quads []rdf.Quad) int {
	n := 0
	for _, q := range quads {
		if st.Insert(q) {
			n++
		}
	}
	return n
}
