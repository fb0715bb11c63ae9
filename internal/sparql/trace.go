package sparql

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// This file is the engine's tracing glue: the WithTracer option, the
// QueryTraced* entry points, and the span helpers the pipeline calls.
//
// Tracing contract: a traced query runs the same chunked pipeline as
// an untraced one (stream.go); every stage additionally owns a span
// that accumulates across its next() calls — rows in (pulled from its
// upstream), rows out, self wall time (time in the stage's next minus
// time in its upstream's) and bytes charged at its chunk boundary — and
// fixes its estimate from the accumulated actual input when the stage
// closes. Span totals therefore do not depend on the chunk size. Spans
// are created and written only on the query's goroutine, the one that
// evaluates it, and the per-row interiors of OPTIONAL, EXISTS and UNION
// branches run untraced (on kernel runs), which keeps span volume
// bounded. When tracing is disabled every hook
// is a single nil check (the stageTrace and obs.Span methods are
// nil-safe), which BenchmarkTracerOverhead pins to be within noise of
// the untraced engine.

// WithTracer installs an engine-level trace sink: every sampled Query
// records a per-operator trace and collects it into t (with no sampler
// installed, every query is sampled). Use NewTracer's ring to inspect
// recent query plans on a live server, or leave the engine tracer nil
// (the default) for zero-cost evaluation and trace individual queries
// with QueryTracedString / QueryTracedContext.
func WithTracer(t *obs.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// WithSampler installs the sampling policy applied when the engine has
// a tracer: each Query draws a fresh trace ID and is traced only when
// the sampler says so, keeping always-on tracing affordable under load
// (an unsampled query allocates no span tree — its only tracing cost is
// the ID draw and one hash). Nil — the default — samples everything.
// QueryTracedContext bypasses the sampler: the "force this one" path.
func WithSampler(s *obs.Sampler) Option {
	return func(e *Engine) { e.sampler = s }
}

// QueryTracedString parses and evaluates a query string with tracing;
// the query text is recorded on the trace.
func (e *Engine) QueryTracedString(src string) (*Results, *obs.Trace, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, nil, err
	}
	res, tr, err := e.QueryTracedContext(context.Background(), q)
	if tr != nil {
		tr.Query = src
	}
	return res, tr, err
}

// String names the query form for trace roots.
func (f QueryForm) String() string {
	switch f {
	case FormSelect:
		return "SELECT"
	case FormAsk:
		return "ASK"
	case FormConstruct:
		return "CONSTRUCT"
	case FormDescribe:
		return "DESCRIBE"
	default:
		return "QUERY"
	}
}

// stageTrace is the trace hook of one pipeline stage: its span and the
// estimator applied to the accumulated actual input when the stage
// closes. A nil *stageTrace is the untraced stage; every method is
// nil-safe.
type stageTrace struct {
	sp  *obs.Span
	est func(in int) int64
}

// estimateSame is the estimator of stages that preserve cardinality.
func estimateSame(in int) int64 { return int64(in) }

// newStage opens a stage span under parent (nil parent = untraced).
func newStage(parent *obs.Span, op, detail string, est func(in int) int64) *stageTrace {
	if parent == nil {
		return nil
	}
	return &stageTrace{sp: parent.StartChild(op, detail, 0), est: est}
}

// elementStage opens the span of one non-BGP group element's stage.
func elementStage(parent *obs.Span, el PatternElement) *stageTrace {
	if parent == nil {
		return nil
	}
	op, detail, est := "", "", estimateSame
	switch e := el.(type) {
	case FilterElement:
		op, est = "FILTER", func(in int) int64 { return int64(estimateFilterRows(float64(in))) }
	case BindElement:
		op, detail = "BIND", "?"+e.Var
	case OptionalElement:
		op = "OPTIONAL" // left rows are preserved
		if tp, ok := singleTriplePattern(e.Pattern); ok {
			detail = patternDetail(tp)
		}
	case UnionElement:
		n := len(e.Branches)
		op, detail = "UNION", fmt.Sprintf("%d branches", n)
		est = func(in int) int64 { return int64(in * n) }
	case MinusElement:
		op = "MINUS"
	case GraphElement:
		op, detail = "GRAPH", patternTermDetail(e.Graph)
	case GroupElement:
		op = "GROUP"
	case ValuesElement:
		n := len(e.Rows)
		op, est = "VALUES", func(in int) int64 { return int64(in * n) }
	case SubSelectElement:
		op = "SUBSELECT"
	case semiJoinElement:
		op, detail = "ENTRY", "?"+e.sj.key
		est = func(in int) int64 { return int64(math.Round(float64(in) * e.sj.est)) }
	}
	return newStage(parent, op, detail, est)
}

// span returns the stage's span, the parent for stages nested under it.
func (st *stageTrace) span() *obs.Span {
	if st == nil {
		return nil
	}
	return st.sp
}

// charged adds bytes the stage's chunk boundary charged to the account.
func (st *stageTrace) charged(b int64) {
	if st != nil {
		st.sp.Mem += b
	}
}

// in wraps the stage's upstream so pulls through it count as the
// stage's input rows and their time is excluded from its self time.
func (st *stageTrace) in(src chunkIter) chunkIter {
	if st == nil {
		return src
	}
	return &spanIn{src: src, sp: st.sp}
}

// out wraps the stage's exit: pulls through it count as the stage's
// output rows and wall time, and closing it fixes the estimate from the
// total actual input.
func (st *stageTrace) out(src chunkIter) chunkIter {
	if st == nil {
		return src
	}
	return &spanOut{src: src, tr: st}
}

type spanIn struct {
	src chunkIter
	sp  *obs.Span
}

func (s *spanIn) next() ([]solution, error) {
	t0 := time.Now()
	chunk, err := s.src.next()
	s.sp.Wall -= time.Since(t0)
	s.sp.In += len(chunk)
	return chunk, err
}

func (s *spanIn) close() { s.src.close() }

type spanOut struct {
	src chunkIter
	tr  *stageTrace
}

func (s *spanOut) next() ([]solution, error) {
	t0 := time.Now()
	chunk, err := s.src.next()
	s.tr.sp.Wall += time.Since(t0)
	s.tr.sp.Out += len(chunk)
	return chunk, err
}

func (s *spanOut) close() {
	s.src.close()
	s.tr.sp.SetEst(s.tr.est(s.tr.sp.In)) // idempotent
}

// patternDetail renders a triple pattern compactly for span details,
// shortening IRIs to their local names.
func patternDetail(tp TriplePattern) string {
	p := patternTermDetail(tp.P)
	if tp.Path != nil {
		p = pathDetail(tp.Path)
	}
	return patternTermDetail(tp.S) + " " + p + " " + patternTermDetail(tp.O)
}

// starDetail renders a star level as its subject — a rooted star's whole
// root pattern — and its member predicates.
func starDetail(p *probe) string {
	detail := patternTermDetail(p.tp.S)
	if p.rooted {
		detail = patternDetail(p.tp)
	}
	for _, m := range p.star {
		detail += " " + patternTermDetail(m.tp.P)
	}
	return detail
}

// keepDetail names the variables a level checks against semi-join sets.
func keepDetail(p *probe) string {
	detail := ""
	for _, q := range append([]*probe{p}, p.star...) {
		for i, pt := range [3]PatternTerm{q.tp.S, q.tp.P, q.tp.O} {
			if q.keep[i] != nil {
				detail += " semi " + patternTermDetail(pt)
			}
		}
	}
	return detail
}

func patternTermDetail(pt PatternTerm) string {
	if pt.IsVar {
		return "?" + pt.Var
	}
	return shortTerm(pt.Term)
}

// shortTerm abbreviates a term for display: IRIs keep the fragment or
// last path segment, literals are quoted, blanks keep their label.
func shortTerm(t rdf.Term) string {
	switch t.Kind {
	case rdf.KindIRI:
		v := t.Value
		if i := strings.LastIndexAny(v, "#/"); i >= 0 && i < len(v)-1 {
			v = v[i+1:]
		}
		return v
	case rdf.KindLiteral:
		return fmt.Sprintf("%q", t.Value)
	case rdf.KindBlank:
		return "_:" + t.Value
	default:
		return t.String()
	}
}

func pathDetail(p *PropertyPath) string {
	if p == nil {
		return ""
	}
	switch p.Kind {
	case PathIRI:
		return shortTerm(p.IRI)
	case PathInverse:
		return "^" + pathDetail(sub(p, 0))
	case PathSequence:
		return pathDetail(sub(p, 0)) + "/" + pathDetail(sub(p, 1))
	case PathAlternative:
		return pathDetail(sub(p, 0)) + "|" + pathDetail(sub(p, 1))
	case PathZeroOrMore:
		return pathDetail(sub(p, 0)) + "*"
	case PathOneOrMore:
		return pathDetail(sub(p, 0)) + "+"
	default:
		return "path"
	}
}

func sub(p *PropertyPath, i int) *PropertyPath {
	if i < len(p.Sub) {
		return p.Sub[i]
	}
	return nil
}
