// Package obs is the stdlib-only observability layer shared by the
// SPARQL engine, the protocol endpoint, and the CLI tools: query traces
// (per-operator spans rendered as an EXPLAIN ANALYZE-style tree),
// an atomic metrics registry (counters, gauges, log-bucketed latency
// histograms) with a JSON snapshot, and an HTTP diagnostics mux
// (/metrics, /debug/vars, /debug/pprof, /debug/traces).
//
// The package has no dependency on the rest of the repository, so every
// layer can import it without cycles. The sinks (Tracer, SlowLog,
// Workload, Registry) are safe for concurrent use; a Span and a
// QueryAcct belong to the one goroutine that evaluates their query. The
// tracing fast path of an untraced query is a single nil check per
// operator (verified by BenchmarkTracerOverhead).
package obs

import (
	"fmt"
	"strings"
	"time"
)

// Span is one operator node in a query trace tree: what ran, how long
// it took, and how many solutions flowed in and out. Spans form a tree
// mirroring the algebra of the evaluated query. Mem is the approximate
// bytes the operator charged to the query's resource account, rendered
// as mem=… in the timed EXPLAIN ANALYZE view and excluded from Outline
// so golden trees stay byte-identical whether or not accounting ran.
//
// A span is written only by the goroutine that evaluates its query —
// once by Finish, or accumulated across pulls when the span belongs to
// a pipeline stage that produces its output chunk by chunk.
type Span struct {
	Op       string        `json:"op"`
	Detail   string        `json:"detail,omitempty"`
	Wall     time.Duration `json:"wallNs"`
	In       int           `json:"in"`
	Out      int           `json:"out"`
	Est      int64         `json:"est,omitempty"`
	EstSet   bool          `json:"estSet,omitempty"`
	Mem      int64         `json:"memBytes,omitempty"`
	Children []*Span       `json:"children,omitempty"`

	start time.Time
}

// StartSpan opens a root span.
func StartSpan(op, detail string, in int) *Span {
	return &Span{Op: op, Detail: detail, In: in, start: time.Now()}
}

// StartChild opens a child span under s. It is nil-safe: a nil receiver
// returns nil, so callers may chain through a disabled trace cursor
// without branching.
func (s *Span) StartChild(op, detail string, in int) *Span {
	if s == nil {
		return nil
	}
	c := StartSpan(op, detail, in)
	s.Children = append(s.Children, c)
	return c
}

// Finish records the output cardinality and the wall time since the
// span started. Nil-safe.
func (s *Span) Finish(out int) {
	if s == nil {
		return
	}
	s.Out = out
	s.Wall = time.Since(s.start)
}

// SetEst records the planner's estimated output cardinality. A span
// with an estimate renders as "est=… act=…" instead of "out=…", putting
// estimator error next to ground truth in the EXPLAIN ANALYZE tree.
// Nil-safe.
func (s *Span) SetEst(n int64) {
	if s == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	s.Est = n
	s.EstSet = true
}

// Estimated reports whether SetEst was called on the span.
func (s *Span) Estimated() bool { return s != nil && s.EstSet }

// Attach appends a pre-built span (e.g. a server-side span tree decoded
// from a response header) as a child of s. Nil-safe on both ends.
func (s *Span) Attach(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.Children = append(s.Children, c)
}

// Visit walks the span tree depth-first, parents before children.
func (s *Span) Visit(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Visit(fn)
	}
}

// Render returns the EXPLAIN ANALYZE-style tree with wall times.
func (s *Span) Render() string {
	var b strings.Builder
	s.render(&b, "", true)
	return b.String()
}

// Outline returns the same tree without timings, which is stable across
// runs for a deterministic query plan (used by golden-file tests).
func (s *Span) Outline() string {
	var b strings.Builder
	s.render(&b, "", false)
	return b.String()
}

func (s *Span) render(b *strings.Builder, prefix string, withTimes bool) {
	if s == nil {
		return
	}
	b.WriteString(s.Op)
	if s.Detail != "" {
		b.WriteString(" ")
		b.WriteString(s.Detail)
	}
	if s.EstSet {
		fmt.Fprintf(b, "  [in=%d est=%d act=%d", s.In, s.Est, s.Out)
	} else {
		fmt.Fprintf(b, "  [in=%d out=%d", s.In, s.Out)
	}
	if withTimes {
		if s.Mem > 0 {
			fmt.Fprintf(b, " mem=%s", FormatBytes(s.Mem))
		}
		fmt.Fprintf(b, " time=%s", s.Wall.Round(time.Microsecond))
	}
	b.WriteString("]\n")
	for i, c := range s.Children {
		connector, childPrefix := "├─ ", "│  "
		if i == len(s.Children)-1 {
			connector, childPrefix = "└─ ", "   "
		}
		b.WriteString(prefix)
		b.WriteString(connector)
		c.render(b, prefix+childPrefix, withTimes)
	}
}

// Trace is one finished query trace: its identity (the trace ID shared
// by every process that contributed spans), when it started, the query
// text (when the caller knows it), the planner's summary line (when the
// caller planned), and the root operator span.
type Trace struct {
	ID    TraceID   `json:"id,omitempty"`
	Start time.Time `json:"start"`
	Query string    `json:"query,omitempty"`
	// Plan is the planner's one-line summary — for a QL query, the
	// chosen translation with its estimated cost, e.g.
	// "alternative (est cost 10458)". Rendered as a "plan:" line above
	// the operator tree by Render and Outline.
	Plan string `json:"plan,omitempty"`
	Root *Span  `json:"root"`

	// Resource account totals, set when the query ran with accounting:
	// cumulative solutions and approximate bytes materialized, and the
	// peak in-flight bytes. Rendered as a "mem:" line by Render (not
	// Outline — goldens stay stable) and exported in the JSONL archive
	// for `qb2olap trace -workload`.
	Rows      int64 `json:"rows,omitempty"`
	Bytes     int64 `json:"bytes,omitempty"`
	PeakBytes int64 `json:"peakBytes,omitempty"`
}

// Render returns the trace identity, the query text (if any), the plan
// line (if any), and the operator tree with wall times.
func (t *Trace) Render() string {
	var b strings.Builder
	if t.ID != "" {
		b.WriteString("# trace ")
		b.WriteString(string(t.ID))
		b.WriteString("\n")
	}
	if t.Query != "" {
		b.WriteString(strings.TrimSpace(t.Query))
		b.WriteString("\n\n")
	}
	if t.Plan != "" {
		b.WriteString("plan: ")
		b.WriteString(t.Plan)
		b.WriteString("\n")
	}
	if t.Rows > 0 || t.Bytes > 0 {
		fmt.Fprintf(&b, "mem: rows=%d bytes=%s peak=%s\n",
			t.Rows, FormatBytes(t.Bytes), FormatBytes(t.PeakBytes))
	}
	b.WriteString(t.Root.Render())
	return b.String()
}

// Outline returns the plan line (if any) and the operator tree without
// timings, which is stable across runs for a deterministic query plan
// (used by golden-file tests).
func (t *Trace) Outline() string {
	if t.Plan == "" {
		return t.Root.Outline()
	}
	return "plan: " + t.Plan + "\n" + t.Root.Outline()
}

// Tracer is a sink for finished query traces: it keeps the most recent
// ones for /debug/traces. Safe for concurrent use.
type Tracer struct{ ring ring[*Trace] }

// NewTracer returns a tracer retaining the last keep traces (keep <= 0
// selects 16).
func NewTracer(keep int) *Tracer {
	if keep <= 0 {
		keep = 16
	}
	return &Tracer{ring[*Trace]{keep: keep}}
}

// Collect records a finished trace, truncating its query text to
// maxQueryBytes. Nil-safe, so callers can unconditionally collect
// through an optional tracer.
func (t *Tracer) Collect(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.Query = truncate(tr.Query, maxQueryBytes)
	t.ring.add(tr)
}

// Recent returns a copy of the retained traces, newest first.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	return t.ring.recent()
}
