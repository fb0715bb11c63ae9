package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// NormalizeShape reduces a query text to its shape: the structure that
// survives when literals and limits change. The reduction is purely
// lexical so the same definition works online (no parse needed on the
// error path) and offline over archived trace JSONL:
//
//   - string literals ('…', "…", with \-escapes) become "?"
//   - bare numbers outside IRIs become "N" (so LIMIT 10 ≡ LIMIT 500)
//   - comments (# to end of line, outside strings/IRIs) are dropped
//   - whitespace runs collapse to one space
//   - keywords outside strings/IRIs are uppercased
//
// IRIs (<…>) and prefixed names are preserved: a query over a different
// predicate is a different shape, but the same query with a different
// year literal or LIMIT is the same shape.
func NormalizeShape(q string) string {
	var b strings.Builder
	b.Grow(len(q))
	i, n := 0, len(q)
	space := func() {
		if b.Len() > 0 && !strings.HasSuffix(b.String(), " ") {
			b.WriteByte(' ')
		}
	}
	for i < n {
		c := q[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			space()
			i++
		case c == '#':
			for i < n && q[i] != '\n' {
				i++
			}
		case c == '<':
			j := i + 1
			for j < n && q[j] != '>' && q[j] != ' ' && q[j] != '\n' {
				j++
			}
			if j < n && q[j] == '>' {
				j++
			}
			b.WriteString(q[i:j])
			i = j
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < n && q[j] != quote {
				if q[j] == '\\' && j+1 < n {
					j++
				}
				j++
			}
			if j < n {
				j++
			}
			b.WriteString(string(quote))
			b.WriteByte('?')
			b.WriteString(string(quote))
			// Keep a datatype/lang tag attached to the literal: typed
			// literals with different types are different shapes.
			i = j
		case c >= '0' && c <= '9':
			// A number token (digits, optional decimal part). A digit
			// glued to a letter (e.g. inside a prefixed name like
			// ex:obs12) is part of an identifier, not a literal — only
			// abstract it when the previous emitted byte is not a
			// name character.
			prev := byte(0)
			if s := b.String(); len(s) > 0 {
				prev = s[len(s)-1]
			}
			isName := func(x byte) bool {
				return x == '_' || x == ':' || (x >= 'a' && x <= 'z') || (x >= 'A' && x <= 'Z') || (x >= '0' && x <= '9')
			}
			j := i
			for j < n && ((q[j] >= '0' && q[j] <= '9') || q[j] == '.') {
				j++
			}
			// Trailing dot is a triple terminator, not a decimal point.
			for j > i && q[j-1] == '.' {
				j--
			}
			if isName(prev) {
				b.WriteString(q[i:j])
			} else {
				b.WriteByte('N')
			}
			i = j
		case c >= 'a' && c <= 'z':
			j := i
			for j < n && ((q[j] >= 'a' && q[j] <= 'z') || (q[j] >= 'A' && q[j] <= 'Z') || (q[j] >= '0' && q[j] <= '9') || q[j] == '_') {
				j++
			}
			word := q[i:j]
			// Uppercase bare lowercase words only when they are SPARQL
			// keywords; prefixed-name parts (followed by ':') and
			// variables are preserved by the surrounding cases.
			if j < n && q[j] == ':' {
				b.WriteString(word)
			} else if sparqlKeywords[strings.ToUpper(word)] {
				b.WriteString(strings.ToUpper(word))
			} else {
				b.WriteString(word)
			}
			i = j
		default:
			b.WriteByte(c)
			i++
		}
	}
	return strings.TrimSpace(b.String())
}

// sparqlKeywords is the keyword set uppercased by NormalizeShape so
// casing differences do not split shapes.
var sparqlKeywords = map[string]bool{
	"SELECT": true, "ASK": true, "CONSTRUCT": true, "DESCRIBE": true,
	"WHERE": true, "FILTER": true, "OPTIONAL": true, "UNION": true,
	"MINUS": true, "GRAPH": true, "BIND": true, "VALUES": true,
	"GROUP": true, "BY": true, "ORDER": true, "ASC": true, "DESC": true,
	"LIMIT": true, "OFFSET": true, "DISTINCT": true, "REDUCED": true,
	"PREFIX": true, "BASE": true, "AS": true, "HAVING": true,
	"INSERT": true, "DELETE": true, "DATA": true, "FROM": true, "NAMED": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"A": false, // 'a' is rdf:type shorthand; keep lowercase
}

// ShapeHash returns the workload fingerprint of a query: an FNV-64a
// hash of its normalized shape, rendered as 16 hex digits. Two queries
// differing only in literals, numbers, or whitespace hash identically.
func ShapeHash(q string) string {
	h := fnv.New64a()
	h.Write([]byte(NormalizeShape(q)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// QueryOutcome classifies how one query ended for the per-shape
// outcome counters: the same taxonomy the access log and the load
// driver use, so a shape's /workload row and a bench run report
// disagree only when the traffic differs.
type QueryOutcome string

const (
	OutcomeOK       QueryOutcome = "ok"
	OutcomeError    QueryOutcome = "error"    // evaluation/protocol failure (4xx/5xx incl. over-mem)
	OutcomeShed     QueryOutcome = "shed"     // rejected at the in-flight limit (503)
	OutcomeTimeout  QueryOutcome = "timeout"  // deadline expired (504)
	OutcomeCanceled QueryOutcome = "canceled" // caller disconnected (499)
)

// shapeEntry accumulates one query shape's statistics.
type shapeEntry struct {
	hash     string
	example  string // normalized shape text, truncated
	count    int64
	errors   int64
	timeouts int64
	sheds    int64
	canceled int64
	rows     int64
	bytes    int64
	lat      Histogram
}

// Workload is a bounded registry of query shapes: for each distinct
// normalized shape it keeps counts, a latency histogram (p50/p95/p99),
// and cumulative rows/bytes. When the shape table is full, new shapes
// fold into a catch-all bucket instead of growing the map, so an
// adversarial workload cannot exhaust server memory. Safe for
// concurrent use; nil-safe.
type Workload struct {
	mu        sync.Mutex
	shapes    map[string]*shapeEntry
	maxShapes int
	overflow  shapeEntry // shapes beyond maxShapes
}

// DefaultMaxShapes bounds the per-shape table of a Workload registry.
const DefaultMaxShapes = 256

// maxShapeExampleBytes caps the retained example text per shape.
const maxShapeExampleBytes = 2 << 10

// NewWorkload returns a workload registry keeping at most maxShapes
// distinct shapes (<= 0 selects DefaultMaxShapes).
func NewWorkload(maxShapes int) *Workload {
	if maxShapes <= 0 {
		maxShapes = DefaultMaxShapes
	}
	return &Workload{shapes: make(map[string]*shapeEntry), maxShapes: maxShapes}
}

// Record folds one finished query into the registry, classified by its
// outcome (shed and timed-out queries count separately from plain
// errors, so a shape's row shows *how* it fails, not just that it
// does). Nil-safe.
func (w *Workload) Record(query string, d time.Duration, rows, bytes int64, outcome QueryOutcome) {
	if w == nil {
		return
	}
	shape := NormalizeShape(query)
	h := fnv.New64a()
	h.Write([]byte(shape))
	hash := fmt.Sprintf("%016x", h.Sum64())

	w.mu.Lock()
	e, ok := w.shapes[hash]
	if !ok {
		if len(w.shapes) >= w.maxShapes {
			e = &w.overflow
			if e.hash == "" {
				e.hash = "overflow"
				e.example = "(shapes beyond the registry bound)"
			}
		} else {
			e = &shapeEntry{hash: hash, example: truncateQuery(shape, maxShapeExampleBytes)}
			w.shapes[hash] = e
		}
	}
	e.count++
	switch outcome {
	case OutcomeError:
		e.errors++
	case OutcomeShed:
		e.sheds++
	case OutcomeTimeout:
		e.timeouts++
	case OutcomeCanceled:
		e.canceled++
	}
	e.rows += rows
	e.bytes += bytes
	w.mu.Unlock()
	// Histogram is internally atomic; observe outside the lock.
	e.lat.Observe(d)
}

// ShapeStat is one shape's aggregated statistics in a snapshot.
type ShapeStat struct {
	Hash     string  `json:"hash"`
	Count    int64   `json:"count"`
	Errors   int64   `json:"errors,omitempty"`
	Timeouts int64   `json:"timeouts,omitempty"`
	Sheds    int64   `json:"sheds,omitempty"`
	Canceled int64   `json:"canceled,omitempty"`
	P50Ms    float64 `json:"p50Ms"`
	P95Ms    float64 `json:"p95Ms"`
	P99Ms    float64 `json:"p99Ms"`
	AvgMs    float64 `json:"avgMs"`
	Rows     int64   `json:"rows"`
	Bytes    int64   `json:"bytes"`
	AvgRows  float64 `json:"avgRows"`
	Example  string  `json:"example"`
}

// WorkloadSnapshot is a point-in-time view of the registry, shapes
// sorted by count (desc) then hash, the ordering `qb2olap trace
// -workload` and /workload render.
type WorkloadSnapshot struct {
	Shapes  int         `json:"shapes"`
	Queries int64       `json:"queries"`
	Top     []ShapeStat `json:"top"`
}

// Snapshot returns the current per-shape statistics.
func (w *Workload) Snapshot() WorkloadSnapshot {
	var snap WorkloadSnapshot
	if w == nil {
		return snap
	}
	w.mu.Lock()
	entries := make([]*shapeEntry, 0, len(w.shapes)+1)
	for _, e := range w.shapes {
		entries = append(entries, e)
	}
	if w.overflow.count > 0 {
		entries = append(entries, &w.overflow)
	}
	w.mu.Unlock()

	for _, e := range entries {
		hs := e.lat.Snapshot()
		st := ShapeStat{
			Hash: e.hash, Count: e.count, Errors: e.errors,
			Timeouts: e.timeouts, Sheds: e.sheds, Canceled: e.canceled,
			P50Ms: hs.P50Ms, P95Ms: hs.P95Ms, P99Ms: hs.P99Ms, AvgMs: hs.AvgMs,
			Rows: e.rows, Bytes: e.bytes, Example: e.example,
		}
		if e.count > 0 {
			st.AvgRows = float64(e.rows) / float64(e.count)
		}
		snap.Queries += e.count
		snap.Top = append(snap.Top, st)
	}
	snap.Shapes = len(snap.Top)
	sort.Slice(snap.Top, func(i, j int) bool {
		if snap.Top[i].Count != snap.Top[j].Count {
			return snap.Top[i].Count > snap.Top[j].Count
		}
		return snap.Top[i].Hash < snap.Top[j].Hash
	})
	return snap
}

// Canonical zeroes the timing-dependent fields of the snapshot
// (latency quantiles), leaving hash/count/rows/bytes — the part that is
// deterministic for a fixed corpus — so golden-file tests can compare
// the rendered text across runs.
func (s WorkloadSnapshot) Canonical() WorkloadSnapshot {
	out := s
	out.Top = make([]ShapeStat, len(s.Top))
	for i, t := range s.Top {
		t.P50Ms, t.P95Ms, t.P99Ms, t.AvgMs = 0, 0, 0, 0
		out.Top[i] = t
	}
	return out
}

// RenderText renders the snapshot as an aligned table followed by one
// example shape per line, the /workload text view.
func (s WorkloadSnapshot) RenderText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload: %d shapes, %d queries\n\n", s.Shapes, s.Queries)
	if len(s.Top) == 0 {
		b.WriteString("no queries recorded\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-16s %8s %6s %6s %6s %6s %9s %9s %9s %10s %10s\n",
		"SHAPE", "COUNT", "ERR", "TMOUT", "SHED", "CANCEL", "P50", "P95", "P99", "ROWS", "BYTES")
	for _, t := range s.Top {
		fmt.Fprintf(&b, "%-16s %8d %6d %6d %6d %6d %8.1fms %8.1fms %8.1fms %10d %10s\n",
			t.Hash, t.Count, t.Errors, t.Timeouts, t.Sheds, t.Canceled,
			t.P50Ms, t.P95Ms, t.P99Ms, t.Rows, FormatBytes(t.Bytes))
	}
	b.WriteString("\n")
	for _, t := range s.Top {
		fmt.Fprintf(&b, "%s  %s\n", t.Hash, t.Example)
	}
	return b.String()
}

// WorkloadFromTraces folds an exported trace archive into a workload
// registry — the `qb2olap trace -workload` offline mode. Rows fall
// back to the root span's output cardinality when the trace predates
// resource accounting.
func WorkloadFromTraces(traces []*Trace) *Workload {
	w := NewWorkload(0)
	for _, tr := range traces {
		if tr == nil || tr.Root == nil {
			continue
		}
		rows := tr.Rows
		if rows == 0 {
			rows = int64(tr.Root.Out)
		}
		w.Record(tr.Query, tr.Root.Wall, rows, tr.Bytes, OutcomeOK)
	}
	return w
}

// WorkloadHandler serves the registry at /workload: JSON by default,
// the text table when the Accept header prefers text/plain (mirroring
// /metrics content negotiation) or ?text=1 is set.
func WorkloadHandler(w *Workload) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		snap := w.Snapshot()
		wantText := false
		if req != nil {
			accept := req.Header.Get("Accept")
			if strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json") {
				wantText = true
			}
			if req.URL.Query().Get("text") == "1" {
				wantText = true
			}
		}
		if wantText {
			rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(rw, snap.RenderText())
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	}
}
