package obs

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// QueryRecord is the one record of one query request. The endpoint
// fills it in while it serves the request, and every per-query surface
// reads it: the access log, the slow log and its Warn line, the
// per-shape workload statistics, the profiler trigger and the outcome
// counters. TraceID joins it against the exported trace archive
// (`qb2olap trace`) and Shape against /workload.
type QueryRecord struct {
	When     time.Time     `json:"when"`
	Duration time.Duration `json:"durationNs"`
	Query    string        `json:"query"`
	Status   int           `json:"status,omitempty"`
	TraceID  TraceID       `json:"traceId,omitempty"`
	Outcome  QueryOutcome  `json:"outcome,omitempty"`

	// Shape is the ShapeHash of Query, set by Fingerprint.
	Shape string `json:"shape,omitempty"`

	// Resource account, when the query ran with accounting on:
	// solutions materialized, approximate cumulative bytes, and peak
	// in-flight bytes.
	Rows     int64 `json:"rows,omitempty"`
	MemBytes int64 `json:"memBytes,omitempty"`
	MemPeak  int64 `json:"memPeak,omitempty"`

	// EstCost is the planner's estimated cost, priced only for slow
	// queries (0 when the planner is off), so cost-model q-error is
	// auditable against Duration straight from the slow log.
	EstCost float64 `json:"estCost,omitempty"`

	norm string // the normalized shape Shape hashes, kept for Workload
}

// Fingerprint sets Shape from Query. The text is normalized once; the
// workload registry keeps the normal form as the shape's example.
func (r *QueryRecord) Fingerprint() {
	r.norm = NormalizeShape(r.Query)
	r.Shape = shapeHash(r.norm)
}

// QueryOutcome classifies how one query ended: the access log prints
// it, the endpoint derives the protocol status and the stream-error
// trailer from it, and the per-shape counters of /workload and the
// per-class counters of `qb2olap bench` (internal/loadgen) count by it,
// so a shape's row and a bench run report disagree only when the
// traffic differs.
type QueryOutcome string

const (
	OutcomeOK       QueryOutcome = "ok"
	OutcomeError    QueryOutcome = "error"    // evaluation or protocol failure
	OutcomeOverMem  QueryOutcome = "over-mem" // over the per-query memory budget (429); an error per shape
	OutcomeShed     QueryOutcome = "shed"     // rejected at the in-flight limit (503)
	OutcomeTimeout  QueryOutcome = "timeout"  // deadline expired (504)
	OutcomeCanceled QueryOutcome = "canceled" // caller disconnected (499)

	// Plan-only requests (?cost=1): priced, or refused because the
	// planner is off. They stay out of the workload and the slow log.
	OutcomeCost            QueryOutcome = "cost"
	OutcomeCostUnavailable QueryOutcome = "cost-unavailable"
)

// maxQueryBytes caps the query text a retained trace or slow-log entry
// keeps; longer texts are cut with a marker.
const maxQueryBytes = 16 << 10

// truncate caps s at limit bytes, appending a marker when cut.
func truncate(s string, limit int) string {
	if len(s) <= limit {
		return s
	}
	return s[:limit] + "… [truncated]"
}

// ring is the bounded memory of a diagnostics surface: the last keep
// entries, oldest first. With the query-text cap it bounds what a
// long-running server retains however large its queries are. Safe for
// concurrent use.
type ring[T any] struct {
	mu    sync.Mutex
	keep  int
	items []T
}

func (r *ring[T]) add(v T) {
	r.mu.Lock()
	r.items = append(r.items, v)
	if len(r.items) > r.keep {
		r.items = r.items[len(r.items)-r.keep:]
	}
	r.mu.Unlock()
}

// recent returns a copy of the entries, newest first.
func (r *ring[T]) recent() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, len(r.items))
	for i, v := range r.items {
		out[len(r.items)-1-i] = v
	}
	return out
}

// SlowLog retains the records of the most recent slow queries for
// /debug/slow. Safe for concurrent use; nil-safe like the rest of the
// package.
type SlowLog struct{ ring ring[QueryRecord] }

// NewSlowLog returns a slow log retaining the last keep entries
// (keep <= 0 selects 64).
func NewSlowLog(keep int) *SlowLog {
	if keep <= 0 {
		keep = 64
	}
	return &SlowLog{ring[QueryRecord]{keep: keep}}
}

// Record retains one slow query, truncating its text to the byte cap.
// Nil-safe.
func (l *SlowLog) Record(r QueryRecord) {
	if l == nil {
		return
	}
	r.Query, r.norm = truncate(r.Query, maxQueryBytes), ""
	l.ring.add(r)
}

// Recent returns a copy of the retained entries, newest first.
func (l *SlowLog) Recent() []QueryRecord {
	if l == nil {
		return nil
	}
	return l.ring.recent()
}

// SlowHandler serves the slow log (newest first) as plain text.
func SlowHandler(l *SlowLog) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		recent := l.Recent()
		if len(recent) == 0 {
			fmt.Fprintln(w, "no slow queries recorded (is -slowlog enabled?)")
			return
		}
		for _, e := range recent {
			id := string(e.TraceID)
			if id == "" {
				id = "-"
			}
			shape := e.Shape
			if shape == "" {
				shape = "-"
			}
			fmt.Fprintf(w, "%s  %s  status=%d  trace=%s  shape=%s",
				e.When.Format(time.RFC3339), e.Duration.Round(time.Microsecond), e.Status, id, shape)
			if e.Rows > 0 || e.MemBytes > 0 {
				fmt.Fprintf(w, "  rows=%d  mem=%s  peak=%s",
					e.Rows, FormatBytes(e.MemBytes), FormatBytes(e.MemPeak))
			}
			if e.EstCost > 0 {
				fmt.Fprintf(w, "  est-cost=%.0f", e.EstCost)
			}
			fmt.Fprintf(w, "\n%s\n\n", e.Query)
		}
	}
}
