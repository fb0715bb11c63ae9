package obs

import (
	"fmt"
	"sync/atomic"
)

// ResourceTracker aggregates per-query memory accounting across a whole
// process: the bytes of materialized intermediate solutions currently
// in flight over all running queries, the high-water mark of that
// gauge, and how many queries were accounted or aborted over budget.
// One tracker is shared by every QueryAcct the server hands out; all
// fields are atomics, so Materialize/Release on the query hot path are
// wait-free.
type ResourceTracker struct {
	inflight  atomic.Int64
	highWater atomic.Int64
	queries   atomic.Int64
	overMem   atomic.Int64
}

// NewResourceTracker returns an empty process-wide tracker.
func NewResourceTracker() *ResourceTracker { return &ResourceTracker{} }

// Inflight returns the bytes of materialized intermediates currently
// live across all accounted queries. Nil-safe.
func (t *ResourceTracker) Inflight() int64 {
	if t == nil {
		return 0
	}
	return t.inflight.Load()
}

// HighWater returns the largest value Inflight has reached. Nil-safe.
func (t *ResourceTracker) HighWater() int64 {
	if t == nil {
		return 0
	}
	return t.highWater.Load()
}

// Queries returns how many accounted queries have finished. Nil-safe.
func (t *ResourceTracker) Queries() int64 {
	if t == nil {
		return 0
	}
	return t.queries.Load()
}

// OverMem returns how many queries were aborted over their memory
// budget. Nil-safe.
func (t *ResourceTracker) OverMem() int64 {
	if t == nil {
		return 0
	}
	return t.overMem.Load()
}

func (t *ResourceTracker) grow(b int64) {
	if t == nil || b == 0 {
		return
	}
	now := t.inflight.Add(b)
	// Racy-but-monotonic high-water update: a concurrent larger value
	// simply wins the CAS loop.
	for {
		hw := t.highWater.Load()
		if now <= hw || t.highWater.CompareAndSwap(hw, now) {
			return
		}
	}
}

func (t *ResourceTracker) shrink(b int64) {
	if t == nil || b == 0 {
		return
	}
	t.inflight.Add(-b)
}

// QueryAcct is the per-query resource account: cumulative rows and
// approximate bytes materialized, the current and peak in-flight bytes,
// and an optional hard byte budget. A nil *QueryAcct is a valid
// disabled account — every method is a nil check, mirroring the span
// fast path — so the engine threads one pointer unconditionally.
//
// An account belongs to its query, and a query runs on one goroutine,
// so its fields are plain integers; only the process-wide tracker it
// reports to is shared and atomic.
//
// The byte numbers are approximations (solution rows estimated from
// term counts and lexical lengths, sampled once per chunk), not
// allocator truth: they exist to rank queries and operators against
// each other and to bound runaway intermediates, not to balance books
// against runtime.MemStats.
type QueryAcct struct {
	tracker *ResourceTracker
	limit   int64 // 0 = unlimited

	rows, bytes, inflight, peak int64
	exceeded, finished          bool
}

// NewQueryAcct opens an account against tracker (which may be nil for a
// standalone account) with a hard in-flight byte budget of limit
// (0 = unlimited).
func NewQueryAcct(tracker *ResourceTracker, limit int64) *QueryAcct {
	return &QueryAcct{tracker: tracker, limit: limit}
}

// Materialize records rows new solutions totaling approximately b bytes
// of retained memory. Called at the same chunk boundaries as the
// cancellation checks. Nil-safe.
func (a *QueryAcct) Materialize(rows int, b int64) {
	if a == nil || (rows == 0 && b == 0) {
		return
	}
	a.rows += int64(rows)
	a.bytes += b
	a.inflight += b
	a.peak = max(a.peak, a.inflight)
	if a.limit > 0 && a.inflight > a.limit {
		a.exceeded = true
	}
	a.tracker.grow(b)
}

// Release returns b bytes to the account: an intermediate result was
// replaced by its successor operator's output and is no longer live.
// Cumulative rows/bytes are unaffected; only the in-flight gauge moves.
// Nil-safe.
func (a *QueryAcct) Release(b int64) {
	if a == nil || b <= 0 {
		return
	}
	a.inflight -= b
	a.tracker.shrink(b)
}

// Over reports whether the account has exceeded its byte budget. The
// flag is sticky: once over, always over. Nil-safe.
func (a *QueryAcct) Over() bool { return a != nil && a.exceeded }

// Rows returns the cumulative solutions materialized. Nil-safe.
func (a *QueryAcct) Rows() int64 {
	if a == nil {
		return 0
	}
	return a.rows
}

// Bytes returns the cumulative approximate bytes materialized. Nil-safe.
func (a *QueryAcct) Bytes() int64 {
	if a == nil {
		return 0
	}
	return a.bytes
}

// Inflight returns the query's current in-flight bytes (materialized
// minus released). Nil-safe.
func (a *QueryAcct) Inflight() int64 {
	if a == nil {
		return 0
	}
	return a.inflight
}

// Peak returns the largest in-flight byte total the query reached.
// Nil-safe.
func (a *QueryAcct) Peak() int64 {
	if a == nil {
		return 0
	}
	return a.peak
}

// Limit returns the account's byte budget (0 = unlimited). Nil-safe.
func (a *QueryAcct) Limit() int64 {
	if a == nil {
		return 0
	}
	return a.limit
}

// Finish closes the account, returning any still-live bytes to the
// process tracker. Idempotent and nil-safe, so both the engine (via
// defer) and the server (after encoding) may call it.
func (a *QueryAcct) Finish() {
	if a == nil || a.finished {
		return
	}
	a.finished = true
	if a.inflight > 0 {
		a.tracker.shrink(a.inflight)
	}
	a.inflight = 0
	if a.tracker != nil {
		a.tracker.queries.Add(1)
		if a.exceeded {
			a.tracker.overMem.Add(1)
		}
	}
}

// FormatBytes renders b as a compact human byte count (e.g. "482B",
// "12.3KB", "4.0MB"), the form used by mem= annotations in traces and
// the slow log.
func FormatBytes(b int64) string {
	switch {
	case b < 0:
		return "-" + FormatBytes(-b)
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	}
}
