package sparql

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// This file is the engine's resource-accounting layer: per-query rows
// and approximate bytes materialized, the peak in-flight byte total,
// and an optional hard budget that aborts over-budget queries with a
// typed error.
//
// Accounting contract: the pipeline's chunk boundaries (boundIter,
// stream.go) charge each stage's output chunk and release it when the
// consumer pulls the next; the points that retain something (a
// breaker's drained input, a collected result, DISTINCT's seen set, a
// CONSTRUCT/DESCRIBE graph) charge it here with accountNew. GROUP BY
// retains groups, not rows: the fold (eval.go) charges each group as it
// is created — representative row, key, accumulators — and what its
// DISTINCT sets and GROUP_CONCAT parts grow by, once per chunk, and
// releases the lot when the result rows exist. The enabled cost is a
// handful of atomic adds per chunk and the disabled path is a single
// nil check per hook — run.acct stays nil, mirroring the span and
// cancellation fast paths. Byte counts are estimates (term struct size
// plus lexical length, sampled from the first row of each charged
// batch), good for ranking operators and bounding runaway
// intermediates, not for balancing against the allocator.
//
// Budget semantics: QueryAcct.Over is sticky; the coordinator checks it
// after every charge and converts the condition into *MemLimitError
// before any further rows can escape.

// WithResources attaches a process-wide resource tracker: every
// accounted query contributes its in-flight bytes to the tracker's
// current/high-water gauges (the /metrics surface). Attaching a tracker
// turns accounting on for every query the engine runs.
func WithResources(t *obs.ResourceTracker) Option {
	return func(e *Engine) { e.resources = t }
}

// WithMaxQueryMem sets a hard per-query budget on in-flight
// materialized bytes (0 = unlimited). A query that exceeds it aborts
// with *MemLimitError. Setting a budget turns accounting on.
func WithMaxQueryMem(n int64) Option {
	return func(e *Engine) {
		if n > 0 {
			e.maxQueryMem = n
		}
	}
}

// MemLimitError reports that a query was aborted because its in-flight
// materialized bytes exceeded the configured budget. It is the
// admission-control signal (429-style at the endpoint): the query was
// not wrong, it was too big — clients should narrow it, not retry it.
type MemLimitError struct {
	Limit int64 // the configured budget
	Peak  int64 // in-flight bytes when the query tripped it
	Rows  int64 // solutions materialized up to that point
}

func (e *MemLimitError) Error() string {
	return fmt.Sprintf("sparql: query exceeded memory budget: %s in flight of %s allowed (%d rows materialized)",
		obs.FormatBytes(e.Peak), obs.FormatBytes(e.Limit), e.Rows)
}

// acctKey carries a caller-opened account through a context.
type acctKey struct{}

// WithQueryAcct returns a context carrying a per-query resource
// account. The endpoint opens one account per request so it can read
// rows/bytes/peak after evaluation for the access log, slow log, and
// workload registry; the engine's entry points adopt a context account
// in preference to opening their own.
func WithQueryAcct(ctx context.Context, a *obs.QueryAcct) context.Context {
	if ctx == nil || a == nil {
		return ctx
	}
	return context.WithValue(ctx, acctKey{}, a)
}

// QueryAcctFrom returns the context's resource account, or nil.
func QueryAcctFrom(ctx context.Context) *obs.QueryAcct {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(acctKey{}).(*obs.QueryAcct)
	return a
}

// bindAcct attaches the run's resource account: a context-injected
// account wins (its opener owns Finish); otherwise the run opens — and
// owns — one when the engine has a tracker or a budget, or when the
// query is traced (so EXPLAIN ANALYZE can render mem=). With none of
// those, acct stays nil and every hook is a nil check.
func (r *run) bindAcct(ctx context.Context, traced bool) {
	if a := QueryAcctFrom(ctx); a != nil {
		r.acct = a
		return
	}
	if r.e.resources != nil || r.e.maxQueryMem > 0 || traced {
		r.acct = obs.NewQueryAcct(r.e.resources, r.e.maxQueryMem)
		r.ownAcct = true
	}
}

// closeAcct finishes a run-owned account (context-injected accounts are
// finished by their opener).
func (r *run) closeAcct() {
	if r.ownAcct {
		r.acct.Finish()
	}
}

// overMem reports whether the query has tripped its byte budget; the
// disabled path is a single nil check inside Over.
func (r *run) overMem() bool { return r.acct.Over() }

// memErr converts the tripped budget into the typed error.
func (r *run) memErr() error {
	return &MemLimitError{Limit: r.acct.Limit(), Peak: r.acct.Peak(), Rows: r.acct.Rows()}
}

// Per-row cost model. A solution is a []rdf.Term; each Term is four
// words of struct (kind + three string headers) plus its lexical
// bytes. Kept deliberately simple — the estimator runs on the hot
// path.
const (
	solutionHeaderBytes = 24 // slice header + allocator slot overhead
	termStructBytes     = 56 // Term struct: kind word + 3 string headers
)

// approxRowBytes estimates the retained size of one materialized row.
func approxRowBytes(row []rdf.Term) int64 {
	b := int64(solutionHeaderBytes)
	for _, t := range row {
		b += termStructBytes + int64(len(t.Value)) + int64(len(t.Datatype)) + int64(len(t.Lang))
	}
	return b
}

// accountNew charges rows to the account as freshly materialized
// solutions. The batch's byte size is estimated as first-row width ×
// count — rows in one operator batch share arity, so the sample is
// representative at a fraction of the walking cost. Nil-account calls
// return immediately.
func accountNew[T ~[]rdf.Term](r *run, rows []T) {
	if r.acct != nil && len(rows) > 0 {
		r.acct.Materialize(len(rows), approxRowBytes(rows[0])*int64(len(rows)))
	}
}
