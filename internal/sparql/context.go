package sparql

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// This file is the engine's cancellation layer: context-aware entry
// points (QueryContext, QueryTracedContext, UpdateContext) and
// the cooperative checks the evaluator loops call.
//
// Cancellation contract: evaluation is cooperative. The coordinating
// goroutine checks the context at every chunk boundary of the pipeline
// (boundIter, stream.go; the GROUP BY fold after every chunk it
// consumes), and the row kernels — BGP join, FILTER, OPTIONAL, MINUS —
// check every cancelCheckRows rows, so a cancelled query returns
// promptly at every chunk size. A kernel that observes
// cancellation abandons its rows and returns truncated output; the
// next chunk boundary then converts the cancellation into an error
// before any truncated rows can escape, so a cancelled query never
// yields a silently partial result.
//
// The disabled path (Query, Select, Ask, or a context that can never
// be cancelled) costs one nil check per hook: run.done stays nil and
// cancelled() returns immediately.

// cancelCheckRows is how many rows an operator inner loop processes
// between cancellation checks. Small enough that a cancelled 80k-row
// evaluation stops within a few thousand row visits, large enough that
// the per-row cost is one predictable branch.
const cancelCheckRows = 256

// bindContext arms the run's cancellation hooks. A nil context, or one
// that can never be cancelled (context.Background()), leaves the run on
// the zero-cost disabled path.
func (r *run) bindContext(ctx context.Context) {
	if ctx == nil {
		return
	}
	if done := ctx.Done(); done != nil {
		r.qctx = ctx
		r.done = done
	}
}

// cancelled reports whether the query's context has been cancelled. The
// disabled path is a single nil check.
func (r *run) cancelled() bool {
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// cancelErr converts the context's cause into the engine's typed
// cancellation error. errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both see through it.
func (r *run) cancelErr() error {
	return &CanceledError{Cause: context.Cause(r.qctx)}
}

// sortShortCircuit returns a closure the ORDER BY comparators consult:
// it samples the context every cancelCheckRows comparisons and, once
// cancellation is observed, reports true for every later comparison so
// the sort drains in cheap constant comparisons (Go's sort terminates
// under an inconsistent comparator, and the arbitrary order it leaves
// behind is discarded by the caller's post-sort cancellation check).
func (r *run) sortShortCircuit() func() bool {
	if r.done == nil {
		return func() bool { return false }
	}
	n, tripped := 0, false
	return func() bool {
		if tripped {
			return true
		}
		if n++; n%cancelCheckRows == 0 && r.cancelled() {
			tripped = true
		}
		return tripped
	}
}

// CanceledError reports that query evaluation stopped cooperatively
// because its context was cancelled or its deadline expired. It wraps
// the context cause, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) hold as appropriate.
type CanceledError struct {
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sparql: query interrupted: %v", e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// QueryContext is Query under a context: evaluation checks ctx
// cooperatively and returns a *CanceledError (wrapping ctx's cause) as
// soon as it observes cancellation or deadline expiry. The sampling and
// tracing behaviour is identical to Query.
func (e *Engine) QueryContext(ctx context.Context, q *Query) (*Results, error) {
	var id obs.TraceID
	if e.tracer != nil {
		if id = obs.NewTraceID(); !e.sampler.Sample(id) {
			id = ""
		}
	}
	res, _, err := e.collect(ctx, q, id)
	return res, err
}

// QueryStringContext parses and evaluates a SELECT/ASK query string
// under a context.
func (e *Engine) QueryStringContext(ctx context.Context, src string) (*Results, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return e.QueryContext(ctx, q)
}

// QueryTracedContext evaluates a SELECT or ASK query with operator
// tracing forced and returns the EXPLAIN ANALYZE-style trace alongside
// the results, under a fresh trace ID. The trace is returned even when
// evaluation fails or is cancelled mid-flight (with the spans finished
// so far). If the engine has a tracer installed the trace is also
// collected there. Engine.Stream is the incremental form under a
// caller-chosen trace identity.
func (e *Engine) QueryTracedContext(ctx context.Context, q *Query) (*Results, *obs.Trace, error) {
	return e.collect(ctx, q, obs.NewTraceID())
}

// UpdateContext is Execute under a context. Cancellation is honored
// while the WHERE clauses of DELETE/INSERT WHERE operations evaluate
// and between operations; once an operation starts mutating the store
// it runs to completion, so each operation's write phase stays atomic
// and a cancelled update never leaves a half-applied template.
func (e *Engine) UpdateContext(ctx context.Context, u *Update) error {
	for _, op := range u.Operations {
		if ctx != nil && ctx.Err() != nil {
			return &CanceledError{Cause: context.Cause(ctx)}
		}
		if err := e.executeOpContext(ctx, op); err != nil {
			return err
		}
	}
	return nil
}

// ExecuteStringContext parses and applies an update request under a
// context (see UpdateContext for the cancellation semantics).
func (e *Engine) ExecuteStringContext(ctx context.Context, src string) error {
	u, err := ParseUpdate(src)
	if err != nil {
		return err
	}
	return e.UpdateContext(ctx, u)
}
