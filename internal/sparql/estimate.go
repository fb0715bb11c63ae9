package sparql

import (
	"math"

	"repro/internal/store"
)

// Cardinality estimation for the EXPLAIN ANALYZE surface. When a query
// is traced, every operator span carries the estimate the statistics
// layer would have produced for it, rendered as "est=… act=…" next to
// the actual row count. Each estimate is computed from the operator's
// *actual* input cardinality, so the rendered error isolates the
// per-operator estimator (join selectivity, filter default, …) from
// error accumulated upstream — exactly the q-error signal that judges
// whether the statistics are good enough to plan with. The cost-based
// planner (plan.go) consumes the same model to choose join orders
// before evaluation starts: one set of functions over fractional
// cardinalities, which a traced stage truncates to whole rows.
//
// Estimates are only computed while tracing, when a stage closes and
// its total actual input is known (trace.go); an untraced query pays
// nothing.

// estimateJoin is the tracing-time view of estimateJoinRows: it
// predicts the output rows of joining one triple pattern into in
// solutions from the operator's actual input cardinality.
func (r *run) estimateJoin(tp TriplePattern, bound map[string]bool, in int, ctx graphCtx) int64 {
	if tp.Path != nil {
		// No statistics for property paths; assume they preserve
		// cardinality.
		return int64(in)
	}
	return int64(math.Round(estimateJoinRows(r.snap, tp, bound, float64(in), ctx.gid)))
}

// semiSelectivity is the share of tp's matches that a semi-join set of n
// members keeps at position i (0 S, 1 P, 2 O): n over the distinct ids
// that position takes in the graph — per predicate when tp's is
// constant — under the same independence assumption, at most 1.
func semiSelectivity(st *store.Snapshot, tp TriplePattern, i int, n float64, gid store.ID) float64 {
	var distinct int
	pat, _ := constIDs(st, tp)
	if ps, ok := st.PredicateStat(gid, pat.P); ok && pat.P != store.NoID && i != 1 {
		distinct = ps.DistinctS
		if i == 2 {
			distinct = ps.DistinctO
		}
	} else {
		gs := st.GraphStat(gid)
		distinct = [3]int{gs.DistinctSubjects, gs.DistinctPredicates, gs.DistinctObjects}[i]
	}
	if float64(distinct) <= n {
		return 1
	}
	return n / float64(distinct)
}

// estimateFilterRows applies the textbook default 1/3 selectivity:
// nothing is known about the predicate expression, and the rendered
// est/act gap is precisely the missing-statistics signal.
func estimateFilterRows(in float64) float64 {
	if in == 0 {
		return 0
	}
	if in < 3 {
		return 1
	}
	return in / 3
}

// estimateGroupRows predicts the number of aggregation groups as √in,
// the classic zero-information heuristic.
func estimateGroupRows(in float64) float64 {
	return math.Round(math.Sqrt(in))
}

// estimateSliceRows is exact: OFFSET/LIMIT arithmetic over the input.
func estimateSliceRows(in float64, offset, limit int) float64 {
	n := in - float64(offset)
	if n < 0 {
		n = 0
	}
	if limit >= 0 && float64(limit) < n {
		n = float64(limit)
	}
	return n
}
