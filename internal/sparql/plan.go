package sparql

import (
	"math"
	"slices"

	"repro/internal/store"
)

// Cost-based query planning. The planner is a rewrite pass between
// parse and eval, and the engine's one join orderer: it walks the group
// graph pattern tree once, and for every basic graph pattern chooses a
// join order greedily by estimated output cardinality (the
// estimateJoinRows model over the store's statistics snapshot), then
// floats each FILTER to the earliest point at which all of its
// variables are certainly bound; a FILTER that never gets there runs at
// the end of its group, the scope SPARQL gives it (§18.2.2). A positive
// EXISTS that shares one variable with the rest of its query becomes a
// semi-join set (semijoin.go), which a BGP may start from, check inside
// its levels, and push into an aggregating sub-select. The pass
// produces a rewritten copy of
// the query — the caller's Query is never mutated — plus the plan's
// estimated total cost, the classic C_out metric: the sum of every
// operator's estimated output cardinality. C_out is what the ql layer
// compares to auto-select the direct vs. alternative translation of a
// QL program.
//
// What the planner will not do:
//
//   - It never reorders OPTIONAL, MINUS, UNION, BIND, GRAPH, VALUES, or
//     subselect elements relative to each other or to the joins around
//     them: left-join and difference are order-sensitive, so only the
//     commutative parts — triple-pattern joins within one BGP, and
//     filters over certainly-bound variables — move.
//   - A FILTER moves only when every variable it mentions (including
//     variables inside an EXISTS pattern, except a semi-join's own) is
//     certainly bound at the new position. Variables bound by OPTIONAL,
//     BIND, VALUES rows with UNDEF, or subselect projections are never
//     "certain", so filters over them run at the end of the group. A
//     filter also never moves ahead of a BIND of the group that could
//     rebind one of its variables.
//   - Property paths carry no statistics and are assumed to preserve
//     cardinality; they participate in reordering but never look cheap.
//
// The pass runs by default on every Query/Select/Ask/Construct/Describe
// entry and on the WHERE group of every DELETE/INSERT…WHERE update.
// The pipeline joins patterns in exactly the order it is given, so
// WithPlanner(false) (-planner=off on the CLIs) means the written
// order, with no filter pushdown: every group runs its filters last.

// WithPlanner enables or disables the cost-based planning pass. The
// planner is on by default; disabled, every BGP joins in the written
// order and every group runs its filters after its other elements.
func WithPlanner(enabled bool) Option {
	return func(e *Engine) { e.planner = enabled }
}

// PlannerEnabled reports whether the engine runs the cost-based
// planning pass on each query.
func (e *Engine) PlannerEnabled() bool { return e.planner }

// Plan is the result of the cost-based planning pass over one query.
type Plan struct {
	// Query is the rewritten, evaluation-ready query: BGP joins in the
	// chosen order, filters pushed down, Planned set. The input query is
	// never mutated.
	Query *Query

	// Cost is the estimated total cost of the plan (C_out): the sum of
	// the estimated output cardinality of every operator. Comparable
	// across queries against the same store; not a wall-time prediction.
	Cost float64

	// Reordered reports whether any BGP's join order differs from the
	// written order.
	Reordered bool

	// PushedFilters counts FILTER elements moved earlier than written.
	PushedFilters int
}

// Plan runs the cost-based planning pass over q against the counts and
// statistics of the store's current snapshot and returns the rewritten
// query with its cost. It can be called directly (EXPLAIN-style tooling
// does); normal query entry points apply it automatically, against the
// snapshot they evaluate on, while the planner is enabled.
func (e *Engine) Plan(q *Query) *Plan {
	return plan(q, e.store.Snapshot())
}

func plan(q *Query, snap *store.Snapshot) *Plan {
	ps := &planState{st: snap}
	nq := ps.query(q)
	return &Plan{Query: nq, Cost: ps.cost, Reordered: ps.reordered, PushedFilters: ps.pushed}
}

// EstimateCost plans q and returns the estimated total cost without
// exposing the rewrite. This is the plan-cost API the ql layer uses to
// choose between the direct and alternative translations.
func (e *Engine) EstimateCost(q *Query) float64 {
	return e.Plan(q).Cost
}

// prepared applies the planning pass on a query entry point. Already
// planned queries (a caller may cache a Plan result) pass through.
func (e *Engine) prepared(q *Query, snap *store.Snapshot) *Query {
	if !e.planner || q.Planned {
		return q
	}
	return plan(q, snap).Query
}

// preparedGroup is prepared for the bare WHERE group of an update,
// reporting whether it was planned.
func (e *Engine) preparedGroup(g GroupGraphPattern, snap *store.Snapshot) (GroupGraphPattern, bool) {
	if !e.planner {
		return g, false
	}
	ng, _ := (&planState{st: snap, in: &Query{Where: g}}).group(g, nil, 1, store.NoID)
	return ng, true
}

// planState accumulates cost and rewrite facts across one planning
// pass.
type planState struct {
	st        *store.Snapshot
	cost      float64
	reordered bool
	pushed    int
	// lastRows is the estimated output cardinality of the most recently
	// planned (sub)query, read by the subselect join estimate.
	lastRows float64

	// in is the (sub)query being planned, nil while planning a semi-join's
	// own pattern; scope, computed at the first EXISTS, its variables
	// outside EXISTS patterns (scopeVars): an EXISTS sharing one of them
	// only is a semi-join.
	in    *Query
	scope map[string]bool
	// graphs counts the GRAPH blocks around the group being planned; a
	// sub-select evaluates in the default graph, so a filter copies into
	// one only outside them.
	graphs int
}

// query plans one (sub)query: its WHERE group recursively, then the
// post-WHERE operators (aggregation, DISTINCT, ORDER BY, slice,
// projection), each costed as one pass over its estimated input. It
// returns the rewritten copy.
func (ps *planState) query(q *Query) *Query {
	in, scope := ps.in, ps.scope
	ps.in, ps.scope = q, nil
	defer func() { ps.in, ps.scope = in, scope }()
	nq := *q
	var rows float64
	nq.Where, rows = ps.group(q.Where, nil, 1, store.NoID)
	nq.Planned = true
	if len(nq.GroupBy) > 0 || projectionHasAggregates(&nq) {
		ps.cost += rows
		rows = estimateGroupRows(rows)
	}
	if nq.Distinct {
		ps.cost += rows
	}
	if len(nq.OrderBy) > 0 {
		ps.cost += rows
	}
	if nq.Offset > 0 || nq.Limit >= 0 {
		rows = estimateSliceRows(rows, nq.Offset, nq.Limit)
	}
	ps.cost += rows // projection
	ps.lastRows = rows
	return &nq
}

// pendingFilter tracks one FILTER of the group being planned: where it
// was written, the variables it mentions, the element it must not move
// ahead of (a BIND that could rebind one of its variables), and whether
// a conjunct of it tests a semi-join set.
type pendingFilter struct {
	f       FilterElement
	orig    int // index in the written element list
	barrier int // index of the group's last BIND of a filter var; -1 if none
	vars    map[string]bool
	semi    bool
	emitted bool
}

// group plans one group graph pattern. outer is the set of variables
// certainly bound before the group evaluates, in the estimated input
// cardinality, gid the active graph. It returns the rewritten group and
// the estimated output cardinality, accumulating cost into ps.
func (ps *planState) group(g GroupGraphPattern, outer map[string]bool, in float64, gid store.ID) (GroupGraphPattern, float64) {
	bound := make(map[string]bool, len(outer))
	for v := range outer {
		bound[v] = true
	}
	els := g.Elements
	var rebind map[string]int // the group's last BIND of each variable
	for i, el := range els {
		if b, ok := el.(BindElement); ok {
			if rebind == nil {
				rebind = make(map[string]int)
			}
			rebind[b.Var] = i
		}
	}

	// Index the group's filters, each EXISTS that is a semi-join turned
	// into its set. Every filter is a pushdown candidate; eligibility is
	// decided at emit time by the certainly-bound set. sets are the sets
	// a conjunct tests whose variable no BIND of the group rewrites: a
	// row without a member there cannot leave the group.
	var pend []*pendingFilter
	var sets []*semiJoin
	for i, el := range els {
		f, ok := el.(FilterElement)
		if !ok {
			continue
		}
		f.Expr = ps.semiJoins(f.Expr, gid)
		pf := &pendingFilter{f: f, orig: i, barrier: -1, vars: make(map[string]bool)}
		exprVarsInto(f.Expr, pf.vars, true)
		for v := range pf.vars {
			if j, ok := rebind[v]; ok && j > pf.barrier {
				pf.barrier = j
			}
		}
		for _, c := range conjuncts(f.Expr, nil) {
			if x, ok := c.(exprSemiJoin); ok {
				if _, ok := rebind[x.sj.key]; !ok {
					sets = append(sets, x.sj)
					pf.semi = true
				}
			}
		}
		pend = append(pend, pf)
	}

	rows := in
	out := make([]PatternElement, 0, len(els))
	consumed := -1 // index of the last written element consumed by the walk
	// applied are the sets the group's rows satisfy before its filters
	// run: true for those a BGP of the group starts from or checks — no
	// row without a member leaves it, so a filter drops the conjunct —
	// false for those copied into a sub-select, whose conjunct stays but
	// no longer shrinks the estimate.
	var applied map[*semiJoin]bool
	apply := func(sj *semiJoin, enforced bool) {
		if applied == nil {
			applied = make(map[*semiJoin]bool)
		}
		applied[sj] = enforced
	}

	emitFilter := func(pf *pendingFilter) {
		pf.emitted = true
		f := pf.f
		if pf.semi {
			if f.Expr = without(f.Expr, func(sj *semiJoin) bool { return applied[sj] }); f.Expr == nil {
				return
			}
		}
		out = append(out, f)
		if !pf.semi || without(f.Expr, func(sj *semiJoin) bool { _, ok := applied[sj]; return ok }) != nil {
			rows = estimateFilterRows(rows)
		}
		ps.cost += rows
	}
	// flushReady emits, in written order, every pending filter whose
	// variables are all certainly bound and whose BIND barrier (if any)
	// has been consumed. Inside a BGP (inRun) a filter that tests a set
	// waits for the BGP's end: the set's checks already prune inside it,
	// and a filter between two patterns would split the BGP.
	flushReady := func(inRun bool) {
		for _, pf := range pend {
			if pf.emitted || pf.barrier > consumed || pf.semi && inRun {
				continue
			}
			if !varsSubset(pf.vars, bound) {
				continue
			}
			if consumed+1 < pf.orig {
				ps.pushed++
			}
			emitFilter(pf)
		}
	}

	flushReady(false) // filters over outer-bound variables move to the front

	for i := 0; i < len(els); i++ {
		el := els[i]
		if _, ok := el.(FilterElement); ok {
			// A filter pushdown has not emitted applies to the whole
			// group: it runs at the end.
			consumed = i
			continue
		}
		if _, ok := el.(TriplePattern); ok {
			// A maximal run of consecutive triple patterns is the BGP the
			// evaluator forms; order it greedily by estimated output
			// cardinality, preferring patterns connected to the bound set
			// (a disconnected pattern is a cartesian product and is only
			// taken when nothing else remains). After each join, pushed
			// filters may land mid-run — the earliest point their
			// variables are bound.
			j := i
			var run []TriplePattern
			for ; j < len(els); j++ {
				tp, ok := els[j].(TriplePattern)
				if !ok {
					break
				}
				run = append(run, tp)
			}
			// The sets whose variable the run binds: the cheapest may
			// enter it, and the pattern that first binds each of the
			// others checks it.
			var runSets []*semiJoin
			for _, sj := range sets {
				if !bound[sj.key] && slices.ContainsFunc(run, func(tp TriplePattern) bool { return hasVar(tp, sj.key) }) {
					runSets = append(runSets, sj)
				}
			}
			remaining := run
			prev := "" // subject variable of the pattern taken last
			for first := true; len(remaining) > 0; first = false {
				next := 0
				best, inStar := math.Inf(1), false
				if len(remaining) > 1 {
					candidates := make([]int, 0, len(remaining))
					for ci, tp := range remaining {
						if patternConnected(tp, bound) {
							candidates = append(candidates, ci)
						}
					}
					if len(candidates) == 0 {
						for ci := range remaining {
							candidates = append(candidates, ci)
						}
					}
					// Of equal estimates the pattern written first wins,
					// unless another shares the last pattern's subject: it
					// extends that pattern's star level (DESIGN §16 "The
					// star walk") instead of interposing a join.
					for _, ci := range candidates {
						est := estimateJoinRows(ps.st, remaining[ci], bound, rows, gid)
						member := prev != "" && starMember(remaining[ci], prev)
						if est < best || est == best && member && !inStar {
							best, next, inStar = est, ci, member
						}
					}
				} else if first {
					best = estimateJoinRows(ps.st, remaining[0], bound, rows, gid)
				}
				// A set enters the BGP when, priced as a VALUES block of
				// its estimated size, it is cheaper than every pattern.
				if entry := -1; first {
					for si, sj := range runSets {
						if est := rows * sj.est; est < best {
							best, entry = est, si
						}
					}
					if entry >= 0 {
						sj := runSets[entry]
						runSets = slices.Delete(runSets, entry, entry+1)
						out = append(out, semiJoinElement{sj: sj, entry: true})
						apply(sj, true)
						rows = best
						ps.cost += rows
						ps.reordered = true
						bound[sj.key] = true
						continue
					}
				}
				if next != 0 {
					ps.reordered = true
				}
				tp := remaining[next]
				remaining = append(remaining[:next], remaining[next+1:]...)
				var checks int
				for _, sj := range runSets {
					if !bound[sj.key] && tp.Path == nil && hasVar(tp, sj.key) {
						out = append(out, semiJoinElement{sj: sj})
						apply(sj, true)
						checks++
					}
				}
				out = append(out, tp)
				prev = ""
				if tp.S.IsVar {
					prev = tp.S.Var
				}
				rows = estimateJoinRows(ps.st, tp, bound, rows, gid)
				for ; checks > 0; checks-- {
					rows = estimateFilterRows(rows) // a check keeps what the filter it stands for would
				}
				ps.cost += rows
				markBound(tp, bound)
				if len(remaining) == 0 {
					consumed = j - 1
				}
				flushReady(len(remaining) > 0)
			}
			i = j - 1
			continue
		}
		switch e := el.(type) {
		case BindElement:
			// BIND extends every row; its variable is not certainly bound
			// (the expression may error per row, leaving it unbound).
			out = append(out, e)
			ps.cost += rows
		case OptionalElement:
			sub, _ := ps.group(e.Pattern, bound, rows, gid)
			out = append(out, OptionalElement{Pattern: sub})
			ps.cost += rows // left rows are preserved
		case UnionElement:
			nb := make([]GroupGraphPattern, len(e.Branches))
			total := 0.0
			for bi, b := range e.Branches {
				var br float64
				nb[bi], br = ps.group(b, bound, rows, gid)
				total += br
			}
			out = append(out, UnionElement{Branches: nb})
			rows = total
			ps.cost += rows
			// A variable certainly bound by every branch is certainly
			// bound after the union.
			if len(e.Branches) > 0 {
				common := make(map[string]bool)
				certainVarsInto(e.Branches[0], common)
				for _, b := range e.Branches[1:] {
					bc := make(map[string]bool)
					certainVarsInto(b, bc)
					for v := range common {
						if !bc[v] {
							delete(common, v)
						}
					}
				}
				for v := range common {
					bound[v] = true
				}
			}
		case MinusElement:
			// The right side evaluates independently from an empty
			// solution; it binds nothing and removes rows.
			sub, _ := ps.group(e.Pattern, nil, 1, gid)
			out = append(out, MinusElement{Pattern: sub})
			ps.cost += rows
		case GraphElement:
			sgid := gid
			if !e.Graph.IsVar {
				if id, ok := ps.st.GraphID(e.Graph.Term); ok {
					sgid = id
				}
			} else {
				// Var graph iterates every named graph; plan the interior
				// once against default-graph statistics (an approximation).
				sgid = store.NoID
			}
			ps.graphs++
			sub, sr := ps.group(e.Pattern, bound, rows, sgid)
			ps.graphs--
			out = append(out, GraphElement{Graph: e.Graph, Pattern: sub})
			rows = sr
			ps.cost += rows
			if e.Graph.IsVar {
				bound[e.Graph.Var] = true
			}
			certainVarsInto(e.Pattern, bound)
		case GroupElement:
			sub, sr := ps.group(e.Pattern, bound, rows, gid)
			out = append(out, GroupElement{Pattern: sub})
			rows = sr
			certainVarsInto(e.Pattern, bound)
		case ValuesElement:
			out = append(out, e)
			if n := len(e.Rows); n > 0 {
				rows *= float64(n)
			}
			ps.cost += rows
			// A VALUES variable with no UNDEF in any row is certainly
			// bound afterwards.
			for vi, name := range e.Vars {
				all := len(e.Rows) > 0
				for _, vr := range e.Rows {
					if vr[vi].IsZero() {
						all = false
						break
					}
				}
				if all {
					bound[name] = true
				}
			}
		case SubSelectElement:
			// A subselect evaluates independently and joins the current
			// rows on shared projected variables. Its projections are not
			// certainly bound (expressions may error), so they do not
			// enter the bound set.
			sq, copied := ps.throughAggregation(e.Query, sets)
			for _, sj := range copied {
				apply(sj, false)
			}
			sq = ps.query(sq)
			sr := ps.lastRows
			out = append(out, SubSelectElement{Query: sq})
			if sr > rows {
				rows = sr
			}
			ps.cost += rows
		default:
			out = append(out, el)
			ps.cost += rows
		}
		consumed = i
		flushReady(false)
	}
	for _, pf := range pend {
		if !pf.emitted {
			emitFilter(pf)
		}
	}
	return GroupGraphPattern{Elements: out, Planned: true}, rows
}

// shares reports whether a variable of vars is in other.
func shares(vars, other map[string]bool) bool {
	for v := range vars {
		if other[v] {
			return true
		}
	}
	return false
}

// varsSubset reports whether every variable of vars is in bound.
func varsSubset(vars, bound map[string]bool) bool {
	for v := range vars {
		if !bound[v] {
			return false
		}
	}
	return true
}

// exprVarsInto collects every variable an expression mentions: of a
// semi-join its variable only, and, when exists is set, all variables of
// EXISTS patterns (which therefore pin EXISTS filters in place unless
// the whole pattern is bound).
func exprVarsInto(e Expression, vars map[string]bool, exists bool) {
	switch x := e.(type) {
	case ExprVar:
		vars[x.Name] = true
	case ExprBinary:
		exprVarsInto(x.L, vars, exists)
		exprVarsInto(x.R, vars, exists)
	case ExprNot:
		exprVarsInto(x.X, vars, exists)
	case ExprNeg:
		exprVarsInto(x.X, vars, exists)
	case ExprCall:
		for _, a := range x.Args {
			exprVarsInto(a, vars, exists)
		}
	case ExprIn:
		exprVarsInto(x.X, vars, exists)
		for _, a := range x.List {
			exprVarsInto(a, vars, exists)
		}
	case ExprExists:
		if exists {
			patternVarsInto(x.Pattern, vars, true)
		}
	case exprSemiJoin:
		vars[x.sj.key] = true
	case ExprAggregate:
		if x.Arg != nil {
			exprVarsInto(x.Arg, vars, exists)
		}
	}
}

// patternVarsInto collects every variable occurring anywhere in a group
// graph pattern — inside EXISTS patterns only when exists is set — a
// sub-select contributing the variables it projects.
func patternVarsInto(g GroupGraphPattern, vars map[string]bool, exists bool) {
	for _, el := range g.Elements {
		switch e := el.(type) {
		case TriplePattern:
			for _, pt := range []PatternTerm{e.S, e.P, e.O} {
				if pt.IsVar {
					vars[pt.Var] = true
				}
			}
		case FilterElement:
			exprVarsInto(e.Expr, vars, exists)
		case BindElement:
			vars[e.Var] = true
			exprVarsInto(e.Expr, vars, exists)
		case OptionalElement:
			patternVarsInto(e.Pattern, vars, exists)
		case UnionElement:
			for _, b := range e.Branches {
				patternVarsInto(b, vars, exists)
			}
		case MinusElement:
			patternVarsInto(e.Pattern, vars, exists)
		case GraphElement:
			if e.Graph.IsVar {
				vars[e.Graph.Var] = true
			}
			patternVarsInto(e.Pattern, vars, exists)
		case GroupElement:
			patternVarsInto(e.Pattern, vars, exists)
		case ValuesElement:
			for _, v := range e.Vars {
				vars[v] = true
			}
		case SubSelectElement:
			for _, it := range e.Query.Projection {
				vars[it.Var] = true
			}
			if e.Query.Star {
				patternVarsInto(e.Query.Where, vars, exists)
			}
		}
	}
}

// scopeVars collects the variables of a query outside its EXISTS
// patterns: those its rows can bind, and those its expressions read.
func scopeVars(q *Query) map[string]bool {
	vars := make(map[string]bool)
	for _, it := range q.Projection {
		vars[it.Var] = true
		if it.Expr != nil {
			exprVarsInto(it.Expr, vars, false)
		}
	}
	patternVarsInto(q.Where, vars, false)
	for _, e := range q.GroupBy {
		exprVarsInto(e, vars, false)
	}
	for _, e := range q.Having {
		exprVarsInto(e, vars, false)
	}
	for _, oc := range q.OrderBy {
		exprVarsInto(oc.Expr, vars, false)
	}
	for _, tp := range q.Template {
		for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar {
				vars[pt.Var] = true
			}
		}
	}
	for _, d := range q.Describe {
		if d.IsVar {
			vars[d.Var] = true
		}
	}
	return vars
}

// conjuncts appends the operands of e's top-level && chain to out.
func conjuncts(e Expression, out []Expression) []Expression {
	if x, ok := e.(ExprBinary); ok && x.Op == OpAnd {
		return conjuncts(x.R, conjuncts(x.L, out))
	}
	return append(out, e)
}

// without returns the && chain e without the conjuncts that test a set
// drop reports; nil when nothing is left.
func without(e Expression, drop func(*semiJoin) bool) Expression {
	var rest Expression
	for _, c := range conjuncts(e, nil) {
		if x, ok := c.(exprSemiJoin); ok && drop(x.sj) {
			continue
		}
		if rest == nil {
			rest = c
		} else {
			rest = ExprBinary{Op: OpAnd, L: rest, R: c}
		}
	}
	return rest
}

// hasVar reports whether tp has the variable v.
func hasVar(tp TriplePattern, v string) bool {
	return tp.S.IsVar && tp.S.Var == v || tp.P.IsVar && tp.P.Var == v || tp.O.IsVar && tp.O.Var == v
}

// semiJoins returns e with every EXISTS that is a semi-join replaced by
// its set.
func (ps *planState) semiJoins(e Expression, gid store.ID) Expression {
	if x, ok := e.(ExprExists); ok {
		if sj := ps.semiJoinOf(x, gid); sj != nil {
			return exprSemiJoin{sj}
		}
		return e
	}
	return mapOperands(e, func(c Expression) Expression { return ps.semiJoins(c, gid) })
}

// semiJoinOf returns the set an EXISTS of a FILTER becomes, or nil. It
// must be positive, and its pattern triple patterns and FILTERs only —
// which evaluate the same whether ?k is bound first or last — that share
// exactly one variable ?k with the query's scope and certainly bind it.
// The pattern is planned on its own, as it evaluates: from the empty
// solution.
func (ps *planState) semiJoinOf(x ExprExists, gid store.ID) *semiJoin {
	if x.Neg || ps.in == nil {
		return nil
	}
	for _, el := range x.Pattern.Elements {
		switch el.(type) {
		case TriplePattern, FilterElement:
		default:
			return nil
		}
	}
	if ps.scope == nil {
		ps.scope = scopeVars(ps.in)
	}
	vars := make(map[string]bool)
	patternVarsInto(x.Pattern, vars, true)
	key := ""
	for v := range vars {
		if ps.scope[v] {
			if key != "" {
				return nil
			}
			key = v
		}
	}
	certain := make(map[string]bool)
	certainVarsInto(x.Pattern, certain)
	if !certain[key] {
		return nil
	}
	sub := &planState{st: ps.st}
	p, est := sub.group(x.Pattern, nil, 1, gid)
	ps.cost += sub.cost
	return &semiJoin{key: key, pattern: p, est: est}
}

// throughAggregation returns q with a copy of each of sets, the group's
// semi-join filters, that may drop whole groups of q before they are
// folded (ROADMAP 2(b)), and the sets it copied: the set's variable is a plain GROUP BY variable
// that q projects as is and whose WHERE certainly binds it, q has no
// LIMIT or OFFSET, and no other variable of the set's pattern occurs in
// q. A group's aggregates read only its own rows, so dropping groups
// changes no other group, and every row the filter keeps outside joins a
// group the copy keeps. The filter outside stays, and shares the copy's
// set. Outside GRAPH blocks only: a sub-select evaluates in the default
// graph.
func (ps *planState) throughAggregation(q *Query, sets []*semiJoin) (*Query, []*semiJoin) {
	if ps.graphs > 0 || len(sets) == 0 || q.Star || q.Limit >= 0 || q.Offset > 0 {
		return q, nil
	}
	var certain, all map[string]bool
	var copies []PatternElement
	var copied []*semiJoin
	for _, sj := range sets {
		grouped := slices.ContainsFunc(q.GroupBy, func(e Expression) bool { v, ok := e.(ExprVar); return ok && v.Name == sj.key })
		if !grouped || !slices.ContainsFunc(q.Projection, func(it SelectItem) bool { return it.Var == sj.key && it.Expr == nil }) {
			continue
		}
		if certain == nil {
			certain, all = make(map[string]bool), make(map[string]bool)
			certainVarsInto(q.Where, certain)
			vt := newVarTable()
			collectVars(q, vt)
			for _, n := range vt.names {
				all[n] = true
			}
		}
		own := make(map[string]bool)
		patternVarsInto(sj.pattern, own, true)
		delete(own, sj.key)
		if !certain[sj.key] || shares(own, all) {
			continue
		}
		copies = append(copies, FilterElement{Expr: exprSemiJoin{sj}})
		copied = append(copied, sj)
	}
	if len(copies) == 0 {
		return q, nil
	}
	c := *q
	c.Where = GroupGraphPattern{Elements: append(slices.Clip(q.Where.Elements), copies...)}
	return &c, copied
}

// certainVarsInto collects the variables a group certainly binds in
// every solution it produces: triple-pattern variables (a row only
// survives a join by binding them), recursively through nested groups
// and GRAPH blocks, and the intersection across UNION branches.
// OPTIONAL, MINUS, BIND, VALUES-with-UNDEF, and subselect projections
// bind nothing certainly.
func certainVarsInto(g GroupGraphPattern, into map[string]bool) {
	for _, el := range g.Elements {
		switch e := el.(type) {
		case TriplePattern:
			for _, pt := range []PatternTerm{e.S, e.P, e.O} {
				if pt.IsVar {
					into[pt.Var] = true
				}
			}
		case UnionElement:
			if len(e.Branches) == 0 {
				continue
			}
			common := make(map[string]bool)
			certainVarsInto(e.Branches[0], common)
			for _, b := range e.Branches[1:] {
				bc := make(map[string]bool)
				certainVarsInto(b, bc)
				for v := range common {
					if !bc[v] {
						delete(common, v)
					}
				}
			}
			for v := range common {
				into[v] = true
			}
		case GraphElement:
			if e.Graph.IsVar {
				into[e.Graph.Var] = true
			}
			certainVarsInto(e.Pattern, into)
		case GroupElement:
			certainVarsInto(e.Pattern, into)
		case ValuesElement:
			for vi, name := range e.Vars {
				all := len(e.Rows) > 0
				for _, vr := range e.Rows {
					if vr[vi].IsZero() {
						all = false
						break
					}
				}
				if all {
					into[name] = true
				}
			}
		}
	}
}

// estimateJoinRows predicts the output rows of joining one triple
// pattern into in solutions, System R style: the per-row match count is
// the store's exact count of the constant-only pattern shrunk, under
// the independence assumption, by the distinct cardinality of every
// position occupied by an already-bound variable. Statistics come from
// store.PredicateStat (per-predicate distinct subjects/objects) when
// the predicate is constant, and graph-level distincts otherwise. The
// same model backs the planner's join ordering and the est= annotations
// of EXPLAIN ANALYZE.
func estimateJoinRows(st *store.Snapshot, tp TriplePattern, bound map[string]bool, in float64, gid store.ID) float64 {
	if tp.Path != nil {
		// No statistics for property paths; assume they preserve
		// cardinality.
		return in
	}
	pat, ok := constIDs(st, tp)
	if !ok {
		return 0
	}
	base := float64(st.Count(gid, pat))
	if base == 0 {
		return 0
	}
	div := 1.0
	if pat.P != store.NoID {
		if ps, found := st.PredicateStat(gid, pat.P); found {
			if tp.S.IsVar && bound[tp.S.Var] && ps.DistinctS > 0 {
				div *= float64(ps.DistinctS)
			}
			if tp.O.IsVar && bound[tp.O.Var] && ps.DistinctO > 0 {
				div *= float64(ps.DistinctO)
			}
		}
	} else {
		gs := st.GraphStat(gid)
		if tp.S.IsVar && bound[tp.S.Var] && gs.DistinctSubjects > 0 {
			div *= float64(gs.DistinctSubjects)
		}
		if tp.O.IsVar && bound[tp.O.Var] && gs.DistinctObjects > 0 {
			div *= float64(gs.DistinctObjects)
		}
		if tp.P.IsVar && bound[tp.P.Var] && gs.DistinctPredicates > 0 {
			div *= float64(gs.DistinctPredicates)
		}
	}
	return in * base / div
}
