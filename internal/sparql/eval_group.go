package sparql

import (
	"repro/internal/obs"
	"repro/internal/rdf"
)

// collectVars walks the query registering every variable in the var
// table so solutions have a stable width.
func collectVars(q *Query, vt *varTable) {
	for _, it := range q.Projection {
		vt.slot(it.Var)
		if it.Expr != nil {
			collectExprVars(it.Expr, vt)
		}
	}
	collectGroupVars(q.Where, vt)
	for _, e := range q.GroupBy {
		collectExprVars(e, vt)
	}
	for _, e := range q.Having {
		collectExprVars(e, vt)
	}
	for _, oc := range q.OrderBy {
		collectExprVars(oc.Expr, vt)
	}
	for _, tp := range q.Template {
		collectPatternTermVars(tp.S, vt)
		collectPatternTermVars(tp.P, vt)
		collectPatternTermVars(tp.O, vt)
	}
}

func collectGroupVars(g GroupGraphPattern, vt *varTable) {
	for _, el := range g.Elements {
		switch e := el.(type) {
		case TriplePattern:
			collectPatternTermVars(e.S, vt)
			collectPatternTermVars(e.P, vt)
			collectPatternTermVars(e.O, vt)
		case FilterElement:
			collectExprVars(e.Expr, vt)
		case BindElement:
			vt.slot(e.Var)
			collectExprVars(e.Expr, vt)
		case OptionalElement:
			collectGroupVars(e.Pattern, vt)
		case UnionElement:
			for _, b := range e.Branches {
				collectGroupVars(b, vt)
			}
		case MinusElement:
			collectGroupVars(e.Pattern, vt)
		case GraphElement:
			collectPatternTermVars(e.Graph, vt)
			collectGroupVars(e.Pattern, vt)
		case GroupElement:
			collectGroupVars(e.Pattern, vt)
		case ValuesElement:
			for _, v := range e.Vars {
				vt.slot(v)
			}
		case semiJoinElement:
			vt.slot(e.sj.key)
		case SubSelectElement:
			// Only projected variables of the subquery join with the
			// outer query.
			for _, it := range e.Query.Projection {
				vt.slot(it.Var)
			}
			if e.Query.Star {
				sub := newVarTable()
				collectVars(e.Query, sub)
				for _, n := range sub.names {
					vt.slot(n)
				}
			}
		}
	}
}

func collectPatternTermVars(pt PatternTerm, vt *varTable) {
	if pt.IsVar {
		vt.slot(pt.Var)
	}
}

func collectExprVars(e Expression, vt *varTable) {
	switch x := e.(type) {
	case ExprVar:
		vt.slot(x.Name)
	case ExprBinary:
		collectExprVars(x.L, vt)
		collectExprVars(x.R, vt)
	case ExprNot:
		collectExprVars(x.X, vt)
	case ExprNeg:
		collectExprVars(x.X, vt)
	case ExprCall:
		for _, a := range x.Args {
			collectExprVars(a, vt)
		}
	case ExprIn:
		collectExprVars(x.X, vt)
		for _, a := range x.List {
			collectExprVars(a, vt)
		}
	case ExprExists:
		collectGroupVars(x.Pattern, vt)
	case exprSemiJoin:
		vt.slot(x.sj.key)
	case ExprAggregate:
		if x.Arg != nil {
			collectExprVars(x.Arg, vt)
		}
	}
}

// evalSubSelect runs a nested SELECT independently — its own variable
// scope, the parent's cancellation and account — and returns its result
// table; its operators trace under sp when tracing is on. The subquery
// of a planned query was planned along with its parent, so the planned
// flag follows the subquery's own mark.
func (r *run) evalSubSelect(q *Query, sp *obs.Span) (*Results, error) {
	sub := &run{e: r.e, vt: newVarTable(), snap: r.snap, trace: sp, planned: q.Planned,
		qctx: r.qctx, done: r.done, acct: r.acct, semi: r.semi}
	collectVars(q, sub.vt)
	return sub.collect(q)
}

// joinTable joins rows with a table over vars — a VALUES block, or a
// sub-select's result on its projected names; a zero cell is UNDEF /
// unbound and constrains nothing. Compatibility is tested on the shared slots first and only the
// pairs that join are cloned; every output row and the header are fresh,
// so the stage after the join owns its chunks.
func (r *run) joinTable(rows []solution, vars []string, table [][]rdf.Term) []solution {
	slots := make([]int, len(vars))
	for i, name := range vars {
		slots[i] = r.vt.slot(name)
	}
	var out []solution
	for _, row := range rows {
	table:
		for _, trow := range table {
			for i, slot := range slots {
				if v := trow[i]; !v.IsZero() && !row[slot].IsZero() && row[slot] != v {
					continue table
				}
			}
			nrow := row.clone()
			for i, slot := range slots {
				if v := trow[i]; !v.IsZero() {
					nrow[slot] = v
				}
			}
			out = append(out, nrow)
		}
	}
	return out
}

// bindRows implements BIND: the value of expr goes into slot idx of every
// row (left unbound on an evaluation error) — of the row itself when the
// chunk is owned, of a clone otherwise.
func (r *run) bindRows(expr Expression, idx int, rows []solution, owned bool) []solution {
	out := outFor(rows, owned)
	for _, row := range rows {
		if !owned {
			row = row.clone()
		}
		if v, err := r.evalExpr(expr, row); err == nil {
			row[idx] = v
		}
		out = append(out, row)
	}
	return out
}

// singleTriplePattern reports whether a group consists of exactly one
// plain triple pattern.
func singleTriplePattern(g GroupGraphPattern) (TriplePattern, bool) {
	if len(g.Elements) != 1 {
		return TriplePattern{}, false
	}
	tp, ok := g.Elements[0].(TriplePattern)
	if !ok || tp.Path != nil {
		return TriplePattern{}, false
	}
	return tp, true
}

// compatibleSharing reports whether two solutions agree on all shared
// bound variables and share at least one.
func compatibleSharing(a, b solution) bool {
	shared := false
	for i := range a {
		if a[i].IsZero() || b[i].IsZero() {
			continue
		}
		if a[i] != b[i] {
			return false
		}
		shared = true
	}
	return shared
}

// patternConnected reports whether the pattern shares a variable with
// the bound set, or has no variables at all (pure existence check), or
// the bound set is still empty (any pattern may start the join).
func patternConnected(tp TriplePattern, bound map[string]bool) bool {
	if len(bound) == 0 {
		return true
	}
	vars := 0
	for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
		if pt.IsVar {
			vars++
			if bound[pt.Var] {
				return true
			}
		}
	}
	return vars == 0
}

func markBound(tp TriplePattern, bound map[string]bool) {
	for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
		if pt.IsVar {
			bound[pt.Var] = true
		}
	}
}
