package sparql

import "repro/internal/obs"

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
		qctx: r.qctx, done: r.done, acct: r.acct}
	collectVars(q, sub.vt)
	return sub.collect(q)
}

// joinResults joins the current solutions with a projected result table
// on shared variable names.
func (r *run) joinResults(rows []solution, res *Results) []solution {
	slots := make([]int, len(res.Vars))
	for i, v := range res.Vars {
		slots[i] = r.vt.slot(v)
	}
	var out []solution
	for _, row := range rows {
		for _, rrow := range res.Rows {
			nrow := row.clone()
			ok := true
			for i, slot := range slots {
				v := rrow[i]
				if v.IsZero() {
					continue
				}
				if !nrow[slot].IsZero() && nrow[slot] != v {
					ok = false
					break
				}
				nrow[slot] = v
			}
			if ok {
				out = append(out, nrow)
			}
		}
	}
	return out
}

func (r *run) joinValues(rows []solution, v ValuesElement) []solution {
	slots := make([]int, len(v.Vars))
	for i, name := range v.Vars {
		slots[i] = r.vt.slot(name)
	}
	var out []solution
	for _, row := range rows {
		for _, data := range v.Rows {
			nrow := row.clone()
			ok := true
			for i, slot := range slots {
				val := data[i]
				if val.IsZero() { // UNDEF
					continue
				}
				if !nrow[slot].IsZero() && nrow[slot] != val {
					ok = false
					break
				}
				nrow[slot] = val
			}
			if ok {
				out = append(out, nrow)
			}
		}
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
