package sparql

import (
	"fmt"
	"slices"

	"repro/internal/rdf"
	"repro/internal/store"
)

// This file is the reference evaluator of TestAliasingAgainstReference:
// SPARQL's group graph patterns as nested loops over whole tables of
// rdf.Term rows. It reads the store only through MatchAll (every triple
// of a graph, filtered in Go), streams nothing, shares no row between
// two tables — every operator builds fresh rows — and follows SPARQL's
// group scope: the elements other than FILTER apply in the written order
// to the rows the elements before them produced, and then the group's
// FILTERs, wherever they are written (§18.2.2); OPTIONAL and EXISTS
// patterns are seeded with the row they extend, MINUS and sub-selects
// start from their own empty solution. An EXISTS is evaluated per row,
// wherever it sits in an expression; the rest of an expression goes
// through evalExpr, and GROUP BY through fold_test.go's row-retaining
// reference; neither reads or writes anything chunk ownership touches.

type refEval struct {
	r    *run // variable table and expression evaluation only
	snap *store.Snapshot

	// What does not depend on the row is computed once: the triples a
	// pattern's constants select in a graph (one scan of the graph), and
	// the table of a sub-select.
	cands map[[4]rdf.Term][]rdf.Triple
	subs  map[*Query]*Results
	// exists memoizes EXISTS per pattern, graph and the row's values of
	// the pattern's variables — all its value depends on.
	exist map[string]bool
}

func newRefEval(snap *store.Snapshot, e *Engine, q *Query) *refEval {
	ref := &refEval{r: &run{e: e, vt: newVarTable(), snap: snap}, snap: snap,
		cands: map[[4]rdf.Term][]rdf.Triple{}, subs: map[*Query]*Results{}, exist: map[string]bool{}}
	collectVars(q, ref.r.vt)
	return ref
}

// query evaluates a SELECT to its result table. Row order is unspecified
// unless ORDER BY names projected variables only, which a LIMIT or
// OFFSET then requires.
func (e *refEval) query(q *Query) *Results {
	rows := e.group(q.Where, []solution{make(solution, len(e.r.vt.names))}, rdf.Term{})
	res := &Results{Vars: e.r.selectVars(q)}
	if len(q.GroupBy) > 0 || projectionHasAggregates(q) {
		for _, row := range refGrouped(e.r, q, rows) {
			res.Rows = append(res.Rows, row)
		}
	} else {
		for _, row := range rows {
			orow := make([]rdf.Term, len(res.Vars))
			for i, name := range res.Vars {
				orow[i] = row[e.r.vt.index[name]]
				if !q.Star && q.Projection[i].Expr != nil {
					orow[i], _ = e.r.evalExpr(q.Projection[i].Expr, row)
				}
			}
			res.Rows = append(res.Rows, orow)
		}
	}
	if q.Distinct {
		seen := map[string]bool{}
		res.Rows = slices.DeleteFunc(res.Rows, func(row []rdf.Term) bool {
			k := solutionKey(row)
			dup := seen[k]
			seen[k] = true
			return dup
		})
	}
	cols := make([]int, len(q.OrderBy))
	for i, oc := range q.OrderBy {
		v, _ := oc.Expr.(ExprVar)
		cols[i] = slices.Index(res.Vars, v.Name)
	}
	if len(cols) > 0 && !slices.Contains(cols, -1) {
		slices.SortStableFunc(res.Rows, func(a, b []rdf.Term) int {
			for i, c := range cols {
				if cmp := orderCompare(a[c], b[c]); cmp != 0 {
					if q.OrderBy[i].Desc {
						return -cmp
					}
					return cmp
				}
			}
			return 0
		})
	}
	res.Rows = res.Rows[min(q.Offset, len(res.Rows)):]
	if q.Limit >= 0 {
		res.Rows = res.Rows[:min(q.Limit, len(res.Rows))]
	}
	return res
}

// group applies the elements of g other than FILTER, in order, to the
// input table inside the given graph (the zero term is the default
// graph), and then its FILTERs.
func (e *refEval) group(g GroupGraphPattern, in []solution, graph rdf.Term) []solution {
	rows := in
	for _, el := range g.Elements {
		if _, ok := el.(FilterElement); ok {
			continue
		}
		var out []solution
		switch x := el.(type) {
		case TriplePattern:
			out = e.triple(x, rows, graph)
		case BindElement:
			for _, row := range rows {
				nrow := row.clone()
				if v, err := e.r.evalExpr(x.Expr, row); err == nil {
					nrow[e.r.vt.index[x.Var]] = v
				}
				out = append(out, nrow)
			}
		case OptionalElement:
			for _, row := range rows {
				ext := e.group(x.Pattern, []solution{row.clone()}, graph)
				if len(ext) == 0 {
					ext = []solution{row.clone()}
				}
				out = append(out, ext...)
			}
		case UnionElement:
			for _, b := range x.Branches {
				out = append(out, e.group(b, cloneRows(rows), graph)...)
			}
		case MinusElement:
			right := e.group(x.Pattern, []solution{make(solution, len(e.r.vt.names))}, graph)
			for _, row := range rows {
				if !slices.ContainsFunc(right, func(rr solution) bool { return refExcludes(row, rr) }) {
					out = append(out, row.clone())
				}
			}
		case GraphElement:
			out = e.graph(x, rows)
		case GroupElement:
			out = e.group(x.Pattern, cloneRows(rows), graph)
		case ValuesElement:
			out = e.join(rows, x.Vars, x.Rows)
		case SubSelectElement:
			res := e.subs[x.Query]
			if res == nil {
				res = newRefEval(e.snap, e.r.e, x.Query).query(x.Query)
				e.subs[x.Query] = res
			}
			out = e.join(rows, res.Vars, res.Rows)
		default:
			panic("refEval: unsupported element")
		}
		rows = out
	}
	for _, el := range g.Elements {
		if f, ok := el.(FilterElement); ok {
			rows = slices.DeleteFunc(rows, func(row solution) bool { return !e.truth(f.Expr, row, graph) })
		}
	}
	return rows
}

// triple joins rows with one triple pattern by nested loop.
func (e *refEval) triple(tp TriplePattern, rows []solution, graph rdf.Term) []solution {
	if tp.Path != nil {
		panic("refEval: property paths are not supported")
	}
	key := [4]rdf.Term{graph}
	for i, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
		if !pt.IsVar {
			key[i+1] = pt.Term
		}
	}
	cands, ok := e.cands[key]
	if !ok {
		for _, t := range e.snap.MatchAll(graph, rdf.Term{}, rdf.Term{}, rdf.Term{}) {
			if (tp.S.IsVar || tp.S.Term == t.S) && (tp.P.IsVar || tp.P.Term == t.P) && (tp.O.IsVar || tp.O.Term == t.O) {
				cands = append(cands, t)
			}
		}
		e.cands[key] = cands
	}
	var out []solution
	for _, row := range rows {
		for _, t := range cands {
			if !e.unify(row, tp.S, t.S, false) || !e.unify(row, tp.P, t.P, false) || !e.unify(row, tp.O, t.O, false) {
				continue
			}
			nrow := row.clone() // binding may still fail on a variable the pattern repeats
			if e.unify(nrow, tp.S, t.S, true) && e.unify(nrow, tp.P, t.P, true) && e.unify(nrow, tp.O, t.O, true) {
				out = append(out, nrow)
			}
		}
	}
	return out
}

// unify matches one pattern position against a term: a constant must
// equal it, a variable the row binds must equal it, a variable the row
// leaves free takes it when bind is set.
func (e *refEval) unify(row solution, pt PatternTerm, t rdf.Term, bind bool) bool {
	if !pt.IsVar {
		return pt.Term == t
	}
	slot := e.r.vt.index[pt.Var]
	if row[slot].IsZero() {
		if bind {
			row[slot] = t
		}
		return true
	}
	return row[slot] == t
}

// truth is the effective boolean value of a FILTER expression; an error
// is false.
func (e *refEval) truth(expr Expression, row solution, graph rdf.Term) bool {
	v, err := e.r.evalExpr(e.exists(expr, row, graph), row)
	if err != nil {
		return false
	}
	b, err := ebv(v)
	return err == nil && b
}

// exists replaces every EXISTS in expr by its value under row: whether
// its pattern, seeded with the row, has a solution.
func (e *refEval) exists(expr Expression, row solution, graph rdf.Term) Expression {
	if x, ok := expr.(ExprExists); ok && len(x.Pattern.Elements) > 0 {
		vars := map[string]bool{}
		patternVarsInto(x.Pattern, vars, true)
		names := make([]string, 0, len(vars))
		for v := range vars {
			names = append(names, v)
		}
		slices.Sort(names)
		key := fmt.Sprintf("%p\x00%s", &x.Pattern.Elements[0], graph)
		for _, v := range names {
			key += "\x00" + row[e.r.vt.index[v]].String()
		}
		found, ok := e.exist[key]
		if !ok {
			found = len(e.group(x.Pattern, []solution{row.clone()}, graph)) > 0
			e.exist[key] = found
		}
		return ExprConst{rdf.NewBoolean(found != x.Neg)}
	}
	return mapOperands(expr, func(c Expression) Expression { return e.exists(c, row, graph) })
}

// graph evaluates GRAPH <iri> { } in that graph and GRAPH ?g { } once
// per named graph, over the rows whose ?g is unbound or that graph.
func (e *refEval) graph(x GraphElement, rows []solution) []solution {
	if !x.Graph.IsVar {
		if _, ok := e.snap.GraphID(x.Graph.Term); !ok {
			return nil
		}
		return e.group(x.Pattern, cloneRows(rows), x.Graph.Term)
	}
	slot := e.r.vt.index[x.Graph.Var]
	var out []solution
	for _, gid := range e.snap.NamedGraphIDs() {
		g := e.snap.Term(gid)
		var seed []solution
		for _, row := range rows {
			if row[slot].IsZero() || row[slot] == g {
				nrow := row.clone()
				nrow[slot] = g
				seed = append(seed, nrow)
			}
		}
		out = append(out, e.group(x.Pattern, seed, g)...)
	}
	return out
}

// join is the nested-loop join of rows with a table over vars — a
// VALUES block or a sub-select's result; a zero cell constrains nothing.
func (e *refEval) join(rows []solution, vars []string, table [][]rdf.Term) []solution {
	var out []solution
	for _, row := range rows {
		for _, trow := range table {
			nrow, ok := row.clone(), true
			for i, name := range vars {
				slot := e.r.vt.index[name]
				if trow[i].IsZero() {
					continue
				}
				ok = ok && (nrow[slot].IsZero() || nrow[slot] == trow[i])
				nrow[slot] = trow[i]
			}
			if ok {
				out = append(out, nrow)
			}
		}
	}
	return out
}

// refExcludes is MINUS's test: the two solutions bind a common variable
// and agree on every variable both bind.
func refExcludes(a, b solution) bool {
	shared := false
	for i := range a {
		if !a[i].IsZero() && !b[i].IsZero() {
			if a[i] != b[i] {
				return false
			}
			shared = true
		}
	}
	return shared
}
