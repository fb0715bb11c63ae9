package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// This file keeps the row-retaining GROUP BY the engine used before the
// fold (eval.go) as the reference of TestFoldAgainstRowAggregation:
// every group holds its member rows, a rendered string is the group
// key, and each aggregate collects its values and then switches on the
// function.

type refGroup struct {
	rows []solution
}

func refGroupKey(r *run, exprs []Expression, row solution) string {
	var b strings.Builder
	for _, e := range exprs {
		v, err := r.evalExpr(e, row)
		if err != nil {
			v = rdf.Term{}
		}
		b.WriteString(v.String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// refGrouped evaluates the grouping, HAVING and projection of q over
// the materialized WHERE rows; groups leave in first-occurrence order.
func refGrouped(r *run, q *Query, rows []solution) []solution {
	var order []string
	groups := map[string]*refGroup{}
	for _, row := range rows {
		k := refGroupKey(r, q.GroupBy, row)
		g, ok := groups[k]
		if !ok {
			g = &refGroup{}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, row)
	}
	if len(q.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &refGroup{}
		order = append(order, "")
	}
	var out []solution
	for _, k := range order {
		if orow, ok := refGroupRow(r, q, groups[k]); ok {
			out = append(out, orow)
		}
	}
	return out
}

func refGroupRow(r *run, q *Query, g *refGroup) (solution, bool) {
	rep := make(solution, len(r.vt.names))
	if len(g.rows) > 0 {
		rep = g.rows[0]
	}
	for _, h := range q.Having {
		v, err := refEvalAggExpr(r, h, g.rows, rep)
		if err != nil {
			return nil, false
		}
		b, err := ebv(v)
		if err != nil || !b {
			return nil, false
		}
	}
	orow := make(solution, len(q.Projection))
	for i, it := range q.Projection {
		if it.Expr == nil {
			if idx, ok := r.vt.index[it.Var]; ok && len(g.rows) > 0 {
				orow[i] = rep[idx]
			}
			continue
		}
		if v, err := refEvalAggExpr(r, it.Expr, g.rows, rep); err == nil {
			orow[i] = v
		}
	}
	return orow, true
}

func refEvalAggExpr(r *run, e Expression, groupRows []solution, rep solution) (rdf.Term, error) {
	switch x := e.(type) {
	case ExprAggregate:
		return refEvalAggregate(r, x, groupRows)
	case ExprBinary:
		l, err := refEvalAggExpr(r, x.L, groupRows, rep)
		if err != nil {
			return rdf.Term{}, err
		}
		rv, err := refEvalAggExpr(r, x.R, groupRows, rep)
		if err != nil {
			return rdf.Term{}, err
		}
		return r.evalBinary(ExprBinary{Op: x.Op, L: ExprConst{l}, R: ExprConst{rv}}, rep)
	case ExprNot:
		inner, err := refEvalAggExpr(r, x.X, groupRows, rep)
		if err != nil {
			return rdf.Term{}, err
		}
		return r.evalExpr(ExprNot{X: ExprConst{inner}}, rep)
	case ExprNeg:
		inner, err := refEvalAggExpr(r, x.X, groupRows, rep)
		if err != nil {
			return rdf.Term{}, err
		}
		return r.evalExpr(ExprNeg{X: ExprConst{inner}}, rep)
	case ExprCall:
		args := make([]Expression, len(x.Args))
		for i, a := range x.Args {
			v, err := refEvalAggExpr(r, a, groupRows, rep)
			if err != nil {
				return rdf.Term{}, err
			}
			args[i] = ExprConst{v}
		}
		return r.evalCall(ExprCall{Name: x.Name, Args: args}, rep)
	default:
		return r.evalExpr(e, rep)
	}
}

func refEvalAggregate(r *run, agg ExprAggregate, rows []solution) (rdf.Term, error) {
	if agg.Star {
		n := len(rows)
		if agg.Distinct {
			seen := make(map[string]struct{}, n)
			for _, row := range rows {
				seen[solutionKey(row)] = struct{}{}
			}
			n = len(seen)
		}
		return rdf.NewInteger(int64(n)), nil
	}
	var vals []rdf.Term
	for _, row := range rows {
		v, err := r.evalExpr(agg.Arg, row)
		if err != nil {
			continue
		}
		vals = append(vals, v)
	}
	if agg.Distinct {
		seen := make(map[rdf.Term]struct{}, len(vals))
		uniq := vals[:0]
		for _, v := range vals {
			if _, ok := seen[v]; ok {
				continue
			}
			seen[v] = struct{}{}
			uniq = append(uniq, v)
		}
		vals = uniq
	}

	switch agg.Func {
	case "COUNT":
		return rdf.NewInteger(int64(len(vals))), nil
	case "SUM":
		sum := numeric{isInt: true}
		for _, v := range vals {
			n, ok := numericOf(v)
			if !ok {
				return rdf.Term{}, errTypeError
			}
			sum = addNumeric(sum, n)
		}
		return numericTerm(sum), nil
	case "AVG":
		if len(vals) == 0 {
			return rdf.NewInteger(0), nil
		}
		sum := numeric{isInt: true}
		for _, v := range vals {
			n, ok := numericOf(v)
			if !ok {
				return rdf.Term{}, errTypeError
			}
			sum = addNumeric(sum, n)
		}
		avg := sum.asFloat() / float64(len(vals))
		if sum.isInt && avg == float64(int64(avg)) {
			return rdf.NewInteger(int64(avg)), nil
		}
		return numericTerm(numeric{f: avg}), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return rdf.Term{}, errTypeError
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := compareTerms(v, best)
			if err != nil {
				c = strings.Compare(v.Value, best.Value)
			}
			if (agg.Func == "MIN" && c < 0) || (agg.Func == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SAMPLE":
		if len(vals) == 0 {
			return rdf.Term{}, errTypeError
		}
		return vals[0], nil
	case "GROUP_CONCAT":
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.Value
		}
		return rdf.NewLiteral(strings.Join(parts, agg.Separator)), nil
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown aggregate %s", agg.Func)
	}
}

// foldFixture builds a random store of n items: every item has one ex:a
// (a small pool mixing IRIs, a plain literal with and without its
// implied xsd:string, a language-tagged one with and without
// rdf:langString — each pair renders alike, so it is one group — an
// integer and its string), most have an ex:b from a pool of the same
// kind, and zero to two ex:v values mixing integers, decimals, doubles
// whose sum depends on the order of addition, and non-numeric literals.
//
// With runs set, consecutive items mostly repeat the previous item's
// ex:a and ex:b — or its twin: the other term of its pair above, or for
// ex:A0 the literal of the same value, which renders apart — and every
// item is ex:in ex:runs, the pattern runsWhere leads with, so that the
// WHERE rows meet the fold in item order, twins side by side.
func foldFixture(rng *rand.Rand, n int, runs bool) *store.Store {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	aPool := []rdf.Term{
		ex("A0"), ex("A1"), ex("A2"),
		rdf.NewLiteral("x"), {Kind: rdf.KindLiteral, Value: "x"},
		rdf.NewLangLiteral("x", "en"), {Kind: rdf.KindLiteral, Value: "x", Lang: "en"},
		rdf.NewInteger(1), rdf.NewLiteral("1"),
	}
	bPool := []rdf.Term{
		ex("B0"), ex("B1"), rdf.NewLiteral("y"), {Kind: rdf.KindLiteral, Value: "y"}, rdf.NewBlank("b0"),
	}
	twin := map[rdf.Term]rdf.Term{ex("A0"): rdf.NewLiteral("http://ex/A0"), rdf.NewLiteral("http://ex/A0"): ex("A0")}
	for _, pool := range [][]rdf.Term{aPool[3:], bPool[2:4]} {
		for i := 0; i+1 < len(pool); i += 2 {
			twin[pool[i]], twin[pool[i+1]] = pool[i+1], pool[i]
		}
	}
	// draw returns the next item's value from pool: under runs mostly
	// prev, or its twin, again.
	draw := func(pool []rdf.Term, prev rdf.Term) rdf.Term {
		if !runs || prev.IsZero() || rng.Intn(5) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		if tw, ok := twin[prev]; ok && rng.Intn(2) == 0 {
			return tw
		}
		return prev
	}
	var a, b rdf.Term
	vPool := []rdf.Term{
		rdf.NewInteger(1), rdf.NewInteger(2), rdf.NewInteger(7), rdf.NewInteger(-3),
		rdf.NewDecimal("0.1"), rdf.NewDecimal("0.2"), rdf.NewDecimal("2.5"),
		rdf.NewDouble(1e16), rdf.NewDouble(-1e16), rdf.NewDouble(0.3),
		rdf.NewLiteral("n/a"), rdf.NewTypedLiteral("7", rdf.XSDString), rdf.NewLiteral("2"),
	}
	numericOnly := rng.Intn(3) == 0 // some stores never poison a SUM
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		s := ex(fmt.Sprintf("i/%04d", i))
		if runs {
			ts = append(ts, rdf.NewTriple(s, ex("in"), ex("runs")))
		}
		a = draw(aPool, a)
		ts = append(ts, rdf.NewTriple(s, ex("a"), a))
		if rng.Intn(10) < 7 {
			b = draw(bPool, b)
			ts = append(ts, rdf.NewTriple(s, ex("b"), b))
		} else if !runs || rng.Intn(2) == 0 {
			b = rdf.Term{} // a run of unbound ?b
		}
		for k := rng.Intn(3); k > 0; k-- {
			pool := vPool
			if numericOnly {
				pool = vPool[:10]
			}
			ts = append(ts, rdf.NewTriple(s, ex("v"), pool[rng.Intn(len(pool))]))
		}
	}
	st := store.New()
	st.InsertTriples(rdf.Term{}, ts)
	return st
}

// foldQuery draws one grouped query over foldFixture's shape.
func foldQuery(rng *rand.Rand) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	var sel, keys []string
	for _, k := range []string{"?a", "?b", "(STR(?a))", "(STR(?b))", "(?v > 1)"} {
		if rng.Intn(3) != 0 {
			continue
		}
		keys = append(keys, k)
		if strings.HasPrefix(k, "?") {
			sel = append(sel, k)
		}
	}
	if len(keys) > 0 && rng.Intn(3) == 0 {
		sel = append(sel, "?s") // not a key: the representative row's value
	}
	arg := func() string { return pick("?v", "?v", "?v", "?a", "?b", "STR(?v)", "?v + 1") }
	agg := func() string {
		d := pick("", "DISTINCT ")
		switch f := pick("COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT", "COUNT*"); f {
		case "COUNT*":
			return "COUNT(" + d + "*)"
		case "GROUP_CONCAT":
			return f + "(" + d + arg() + pick("", `; SEPARATOR="|"`) + ")"
		default:
			return f + "(" + d + arg() + ")"
		}
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		e := agg()
		if rng.Intn(6) == 0 {
			e = pick("-", "!") + e
		} else if rng.Intn(6) == 0 {
			e = "COALESCE(" + e + " / " + agg() + ", ?a)"
		}
		sel = append(sel, fmt.Sprintf("(%s AS ?x%d)", e, i))
	}
	q := "SELECT " + strings.Join(sel, " ") +
		" WHERE { ?s <http://ex/a> ?a OPTIONAL { ?s <http://ex/b> ?b } OPTIONAL { ?s <http://ex/v> ?v } }"
	if len(keys) > 0 {
		q += " GROUP BY " + strings.Join(keys, " ")
	}
	switch rng.Intn(4) {
	case 0:
		// The SUM is a type error wherever the group met a non-numeric
		// ?v; the whole condition then is one, whatever COUNT says.
		q += " HAVING (SUM(?v) > 0 || COUNT(*) > 0)"
	case 1:
		q += " HAVING (" + agg() + " > 1) (COUNT(?v) >= 1)"
	}
	return q
}

// TestFoldAgainstRowAggregation is the differential test under GROUP
// BY: seeded random grouped queries — every aggregate, with and without
// DISTINCT, COUNT(*), key expressions, unbound keys, mixed numeric and
// non-numeric values, plain and xsd:string literals, HAVING whose first
// aggregate errors — over random stores must produce, at every chunk
// size, exactly the rows, order and terms the
// row-retaining reference computes from the materialized WHERE rows —
// also with every chunk the fold returns to the pipeline poisoned
// (withPoison), so that a group reading its first row where the pipeline
// left it, instead of its own copy, answers with the sentinel.
//
// The runs arm does the same over foldFixture's runs variant, whose WHERE
// rows repeat their ?a and ?b from row to row, so that the fold's memo of
// the previous row's group hits most of the time: twins that render alike
// must still land in one group, a value beside the twin that renders
// apart in two, and a memo that kept the previous row — which went back
// to the pipeline — instead of its values must fail.
func TestFoldAgainstRowAggregation(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	foldTrials(t, rand.New(rand.NewSource(20)), trials, false)
	t.Run("runs", func(t *testing.T) { foldTrials(t, rand.New(rand.NewSource(21)), trials/2, true) })
}

// runsWhere is the clause foldFixture's runs variant leads the WHERE of
// every foldQuery with: the subjects of one POS run, in item order.
const runsWhere = "WHERE { ?s <http://ex/in> <http://ex/runs> . "

// foldTrials is the body of TestFoldAgainstRowAggregation over trials
// stores, foldFixture's runs variant when runs is set. In that variant it
// also counts the WHERE rows whose ?a repeats the previous row's, and
// those whose ?a is the previous row's twin, and fails when the generator
// no longer puts either side by side.
func foldTrials(t *testing.T, rng *rand.Rand, trials int, runs bool) {
	groups, repeats, twins := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 5 + rng.Intn(120)
		if trial%20 == 0 {
			n = 1500 // more than one default-size chunk
		}
		if trial == 1 {
			n = 0 // the implicit group of an empty input
		}
		st := foldFixture(rng, n, runs)
		for k := 0; k < 8; k++ {
			src := foldQuery(rng)
			if runs {
				src = strings.Replace(src, "WHERE { ", runsWhere, 1)
			}
			q, err := ParseQuery(src)
			if err != nil {
				t.Fatalf("generated query does not parse: %v\n%s", err, src)
			}
			ref := NewEngine(st)
			r, pq := ref.newRun(context.Background(), q, nil)
			where, _ := r.streamGroup(pq.Where, &sliceSource{rows: r.seed(), chunk: ref.chunkSize}, graphCtx{}, nil, nil)
			rows, err := drainStream(r, where)
			if err != nil {
				t.Fatal(err)
			}
			want := refGrouped(r, pq, rows)
			groups += len(want)
			if a := r.vt.index["a"]; runs {
				for i := 1; i < len(rows); i++ {
					switch prev, cur := rows[i-1][a], rows[i][a]; {
					case cur == prev:
						repeats++
					case cur.Value == prev.Value:
						twins++
					}
				}
			}
			for _, poison := range []bool{false, true} {
				for _, chunk := range []int{1, 3, 1024} {
					var res *Results
					withPoison(poison, func() {
						res, err = NewEngine(st, WithChunkSize(chunk)).Select(q)
					})
					if err != nil {
						t.Fatalf("trial %d chunk=%d poison=%v: %v\n%s", trial, chunk, poison, err, src)
					}
					got := make([]solution, len(res.Rows))
					for i, row := range res.Rows {
						got[i] = row
					}
					if !sameRows(got, want) {
						t.Fatalf("trial %d (%d items) chunk=%d poison=%v: fold differs from row aggregation\n%s\ngot  %.600v\nwant %.600v",
							trial, n, chunk, poison, src, fmt.Sprint(got), fmt.Sprint(want))
					}
				}
			}
		}
	}
	if groups < trials*8 {
		t.Fatalf("only %d groups over %d queries: the generator no longer exercises grouping", groups, trials*8)
	}
	if runs && (repeats < groups || twins < trials) {
		t.Fatalf("%d WHERE rows repeat the previous row's ?a and %d are its twin, over %d groups: the generator no longer makes runs", repeats, twins, groups)
	}
}
