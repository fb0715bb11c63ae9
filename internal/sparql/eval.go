package sparql

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Engine evaluates parsed queries and updates against a store.Store.
//
// An Engine is safe for concurrent use: queries carry all per-execution
// state in a private run value, including the one store snapshot every
// scan, count and statistic of the evaluation reads (per-query snapshot
// isolation; no store lock is held while a query runs). Configuration
// (SetParallelism, SetChunkSize, WithPlanner) must be done before the
// engine is shared.
type Engine struct {
	store *store.Store

	// parallelism is the maximum number of worker goroutines one query
	// evaluation may use (see WithParallelism). Always >= 1.
	parallelism int

	// planner enables the cost-based planning pass (plan.go) on every
	// query and update entry: statistics-driven BGP join ordering plus
	// filter pushdown, applied once before evaluation. On by default;
	// with WithPlanner(false) patterns join in the written order.
	planner bool

	// tracer, when set (WithTracer), collects a per-operator trace of
	// every sampled query. Nil — the default — leaves every span hook a
	// nil check; see trace.go.
	tracer *obs.Tracer

	// sampler, when set (WithSampler), decides which queries the tracer
	// records. Nil samples everything.
	sampler *obs.Sampler

	// resources, when set (WithResources), aggregates every query's
	// in-flight materialized bytes into process-wide gauges; maxQueryMem,
	// when > 0 (WithMaxQueryMem), aborts queries whose in-flight bytes
	// exceed it with *MemLimitError. Either turns per-query resource
	// accounting on; see resource.go.
	resources   *obs.ResourceTracker
	maxQueryMem int64

	// chunkSize is the solution-chunk granularity of the pipeline
	// (stream.go): every query evaluates through chunked pull iterators
	// whose buffers hold about chunkSize rows, with cancellation, memory
	// accounting and tracing applied at chunk boundaries. Always >= 1;
	// default defaultChunkSize.
	chunkSize int
}

// defaultChunkSize is the default chunk granularity. 1024
// rows balances per-chunk kernel efficiency (large enough to engage the
// parallel operators, minParallelRows=128) against per-query buffer
// footprint (a ~1.5 KB OLAP row × 1024 ≈ 1.5 MB per pipeline stage);
// see BenchmarkChunkSize for the sweep backing the choice.
const defaultChunkSize = 1024

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithParallelism bounds the number of worker goroutines a single query
// evaluation may use for BGP joins, FILTER/OPTIONAL/UNION/MINUS
// evaluation, and GROUP BY aggregation. n <= 0 selects
// runtime.GOMAXPROCS(0), which is also the default. n == 1 runs the
// exact sequential code paths of the original engine; for n > 1 every
// parallel operator merges worker results in input order, so query
// results are identical at every parallelism level.
func WithParallelism(n int) Option {
	return func(e *Engine) { e.SetParallelism(n) }
}

// WithChunkSize sets the pipeline's chunk granularity in rows. n <= 0
// selects defaultChunkSize, which is also the default.
func WithChunkSize(n int) Option {
	return func(e *Engine) { e.SetChunkSize(n) }
}

// ChunkSize reports the pipeline's chunk granularity in rows.
func (e *Engine) ChunkSize() int { return e.chunkSize }

// SetChunkSize changes the chunk granularity (n <= 0 selects
// defaultChunkSize). It must not be called concurrently with running
// queries.
func (e *Engine) SetChunkSize(n int) {
	if n <= 0 {
		n = defaultChunkSize
	}
	e.chunkSize = n
}

// NewEngine returns an engine over st. The cost-based planner is on by
// default; pass WithPlanner(false) to disable it.
func NewEngine(st *store.Store, opts ...Option) *Engine {
	e := &Engine{store: st, parallelism: runtime.GOMAXPROCS(0), planner: true, chunkSize: defaultChunkSize}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Store returns the underlying store.
func (e *Engine) Store() *store.Store { return e.store }

// Parallelism reports the engine's worker budget per query evaluation.
func (e *Engine) Parallelism() int { return e.parallelism }

// SetParallelism changes the worker budget (n <= 0 selects
// runtime.GOMAXPROCS(0)). It must not be called concurrently with
// running queries.
func (e *Engine) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.parallelism = n
}

// Results is a SPARQL SELECT result table.
type Results struct {
	Vars []string
	Rows [][]rdf.Term // zero terms are unbound
}

// varTable assigns a dense slot to every variable of a query.
type varTable struct {
	names []string
	index map[string]int
}

func newVarTable() *varTable {
	return &varTable{index: make(map[string]int)}
}

func (vt *varTable) slot(name string) int {
	if i, ok := vt.index[name]; ok {
		return i
	}
	i := len(vt.names)
	vt.names = append(vt.names, name)
	vt.index[name] = i
	return i
}

// solution is one row of bindings, indexed by varTable slots; the zero
// term means unbound.
type solution []rdf.Term

func (s solution) clone() solution {
	c := make(solution, len(s))
	copy(c, s)
	return c
}

// graphCtx identifies the active graph during evaluation.
type graphCtx struct {
	gid store.ID // NoID = default graph
}

// run is the per-execution state.
type run struct {
	e   *Engine
	vt  *varTable
	ctx graphCtx

	// snap is the store state the whole evaluation reads, pinned when
	// the run opens: writes published later are invisible to it.
	snap *store.Snapshot

	// qctx/done arm cooperative cancellation (see context.go). done is
	// qctx.Done(); both stay nil for uncancellable evaluations, which
	// keeps every cancellation hook a single nil check. Workers share
	// them through the run-value copy.
	qctx context.Context
	done <-chan struct{}

	// planned records that the query being evaluated was rewritten by
	// the cost-based planner; BGP spans say so.
	planned bool

	// trace is the (sub)query's span: its WHERE stages and its
	// AGGREGATE/ORDER/PROJECT/DISTINCT/SLICE spans attach under it. Nil
	// (the default) disables tracing; every hook then reduces to a nil
	// check.
	trace *obs.Span

	// acct is the per-query resource account (rows/bytes materialized,
	// peak in-flight, optional budget). Nil — the default — disables
	// accounting; every hook is then a nil check. Workers share the
	// pointer through the run-value copy; QueryAcct is internally
	// atomic. ownAcct marks an account opened by this run (closeAcct
	// finishes it) as opposed to one injected via context.
	acct    *obs.QueryAcct
	ownAcct bool

	// delivered counts the result rows stream has handed to its
	// consumer — the root span's output.
	delivered int
}

// newRun pins the store's current snapshot, plans q against it
// (prepared) and opens the per-execution state: cancellation and
// accounting bound from ctx, every variable registered, spans attaching
// under root when it is non-nil. It returns the run and the query to
// evaluate; the caller defers closeAcct.
func (e *Engine) newRun(ctx context.Context, q *Query, root *obs.Span) (*run, *Query) {
	snap := e.store.Snapshot()
	q = e.prepared(q, snap)
	r := &run{e: e, vt: newVarTable(), snap: snap, trace: root, planned: q.Planned}
	r.bindContext(ctx)
	r.bindAcct(ctx, root != nil)
	collectVars(q, r.vt)
	return r, q
}

// Query evaluates a SELECT or ASK query, returning a Results table (ASK
// yields a single row with variable "ask" bound to a boolean). When the
// engine has a tracer installed, each query draws a fresh trace ID and,
// if the sampler elects it (no sampler = always), the evaluation is
// traced and collected; an unsampled query allocates no span tree.
func (e *Engine) Query(q *Query) (*Results, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryString parses and evaluates a SELECT/ASK query string.
func (e *Engine) QueryString(src string) (*Results, error) {
	return e.QueryStringContext(context.Background(), src)
}

// Select evaluates a SELECT query, untraced.
func (e *Engine) Select(q *Query) (*Results, error) {
	if q.Form != FormSelect {
		return nil, fmt.Errorf("sparql: not a SELECT query")
	}
	res, _, err := e.collect(context.Background(), q, "")
	return res, err
}

// Ask evaluates an ASK query, untraced.
func (e *Engine) Ask(q *Query) (bool, error) {
	if q.Form != FormAsk {
		return false, fmt.Errorf("sparql: not an ASK query")
	}
	res, _, err := e.collect(context.Background(), q, "")
	if err != nil {
		return false, err
	}
	return res.Rows[0][0] == rdf.NewBoolean(true), nil
}

// graph evaluates a CONSTRUCT or DESCRIBE, the two breakers whose
// output is a deduplicated graph rather than a row stream. The WHERE
// pipeline is consumed chunk by chunk, each chunk handed to the form's
// add function, which grows g; the graph's growth is charged to the
// query account after every chunk (and once more at the end, for
// triples added outside any chunk), so g is bounded by the memory
// budget like every other retained structure. The charge is sampled
// like accountNew — first new triple × count — and doubled: g holds a
// triple once as a map key and once in its ordered slice.
func (e *Engine) graph(ctx context.Context, q *Query, form QueryForm) ([]rdf.Triple, error) {
	if q.Form != form {
		return nil, fmt.Errorf("sparql: not a %s query", form)
	}
	r, q := e.newRun(ctx, q, nil)
	defer r.closeAcct()
	g := rdf.NewGraph()
	add := r.constructInto(g, q)
	if form == FormDescribe {
		add = r.describeInto(g, q)
	}
	it := r.streamGroup(q.Where, &sliceSource{rows: r.seed(), chunk: r.e.chunkSize}, graphCtx{}, nil)
	defer it.close()
	for mark := 0; ; {
		chunk, err := it.next()
		if err != nil {
			return nil, err
		}
		add(chunk)
		if ts := g.Triples(); r.acct != nil && len(ts) > mark {
			t := ts[mark]
			r.acct.Materialize(0, 2*approxRowBytes([]rdf.Term{t.S, t.P, t.O})*int64(len(ts)-mark))
			mark = len(ts)
		}
		if r.overMem() {
			return nil, r.memErr()
		}
		if chunk == nil {
			return g.Triples(), nil
		}
	}
}

// Construct evaluates a CONSTRUCT query and returns the instantiated,
// deduplicated triples.
func (e *Engine) Construct(q *Query) ([]rdf.Triple, error) {
	return e.ConstructContext(context.Background(), q)
}

// ConstructContext is Construct under a context (see QueryContext for
// the cancellation semantics).
func (e *Engine) ConstructContext(ctx context.Context, q *Query) ([]rdf.Triple, error) {
	return e.graph(ctx, q, FormConstruct)
}

// constructInto returns the add function that instantiates q's template
// into g under every row of a chunk.
func (r *run) constructInto(g *rdf.Graph, q *Query) func(chunk []solution) {
	return func(chunk []solution) {
		for _, row := range chunk {
			for _, tp := range q.Template {
				s, okS := r.resolve(tp.S, row)
				p, okP := r.resolve(tp.P, row)
				o, okO := r.resolve(tp.O, row)
				if !okS || !okP || !okO {
					continue
				}
				if t := rdf.NewTriple(s, p, o); t.Valid() {
					g.Add(t)
				}
			}
		}
	}
}

// resolve substitutes a pattern term under a row.
func (r *run) resolve(pt PatternTerm, row solution) (rdf.Term, bool) {
	if !pt.IsVar {
		return pt.Term, true
	}
	idx, ok := r.vt.index[pt.Var]
	if !ok {
		return rdf.Term{}, false
	}
	t := row[idx]
	return t, !t.IsZero()
}

func projectionHasAggregates(q *Query) bool {
	for _, it := range q.Projection {
		if it.Expr != nil && exprHasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expression) bool {
	switch x := e.(type) {
	case ExprAggregate:
		return true
	case ExprBinary:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case ExprNot:
		return exprHasAggregate(x.X)
	case ExprNeg:
		return exprHasAggregate(x.X)
	case ExprCall:
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case ExprIn:
		if exprHasAggregate(x.X) {
			return true
		}
		for _, a := range x.List {
			if exprHasAggregate(a) {
				return true
			}
		}
	}
	return false
}

// selectVars is the projection header of an ungrouped SELECT: sorted
// visible variables for SELECT *, the projection list otherwise.
func (r *run) selectVars(q *Query) []string {
	var vars []string
	if q.Star {
		for _, n := range r.vt.names {
			if !strings.HasPrefix(n, "_") { // hide internal blank-node vars
				vars = append(vars, n)
			}
		}
		sort.Strings(vars)
	} else {
		for _, it := range q.Projection {
			vars = append(vars, it.Var)
		}
	}
	return vars
}

// groupKey renders group-by expression values into a comparable key.
func (r *run) groupKey(exprs []Expression, row solution) (string, []rdf.Term) {
	vals := make([]rdf.Term, len(exprs))
	var b strings.Builder
	for i, e := range exprs {
		v, err := r.evalExpr(e, row)
		if err == nil {
			vals[i] = v
		}
		b.WriteString(vals[i].String())
		b.WriteByte('\x00')
	}
	return b.String(), vals
}

// aggGroup is one GROUP BY bucket: the rendered key values and the
// member rows in input order.
type aggGroup struct {
	keyVals []rdf.Term
	rows    []solution
}

// accumulateGroups hash-partitions rows by the group-by expressions,
// preserving first-occurrence order of the keys and input order of the
// rows within each group.
func (r *run) accumulateGroups(exprs []Expression, rows []solution) ([]string, map[string]*aggGroup) {
	order := []string{}
	groups := map[string]*aggGroup{}
	mark := 0
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 {
			if r.cancelled() || r.overMem() {
				break // aggregateRows checks and errors out
			}
			mark = accountKept(r, rows[:ri], mark)
		}
		k, vals := r.groupKey(exprs, row)
		g, ok := groups[k]
		if !ok {
			g = &aggGroup{keyVals: vals}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, row)
	}
	return order, groups
}

// groupRow evaluates HAVING and the projection for one group, reporting
// whether the group survives. For HAVING/ORDER BY on grouped results we
// evaluate against a representative row (the first of the group, or an
// empty row).
func (r *run) groupRow(q *Query, g *aggGroup) ([]rdf.Term, bool) {
	rep := make(solution, len(r.vt.names))
	if len(g.rows) > 0 {
		rep = g.rows[0]
	}
	for _, h := range q.Having {
		v, err := r.evalAggExpr(h, g.rows, rep)
		if err != nil {
			return nil, false
		}
		b, err := ebv(v)
		if err != nil || !b {
			return nil, false
		}
	}
	orow := make([]rdf.Term, len(q.Projection))
	for i, it := range q.Projection {
		if it.Expr == nil {
			if idx, ok := r.vt.index[it.Var]; ok && len(g.rows) > 0 {
				orow[i] = rep[idx]
			}
			continue
		}
		if v, err := r.evalAggExpr(it.Expr, g.rows, rep); err == nil {
			orow[i] = v
		}
	}
	return orow, true
}

// orderSpan runs one ORDER BY sort under its span and reports a
// cancellation the (short-circuited) sort observed.
func (r *run) orderSpan(n int, sort func()) error {
	sp := r.trace.StartChild("ORDER", "", n)
	sp.SetEst(int64(n))
	sort()
	sp.Finish(n, 1)
	if r.cancelled() {
		return r.cancelErr()
	}
	return nil
}

// aggregateRows is the aggregation breaker: it groups the drained WHERE
// rows, evaluates HAVING and the aggregate projection per group, and
// applies ORDER BY over the projected rows, returning the header and
// the group rows for the DISTINCT/SLICE stages.
func (r *run) aggregateRows(q *Query, rows []solution) ([]string, []solution, error) {
	in := len(rows)
	sp := r.trace.StartChild("AGGREGATE", "", in)
	sp.SetEst(estimateGroups(in))
	order, groups := r.accumulateGroupsPar(q.GroupBy, rows)
	if r.cancelled() {
		return nil, nil, r.cancelErr()
	}
	if r.overMem() {
		return nil, nil, r.memErr()
	}
	// A grouped query with no GROUP BY clause (implicit grouping, e.g.
	// SELECT (COUNT(*) AS ?n)) forms a single group even when empty.
	if len(q.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &aggGroup{}
		order = append(order, "")
	}

	var vars []string
	for _, it := range q.Projection {
		vars = append(vars, it.Var)
	}
	out := r.groupRowsPar(q, order, groups)
	if r.cancelled() {
		return nil, nil, r.cancelErr()
	}
	if accountNew(r, out); r.overMem() {
		return nil, nil, r.memErr()
	}
	if sp != nil {
		sp.Detail = fmt.Sprintf("%d groups", len(order))
		sp.Finish(len(out), r.workersFor(in))
	}

	if len(q.OrderBy) > 0 {
		if err := r.orderSpan(len(out), func() { r.sortProjected(vars, out, q.OrderBy) }); err != nil {
			return nil, nil, err
		}
	}
	return vars, out, nil
}

// evalAggExpr evaluates an expression that may contain aggregates over
// the rows of one group; non-aggregate parts use the representative
// row.
func (r *run) evalAggExpr(e Expression, groupRows []solution, rep solution) (rdf.Term, error) {
	switch x := e.(type) {
	case ExprAggregate:
		return r.evalAggregate(x, groupRows)
	case ExprBinary:
		l, err := r.evalAggExpr(x.L, groupRows, rep)
		if err != nil {
			return rdf.Term{}, err
		}
		rv, err := r.evalAggExpr(x.R, groupRows, rep)
		if err != nil {
			return rdf.Term{}, err
		}
		return r.evalBinary(ExprBinary{Op: x.Op, L: ExprConst{l}, R: ExprConst{rv}}, rep)
	case ExprNot:
		inner, err := r.evalAggExpr(x.X, groupRows, rep)
		if err != nil {
			return rdf.Term{}, err
		}
		return r.evalExpr(ExprNot{X: ExprConst{inner}}, rep)
	case ExprNeg:
		inner, err := r.evalAggExpr(x.X, groupRows, rep)
		if err != nil {
			return rdf.Term{}, err
		}
		return r.evalExpr(ExprNeg{X: ExprConst{inner}}, rep)
	case ExprCall:
		args := make([]Expression, len(x.Args))
		for i, a := range x.Args {
			v, err := r.evalAggExpr(a, groupRows, rep)
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

func (r *run) evalAggregate(agg ExprAggregate, rows []solution) (rdf.Term, error) {
	if agg.Star { // COUNT(*) — the parser admits * nowhere else — counts solutions, not values
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
	// Collect argument values (skipping evaluation errors per spec).
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

func addNumeric(a, b numeric) numeric {
	if a.isInt && b.isInt {
		return numeric{isInt: true, i: a.i + b.i}
	}
	return numeric{f: a.asFloat() + b.asFloat()}
}

// sortRows orders full solutions by the given conditions. On
// cancellation the comparator degrades to a constant, so the sort
// drains in cheap comparisons and the caller's next cancellation check
// discards the (arbitrarily ordered) rows.
func (r *run) sortRows(rows []solution, conds []OrderCondition) {
	short := r.sortShortCircuit()
	sort.SliceStable(rows, func(i, j int) bool {
		if short() {
			return false
		}
		for _, c := range conds {
			vi, ei := r.evalExpr(c.Expr, rows[i])
			vj, ej := r.evalExpr(c.Expr, rows[j])
			cmp := orderCompare(vi, ei, vj, ej)
			if cmp == 0 {
				continue
			}
			if c.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

// sortProjected orders already-projected rows under the header vars;
// order expressions may reference projected variables only.
func (r *run) sortProjected(vars []string, rows []solution, conds []OrderCondition) {
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	lookup := func(e Expression, row solution) (rdf.Term, error) {
		v, ok := e.(ExprVar)
		if !ok {
			return rdf.Term{}, errTypeError
		}
		i, ok := idx[v.Name]
		if !ok {
			return rdf.Term{}, errUnbound
		}
		return row[i], nil
	}
	short := r.sortShortCircuit()
	sort.SliceStable(rows, func(i, j int) bool {
		if short() {
			return false
		}
		for _, c := range conds {
			vi, ei := lookup(c.Expr, rows[i])
			vj, ej := lookup(c.Expr, rows[j])
			cmp := orderCompare(vi, ei, vj, ej)
			if cmp == 0 {
				continue
			}
			if c.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

// orderCompare implements the SPARQL total order for ORDER BY: errors
// and unbound sort lowest, then by term order with numeric awareness.
func orderCompare(a rdf.Term, ea error, b rdf.Term, eb error) int {
	if ea != nil && eb != nil {
		return 0
	}
	if ea != nil {
		return -1
	}
	if eb != nil {
		return 1
	}
	if c, err := compareTerms(a, b); err == nil {
		return c
	}
	return a.Compare(b)
}

// Describe evaluates a DESCRIBE query: for each target resource (given
// directly or bound by the WHERE pattern) it returns the one-hop
// description — every triple with the resource as subject or object.
func (e *Engine) Describe(q *Query) ([]rdf.Triple, error) {
	return e.DescribeContext(context.Background(), q)
}

// DescribeContext is Describe under a context (see QueryContext for the
// cancellation semantics).
func (e *Engine) DescribeContext(ctx context.Context, q *Query) ([]rdf.Triple, error) {
	return e.graph(ctx, q, FormDescribe)
}

// describeInto describes q's constant targets into g at once and
// returns the add function that describes each variable target when the
// WHERE pipeline first binds it, so the graph grows chunk by chunk.
func (r *run) describeInto(g *rdf.Graph, q *Query) func(chunk []solution) {
	described := make(map[rdf.Term]struct{})
	describe := func(t rdf.Term) {
		if _, ok := described[t]; ok || t.IsZero() {
			return
		}
		described[t] = struct{}{}
		for _, tr := range r.snap.MatchAll(rdf.Term{}, t, rdf.Term{}, rdf.Term{}) {
			g.Add(tr)
		}
		for _, tr := range r.snap.MatchAll(rdf.Term{}, rdf.Term{}, rdf.Term{}, t) {
			g.Add(tr)
		}
	}
	var slots []int
	for _, d := range q.Describe {
		if d.IsVar {
			slots = append(slots, r.vt.slot(d.Var))
		} else {
			describe(d.Term)
		}
	}
	return func(chunk []solution) {
		for _, row := range chunk {
			for _, idx := range slots {
				describe(row[idx])
			}
		}
	}
}
